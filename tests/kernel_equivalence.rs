//! Differential property suite for the flat similarity kernels.
//!
//! The hot path (`storypivot_types::kernel`) re-implements the sparse
//! similarity measures as branch-light merges over raw entry slices,
//! with cosine fed by the cached per-vector norm. These tests pit every
//! kernel against an independently written naive reference (per-key
//! lookups over a sorted key union, full-pass norms) across random
//! vectors — including the shapes that break merge loops: empty,
//! disjoint, single-entry, and heavily-overlapping — and require
//! agreement to 1e-12. A second group proves the `merge_add` in-place
//! fast paths (append, subset, backward merge) leave the entry list and
//! the cached norm bit-identical to a from-scratch rebuild. A third
//! holds the key signature to its two promises: it equals a recompute
//! from the entries after any chain of mutations and a codec round trip,
//! and the similarity methods it guards return what the unguarded
//! kernels return, to the bit. A fourth holds the probe tables
//! (`kernel::ProbeTable`) to the merge and the naive reference, to the
//! bit, through growth, the fallback past the slot cap, extreme weights
//! and ten thousand binds of one table. A fifth holds the tables' cosine
//! and weighted-Jaccard bounds (`BoundProbe::bounds`) above the cosine
//! and the weighted Jaccard wherever identification would skip on them.

use std::collections::BTreeSet;

use storypivot::substrate::prop;
use storypivot::substrate::rng::{RngExt, StdRng};
use storypivot::store::codec::{decode_snippet, encode_snippet};
use storypivot::types::kernel;
use storypivot::types::sparse::SparseVec;
use storypivot::types::{EntityId, Snippet, SnippetId, SourceId, TermId, Timestamp};

// ---- naive references -------------------------------------------------
//
// Deliberately structured differently from the kernels: iterate the
// sorted union of keys and look each key up on both sides.

fn get(v: &[(u32, f32)], key: u32) -> Option<f32> {
    v.iter().find(|&&(k, _)| k == key).map(|&(_, w)| w)
}

fn key_union(a: &[(u32, f32)], b: &[(u32, f32)]) -> BTreeSet<u32> {
    a.iter().map(|&(k, _)| k).chain(b.iter().map(|&(k, _)| k)).collect()
}

fn naive_dot(a: &[(u32, f32)], b: &[(u32, f32)]) -> f64 {
    key_union(a, b)
        .into_iter()
        .filter_map(|k| Some(get(a, k)? as f64 * get(b, k)? as f64))
        .fold(0.0, |acc, p| acc + p)
}

fn naive_norm(a: &[(u32, f32)]) -> f64 {
    a.iter().map(|&(_, w)| (w as f64).powi(2)).sum::<f64>().sqrt()
}

fn naive_cosine(a: &[(u32, f32)], b: &[(u32, f32)]) -> f64 {
    let (na, nb) = (naive_norm(a), naive_norm(b));
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        (naive_dot(a, b) / (na * nb)).clamp(0.0, 1.0)
    }
}

fn naive_jaccard(a: &[(u32, f32)], b: &[(u32, f32)]) -> f64 {
    let ka: BTreeSet<u32> = a.iter().map(|&(k, _)| k).collect();
    let kb: BTreeSet<u32> = b.iter().map(|&(k, _)| k).collect();
    let inter = ka.intersection(&kb).count();
    let union = ka.union(&kb).count();
    if union == 0 {
        0.0
    } else {
        inter as f64 / union as f64
    }
}

fn naive_weighted_jaccard(a: &[(u32, f32)], b: &[(u32, f32)]) -> f64 {
    let (mut num, mut den) = (0f64, 0f64);
    for k in key_union(a, b) {
        let wa = get(a, k).unwrap_or(0.0) as f64;
        let wb = get(b, k).unwrap_or(0.0) as f64;
        num += wa.min(wb);
        den += wa.max(wb);
    }
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

// ---- generators -------------------------------------------------------

fn arb_vec(rng: &mut StdRng, max_len: usize, key_space: u32) -> SparseVec<u32> {
    let pairs = prop::vec_with(rng, 0, max_len, |r| {
        (r.random_range(0..key_space), r.random_range(0.01f32..10.0))
    });
    SparseVec::from_pairs(pairs)
}

/// The shapes the suite must cover, cycled per case: generic sparse,
/// heavily-overlapping (tiny key space), disjoint (even vs. odd keys),
/// single-entry, and empty-on-one-side.
fn arb_pair(rng: &mut StdRng, case: u32) -> (SparseVec<u32>, SparseVec<u32>) {
    match case % 5 {
        0 => (arb_vec(rng, 40, 10_000), arb_vec(rng, 40, 10_000)),
        1 => (arb_vec(rng, 40, 12), arb_vec(rng, 40, 12)),
        2 => {
            let a = prop::vec_with(rng, 1, 30, |r| {
                (2 * r.random_range(0..500u32), r.random_range(0.01f32..10.0))
            });
            let b = prop::vec_with(rng, 1, 30, |r| {
                (2 * r.random_range(0..500u32) + 1, r.random_range(0.01f32..10.0))
            });
            (SparseVec::from_pairs(a), SparseVec::from_pairs(b))
        }
        3 => (arb_vec(rng, 1, 4), arb_vec(rng, 1, 4)),
        _ => {
            let v = arb_vec(rng, 40, 100);
            if case.is_multiple_of(2) {
                (SparseVec::new(), v)
            } else {
                (v, SparseVec::new())
            }
        }
    }
}

// ---- kernel vs. reference ---------------------------------------------

#[test]
fn kernels_agree_with_naive_references() {
    let mut case = 0u32;
    prop::run(1000, |rng| {
        let (a, b) = arb_pair(rng, case);
        case += 1;
        let (sa, sb) = (a.as_slice(), b.as_slice());

        let d = kernel::dot(sa, sb);
        assert!((d - naive_dot(sa, sb)).abs() < 1e-12, "dot {sa:?} {sb:?}");

        let n = kernel::norm(sa);
        assert!((n - naive_norm(sa)).abs() < 1e-12, "norm {sa:?}");

        let c = kernel::cosine(sa, a.norm(), sb, b.norm());
        assert!((c - naive_cosine(sa, sb)).abs() < 1e-12, "cosine {sa:?} {sb:?}");

        let j = kernel::jaccard(sa, sb);
        assert!((j - naive_jaccard(sa, sb)).abs() < 1e-12, "jaccard {sa:?} {sb:?}");

        let wj = kernel::weighted_jaccard(sa, sb);
        assert!(
            (wj - naive_weighted_jaccard(sa, sb)).abs() < 1e-12,
            "weighted_jaccard {sa:?} {sb:?}"
        );
    });
}

/// The `SparseVec` methods — `cosine` and `weighted_jaccard` behind the
/// signature guard — against the unguarded slice kernels, bit for bit.
fn assert_methods_equal_kernels(a: &SparseVec<u32>, b: &SparseVec<u32>) {
    assert_eq!(a.dot(b).to_bits(), kernel::dot(a.as_slice(), b.as_slice()).to_bits());
    assert_eq!(
        a.cosine(b).to_bits(),
        kernel::cosine(a.as_slice(), a.norm(), b.as_slice(), b.norm()).to_bits(),
        "cosine {a:?} {b:?}"
    );
    assert_eq!(
        a.jaccard(b).to_bits(),
        kernel::jaccard(a.as_slice(), b.as_slice()).to_bits()
    );
    assert_eq!(
        a.weighted_jaccard(b).to_bits(),
        kernel::weighted_jaccard(a.as_slice(), b.as_slice()).to_bits(),
        "weighted_jaccard {a:?} {b:?}"
    );
}

#[test]
fn sparse_vec_methods_delegate_to_kernels() {
    let mut case = 0u32;
    prop::run(300, |rng| {
        let (a, b) = arb_pair(rng, case);
        case += 1;
        assert_methods_equal_kernels(&a, &b);
        assert_methods_equal_kernels(&b, &a);
    });
}

#[test]
fn signature_guard_is_exact_on_the_edge_cases() {
    let sv = |pairs: &[(u32, f32)]| SparseVec::from_pairs(pairs.to_vec());
    let empty = SparseVec::<u32>::new();
    let some = sv(&[(3, 1.5), (9, 0.25)]);
    // An overflowed norm: against the empty vector the norm product is
    // inf · 0 = NaN, and the answer is still "0 when either is empty".
    let huge = sv(&[(4, f32::MAX), (5, f32::INFINITY)]);
    assert_eq!(huge.norm(), f64::INFINITY);
    for (a, b) in [(&empty, &empty), (&empty, &some), (&empty, &huge), (&some, &huge)] {
        assert_methods_equal_kernels(a, b);
        assert_methods_equal_kernels(b, a);
        assert_eq!(a.cosine(b).to_bits(), 0f64.to_bits());
        assert_eq!(a.weighted_jaccard(b).to_bits(), 0f64.to_bits());
    }

    // Two distinct keys on one signature bit: the filter must say
    // "maybe", and the merge behind it must still see the shared key.
    let k1 = 1u32;
    let k2 = (2..).find(|&k| kernel::key_bit(k) == kernel::key_bit(k1)).unwrap();
    let (a, b) = (sv(&[(k1, 2.0)]), sv(&[(k2, 3.0)]));
    assert_eq!(a.sig(), b.sig());
    assert_methods_equal_kernels(&a, &b);
    assert_eq!(a.cosine(&b), 0.0, "colliding keys are still different keys");
    let both = sv(&[(k1, 2.0), (k2, 1.0)]);
    assert_eq!(both.sig(), b.sig(), "one bit for both keys");
    assert_methods_equal_kernels(&both, &b);
    assert!(both.cosine(&b) > 0.0 && both.weighted_jaccard(&b) > 0.0);
}

#[test]
fn cosine_batch_matches_pairwise_cosine() {
    prop::run(200, |rng| {
        let probe = arb_vec(rng, 30, 50);
        let n = rng.random_range(0..8usize);
        let cands: Vec<SparseVec<u32>> = (0..n).map(|_| arb_vec(rng, 30, 50)).collect();
        let mut out = Vec::new();
        kernel::cosine_batch(
            probe.as_slice(),
            probe.norm(),
            cands.iter().map(|c| (c.as_slice(), c.norm())),
            &mut out,
        );
        assert_eq!(out.len(), cands.len());
        for (score, c) in out.iter().zip(&cands) {
            assert_eq!(score.to_bits(), probe.cosine(c).to_bits());
        }
    });
}

// ---- merge_add fast paths vs. from-scratch rebuild ---------------------

/// Rebuild `a + b` from raw pairs and demand bit-identical entries *and*
/// bit-identical cached norm, whatever fast path `merge_add` picked.
fn assert_merge_matches_rebuild(a: &SparseVec<u32>, b: &SparseVec<u32>) {
    let mut merged = a.clone();
    merged.merge_add(b);
    let mut all: Vec<(u32, f32)> = a.as_slice().to_vec();
    all.extend_from_slice(b.as_slice());
    let rebuilt = SparseVec::from_pairs(all);
    assert_eq!(merged.as_slice(), rebuilt.as_slice(), "a={a:?} b={b:?}");
    assert_eq!(
        merged.norm().to_bits(),
        rebuilt.norm().to_bits(),
        "cached norm drifted: a={a:?} b={b:?}"
    );
}

#[test]
fn merge_add_matches_from_scratch_rebuild() {
    let mut case = 0u32;
    prop::run(1000, |rng| {
        let (a, b) = arb_pair(rng, case);
        case += 1;
        assert_merge_matches_rebuild(&a, &b);
    });
}

#[test]
fn merge_add_subset_path_matches_rebuild() {
    prop::run(300, |rng| {
        let a = arb_vec(rng, 30, 60);
        if a.is_empty() {
            return;
        }
        // b's keys are a subset of a's keys.
        let keys: Vec<u32> = a.keys().collect();
        let b_pairs = prop::vec_with(rng, 1, keys.len(), |r| {
            (keys[r.random_range(0..keys.len())], r.random_range(0.01f32..10.0))
        });
        assert_merge_matches_rebuild(&a, &SparseVec::from_pairs(b_pairs));
    });
}

#[test]
fn merge_add_append_path_matches_rebuild() {
    prop::run(300, |rng| {
        let a = arb_vec(rng, 30, 100);
        // b's keys all sort after a's keys.
        let b_pairs = prop::vec_with(rng, 1, 30, |r| {
            (100 + r.random_range(0..100u32), r.random_range(0.01f32..10.0))
        });
        assert_merge_matches_rebuild(&a, &SparseVec::from_pairs(b_pairs));
    });
}

#[test]
fn merge_add_chain_keeps_norm_fresh() {
    // A long accumulation chain (the story-centroid usage pattern) must
    // keep the cached norm equal to a recomputation at every step.
    prop::run(100, |rng| {
        let mut acc: SparseVec<u32> = SparseVec::new();
        for _ in 0..12 {
            let v = arb_vec(rng, 10, 40);
            acc.merge_add(&v);
            assert_eq!(acc.norm().to_bits(), kernel::norm(acc.as_slice()).to_bits());
        }
    });
}

// ---- the key signature --------------------------------------------------

fn assert_sig_fresh(v: &SparseVec<u32>, after: &str) {
    assert_eq!(v.sig(), kernel::sig(v.as_slice()), "stale signature after {after}: {v:?}");
}

#[test]
fn signature_stays_fresh_through_every_mutation_and_the_codec() {
    prop::run(200, |rng| {
        let mut acc = arb_vec(rng, 10, 80);
        assert_sig_fresh(&acc, "from_pairs");
        for _ in 0..24 {
            match rng.random_range(0..5u32) {
                // Backward merge (interleaved keys), or into an empty vector.
                0 | 1 => {
                    acc.merge_add(&arb_vec(rng, 10, 80));
                    assert_sig_fresh(&acc, "merge_add");
                }
                // Append path: every key sorts after the accumulator's.
                2 => {
                    let tail = prop::vec_with(rng, 1, 6, |r| {
                        (80 + r.random_range(0..40u32), r.random_range(0.01f32..10.0))
                    });
                    acc.merge_add(&SparseVec::from_pairs(tail));
                    assert_sig_fresh(&acc, "merge_add (append)");
                }
                // Subset path: only keys the accumulator already has.
                3 => {
                    let keys: Vec<u32> = acc.keys().collect();
                    if !keys.is_empty() {
                        let sub = prop::vec_with(rng, 1, keys.len(), |r| {
                            (keys[r.random_range(0..keys.len())], r.random_range(0.01f32..10.0))
                        });
                        acc.merge_add(&SparseVec::from_pairs(sub));
                        assert_sig_fresh(&acc, "merge_add (subset)");
                    }
                }
                _ => {
                    if rng.random_range(0..4u32) == 0 {
                        acc.clear();
                        assert_sig_fresh(&acc, "clear");
                    }
                }
            }
        }

        // The signature is not on the wire: decoding rebuilds it.
        let mut b = Snippet::builder(SnippetId::new(0), SourceId::new(0), Timestamp::EPOCH);
        for (k, w) in acc.iter() {
            b = b.entity(EntityId::new(k), w).term(TermId::new(k + 1), w);
        }
        let snippet = b.build();
        let mut buf = Vec::new();
        encode_snippet(&mut buf, &snippet);
        let decoded = decode_snippet(&mut &buf[..]).unwrap();
        assert_eq!(decoded.entities().sig(), acc.sig());
        assert_eq!(decoded.entities().sig(), kernel::sig(decoded.entities().as_slice()));
        assert_eq!(decoded.terms().sig(), kernel::sig(decoded.terms().as_slice()));
    });
}

// ---- probe tables vs. the merge -------------------------------------------

/// The inverse of `kernel::key_hash`'s odd multiplier modulo 2³², so a
/// test can pick a hash and derive the key that has it.
fn hash_inverse() -> u32 {
    let c = kernel::key_hash(1u32);
    // Newton's step doubles the correct low bits; an odd `c` is its own
    // inverse to three bits.
    let mut x = c;
    for _ in 0..5 {
        x = x.wrapping_mul(2u32.wrapping_sub(c.wrapping_mul(x)));
    }
    assert_eq!(c.wrapping_mul(x), 1);
    x
}

/// A positive weight, now and then an extreme one: `f32::MAX`, `∞` or a
/// subnormal.
fn arb_weight(rng: &mut StdRng) -> f32 {
    match rng.random_range(0..16u32) {
        0 => f32::MAX,
        1 => f32::INFINITY,
        2 => f32::from_bits(rng.random_range(1..0x0080_0000u32)),
        _ => rng.random_range(0.01f32..10.0),
    }
}

/// Keys of one of four kinds: from a small space (0 included), from all
/// of `u32` with `0` and `u32::MAX` thrown in, sharing the top 4–13
/// bits of their hash (so a bind must grow the table, and past 12 bits
/// cannot fit it), or more than a quarter of the cap's worth of them.
fn arb_keys(rng: &mut StdRng, kind: u32, inverse: u32) -> Vec<u32> {
    match kind {
        0 => prop::vec_with(rng, 0, 24, |r| r.random_range(0..64u32)),
        1 => {
            let mut keys = prop::vec_with(rng, 0, 24, |r| r.random::<u32>());
            keys.extend(
                [0, u32::MAX]
                    .into_iter()
                    .filter(|_| rng.random_range(0..2u32) == 0),
            );
            keys
        }
        2 => {
            let bits = rng.random_range(4..=13u32);
            let prefix = rng.random::<u32>() >> (32 - bits) << (32 - bits);
            prop::vec_with(rng, 2, 24, |r| {
                let hash = prefix | r.random::<u32>() >> bits;
                let key = hash.wrapping_mul(inverse);
                assert_eq!(kernel::key_hash(key), hash);
                key
            })
        }
        _ => {
            let n = kernel::MAX_SLOTS / 4 + rng.random_range(1..64usize);
            (0..n).map(|_| rng.random::<u32>()).collect()
        }
    }
}

fn weighted(rng: &mut StdRng, keys: impl IntoIterator<Item = u32>) -> SparseVec<u32> {
    SparseVec::from_pairs(keys.into_iter().map(|k| (k, arb_weight(rng))).collect())
}

/// Whether a table of at most `MAX_SLOTS` slots can hold `probe`: few
/// enough keys, and no two hashes alike in the top 12 bits.
fn fits_under_the_cap(probe: &SparseVec<u32>) -> bool {
    let cap_bits = kernel::MAX_SLOTS.trailing_zeros();
    let slots: BTreeSet<u32> = probe
        .keys()
        .map(|k| kernel::key_hash(k) >> (32 - cap_bits))
        .collect();
    4 * probe.len() <= kernel::MAX_SLOTS && slots.len() == probe.len()
}

/// The table's cosine and dot against the merge's, by bits, both behind
/// the signature guard (`SparseVec::cosine_table`) and without it (the
/// slice kernels walk the table for every candidate, disjoint or not);
/// and the merge against the naive reference, by bits, where that is
/// cheap.
fn assert_table_is_the_merge(
    bound: &kernel::BoundProbe<'_, u32>,
    probe: &SparseVec<u32>,
    other: &SparseVec<u32>,
) {
    let (p, o) = (probe.as_slice(), other.as_slice());
    let merge = probe.cosine(other);
    assert_eq!(
        probe.cosine_table(bound, other).to_bits(),
        merge.to_bits(),
        "{p:?} · {o:?}"
    );
    assert_eq!(
        kernel::cosine_table(bound, probe.norm(), o, other.norm()).to_bits(),
        kernel::cosine(p, probe.norm(), o, other.norm()).to_bits(),
        "unguarded: {p:?} · {o:?}"
    );
    assert_eq!(
        kernel::dot_table(bound, o).to_bits(),
        kernel::dot(p, o).to_bits(),
        "{p:?} · {o:?}"
    );
    if p.len() <= 64 {
        assert_eq!(
            merge.to_bits(),
            naive_cosine(p, o).to_bits(),
            "naive: {p:?} · {o:?}"
        );
    }
}

#[test]
fn probe_table_cosine_is_the_merge_bit_for_bit() {
    let inverse = hash_inverse();
    // One table for every bind, as an engine holds it.
    let mut table = kernel::ProbeTable::default();
    let mut binds = 0usize;
    let mut fell_back = 0usize;
    prop::run(1_250, |rng| {
        for _ in 0..8 {
            let kind = match rng.random_range(0..64u32) {
                0 => 3,
                r => r % 3,
            };
            let keys = arb_keys(rng, kind, inverse);
            let probe = weighted(rng, keys);
            // Candidates: some of the probe's keys plus fresh keys of the
            // same kind, the probe itself, and nothing at all.
            let mut others = vec![probe.clone(), SparseVec::new()];
            for _ in 0..4 {
                let shared: Vec<u32> = probe
                    .keys()
                    .filter(|_| rng.random_range(0..3u32) == 0)
                    .collect();
                let fresh = arb_keys(rng, kind.min(2), inverse);
                others.push(weighted(rng, shared.into_iter().chain(fresh)));
            }

            let before = table.capacity();
            let bound = table.bind(probe.as_slice());
            assert_eq!(bound.in_table(), fits_under_the_cap(&probe), "{probe:?}");
            fell_back += usize::from(!bound.in_table());
            for other in &others {
                assert_table_is_the_merge(&bound, &probe, other);
            }
            drop(bound);
            binds += 1;
            assert!(table.is_vacant(), "an unbind left a slot behind: {probe:?}");
            assert!(table.capacity() >= before, "the table shrank");
            assert!(table.capacity() <= kernel::MAX_SLOTS);
        }
    });
    if std::env::var(prop::REPLAY_ENV).is_err() {
        assert!(binds >= 10_000, "{binds} binds");
        assert!(
            fell_back > 0 && fell_back < binds / 2,
            "{fell_back} of {binds} binds fell back"
        );
        assert_eq!(
            table.capacity(),
            kernel::MAX_SLOTS,
            "colliding probes grow it to the cap"
        );
    }
}

// ---- the cosine bound ---------------------------------------------------------

/// What identification adds to a story's bound before skipping on it
/// (`SLACK` in `crates/core/src/identify.rs`).
const SLACK: f64 = 1e-9;

/// Whether identification would trust the bound for this pair: a finite
/// bound, a probe norm that is finite and positive, and an other side
/// whose norm (a fold's: at most its members' norms summed) is under
/// `f32::MAX / 2`.
fn skippable(bound: f64, probe: &SparseVec<u32>, other: &SparseVec<u32>) -> bool {
    bound.is_finite()
        && probe.norm().is_finite()
        && probe.norm() > 0.0
        && other.norm() < f32::MAX as f64 / 2.0
}

/// Like `weighted`, but half the time with no `f32::MAX` or `∞` among
/// the weights (subnormals stay), so most pairs are ones the bound is
/// trusted on.
fn bound_weighted(rng: &mut StdRng, keys: impl IntoIterator<Item = u32>) -> SparseVec<u32> {
    let extreme = rng.random_range(0..2u32) == 0;
    SparseVec::from_pairs(
        keys.into_iter()
            .map(|k| {
                let w = arb_weight(rng);
                (k, if extreme || w < 16.0 { w } else { 1.0 })
            })
            .collect(),
    )
}

#[test]
fn cosine_bound_holds_wherever_it_is_trusted() {
    let inverse = hash_inverse();
    let mut table = kernel::ProbeTable::default();
    let (mut pairs, mut trusted, mut below_one, mut infinite) = (0usize, 0usize, 0usize, 0usize);
    prop::run(1_000, |rng| {
        // Keys from a small space, from all of `u32`, or sharing the top
        // 4–13 bits of their hash — from 6 bits on, one signature bit.
        let kind = rng.random_range(0..3u32);
        let probe = match rng.random_range(0..8u32) {
            0 => SparseVec::new(),
            _ => {
                let keys = arb_keys(rng, kind, inverse);
                bound_weighted(rng, keys)
            }
        };
        let bound = table.bind(probe.as_slice());
        for _ in 0..10 {
            let other = match rng.random_range(0..8u32) {
                0 => SparseVec::new(),
                1 => probe.clone(),
                _ => {
                    let shared: Vec<u32> = probe
                        .keys()
                        .filter(|_| rng.random_range(0..3u32) == 0)
                        .collect();
                    let fresh = arb_keys(rng, kind, inverse);
                    bound_weighted(rng, shared.into_iter().chain(fresh))
                }
            };
            pairs += 1;
            let ub = bound.cosine_bound(other.sig());
            let cosine = probe.cosine_table(&bound, &other);
            let has_inf = probe.iter().chain(other.iter()).any(|(_, w)| w.is_infinite());
            infinite += usize::from(has_inf);
            if !skippable(ub, &probe, &other) {
                continue;
            }
            assert!(!has_inf, "an infinite weight left the pair skippable: {probe:?} · {other:?}");
            trusted += 1;
            below_one += usize::from(ub < 1.0);
            assert!(
                cosine <= ub + SLACK,
                "cosine {cosine} above its bound {ub}: {probe:?} · {other:?}"
            );
        }
        drop(bound);
        assert!(table.is_vacant());
    });
    if std::env::var(prop::REPLAY_ENV).is_err() {
        assert!(pairs >= 10_000, "{pairs} pairs");
        // Every family is exercised: pairs the bound is trusted on and
        // tighter than the trivial 1 on, and pairs an ∞ rules out.
        assert!(trusted > pairs / 3 && below_one > trusted / 4, "{trusted} / {below_one} of {pairs}");
        assert!(infinite > 0, "no infinite weights drawn");
    }
}

#[test]
fn cosine_bound_edge_cases() {
    let sv = |pairs: &[(u32, f32)]| SparseVec::from_pairs(pairs.to_vec());
    let mut table = kernel::ProbeTable::default();
    // An empty probe: 0 / 0, never trusted.
    let empty = SparseVec::<u32>::new();
    let bound = table.bind(empty.as_slice());
    assert!(bound.cosine_bound(u64::MAX).is_nan());
    drop(bound);
    // Disjoint signatures bound the cosine by exactly 0; the probe itself
    // by 1 (up to rounding).
    let probe = sv(&[(1, 3.0), (2, 4.0)]);
    let bound = table.bind(probe.as_slice());
    assert_eq!(bound.cosine_bound(!probe.sig()), 0.0);
    assert!((bound.cosine_bound(probe.sig()) - 1.0).abs() < 1e-12);
    // One key's bit alone: its share of the norm, 4 / 5.
    let two = sv(&[(2, 7.0)]);
    if kernel::key_bit(1u32) != kernel::key_bit(2u32) {
        assert!((bound.cosine_bound(two.sig()) - 0.8).abs() < 1e-12);
    }
    assert!(probe.cosine_table(&bound, &two) <= bound.cosine_bound(two.sig()) + SLACK);
    drop(bound);
    // An infinite probe weight: the bound rests on an infinite norm.
    let inf = sv(&[(1, f32::INFINITY), (2, 1.0)]);
    let bound = table.bind(inf.as_slice());
    assert!(!skippable(bound.cosine_bound(two.sig()), &inf, &two));
}

#[test]
fn jaccard_bound_holds_wherever_it_is_trusted() {
    let inverse = hash_inverse();
    let mut table = kernel::ProbeTable::default();
    let (mut pairs, mut trusted, mut below_one, mut infinite) = (0usize, 0usize, 0usize, 0usize);
    prop::run(1_000, |rng| {
        // The key families of the cosine bound's test: a small space, all
        // of `u32`, or keys sharing the top 4–13 bits of their hash.
        let kind = rng.random_range(0..3u32);
        let probe = match rng.random_range(0..8u32) {
            0 => SparseVec::new(),
            _ => {
                let keys = arb_keys(rng, kind, inverse);
                bound_weighted(rng, keys)
            }
        };
        let bound = table.bind(probe.as_slice());
        for _ in 0..10 {
            let other = match rng.random_range(0..8u32) {
                0 => SparseVec::new(),
                1 => probe.clone(),
                _ => {
                    let shared: Vec<u32> = probe
                        .keys()
                        .filter(|_| rng.random_range(0..3u32) == 0)
                        .collect();
                    let fresh = arb_keys(rng, kind, inverse);
                    bound_weighted(rng, shared.into_iter().chain(fresh))
                }
            };
            pairs += 1;
            let (_, ub) = bound.bounds(other.sig());
            // A story's bound is taken over the OR of its candidates'
            // signatures: more bits never lower it (∞ weights aside, whose
            // bounds turn NaN).
            let (_, wider) = bound.bounds(other.sig() | rng.random::<u64>());
            let nan = wider.is_nan() || ub.is_nan();
            assert!(wider >= ub || nan, "{wider} < {ub}: {probe:?} · {other:?}");
            let jaccard = probe.weighted_jaccard(&other);
            let has_inf = probe.iter().chain(other.iter()).any(|(_, w)| w.is_infinite());
            infinite += usize::from(has_inf);
            if !skippable(ub, &probe, &other) {
                continue;
            }
            assert!(!has_inf, "an infinite weight left the pair skippable: {probe:?} · {other:?}");
            trusted += 1;
            below_one += usize::from(ub < 1.0);
            assert!(
                jaccard <= ub + SLACK,
                "weighted Jaccard {jaccard} above its bound {ub}: {probe:?} · {other:?}"
            );
        }
        drop(bound);
        assert!(table.is_vacant());
    });
    if std::env::var(prop::REPLAY_ENV).is_err() {
        assert!(pairs >= 10_000, "{pairs} pairs");
        assert!(trusted > pairs / 3 && below_one > trusted / 4, "{trusted} / {below_one} of {pairs}");
        assert!(infinite > 0, "no infinite weights drawn");
    }
}

#[test]
fn jaccard_bound_edge_cases() {
    let sv = |pairs: &[(u32, f32)]| SparseVec::from_pairs(pairs.to_vec());
    let mut table = kernel::ProbeTable::default();
    // An empty probe: 0 / 0, never trusted.
    let empty = SparseVec::<u32>::new();
    let bound = table.bind(empty.as_slice());
    assert!(bound.bounds(u64::MAX).1.is_nan());
    drop(bound);
    // Disjoint signatures bound it by exactly 0; the probe itself by 1.
    let probe = sv(&[(1, 3.0), (2, 1.0)]);
    let bound = table.bind(probe.as_slice());
    assert_eq!(bound.bounds(!probe.sig()).1, 0.0);
    assert_eq!(bound.bounds(probe.sig()).1, 1.0);
    // One key's bit alone: its share of the probe's weight, 1 / 4, which
    // a counterpart holding that key at a weight of 1 or more reaches.
    let two = sv(&[(2, 7.0)]);
    if kernel::key_bit(1u32) != kernel::key_bit(2u32) {
        assert_eq!(bound.bounds(two.sig()).1, 0.25);
        assert_eq!(probe.weighted_jaccard(&sv(&[(2, 1.0)])), 0.25);
    }
    assert!(probe.weighted_jaccard(&two) <= bound.bounds(two.sig()).1 + SLACK);
    drop(bound);
    // An infinite probe weight: ∞ / ∞ on its own bit, and a norm that is
    // never trusted elsewhere.
    let inf = sv(&[(1, f32::INFINITY), (2, 1.0)]);
    let bound = table.bind(inf.as_slice());
    assert!(bound.bounds(inf.sig()).1.is_nan());
    assert!(!skippable(bound.bounds(two.sig()).1, &inf, &two));
}
