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
//! kernels return, to the bit.

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
        .sum()
}

fn naive_norm(a: &[(u32, f32)]) -> f64 {
    a.iter().map(|&(_, w)| (w as f64).powi(2)).sum::<f64>().sqrt()
}

fn naive_cosine(a: &[(u32, f32)], b: &[(u32, f32)]) -> f64 {
    let denom = naive_norm(a) * naive_norm(b);
    if denom == 0.0 {
        0.0
    } else {
        (naive_dot(a, b) / denom).clamp(0.0, 1.0)
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
            match rng.random_range(0..7u32) {
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
                // Subtract some of what is there: exhausted keys drop out.
                4 => {
                    let part: Vec<(u32, f32)> =
                        acc.iter().filter(|_| rng.random_range(0..2u32) == 0).collect();
                    acc.merge_sub(&SparseVec::from_pairs(part));
                    assert_sig_fresh(&acc, "merge_sub");
                }
                5 => {
                    // 1e-7 pushes the light weights under the drop epsilon.
                    let factor = [0.5f32, 1e-7, 0.0][rng.random_range(0..3usize)];
                    acc.scale(factor);
                    assert_sig_fresh(&acc, "scale");
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
