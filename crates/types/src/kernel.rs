//! Flat similarity kernels over contiguous `(key, weight)` slices.
//!
//! These are the hot-path primitives behind [`crate::SparseVec`]'s
//! similarity methods. They operate directly on the sorted entry slices
//! so callers that already hold raw slices (the identification scoring
//! loop, the alignment counterpart scan) can skip the wrapper entirely,
//! and so one probe can be scored against N candidates without
//! re-deriving anything probe-side per candidate ([`cosine_batch`]).
//!
//! The merge loops are branch-light: cursor advancement is computed
//! arithmetically from the key comparison instead of a three-way
//! `match`, which the optimizer turns into conditional moves. Each
//! kernel accumulates its `f64` sums in exactly the same term order as
//! the historical `SparseVec` implementations, so results are
//! bit-identical to the pre-kernel code — the cache-equivalence
//! guarantees in `storypivot-core` rely on that.

use std::fmt::Debug;

/// Euclidean (L2) norm of an entry slice.
///
/// This is the *defining* computation for [`crate::SparseVec`]'s cached
/// norm: every mutation recomputes the cache with this exact function,
/// so equal entry lists always carry bit-equal norms.
#[inline]
pub fn norm<K>(entries: &[(K, f32)]) -> f64 {
    if entries.is_empty() {
        // The empty sum is `-0.0` (f64's Sum identity) and `sqrt(-0.0)`
        // is `-0.0`; canonicalize to `+0.0` so empty vectors always
        // carry bit-equal norms no matter how they were produced.
        return 0.0;
    }
    entries
        .iter()
        .map(|&(_, w)| (w as f64) * (w as f64))
        .sum::<f64>()
        .sqrt()
}

/// The signature bit of one key: a multiplicative (Fibonacci) hash of
/// the key's `u32` form, its top six bits picking one of 64 positions.
#[inline]
pub fn key_bit<K: Into<u32>>(key: K) -> u64 {
    1 << (key.into().wrapping_mul(0x9E37_79B1) >> 26)
}

/// Key signature of an entry slice: the OR of [`key_bit`] over its keys.
///
/// This is the *defining* computation for [`crate::SparseVec`]'s cached
/// signature, as [`norm`] is for its cached norm. A pure function of the
/// key set: two slices whose signatures share no bit share no key (the
/// converse does not hold — distinct keys may share a bit).
#[inline]
pub fn sig<K: Copy + Into<u32>>(entries: &[(K, f32)]) -> u64 {
    entries.iter().fold(0, |acc, &(k, _)| acc | key_bit(k))
}

/// Dot product of two sorted entry slices (linear merge).
#[inline]
pub fn dot<K: Copy + Ord>(a: &[(K, f32)], b: &[(K, f32)]) -> f64 {
    let (mut i, mut j, mut acc) = (0usize, 0usize, 0f64);
    while i < a.len() && j < b.len() {
        let (ka, wa) = a[i];
        let (kb, wb) = b[j];
        if ka == kb {
            acc += wa as f64 * wb as f64;
        }
        i += (ka <= kb) as usize;
        j += (kb <= ka) as usize;
    }
    acc
}

/// Cosine similarity in `[0,1]` given precomputed norms; 0 when either
/// norm is 0 — also against an overflowed (infinite) norm, where the
/// product is NaN rather than 0.
#[inline]
pub fn cosine<K: Copy + Ord>(a: &[(K, f32)], norm_a: f64, b: &[(K, f32)], norm_b: f64) -> f64 {
    let denom = norm_a * norm_b;
    if denom > 0.0 {
        (dot(a, b) / denom).clamp(0.0, 1.0)
    } else {
        0.0
    }
}

/// Set Jaccard over the key sets, ignoring weights. Both empty ⇒ 0.
#[inline]
pub fn jaccard<K: Copy + Ord>(a: &[(K, f32)], b: &[(K, f32)]) -> f64 {
    let (mut i, mut j, mut inter) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        let ka = a[i].0;
        let kb = b[j].0;
        inter += (ka == kb) as usize;
        i += (ka <= kb) as usize;
        j += (kb <= ka) as usize;
    }
    let union = a.len() + b.len() - inter;
    if union == 0 {
        0.0
    } else {
        inter as f64 / union as f64
    }
}

/// Weighted Jaccard: `Σ min(a,b) / Σ max(a,b)`. Both empty ⇒ 0.
#[inline]
pub fn weighted_jaccard<K: Copy + Ord>(a: &[(K, f32)], b: &[(K, f32)]) -> f64 {
    let (mut i, mut j) = (0usize, 0usize);
    let (mut num, mut den) = (0f64, 0f64);
    while i < a.len() && j < b.len() {
        let (ka, wa) = a[i];
        let (kb, wb) = b[j];
        let le = ka <= kb;
        let ge = kb <= ka;
        if le && ge {
            num += wa.min(wb) as f64;
            den += wa.max(wb) as f64;
        } else if le {
            den += wa as f64;
        } else {
            den += wb as f64;
        }
        i += le as usize;
        j += ge as usize;
    }
    den += a[i..].iter().map(|&(_, w)| w as f64).sum::<f64>();
    den += b[j..].iter().map(|&(_, w)| w as f64).sum::<f64>();
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Batch entry point: cosine of one probe against N candidate slices.
///
/// The probe-side norm and empty check are hoisted out of the loop;
/// scores are appended to `out` in candidate order (one per candidate,
/// including zeros). `out` is cleared first so callers can reuse one
/// scratch buffer across probes.
///
/// Nothing in the engine calls this any more: identification scores
/// each story fold through [`crate::SparseVec::cosine`], which can skip
/// provably disjoint pairs, and slices carry no signature. It stays for
/// the repository benchmark's kernel micro-loop
/// (`types.kernel.cosine_batch_ns_per_nnz`), which times the unguarded
/// merge.
pub fn cosine_batch<'a, K, I>(probe: &[(K, f32)], probe_norm: f64, candidates: I, out: &mut Vec<f64>)
where
    K: Copy + Ord + Debug + 'a,
    I: IntoIterator<Item = (&'a [(K, f32)], f64)>,
{
    out.clear();
    if probe_norm == 0.0 {
        out.extend(candidates.into_iter().map(|_| 0.0));
        return;
    }
    for (cand, cand_norm) in candidates {
        out.push(cosine(probe, probe_norm, cand, cand_norm));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(pairs: &[(u32, f32)]) -> Vec<(u32, f32)> {
        pairs.to_vec()
    }

    #[test]
    fn dot_matches_dense() {
        let a = e(&[(1, 1.0), (2, 2.0), (5, 3.0)]);
        let b = e(&[(2, 4.0), (5, 1.0), (9, 7.0)]);
        assert!((dot(&a, &b) - 11.0).abs() < 1e-12);
        assert_eq!(dot(&a, &[]), 0.0);
    }

    #[test]
    fn norm_is_l2() {
        let a = e(&[(1, 3.0), (2, 4.0)]);
        assert!((norm(&a) - 5.0).abs() < 1e-12);
        assert_eq!(norm::<u32>(&[]).to_bits(), 0.0f64.to_bits(), "must be +0.0");
    }

    #[test]
    fn cosine_identity_orthogonal_empty() {
        let a = e(&[(1, 3.0), (2, 4.0)]);
        let na = norm(&a);
        assert!((cosine(&a, na, &a, na) - 1.0).abs() < 1e-12);
        let b = e(&[(7, 1.0)]);
        assert_eq!(cosine(&a, na, &b, norm(&b)), 0.0);
        assert_eq!(cosine(&a, na, &[], 0.0), 0.0);
    }

    #[test]
    fn jaccard_counts_keys() {
        let a = e(&[(1, 10.0), (2, 1.0)]);
        let b = e(&[(2, 99.0), (3, 1.0)]);
        assert!((jaccard(&a, &b) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(jaccard::<u32>(&[], &[]), 0.0);
    }

    #[test]
    fn weighted_jaccard_known_value() {
        let a = e(&[(1, 2.0), (2, 1.0)]);
        let b = e(&[(1, 1.0), (3, 1.0)]);
        assert!((weighted_jaccard(&a, &b) - 0.25).abs() < 1e-12);
        assert_eq!(weighted_jaccard::<u32>(&[], &[]), 0.0);
    }

    #[test]
    fn batch_scores_every_candidate_in_order() {
        let probe = e(&[(1, 1.0), (2, 1.0)]);
        let pn = norm(&probe);
        let c1 = e(&[(1, 1.0), (2, 1.0)]);
        let c2 = e(&[(9, 1.0)]);
        let mut out = vec![99.0];
        cosine_batch(
            &probe,
            pn,
            [(c1.as_slice(), norm(&c1)), (c2.as_slice(), norm(&c2))],
            &mut out,
        );
        assert_eq!(out.len(), 2);
        assert!((out[0] - 1.0).abs() < 1e-12);
        assert_eq!(out[1], 0.0);
    }

    #[test]
    fn batch_with_empty_probe_is_all_zero() {
        let c = e(&[(1, 1.0)]);
        let mut out = Vec::new();
        cosine_batch(&[], 0.0, [(c.as_slice(), norm(&c))], &mut out);
        assert_eq!(out, vec![0.0]);
    }
}
