//! Sparse weighted vectors over interned ids.
//!
//! Snippet content (entities, description terms) is modelled as a sparse
//! vector of `(id, weight)` pairs kept sorted by id. Sorted storage makes
//! the hot similarity kernels — dot product, Jaccard, weighted Jaccard —
//! single linear merges with no hashing and no allocation, which matters
//! because story identification evaluates millions of such comparisons.
//! The merge loops themselves live in [`crate::kernel`]; this type adds
//! the cached L2 norm so cosine never pays a full pass per call, and the
//! key signature that lets [`SparseVec::cosine`] and
//! [`SparseVec::weighted_jaccard`] answer `0.0` for provably disjoint
//! vectors without touching either entry buffer.

use std::fmt::Debug;

use crate::kernel;

/// A sparse vector of non-negative weights, sorted by key.
///
/// The vector caches its Euclidean norm. Invariant: `norm` always equals
/// `kernel::norm(&entries)` — every mutation recomputes it with that one
/// pure function (never incrementally), so two vectors with equal entry
/// lists carry bit-equal norms no matter what sequence of operations
/// produced them.
///
/// It also carries a 64-bit key signature, `sig`: the OR of
/// [`kernel::key_bit`] over its keys, kept as exactly as `norm` is
/// (invariant: `sig == kernel::sig(&entries)`). Two vectors whose
/// signatures share no bit share no key. The signature is derived state:
/// it is never serialised, and decoding rebuilds it through
/// [`SparseVec::from_pairs`].
///
/// ```
/// use storypivot_types::sparse::SparseVec;
/// let a = SparseVec::from_pairs(vec![(2u32, 1.0), (1, 2.0), (2, 3.0)]);
/// assert_eq!(a.len(), 2);                 // duplicate keys are summed
/// assert_eq!(a.get(&2), Some(4.0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct SparseVec<K> {
    entries: Vec<(K, f32)>,
    norm: f64,
    sig: u64,
}

/// Equality is over the entry lists; the cached norm and signature are
/// pure functions of the entries, so they cannot disagree between equal
/// vectors.
impl<K: PartialEq> PartialEq for SparseVec<K> {
    fn eq(&self, other: &Self) -> bool {
        self.entries == other.entries
    }
}

impl<K: Copy + Ord + Debug + Into<u32>> SparseVec<K> {
    /// The empty vector.
    pub const fn new() -> Self {
        SparseVec { entries: Vec::new(), norm: 0.0, sig: 0 }
    }

    /// Build from arbitrary pairs; duplicate keys are summed, zero or
    /// negative weights are dropped.
    pub fn from_pairs(mut pairs: Vec<(K, f32)>) -> Self {
        pairs.sort_unstable_by_key(|a| a.0);
        let mut entries: Vec<(K, f32)> = Vec::with_capacity(pairs.len());
        for (k, w) in pairs {
            match entries.last_mut() {
                Some((lk, lw)) if *lk == k => *lw += w,
                _ => entries.push((k, w)),
            }
        }
        entries.retain(|&(_, w)| w > 0.0);
        let norm = kernel::norm(&entries);
        let sig = kernel::sig(&entries);
        SparseVec { entries, norm, sig }
    }

    /// Restore the norm invariant after `entries` changed and the
    /// caller has already ORed in the signature of every key it added.
    #[inline]
    fn renorm(&mut self) {
        self.norm = kernel::norm(&self.entries);
        debug_assert_eq!(self.sig, kernel::sig(&self.entries), "stale key signature");
    }

    /// Number of non-zero entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the vector has no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Weight for `key`, if present.
    pub fn get(&self, key: &K) -> Option<f32> {
        self.entries
            .binary_search_by(|(k, _)| k.cmp(key))
            .ok()
            .map(|i| self.entries[i].1)
    }

    /// Whether `key` has a non-zero weight.
    pub fn contains(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Iterate `(key, weight)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (K, f32)> + '_ {
        self.entries.iter().copied()
    }

    /// Iterate keys in order.
    pub fn keys(&self) -> impl Iterator<Item = K> + '_ {
        self.entries.iter().map(|&(k, _)| k)
    }

    /// Drop every entry, keeping the allocation (scratch reuse).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.norm = 0.0;
        self.sig = 0;
    }

    /// Sum of all weights.
    pub fn total(&self) -> f64 {
        self.entries.iter().map(|&(_, w)| w as f64).sum()
    }

    /// Euclidean norm (cached; maintained through every mutation).
    #[inline]
    pub fn norm(&self) -> f64 {
        self.norm
    }

    /// Key signature (cached; maintained through every mutation): the OR
    /// of [`kernel::key_bit`] over the keys.
    #[inline]
    pub fn sig(&self) -> u64 {
        self.sig
    }

    /// Whether the signatures prove the two key sets disjoint. `false`
    /// proves nothing: distinct keys may share a bit.
    #[inline]
    fn provably_disjoint(&self, other: &Self) -> bool {
        self.sig & other.sig == 0
    }

    /// Dot product via linear merge of the sorted entry lists.
    pub fn dot(&self, other: &Self) -> f64 {
        kernel::dot(&self.entries, &other.entries)
    }

    /// Cosine similarity in `[0,1]`; 0 when either vector is empty.
    ///
    /// Disjoint signatures short-circuit to the `+0.0` the merge would
    /// have produced bit for bit: with no shared key `dot` never leaves
    /// `+0.0`, and `+0.0 / denom` clamps to `+0.0`.
    #[inline]
    pub fn cosine(&self, other: &Self) -> f64 {
        if self.provably_disjoint(other) {
            debug_assert_eq!(
                kernel::cosine(&self.entries, self.norm, &other.entries, other.norm).to_bits(),
                0f64.to_bits()
            );
            return 0.0;
        }
        kernel::cosine(&self.entries, self.norm, &other.entries, other.norm)
    }

    /// [`SparseVec::cosine`] with `self`'s entries bound in `table`
    /// ([`kernel::ProbeTable::bind`]): the same signature guard first,
    /// then a walk of `other`'s entries alone. The same bits as `cosine`
    /// (the argument is on [`kernel::ProbeTable`]); debug builds run the
    /// merge behind every call and assert it.
    #[inline]
    pub fn cosine_table(&self, table: &kernel::BoundProbe<'_, K>, other: &Self) -> f64 {
        debug_assert!(
            std::ptr::eq(table.entries(), self.as_slice()),
            "table bound to another probe"
        );
        if self.provably_disjoint(other) {
            debug_assert_eq!(self.cosine(other).to_bits(), 0f64.to_bits());
            return 0.0;
        }
        let c = kernel::cosine_table(table, self.norm, &other.entries, other.norm);
        debug_assert_eq!(
            c.to_bits(),
            kernel::cosine(&self.entries, self.norm, &other.entries, other.norm).to_bits(),
            "table cosine differs from the merge: {self:?} · {other:?}"
        );
        c
    }

    /// Set Jaccard over the key sets, ignoring weights.
    ///
    /// Both empty ⇒ 0 (two contentless snippets carry no evidence of
    /// referring to the same story).
    pub fn jaccard(&self, other: &Self) -> f64 {
        kernel::jaccard(&self.entries, &other.entries)
    }

    /// Weighted Jaccard: `Σ min(a,b) / Σ max(a,b)`.
    ///
    /// Disjoint signatures short-circuit to `+0.0`, exactly what the
    /// merge yields when no key is shared (`num` never leaves `+0.0`).
    #[inline]
    pub fn weighted_jaccard(&self, other: &Self) -> f64 {
        if self.provably_disjoint(other) {
            debug_assert_eq!(
                kernel::weighted_jaccard(&self.entries, &other.entries).to_bits(),
                0f64.to_bits()
            );
            return 0.0;
        }
        kernel::weighted_jaccard(&self.entries, &other.entries)
    }

    /// Accumulate `other` into `self` (element-wise addition).
    ///
    /// Runs in place: disjoint tails append, key-subset inputs add into
    /// the existing entries, and the general case merges backwards into
    /// reserved capacity — no fresh vector is allocated on any path
    /// (`reserve` grows the existing one only when capacity is short).
    pub fn merge_add(&mut self, other: &Self) {
        if other.is_empty() {
            return;
        }
        if self.is_empty() {
            self.entries.clear();
            self.entries.extend_from_slice(&other.entries);
            self.norm = other.norm;
            self.sig = other.sig;
            return;
        }
        // Adding never drops a key, so on every path below the merged
        // key set is the union and its signature the OR.
        self.sig |= other.sig;
        // Append fast path: all of `other` sorts after `self`.
        if self.entries.last().expect("non-empty").0 < other.entries[0].0 {
            self.entries.extend_from_slice(&other.entries);
            self.renorm();
            return;
        }
        // Subset fast path: every key of `other` already present — add
        // the weights in place, no entry moves at all.
        if is_key_subset(&other.entries, &self.entries) {
            let mut i = 0usize;
            for &(k, w) in &other.entries {
                while self.entries[i].0 != k {
                    i += 1;
                }
                self.entries[i].1 += w;
            }
            self.renorm();
            return;
        }
        // General case: backward in-place merge into the tail of the
        // (reserved) buffer. Write cursor `w` stays strictly ahead of
        // read cursor `i` while `j >= 0`, so nothing unread is clobbered.
        let n = self.entries.len();
        let m = other.entries.len();
        self.entries.reserve(m);
        let pad = self.entries[0];
        self.entries.resize(n + m, pad);
        let (mut i, mut j) = (n as isize - 1, m as isize - 1);
        let mut w = (n + m) as isize - 1;
        while i >= 0 && j >= 0 {
            let (ka, wa) = self.entries[i as usize];
            let (kb, wb) = other.entries[j as usize];
            self.entries[w as usize] = match ka.cmp(&kb) {
                std::cmp::Ordering::Greater => {
                    i -= 1;
                    (ka, wa)
                }
                std::cmp::Ordering::Less => {
                    j -= 1;
                    (kb, wb)
                }
                std::cmp::Ordering::Equal => {
                    i -= 1;
                    j -= 1;
                    (ka, wa + wb)
                }
            };
            w -= 1;
        }
        while j >= 0 {
            self.entries[w as usize] = other.entries[j as usize];
            j -= 1;
            w -= 1;
        }
        // Entries at [0..=i] are already in place; shared keys left a
        // gap of (w - i) duplicate slots to close.
        if w > i {
            self.entries.drain((i + 1) as usize..=(w as usize));
        }
        self.renorm();
    }

    /// The `k` heaviest entries, by descending weight (ties by key).
    pub fn top_k(&self, k: usize) -> Vec<(K, f32)> {
        let mut v = self.entries.clone();
        v.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(k);
        v
    }

    /// Expose the raw sorted entries.
    pub fn as_slice(&self) -> &[(K, f32)] {
        &self.entries
    }

    /// Heap bytes of the entry buffer (the memory account).
    pub fn heap_bytes(&self) -> usize {
        crate::mem::vec_bytes(&self.entries)
    }
}

/// Whether every key of `sub` occurs in `sup` (both sorted by key).
fn is_key_subset<K: Copy + Ord>(sub: &[(K, f32)], sup: &[(K, f32)]) -> bool {
    if sub.len() > sup.len() {
        return false;
    }
    let mut i = 0usize;
    'outer: for &(k, _) in sub {
        while i < sup.len() {
            match sup[i].0.cmp(&k) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Equal => {
                    i += 1;
                    continue 'outer;
                }
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

impl<K: Copy + Ord + Debug + Into<u32>> FromIterator<(K, f32)> for SparseVec<K> {
    fn from_iter<I: IntoIterator<Item = (K, f32)>>(iter: I) -> Self {
        Self::from_pairs(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(pairs: &[(u32, f32)]) -> SparseVec<u32> {
        SparseVec::from_pairs(pairs.to_vec())
    }

    /// The norm and signature caches must equal a from-scratch
    /// recomputation, bit for bit, after any operation.
    fn assert_norm_fresh(v: &SparseVec<u32>) {
        assert_eq!(v.norm().to_bits(), kernel::norm(v.as_slice()).to_bits());
        assert_eq!(v.sig(), kernel::sig(v.as_slice()));
    }

    #[test]
    fn from_pairs_sorts_and_merges_duplicates() {
        let v = sv(&[(3, 1.0), (1, 2.0), (3, 0.5)]);
        assert_eq!(v.as_slice(), &[(1, 2.0), (3, 1.5)]);
        assert_norm_fresh(&v);
    }

    #[test]
    fn zero_and_negative_weights_are_dropped() {
        let v = sv(&[(1, 0.0), (2, -1.0), (3, 1.0)]);
        assert_eq!(v.len(), 1);
        assert!(v.contains(&3));
    }

    #[test]
    fn dot_product_matches_dense() {
        let a = sv(&[(1, 1.0), (2, 2.0), (5, 3.0)]);
        let b = sv(&[(2, 4.0), (5, 1.0), (9, 7.0)]);
        assert!((a.dot(&b) - (2.0 * 4.0 + 3.0 * 1.0)).abs() < 1e-9);
    }

    #[test]
    fn cosine_identity_and_orthogonal() {
        let a = sv(&[(1, 3.0), (2, 4.0)]);
        assert!((a.cosine(&a) - 1.0).abs() < 1e-9);
        let b = sv(&[(7, 1.0)]);
        assert_eq!(a.cosine(&b), 0.0);
        assert_eq!(a.cosine(&SparseVec::new()), 0.0);
    }

    #[test]
    fn jaccard_counts_keys_only() {
        let a = sv(&[(1, 10.0), (2, 1.0)]);
        let b = sv(&[(2, 99.0), (3, 1.0)]);
        assert!((a.jaccard(&b) - 1.0 / 3.0).abs() < 1e-9);
        assert_eq!(SparseVec::<u32>::new().jaccard(&SparseVec::new()), 0.0);
    }

    #[test]
    fn weighted_jaccard_known_value() {
        let a = sv(&[(1, 2.0), (2, 1.0)]);
        let b = sv(&[(1, 1.0), (3, 1.0)]);
        // min: 1 (key 1); max: 2 (key 1) + 1 (key 2) + 1 (key 3) = 4
        assert!((a.weighted_jaccard(&b) - 0.25).abs() < 1e-9);
    }

    #[test]
    fn merge_add_sums_shared_keys() {
        let mut a = sv(&[(1, 1.0), (3, 2.0)]);
        a.merge_add(&sv(&[(2, 5.0), (3, 1.0)]));
        assert_eq!(a.as_slice(), &[(1, 1.0), (2, 5.0), (3, 3.0)]);
        assert_norm_fresh(&a);
    }

    #[test]
    fn merge_add_append_fast_path() {
        let mut a = sv(&[(1, 1.0), (2, 2.0)]);
        a.merge_add(&sv(&[(5, 1.0), (9, 4.0)]));
        assert_eq!(a.as_slice(), &[(1, 1.0), (2, 2.0), (5, 1.0), (9, 4.0)]);
        assert_norm_fresh(&a);
    }

    #[test]
    fn merge_add_subset_fast_path_keeps_entries_in_place() {
        let mut a = sv(&[(1, 1.0), (2, 2.0), (5, 3.0), (9, 4.0)]);
        a.merge_add(&sv(&[(2, 1.0), (9, 1.0)]));
        assert_eq!(a.as_slice(), &[(1, 1.0), (2, 3.0), (5, 3.0), (9, 5.0)]);
        assert_norm_fresh(&a);
    }

    #[test]
    fn merge_add_interleaved_general_case() {
        // Overlapping and interleaved keys exercise the backward merge
        // including the duplicate-gap drain.
        let mut a = sv(&[(2, 1.0), (4, 1.0), (6, 1.0)]);
        a.merge_add(&sv(&[(1, 0.5), (4, 2.0), (7, 3.0)]));
        assert_eq!(
            a.as_slice(),
            &[(1, 0.5), (2, 1.0), (4, 3.0), (6, 1.0), (7, 3.0)]
        );
        assert_norm_fresh(&a);
    }

    #[test]
    fn merge_add_into_empty_reuses_capacity() {
        let mut a = sv(&[(1, 1.0)]);
        a.clear();
        let cap = a.as_slice().as_ptr();
        a.merge_add(&sv(&[(3, 2.0)]));
        assert_eq!(a.as_slice(), &[(3, 2.0)]);
        assert_eq!(a.as_slice().as_ptr(), cap, "buffer must be reused");
        assert_norm_fresh(&a);
    }

    #[test]
    fn clear_resets_norm() {
        let mut a = sv(&[(1, 3.0), (2, 4.0)]);
        assert!((a.norm() - 5.0).abs() < 1e-12);
        a.clear();
        assert!(a.is_empty());
        assert_eq!(a.norm(), 0.0);
        assert_eq!(a.sig(), 0);
    }

    #[test]
    fn norm_survives_every_mutation() {
        let mut a = sv(&[(1, 2.0), (2, 1.0)]);
        assert_norm_fresh(&a);
        a.merge_add(&sv(&[(7, 1.5)]));
        assert_norm_fresh(&a);
        a.merge_add(&sv(&[(2, 1.0), (3, 3.0)]));
        assert_norm_fresh(&a);
        a.clear();
        assert_norm_fresh(&a);
    }

    #[test]
    fn top_k_orders_by_weight() {
        let a = sv(&[(1, 1.0), (2, 5.0), (3, 3.0), (4, 5.0)]);
        let top = a.top_k(2);
        assert_eq!(top, vec![(2, 5.0), (4, 5.0)]);
        assert_eq!(a.top_k(0), vec![]);
        assert_eq!(a.top_k(10).len(), 4);
    }

    #[test]
    fn merge_add_of_single_keys_inserts_and_accumulates() {
        let mut a = SparseVec::new();
        a.merge_add(&sv(&[(5, 1.0)]));
        a.merge_add(&sv(&[(2, 2.0)]));
        a.merge_add(&sv(&[(5, 1.5)]));
        assert_eq!(a.as_slice(), &[(2, 2.0), (5, 2.5)]);
        assert_norm_fresh(&a);
    }

    #[test]
    fn signature_follows_the_key_set() {
        let mut a = sv(&[(1, 1.0), (2, 1.0)]);
        assert_eq!(a.sig(), kernel::key_bit(1u32) | kernel::key_bit(2u32));
        a.merge_add(&sv(&[(3, 1.0)]));
        assert_eq!(a.sig(), kernel::sig(a.as_slice()), "an added key adds its bit");
        a.clear();
        assert_eq!(a.sig(), 0);
        assert_eq!(SparseVec::<u32>::new().sig(), 0);
        assert_eq!(SparseVec::<u32>::default().sig(), 0);
    }

    #[test]
    fn equality_ignores_capacity_history() {
        let mut a = sv(&[(1, 1.0)]);
        a.merge_add(&sv(&[(2, 2.0)]));
        let b = sv(&[(1, 1.0), (2, 2.0)]);
        assert_eq!(a, b);
        assert_eq!(a.norm().to_bits(), b.norm().to_bits());
    }
}
