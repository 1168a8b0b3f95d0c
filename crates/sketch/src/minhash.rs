//! MinHash signatures for Jaccard similarity estimation.
//!
//! A MinHash signature compresses an arbitrary-size set into `k`
//! 64-bit values such that the fraction of agreeing positions between
//! two signatures is an unbiased estimate of the sets' Jaccard
//! similarity, with standard error `≈ 1/√k`.
//!
//! Signatures are **mergeable**: the element-wise minimum of two
//! signatures is exactly the signature of the union, so a set's sketch
//! can be maintained in `O(k)` per added element (paper §2.4).

use crate::hash::HashFamily;

/// A MinHash signature over `u64` items.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinHash {
    sig: Vec<u64>,
}

impl MinHash {
    /// The empty-set signature (all positions at `u64::MAX`) for a
    /// family of `k` functions.
    pub fn empty(k: usize) -> Self {
        MinHash {
            sig: vec![u64::MAX; k],
        }
    }

    /// Build a signature from a set of items.
    pub fn from_items<I: IntoIterator<Item = u64>>(family: &HashFamily, items: I) -> Self {
        let mut mh = Self::empty(family.len());
        for item in items {
            mh.insert(family, item);
        }
        mh
    }

    /// Signature length `k`.
    pub fn k(&self) -> usize {
        self.sig.len()
    }

    /// Whether no item has ever been inserted.
    pub fn is_empty(&self) -> bool {
        self.sig.iter().all(|&v| v == u64::MAX)
    }

    /// Fold one item into the signature.
    pub fn insert(&mut self, family: &HashFamily, item: u64) {
        debug_assert_eq!(family.len(), self.sig.len());
        for (i, slot) in self.sig.iter_mut().enumerate() {
            let h = family.hash(i, item);
            if h < *slot {
                *slot = h;
            }
        }
    }

    /// Merge `other` into `self`: afterwards `self` is the signature of
    /// the union of the underlying sets.
    pub fn merge(&mut self, other: &MinHash) {
        debug_assert_eq!(self.sig.len(), other.sig.len());
        for (a, &b) in self.sig.iter_mut().zip(&other.sig) {
            if b < *a {
                *a = b;
            }
        }
    }

    /// Estimate the Jaccard similarity of the underlying sets.
    ///
    /// Returns 0.0 when either signature is empty (an empty story has no
    /// similarity evidence) and panics in debug builds on mismatched `k`.
    pub fn estimate_jaccard(&self, other: &MinHash) -> f64 {
        debug_assert_eq!(self.sig.len(), other.sig.len());
        if self.is_empty() || other.is_empty() {
            return 0.0;
        }
        let agree = self
            .sig
            .iter()
            .zip(&other.sig)
            .filter(|&(a, b)| a == b)
            .count();
        agree as f64 / self.sig.len() as f64
    }

    /// Raw signature words (for codecs).
    pub fn words(&self) -> &[u64] {
        &self.sig
    }

    /// Rebuild from raw signature words.
    pub fn from_words(words: Vec<u64>) -> Self {
        MinHash { sig: words }
    }

    /// Heap bytes of the signature (the memory account).
    pub fn heap_bytes(&self) -> usize {
        self.sig.capacity() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn family(k: usize) -> HashFamily {
        HashFamily::new(0xABCD, k)
    }

    fn exact_jaccard(a: &[u64], b: &[u64]) -> f64 {
        use std::collections::HashSet;
        let sa: HashSet<u64> = a.iter().copied().collect();
        let sb: HashSet<u64> = b.iter().copied().collect();
        let inter = sa.intersection(&sb).count();
        let union = sa.union(&sb).count();
        if union == 0 {
            0.0
        } else {
            inter as f64 / union as f64
        }
    }

    #[test]
    fn identical_sets_estimate_one() {
        let f = family(64);
        let a = MinHash::from_items(&f, 0..100);
        let b = MinHash::from_items(&f, 0..100);
        assert_eq!(a.estimate_jaccard(&b), 1.0);
    }

    #[test]
    fn disjoint_sets_estimate_near_zero() {
        let f = family(128);
        let a = MinHash::from_items(&f, 0..100);
        let b = MinHash::from_items(&f, 1000..1100);
        assert!(a.estimate_jaccard(&b) < 0.1);
    }

    #[test]
    fn estimate_tracks_exact_jaccard() {
        let f = family(256);
        // Overlapping ranges with known Jaccard 50/150 = 1/3.
        let a: Vec<u64> = (0..100).collect();
        let b: Vec<u64> = (50..150).collect();
        let ma = MinHash::from_items(&f, a.iter().copied());
        let mb = MinHash::from_items(&f, b.iter().copied());
        let exact = exact_jaccard(&a, &b);
        let est = ma.estimate_jaccard(&mb);
        // k=256 → σ ≈ 1/16 ≈ 0.063; allow 4σ.
        assert!(
            (est - exact).abs() < 0.25,
            "estimate {est} too far from exact {exact}"
        );
    }

    #[test]
    fn merge_equals_union_signature() {
        let f = family(64);
        let mut a = MinHash::from_items(&f, 0..50);
        let b = MinHash::from_items(&f, 25..80);
        let union = MinHash::from_items(&f, 0..80);
        a.merge(&b);
        assert_eq!(a, union);
    }

    #[test]
    fn empty_signature_estimates_zero() {
        let f = family(32);
        let e = MinHash::empty(32);
        let a = MinHash::from_items(&f, 0..10);
        assert_eq!(e.estimate_jaccard(&a), 0.0);
        assert_eq!(e.estimate_jaccard(&e), 0.0);
        assert!(e.is_empty());
        assert!(!a.is_empty());
    }

    #[test]
    fn insert_is_order_independent() {
        let f = family(64);
        let mut a = MinHash::empty(64);
        for i in [5u64, 1, 9, 3] {
            a.insert(&f, i);
        }
        let mut b = MinHash::empty(64);
        for i in [3u64, 9, 1, 5] {
            b.insert(&f, i);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn words_round_trip() {
        let f = family(16);
        let a = MinHash::from_items(&f, 0..10);
        let b = MinHash::from_words(a.words().to_vec());
        assert_eq!(a, b);
    }

    #[test]
    fn duplicate_items_do_not_change_signature() {
        let f = family(32);
        let a = MinHash::from_items(&f, [1u64, 2, 3]);
        let b = MinHash::from_items(&f, [1u64, 2, 3, 3, 2, 1, 1]);
        assert_eq!(a, b);
    }
}
