//! Generic inverted index with overlap-counted candidate retrieval.
//!
//! Candidate generation — "which snippets/stories share an entity with
//! this one?" — is the first stage of both identification and alignment.
//! The index maps a key (entity, term) to the sorted set of postings and
//! can rank candidates by how many query keys they share.

use std::collections::{BTreeSet, HashMap};
use std::hash::Hash;

use storypivot_types::mem;

/// An inverted index from keys `K` to posting ids `P`.
#[derive(Debug, Clone)]
pub struct InvertedIndex<K, P> {
    postings: HashMap<K, BTreeSet<P>>,
}

impl<K, P> Default for InvertedIndex<K, P> {
    fn default() -> Self {
        InvertedIndex {
            postings: HashMap::new(),
        }
    }
}

impl<K: Eq + Hash + Copy, P: Ord + Copy + Eq + Hash> InvertedIndex<K, P> {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct keys.
    pub fn key_count(&self) -> usize {
        self.postings.len()
    }

    /// Estimated heap bytes of the key table and every posting set (the
    /// memory account).
    pub fn heap_bytes(&self) -> usize {
        mem::hash_map_bytes(&self.postings)
            + self.postings.values().map(mem::btree_set_bytes).sum::<usize>()
    }

    /// Add `posting` under `key`.
    pub fn insert(&mut self, key: K, posting: P) {
        self.postings.entry(key).or_default().insert(posting);
    }

    /// Add `posting` under every key in `keys`.
    pub fn insert_all<I: IntoIterator<Item = K>>(&mut self, keys: I, posting: P) {
        for k in keys {
            self.insert(k, posting);
        }
    }

    /// Remove `posting` from `key`; prunes empty posting lists.
    pub fn remove(&mut self, key: K, posting: P) -> bool {
        if let Some(set) = self.postings.get_mut(&key) {
            let removed = set.remove(&posting);
            if set.is_empty() {
                self.postings.remove(&key);
            }
            removed
        } else {
            false
        }
    }

    /// Remove `posting` from every key in `keys`.
    pub fn remove_all<I: IntoIterator<Item = K>>(&mut self, keys: I, posting: P) {
        for k in keys {
            self.remove(k, posting);
        }
    }

    /// The posting list for `key` (empty iterator when absent).
    pub fn postings(&self, key: K) -> impl Iterator<Item = P> + '_ {
        self.postings.get(&key).into_iter().flatten().copied()
    }

    /// Document frequency of `key`.
    pub fn posting_count(&self, key: K) -> usize {
        self.postings.get(&key).map_or(0, BTreeSet::len)
    }

    /// All postings sharing at least one query key, with the number of
    /// shared keys, sorted by descending overlap (ties by posting id).
    pub fn candidates<I: IntoIterator<Item = K>>(&self, keys: I) -> Vec<(P, usize)> {
        let mut counts: HashMap<P, usize> = HashMap::new();
        for k in keys {
            for p in self.postings(k) {
                *counts.entry(p).or_insert(0) += 1;
            }
        }
        let mut out: Vec<(P, usize)> = counts.into_iter().collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use storypivot_types::{EntityId, SnippetId};

    fn e(i: u32) -> EntityId {
        EntityId::new(i)
    }
    fn v(i: u32) -> SnippetId {
        SnippetId::new(i)
    }

    #[test]
    fn insert_and_query() {
        let mut idx = InvertedIndex::new();
        idx.insert(e(1), v(10));
        idx.insert(e(1), v(11));
        idx.insert(e(2), v(10));
        assert_eq!(idx.postings(e(1)).collect::<Vec<_>>(), vec![v(10), v(11)]);
        assert_eq!(idx.posting_count(e(2)), 1);
        assert_eq!(idx.posting_count(e(9)), 0);
        assert_eq!(idx.key_count(), 2);
    }

    #[test]
    fn candidates_ranked_by_overlap() {
        let mut idx = InvertedIndex::new();
        // snippet 1 shares entities {1,2}; snippet 2 shares {1}; snippet 3 none.
        idx.insert_all([e(1), e(2)], v(1));
        idx.insert(e(1), v(2));
        idx.insert(e(9), v(3));
        let cands = idx.candidates([e(1), e(2), e(3)]);
        assert_eq!(cands, vec![(v(1), 2), (v(2), 1)]);
    }

    #[test]
    fn remove_prunes_empty_lists() {
        let mut idx = InvertedIndex::new();
        idx.insert(e(1), v(1));
        assert!(idx.remove(e(1), v(1)));
        assert!(!idx.remove(e(1), v(1)));
        assert_eq!(idx.key_count(), 0);
    }

    #[test]
    fn remove_all_mirrors_insert_all() {
        let mut idx = InvertedIndex::new();
        idx.insert_all([e(1), e(2), e(3)], v(7));
        idx.remove_all([e(1), e(2), e(3)], v(7));
        assert_eq!(idx.key_count(), 0);
    }

    #[test]
    fn duplicate_insert_is_idempotent() {
        let mut idx = InvertedIndex::new();
        idx.insert(e(1), v(1));
        idx.insert(e(1), v(1));
        assert_eq!(idx.posting_count(e(1)), 1);
    }

    #[test]
    fn empty_query_yields_nothing() {
        let mut idx: InvertedIndex<EntityId, SnippetId> = InvertedIndex::new();
        idx.insert(e(1), v(1));
        assert!(idx.candidates(std::iter::empty()).is_empty());
    }

    #[test]
    fn candidate_ties_break_by_id() {
        let mut idx = InvertedIndex::new();
        idx.insert(e(1), v(5));
        idx.insert(e(1), v(2));
        let cands = idx.candidates([e(1)]);
        assert_eq!(cands, vec![(v(2), 1), (v(5), 1)]);
    }
}
