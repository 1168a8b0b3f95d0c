//! Per-source sliding-window index.
//!
//! Temporal story identification (paper §2.2, Figure 2b) compares an
//! incoming snippet only against snippets whose timestamp lies in
//! `[t-ω, t+ω]`. This index answers those range queries in
//! `O(log n + answer)` via a `BTreeMap` keyed by `(timestamp, id)`;
//! out-of-order insertion is naturally supported because a B-tree does
//! not care about arrival order.

use std::collections::BTreeMap;
use std::ops::Bound;

use storypivot_types::{mem, SnippetId, TimeRange, Timestamp};

/// An ordered index from `(timestamp, snippet)` to the snippet's arena
/// slot in the owning store — a sorted map with range scans. Carrying
/// the slot lets range queries resolve snippets by direct indexing
/// instead of a per-hit hash lookup (the identification hot path runs
/// one such query per ingested snippet).
#[derive(Debug, Clone, Default)]
pub struct WindowIndex {
    entries: BTreeMap<(Timestamp, SnippetId), u32>,
}

impl WindowIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of indexed snippets.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Estimated heap bytes of the tree (the memory account).
    pub fn heap_bytes(&self) -> usize {
        mem::btree_map_bytes(&self.entries)
    }

    /// Index a snippet at its event timestamp, remembering its arena
    /// `slot` in the owning store. Idempotent (the slot is updated).
    pub fn insert(&mut self, at: Timestamp, id: SnippetId, slot: u32) {
        self.entries.insert((at, id), slot);
    }

    /// Remove a snippet; returns whether it was present.
    pub fn remove(&mut self, at: Timestamp, id: SnippetId) -> bool {
        self.entries.remove(&(at, id)).is_some()
    }

    /// All snippets with timestamp inside the closed `range`, in
    /// ascending `(timestamp, id)` order.
    pub fn query(&self, range: TimeRange) -> impl Iterator<Item = (Timestamp, SnippetId)> + '_ {
        let bounds = Self::bounds(range);
        self.entries.range(bounds).map(|(&(t, id), _)| (t, id))
    }

    /// Arena slots of all snippets with timestamp inside the closed
    /// `range`, in ascending `(timestamp, id)` order — the allocation-
    /// and hash-free variant of [`WindowIndex::query`].
    pub fn query_slots(&self, range: TimeRange) -> impl Iterator<Item = u32> + '_ {
        let bounds = Self::bounds(range);
        self.entries.range(bounds).map(|(_, &slot)| slot)
    }

    /// Range bounds over the `(timestamp, id)` key space for `range`.
    #[allow(clippy::type_complexity)]
    fn bounds(
        range: TimeRange,
    ) -> (
        Bound<(Timestamp, SnippetId)>,
        Bound<(Timestamp, SnippetId)>,
    ) {
        if range.is_empty() {
            // An empty range: produce an empty iterator via an
            // impossible bound pair on the same key space.
            (
                Bound::Included((Timestamp::MAX, SnippetId::new(u32::MAX))),
                Bound::Excluded((Timestamp::MAX, SnippetId::new(u32::MAX))),
            )
        } else {
            (
                Bound::Included((range.start, SnippetId::new(0))),
                Bound::Included((range.end, SnippetId::new(u32::MAX))),
            )
        }
    }

    /// Snippets in the symmetric window `[t-ω, t+ω]` (paper Figure 2b).
    pub fn window(&self, t: Timestamp, omega: i64) -> impl Iterator<Item = (Timestamp, SnippetId)> + '_ {
        self.query(TimeRange::window(t, omega))
    }

    /// Earliest indexed timestamp.
    pub fn min_timestamp(&self) -> Option<Timestamp> {
        self.entries.keys().next().map(|&(t, _)| t)
    }

    /// Latest indexed timestamp.
    pub fn max_timestamp(&self) -> Option<Timestamp> {
        self.entries.keys().next_back().map(|&(t, _)| t)
    }

    /// The tight time range covered by the indexed snippets.
    pub fn coverage(&self) -> TimeRange {
        match (self.min_timestamp(), self.max_timestamp()) {
            (Some(a), Some(b)) => TimeRange::new(a, b),
            _ => TimeRange::EMPTY,
        }
    }

    /// Iterate everything in `(timestamp, id)` order.
    pub fn iter(&self) -> impl Iterator<Item = (Timestamp, SnippetId)> + '_ {
        self.entries.keys().map(|&(t, id)| (t, id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(i: u32) -> SnippetId {
        SnippetId::new(i)
    }
    fn ts(s: i64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    #[test]
    fn window_query_is_inclusive_both_ends() {
        let mut w = WindowIndex::new();
        for (t, i) in [(0, 0), (5, 1), (10, 2), (15, 3), (20, 4)] {
            w.insert(ts(t), id(i), 0);
        }
        let got: Vec<u32> = w.query(TimeRange::new(ts(5), ts(15))).map(|(_, i)| i.raw()).collect();
        assert_eq!(got, vec![1, 2, 3]);
    }

    #[test]
    fn symmetric_window_matches_paper_semantics() {
        let mut w = WindowIndex::new();
        for t in 0..10 {
            w.insert(ts(t * 10), id(t as u32), 0);
        }
        // ω = 15 around t = 50: timestamps in [35, 65] → 40, 50, 60.
        let got: Vec<u32> = w.window(ts(50), 15).map(|(_, i)| i.raw()).collect();
        assert_eq!(got, vec![4, 5, 6]);
    }

    #[test]
    fn out_of_order_insertion_sorts() {
        let mut w = WindowIndex::new();
        w.insert(ts(30), id(3), 0);
        w.insert(ts(10), id(1), 0);
        w.insert(ts(20), id(2), 0);
        let order: Vec<i64> = w.iter().map(|(t, _)| t.secs()).collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn same_timestamp_many_snippets() {
        let mut w = WindowIndex::new();
        w.insert(ts(5), id(2), 0);
        w.insert(ts(5), id(1), 0);
        w.insert(ts(5), id(3), 0);
        let got: Vec<u32> = w.query(TimeRange::instant(ts(5))).map(|(_, i)| i.raw()).collect();
        assert_eq!(got, vec![1, 2, 3]);
    }

    #[test]
    fn remove_works_and_reports() {
        let mut w = WindowIndex::new();
        w.insert(ts(1), id(1), 0);
        assert!(w.remove(ts(1), id(1)));
        assert!(!w.remove(ts(1), id(1)));
        assert!(w.is_empty());
    }

    #[test]
    fn empty_range_returns_nothing() {
        let mut w = WindowIndex::new();
        w.insert(ts(1), id(1), 0);
        assert_eq!(w.query(TimeRange::EMPTY).count(), 0);
    }

    #[test]
    fn coverage_tracks_extremes() {
        let mut w = WindowIndex::new();
        assert!(w.coverage().is_empty());
        w.insert(ts(100), id(1), 0);
        w.insert(ts(-50), id(2), 0);
        assert_eq!(w.coverage(), TimeRange::new(ts(-50), ts(100)));
        assert_eq!(w.min_timestamp(), Some(ts(-50)));
        assert_eq!(w.max_timestamp(), Some(ts(100)));
    }

    #[test]
    fn insert_is_idempotent() {
        let mut w = WindowIndex::new();
        w.insert(ts(1), id(1), 0);
        w.insert(ts(1), id(1), 0);
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn extreme_timestamps_do_not_overflow() {
        let mut w = WindowIndex::new();
        w.insert(Timestamp::MAX, id(1), 0);
        w.insert(Timestamp::MIN, id(2), 0);
        // A window around MAX saturates instead of overflowing.
        let got: Vec<u32> = w.window(Timestamp::MAX, 10).map(|(_, i)| i.raw()).collect();
        assert_eq!(got, vec![1]);
    }
}
