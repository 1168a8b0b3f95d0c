//! Per-source sliding-window index.
//!
//! Temporal story identification (paper §2.2, Figure 2b) compares an
//! incoming snippet only against snippets whose timestamp lies in
//! `[t-ω, t+ω]`, and it does so once per ingested snippet. This index
//! is one `Vec` of compact [`WindowEntry`]s kept sorted by
//! `(timestamp, id)`, so a window is a borrowed slice found by two
//! binary searches: no allocation, and a probe walks contiguous memory
//! that holds what its bounds read (signatures, norms, event type)
//! without touching the snippets themselves.
//!
//! A sorted `Vec` and not a B-tree: a B-tree probe touches a leaf per
//! candidate and then the snippet's arena slot and vector headers, just
//! to read ≈ 40 bytes of signatures and norms. Arrivals are bounded by
//! their source's lag, so an insert lands near the end and `Vec::insert`
//! shifts few entries. A removal (`Vec::remove`) shifts every newer
//! entry of the source: O(entries after it) per removed snippet, which
//! document removal pays and ingest never does.

use storypivot_types::{mem, EventType, Snippet, SnippetId, TimeRange, Timestamp};

/// What identification's candidate grouping and bounds read of one
/// window candidate, copied out of the snippet at insert (56 bytes).
/// The snippet itself is resolved through the owning store
/// ([`crate::EventStore::resolve`]) only for the pairs that get scored.
#[derive(Debug, Clone, Copy)]
pub struct WindowEntry {
    /// The snippet's event timestamp (first sort key).
    pub timestamp: Timestamp,
    /// The snippet (second sort key).
    pub id: SnippetId,
    /// The snippet's arena slot in the owning store.
    pub(crate) slot: u32,
    /// `SparseVec::sig` of the snippet's entities.
    pub entity_sig: u64,
    /// `SparseVec::sig` of the snippet's terms.
    pub term_sig: u64,
    /// `SparseVec::norm` of the snippet's entities.
    pub entity_norm: f64,
    /// `SparseVec::norm` of the snippet's terms.
    pub term_norm: f64,
    /// The snippet's event type.
    pub event_type: EventType,
}

const _: () = assert!(std::mem::size_of::<WindowEntry>() <= 56);

impl WindowEntry {
    /// The entry of `snippet`, stored at arena `slot`.
    pub(crate) fn of(snippet: &Snippet, slot: u32) -> Self {
        let content = &snippet.content;
        WindowEntry {
            timestamp: snippet.timestamp,
            id: snippet.id,
            slot,
            entity_sig: content.entities.sig(),
            term_sig: content.terms.sig(),
            entity_norm: content.entities.norm(),
            term_norm: content.terms.norm(),
            event_type: content.event_type,
        }
    }

    /// The sort key.
    #[inline]
    pub(crate) fn key(&self) -> (Timestamp, SnippetId) {
        (self.timestamp, self.id)
    }

    /// Every field as plain bits, norms included, for comparing an
    /// entry with a rebuilt one to the bit.
    pub(crate) fn bits(&self) -> (Timestamp, SnippetId, u32, u64, u64, u64, u64, EventType) {
        (
            self.timestamp,
            self.id,
            self.slot,
            self.entity_sig,
            self.term_sig,
            self.entity_norm.to_bits(),
            self.term_norm.to_bits(),
            self.event_type,
        )
    }
}

/// The entries of one source's snippets, ascending by `(timestamp, id)`.
#[derive(Debug, Clone, Default)]
pub struct WindowIndex {
    entries: Vec<WindowEntry>,
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

    /// Heap bytes of the entry buffer (the memory account).
    pub fn heap_bytes(&self) -> usize {
        mem::vec_bytes(&self.entries)
    }

    /// Index `snippet`, stored at arena `slot` of the owning store.
    /// Indexing the same `(timestamp, id)` again replaces the entry.
    pub fn insert(&mut self, snippet: &Snippet, slot: u32) {
        let entry = WindowEntry::of(snippet, slot);
        match self.entries.binary_search_by_key(&entry.key(), WindowEntry::key) {
            Ok(at) => self.entries[at] = entry,
            Err(at) => self.entries.insert(at, entry),
        }
    }

    /// Remove a snippet; returns whether it was present.
    pub fn remove(&mut self, at: Timestamp, id: SnippetId) -> bool {
        match self.entries.binary_search_by_key(&(at, id), WindowEntry::key) {
            Ok(i) => {
                self.entries.remove(i);
                true
            }
            Err(_) => false,
        }
    }

    /// The entries with timestamp inside the closed `range`, ascending
    /// by `(timestamp, id)`.
    pub fn range(&self, range: TimeRange) -> &[WindowEntry] {
        if range.is_empty() {
            return &[];
        }
        let lo = self.entries.partition_point(|e| e.timestamp < range.start);
        let hi = lo + self.entries[lo..].partition_point(|e| e.timestamp <= range.end);
        &self.entries[lo..hi]
    }

    /// The entries in the symmetric window `[t-ω, t+ω]` (paper Figure 2b).
    pub fn window(&self, t: Timestamp, omega: i64) -> &[WindowEntry] {
        self.range(TimeRange::window(t, omega))
    }

    /// Every entry, ascending by `(timestamp, id)`.
    pub fn entries(&self) -> &[WindowEntry] {
        &self.entries
    }

    /// The tight time range covered by the indexed snippets.
    pub fn coverage(&self) -> TimeRange {
        match (self.entries.first(), self.entries.last()) {
            (Some(a), Some(b)) => TimeRange::new(a.timestamp, b.timestamp),
            _ => TimeRange::EMPTY,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use storypivot_types::{EntityId, SourceId, TermId};

    fn snip(t: i64, i: u32) -> Snippet {
        Snippet::builder(SnippetId::new(i), SourceId::new(0), Timestamp::from_secs(t))
            .entity(EntityId::new(i), 1.0)
            .term(TermId::new(i), 2.0)
            .event_type(EventType::Crime)
            .build()
    }
    fn ids(entries: &[WindowEntry]) -> Vec<u32> {
        entries.iter().map(|e| e.id.raw()).collect()
    }
    fn ts(s: i64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    #[test]
    fn window_query_is_inclusive_both_ends() {
        let mut w = WindowIndex::new();
        for (t, i) in [(0, 0), (5, 1), (10, 2), (15, 3), (20, 4)] {
            w.insert(&snip(t, i), 0);
        }
        assert_eq!(ids(w.range(TimeRange::new(ts(5), ts(15)))), vec![1, 2, 3]);
    }

    #[test]
    fn symmetric_window_matches_paper_semantics() {
        let mut w = WindowIndex::new();
        for t in 0..10 {
            w.insert(&snip(t * 10, t as u32), 0);
        }
        // ω = 15 around t = 50: timestamps in [35, 65] → 40, 50, 60.
        assert_eq!(ids(w.window(ts(50), 15)), vec![4, 5, 6]);
    }

    #[test]
    fn out_of_order_insertion_sorts() {
        let mut w = WindowIndex::new();
        w.insert(&snip(30, 3), 0);
        w.insert(&snip(10, 1), 0);
        w.insert(&snip(20, 2), 0);
        let order: Vec<i64> = w.entries().iter().map(|e| e.timestamp.secs()).collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn same_timestamp_many_snippets() {
        let mut w = WindowIndex::new();
        w.insert(&snip(5, 2), 0);
        w.insert(&snip(5, 1), 0);
        w.insert(&snip(5, 3), 0);
        assert_eq!(ids(w.range(TimeRange::instant(ts(5)))), vec![1, 2, 3]);
    }

    #[test]
    fn remove_works_and_reports() {
        let mut w = WindowIndex::new();
        w.insert(&snip(1, 1), 0);
        assert!(w.remove(ts(1), SnippetId::new(1)));
        assert!(!w.remove(ts(1), SnippetId::new(1)));
        assert!(w.is_empty());
    }

    #[test]
    fn empty_range_returns_nothing() {
        let mut w = WindowIndex::new();
        w.insert(&snip(1, 1), 0);
        assert!(w.range(TimeRange::EMPTY).is_empty());
    }

    #[test]
    fn coverage_tracks_extremes() {
        let mut w = WindowIndex::new();
        assert!(w.coverage().is_empty());
        w.insert(&snip(100, 1), 0);
        w.insert(&snip(-50, 2), 0);
        assert_eq!(w.coverage(), TimeRange::new(ts(-50), ts(100)));
    }

    #[test]
    fn insert_is_idempotent_and_updates_the_slot() {
        let mut w = WindowIndex::new();
        w.insert(&snip(1, 1), 0);
        w.insert(&snip(1, 1), 7);
        assert_eq!(w.len(), 1);
        assert_eq!(w.entries()[0].slot, 7);
    }

    #[test]
    fn an_entry_caches_what_the_bounds_read() {
        let s = snip(3, 9);
        let mut w = WindowIndex::new();
        w.insert(&s, 4);
        let e = w.entries()[0];
        assert_eq!((e.timestamp, e.id, e.slot), (s.timestamp, s.id, 4));
        assert_eq!((e.entity_sig, e.term_sig), (s.entities().sig(), s.terms().sig()));
        assert_eq!(e.entity_norm.to_bits(), s.entities().norm().to_bits());
        assert_eq!(e.term_norm.to_bits(), s.terms().norm().to_bits());
        assert_eq!(e.event_type, EventType::Crime);
    }

    #[test]
    fn extreme_timestamps_do_not_overflow() {
        let mut w = WindowIndex::new();
        w.insert(&snip(i64::MAX, 1), 0);
        w.insert(&snip(i64::MIN, 2), 0);
        // A window around MAX saturates instead of overflowing.
        assert_eq!(ids(w.window(Timestamp::MAX, 10)), vec![1]);
        assert_eq!(ids(w.range(TimeRange::ALL)), vec![2, 1]);
    }
}
