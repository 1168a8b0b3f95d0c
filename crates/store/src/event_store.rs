//! The canonical snippet repository.
//!
//! Owns every ingested [`Snippet`] plus the indexes StoryPivot's phases
//! query:
//!
//! * a per-source [`WindowIndex`] for temporal identification (§2.2):
//!   a sorted `Vec` of compact [`WindowEntry`]s, so a window is a
//!   borrowed slice ([`EventStore::window`]) and its snippets are
//!   resolved by arena slot only where a caller needs them
//!   ([`EventStore::resolve`]);
//! * a document index for the demo's add/remove-document interaction
//!   (§4.2.1);
//! * source registration, because "any story detection system should
//!   allow the addition or removal of data sources" (§2.4).

use std::collections::{BTreeMap, HashMap, HashSet};

use storypivot_types::{
    mem, DocId, EntityId, Error, Result, Snippet, SnippetId, Source, SourceId, TimeRange,
    Timestamp,
};

use crate::window::{WindowEntry, WindowIndex};

/// Aggregate statistics about a store (drives the demo's dataset
/// information panel, Figure 7 inset).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreStats {
    /// Number of registered sources.
    pub source_count: usize,
    /// Number of stored snippets.
    pub snippet_count: usize,
    /// Number of distinct entities appearing in any snippet.
    pub entity_count: usize,
    /// Number of distinct documents.
    pub document_count: usize,
    /// Tight time range covered by all snippets.
    pub coverage: TimeRange,
}

/// In-memory event store with temporal and document indexes.
///
/// Snippets live in a slot arena (`arena` + `free`); the id map and the
/// per-source window entries both reference arena slots, so a window
/// candidate resolves to its snippet by direct indexing instead of a
/// hash lookup. Removing a snippet shifts its source's newer window
/// entries ([`crate::window`]); removing a source drops its window
/// whole.
#[derive(Debug, Clone, Default)]
pub struct EventStore {
    arena: Vec<Option<Snippet>>,
    slot_of: HashMap<SnippetId, u32>,
    free: Vec<u32>,
    sources: BTreeMap<SourceId, Source>,
    windows: HashMap<SourceId, WindowIndex>,
    /// Document → its snippets, ascending by id. Most documents yield a
    /// snippet or two, so a posting is one small sorted buffer.
    doc_index: HashMap<DocId, Vec<SnippetId>>,
}

impl EventStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    // ---- sources ---------------------------------------------------

    /// Register a data source. Fails on duplicate id.
    pub fn register_source(&mut self, source: Source) -> Result<()> {
        if self.sources.contains_key(&source.id) {
            return Err(Error::Duplicate(format!("source {}", source.id)));
        }
        self.windows.insert(source.id, WindowIndex::new());
        self.sources.insert(source.id, source);
        Ok(())
    }

    /// Remove a source and all its snippets; returns the evicted
    /// snippets (oldest first).
    pub fn remove_source(&mut self, id: SourceId) -> Result<Vec<Snippet>> {
        if self.sources.remove(&id).is_none() {
            return Err(Error::UnknownSource(id));
        }
        let window = self.windows.remove(&id).unwrap_or_default();
        let mut evicted = Vec::with_capacity(window.len());
        for entry in window.entries() {
            evicted.push(self.detach(entry.id)?);
        }
        Ok(evicted)
    }

    /// Metadata of a registered source.
    pub fn source(&self, id: SourceId) -> Option<&Source> {
        self.sources.get(&id)
    }

    /// All registered sources, ordered by id.
    pub fn sources(&self) -> impl Iterator<Item = &Source> + '_ {
        self.sources.values()
    }

    /// Registered source ids, ascending.
    pub fn source_ids(&self) -> Vec<SourceId> {
        self.sources.keys().copied().collect()
    }

    /// Number of registered sources.
    pub fn source_count(&self) -> usize {
        self.sources.len()
    }

    // ---- snippets --------------------------------------------------

    /// Insert a snippet. Fails on duplicate id or unregistered source.
    pub fn insert(&mut self, snippet: Snippet) -> Result<()> {
        if self.slot_of.contains_key(&snippet.id) {
            return Err(Error::Duplicate(format!("snippet {}", snippet.id)));
        }
        let window = self
            .windows
            .get_mut(&snippet.source)
            .ok_or(Error::UnknownSource(snippet.source))?;
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.arena.push(None);
                (self.arena.len() - 1) as u32
            }
        };
        window.insert(&snippet, slot);
        let posting = self.doc_index.entry(snippet.doc).or_default();
        if let Err(at) = posting.binary_search(&snippet.id) {
            posting.insert(at, snippet.id);
        }
        self.slot_of.insert(snippet.id, slot);
        self.arena[slot as usize] = Some(snippet);
        Ok(())
    }

    /// Remove one snippet, unhooking every index.
    pub fn remove(&mut self, id: SnippetId) -> Result<Snippet> {
        // Leave source-window bookkeeping to detach, but verify first so
        // the caller gets a precise error.
        let Some(snippet) = self.get(id) else {
            return Err(Error::UnknownSnippet(id));
        };
        let source = snippet.source;
        let timestamp = snippet.timestamp;
        if let Some(w) = self.windows.get_mut(&source) {
            w.remove(timestamp, id);
        }
        self.detach(id)
    }

    /// Remove a snippet from all indexes *except* the source window
    /// (used by `remove_source`, which drops the window wholesale).
    fn detach(&mut self, id: SnippetId) -> Result<Snippet> {
        let slot = self.slot_of.remove(&id).ok_or(Error::UnknownSnippet(id))?;
        let snippet = self.arena[slot as usize]
            .take()
            .expect("id map and arena agree");
        self.free.push(slot);
        if let Some(posting) = self.doc_index.get_mut(&snippet.doc) {
            if let Ok(at) = posting.binary_search(&id) {
                posting.remove(at);
            }
            if posting.is_empty() {
                self.doc_index.remove(&snippet.doc);
            }
        }
        Ok(snippet)
    }

    /// Look up a snippet.
    pub fn get(&self, id: SnippetId) -> Option<&Snippet> {
        let &slot = self.slot_of.get(&id)?;
        self.arena[slot as usize].as_ref()
    }

    /// Look up a snippet, erroring when absent.
    pub fn get_or_err(&self, id: SnippetId) -> Result<&Snippet> {
        self.get(id).ok_or(Error::UnknownSnippet(id))
    }

    /// Whether the snippet exists.
    pub fn contains(&self, id: SnippetId) -> bool {
        self.slot_of.contains_key(&id)
    }

    /// Number of stored snippets.
    pub fn len(&self) -> usize {
        self.slot_of.len()
    }

    /// Whether the store holds no snippets.
    pub fn is_empty(&self) -> bool {
        self.slot_of.is_empty()
    }

    /// Iterate over all snippets (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = &Snippet> + '_ {
        self.arena.iter().filter_map(Option::as_ref)
    }

    // ---- queries ---------------------------------------------------

    /// Window entries of `source` inside the symmetric window
    /// `[t-ω, t+ω]`, ascending by `(timestamp, id)`: a borrowed slice,
    /// found by two binary searches (identification's probe).
    pub fn window(&self, source: SourceId, t: Timestamp, omega: i64) -> &[WindowEntry] {
        self.window_in(source, TimeRange::window(t, omega))
    }

    /// Window entries of `source` inside `range`, ascending by
    /// `(timestamp, id)`; empty for an unknown source.
    pub fn window_in(&self, source: SourceId, range: TimeRange) -> &[WindowEntry] {
        self.windows.get(&source).map_or(&[], |w| w.range(range))
    }

    /// The snippet a window entry of this store indexes.
    #[inline]
    pub fn resolve(&self, entry: &WindowEntry) -> &Snippet {
        self.arena[entry.slot as usize]
            .as_ref()
            .expect("window entries point at live slots")
    }

    /// Snippets of `source` inside `range`, ascending by `(timestamp, id)`.
    pub fn range(&self, source: SourceId, range: TimeRange) -> Vec<&Snippet> {
        self.window_in(source, range).iter().map(|e| self.resolve(e)).collect()
    }

    /// All snippets of a source, ascending by `(timestamp, id)`.
    pub fn snippets_of_source(&self, source: SourceId) -> Vec<&Snippet> {
        self.range(source, TimeRange::ALL)
    }

    /// Snippet ids of a document, ascending.
    pub fn snippets_of_doc(&self, doc: DocId) -> Vec<SnippetId> {
        self.doc_index.get(&doc).cloned().unwrap_or_default()
    }

    /// Heap bytes by part (the memory account): the snippet arena with
    /// every snippet's buffers and the id → slot map, the per-source
    /// window indexes, and the document index.
    pub fn heap_bytes(&self) -> [(&'static str, usize); 3] {
        let arena = mem::vec_bytes(&self.arena)
            + self.iter().map(Snippet::heap_bytes).sum::<usize>()
            + mem::hash_map_bytes(&self.slot_of)
            + mem::vec_bytes(&self.free);
        let windows = mem::hash_map_bytes(&self.windows)
            + self.windows.values().map(WindowIndex::heap_bytes).sum::<usize>();
        let doc_index = mem::hash_map_bytes(&self.doc_index)
            + self.doc_index.values().map(mem::vec_bytes).sum::<usize>();
        [
            ("store.arena", arena),
            ("store.windows", windows),
            ("store.doc_index", doc_index),
        ]
    }

    /// Check every source's window against the snippets stored,
    /// describing the first violation: the entries strictly ascend by
    /// `(timestamp, id)`, there are as many as the source has stored
    /// snippets, and each entry's slot holds the snippet with its id,
    /// whose signatures, norms and event type it caches to the bit.
    pub fn check_windows(&self) -> Result<()> {
        let fail = |msg: String| Err(Error::Invariant(msg));
        let mut stored: HashMap<SourceId, usize> = HashMap::new();
        for sn in self.iter() {
            *stored.entry(sn.source).or_default() += 1;
        }
        for (&source, window) in &self.windows {
            let entries = window.entries();
            if let Some(w) = entries.windows(2).find(|w| w[0].key() >= w[1].key()) {
                return fail(format!(
                    "source {source}: window entry {} at {} does not follow {} at {}",
                    w[1].id, w[1].timestamp, w[0].id, w[0].timestamp
                ));
            }
            let n = stored.remove(&source).unwrap_or(0);
            if entries.len() != n {
                return fail(format!(
                    "source {source}: {} window entries for {n} stored snippets",
                    entries.len()
                ));
            }
            for e in entries {
                let Some(Some(sn)) = self.arena.get(e.slot as usize) else {
                    return fail(format!("window entry {} points at empty slot {}", e.id, e.slot));
                };
                if sn.id != e.id {
                    return fail(format!("window entry {} points at snippet {}", e.id, sn.id));
                }
                if e.bits() != WindowEntry::of(sn, e.slot).bits() {
                    return fail(format!("window entry {} differs from its snippet: {e:?}", e.id));
                }
            }
        }
        if let Some((source, n)) = stored.into_iter().next() {
            return fail(format!("{n} snippets of source {source} have no window"));
        }
        Ok(())
    }

    /// Aggregate statistics. The entity count is a scan over every
    /// stored snippet: the store keeps no entity index.
    pub fn stats(&self) -> StoreStats {
        let coverage = self
            .windows
            .values()
            .map(WindowIndex::coverage)
            .fold(TimeRange::EMPTY, TimeRange::cover);
        let entities: HashSet<EntityId> = self.iter().flat_map(|s| s.entities().keys()).collect();
        StoreStats {
            source_count: self.sources.len(),
            snippet_count: self.slot_of.len(),
            entity_count: entities.len(),
            document_count: self.doc_index.len(),
            coverage,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use storypivot_types::{EventType, SourceKind};

    fn store_with_sources(n: u32) -> EventStore {
        let mut s = EventStore::new();
        for i in 0..n {
            s.register_source(Source::new(SourceId::new(i), format!("s{i}"), SourceKind::Newspaper))
                .unwrap();
        }
        s
    }

    fn snip(id: u32, source: u32, t: i64, entities: &[u32]) -> Snippet {
        let mut b = Snippet::builder(SnippetId::new(id), SourceId::new(source), Timestamp::from_secs(t));
        for &e in entities {
            b = b.entity(EntityId::new(e), 1.0);
        }
        b.doc(DocId::new(id / 2)).event_type(EventType::Other).build()
    }

    #[test]
    fn insert_get_remove_round_trip() {
        let mut s = store_with_sources(1);
        s.insert(snip(0, 0, 100, &[1, 2])).unwrap();
        assert!(s.contains(SnippetId::new(0)));
        assert_eq!(s.len(), 1);
        let got = s.remove(SnippetId::new(0)).unwrap();
        assert_eq!(got.id, SnippetId::new(0));
        assert!(s.is_empty());
        assert_eq!(s.stats().entity_count, 0);
    }

    #[test]
    fn duplicate_snippet_rejected() {
        let mut s = store_with_sources(1);
        s.insert(snip(0, 0, 100, &[])).unwrap();
        assert!(matches!(s.insert(snip(0, 0, 200, &[])), Err(Error::Duplicate(_))));
    }

    #[test]
    fn unregistered_source_rejected() {
        let mut s = store_with_sources(1);
        assert!(matches!(
            s.insert(snip(0, 7, 100, &[])),
            Err(Error::UnknownSource(_))
        ));
    }

    #[test]
    fn window_queries_are_per_source() {
        let mut s = store_with_sources(2);
        s.insert(snip(0, 0, 100, &[1])).unwrap();
        s.insert(snip(1, 1, 100, &[1])).unwrap();
        s.insert(snip(2, 0, 300, &[1])).unwrap();
        let w: Vec<u32> = s
            .window(SourceId::new(0), Timestamp::from_secs(100), 50)
            .iter()
            .map(|sn| sn.id.raw())
            .collect();
        assert_eq!(w, vec![0]);
    }

    #[test]
    fn source_removal_evicts_and_unindexes() {
        let mut s = store_with_sources(2);
        s.insert(snip(0, 0, 1, &[1, 2])).unwrap();
        s.insert(snip(1, 1, 2, &[1])).unwrap();
        assert_eq!(s.stats().entity_count, 2);
        let evicted = s.remove_source(SourceId::new(0)).unwrap();
        assert_eq!(evicted.len(), 1);
        assert_eq!(s.source_count(), 1);
        assert_eq!(s.len(), 1);
        // Neither the evicted snippet's entities nor its document
        // posting outlive it.
        assert_eq!(s.stats().entity_count, 1);
        assert_eq!(s.snippets_of_doc(DocId::new(0)), vec![SnippetId::new(1)]);
        assert!(matches!(
            s.remove_source(SourceId::new(0)),
            Err(Error::UnknownSource(_))
        ));
    }

    #[test]
    fn out_of_order_ingest_sorts_in_queries() {
        let mut s = store_with_sources(1);
        s.insert(snip(0, 0, 300, &[])).unwrap();
        s.insert(snip(1, 0, 100, &[])).unwrap();
        s.insert(snip(2, 0, 200, &[])).unwrap();
        let order: Vec<i64> = s
            .snippets_of_source(SourceId::new(0))
            .iter()
            .map(|sn| sn.timestamp.secs())
            .collect();
        assert_eq!(order, vec![100, 200, 300]);
    }

    #[test]
    fn stats_aggregate_everything() {
        let mut s = store_with_sources(2);
        s.insert(snip(0, 0, 100, &[1, 2])).unwrap();
        s.insert(snip(1, 1, 500, &[2, 3])).unwrap();
        let st = s.stats();
        assert_eq!(st.source_count, 2);
        assert_eq!(st.snippet_count, 2);
        assert_eq!(st.entity_count, 3);
        assert_eq!(st.document_count, 1);
        assert_eq!(
            st.coverage,
            TimeRange::new(Timestamp::from_secs(100), Timestamp::from_secs(500))
        );
    }

    #[test]
    fn check_windows_catches_a_stale_or_missing_entry() {
        let fresh = || {
            let mut s = store_with_sources(2);
            s.insert(snip(0, 0, 100, &[1])).unwrap();
            s.insert(snip(1, 0, 200, &[2])).unwrap();
            s.insert(snip(2, 1, 100, &[3])).unwrap();
            s.remove(SnippetId::new(1)).unwrap();
            s.check_windows().unwrap();
            s
        };
        fn window(s: &mut EventStore) -> &mut WindowIndex {
            s.windows.get_mut(&SourceId::new(0)).unwrap()
        }
        // An entry pointing at a freed slot.
        let mut s = fresh();
        window(&mut s).insert(&snip(0, 0, 100, &[1]), 1);
        assert!(matches!(s.check_windows(), Err(Error::Invariant(_))));
        // An entry whose cached signature is not its snippet's.
        let mut s = fresh();
        let slot = s.slot_of[&SnippetId::new(0)];
        window(&mut s).insert(&snip(0, 0, 100, &[9]), slot);
        assert!(matches!(s.check_windows(), Err(Error::Invariant(_))));
        // A snippet missing from its window.
        let mut s = fresh();
        window(&mut s).remove(Timestamp::from_secs(100), SnippetId::new(0));
        assert!(matches!(s.check_windows(), Err(Error::Invariant(_))));
    }

    #[test]
    fn duplicate_source_rejected() {
        let mut s = store_with_sources(1);
        let dup = Source::new(SourceId::new(0), "again", SourceKind::Blog);
        assert!(matches!(s.register_source(dup), Err(Error::Duplicate(_))));
    }

    #[test]
    fn get_or_err_reports_missing() {
        let s = store_with_sources(0);
        assert!(matches!(
            s.get_or_err(SnippetId::new(9)),
            Err(Error::UnknownSnippet(_))
        ));
    }
}
