//! The canonical snippet repository.
//!
//! Owns every ingested [`Snippet`] plus the indexes StoryPivot's phases
//! query:
//!
//! * a per-source [`WindowIndex`] for temporal identification (§2.2);
//! * a global entity [`InvertedIndex`] for counterpart search during
//!   alignment (§2.3);
//! * a document index for the demo's add/remove-document interaction
//!   (§4.2.1);
//! * source registration, because "any story detection system should
//!   allow the addition or removal of data sources" (§2.4).

use std::collections::{BTreeMap, HashMap};

use storypivot_types::{
    mem, DocId, EntityId, Error, Result, Snippet, SnippetId, Source, SourceId, TimeRange,
    Timestamp,
};

use crate::inverted::InvertedIndex;
use crate::window::WindowIndex;

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

/// In-memory event store with temporal, entity, and document indexes.
///
/// Snippets live in a slot arena (`arena` + `free`); the id map and the
/// per-source window indexes both reference arena slots, so the hot
/// window-range queries resolve snippets by direct indexing instead of
/// a hash lookup per hit.
#[derive(Debug, Clone, Default)]
pub struct EventStore {
    arena: Vec<Option<Snippet>>,
    slot_of: HashMap<SnippetId, u32>,
    free: Vec<u32>,
    sources: BTreeMap<SourceId, Source>,
    windows: HashMap<SourceId, WindowIndex>,
    entity_index: InvertedIndex<EntityId, SnippetId>,
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
        let ids: Vec<SnippetId> = window.iter().map(|(_, sid)| sid).collect();
        let mut evicted = Vec::with_capacity(ids.len());
        for sid in ids {
            evicted.push(self.detach(sid)?);
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
        window.insert(snippet.timestamp, snippet.id, slot);
        self.entity_index
            .insert_all(snippet.entities().keys(), snippet.id);
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
        self.entity_index
            .remove_all(snippet.entities().keys(), id);
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

    /// Remove every snippet of a document; returns them sorted by id.
    pub fn remove_document(&mut self, doc: DocId) -> Result<Vec<Snippet>> {
        let ids = self.doc_index.get(&doc).ok_or(Error::UnknownDocument(doc))?.clone();
        let mut out = Vec::with_capacity(ids.len());
        for id in ids {
            out.push(self.remove(id)?);
        }
        Ok(out)
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

    /// Snippets of `source` inside the symmetric window `[t-ω, t+ω]`,
    /// ascending by `(timestamp, id)`.
    pub fn window(&self, source: SourceId, t: Timestamp, omega: i64) -> Vec<&Snippet> {
        self.range(source, TimeRange::window(t, omega))
    }

    /// Snippets of `source` inside `range`, ascending by `(timestamp, id)`.
    pub fn range(&self, source: SourceId, range: TimeRange) -> Vec<&Snippet> {
        match self.windows.get(&source) {
            Some(w) => w
                .query_slots(range)
                .map(|slot| {
                    self.arena[slot as usize]
                        .as_ref()
                        .expect("window entries point at live slots")
                })
                .collect(),
            None => Vec::new(),
        }
    }

    /// All snippets of a source, ascending by `(timestamp, id)`.
    pub fn snippets_of_source(&self, source: SourceId) -> Vec<&Snippet> {
        self.range(source, TimeRange::ALL)
    }

    /// Number of snippets in a source.
    pub fn source_len(&self, source: SourceId) -> usize {
        self.windows.get(&source).map_or(0, WindowIndex::len)
    }

    /// Snippet ids of a document, ascending.
    pub fn snippets_of_doc(&self, doc: DocId) -> Vec<SnippetId> {
        self.doc_index.get(&doc).cloned().unwrap_or_default()
    }

    /// Snippets sharing at least one entity with the query set, ranked
    /// by number of shared entities (candidate generation for
    /// counterpart search, §2.3).
    pub fn candidates_by_entities<I: IntoIterator<Item = EntityId>>(
        &self,
        entities: I,
    ) -> Vec<(SnippetId, usize)> {
        self.entity_index.candidates(entities)
    }

    /// The snippets mentioning `entity`, ascending by id: one posting
    /// list of the index [`Self::candidates_by_entities`] ranks over, for
    /// callers that count overlaps into a table of their own.
    pub fn entity_postings(&self, entity: EntityId) -> impl Iterator<Item = SnippetId> + '_ {
        self.entity_index.postings(entity)
    }

    /// Tight time range covered by a source's snippets.
    pub fn source_coverage(&self, source: SourceId) -> TimeRange {
        self.windows.get(&source).map_or(TimeRange::EMPTY, WindowIndex::coverage)
    }

    /// Heap bytes by part (the memory account): the snippet arena with
    /// every snippet's buffers and the id → slot map, the per-source
    /// window indexes, the entity postings, and the document index. The
    /// B-tree parts are estimates ([`storypivot_types::mem`]).
    pub fn heap_bytes(&self) -> [(&'static str, usize); 4] {
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
            ("store.entity_postings", self.entity_index.heap_bytes()),
            ("store.doc_index", doc_index),
        ]
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> StoreStats {
        let coverage = self
            .windows
            .values()
            .map(WindowIndex::coverage)
            .fold(TimeRange::EMPTY, TimeRange::cover);
        StoreStats {
            source_count: self.sources.len(),
            snippet_count: self.slot_of.len(),
            entity_count: self.entity_index.key_count(),
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
        assert_eq!(s.source_len(SourceId::new(0)), 2);
        assert_eq!(s.source_len(SourceId::new(1)), 1);
    }

    #[test]
    fn entity_candidates_ranked_by_overlap() {
        let mut s = store_with_sources(1);
        s.insert(snip(0, 0, 1, &[1, 2, 3])).unwrap();
        s.insert(snip(1, 0, 2, &[1, 9])).unwrap();
        s.insert(snip(2, 0, 3, &[8])).unwrap();
        let cands = s.candidates_by_entities([EntityId::new(1), EntityId::new(2)]);
        assert_eq!(cands[0], (SnippetId::new(0), 2));
        assert_eq!(cands[1], (SnippetId::new(1), 1));
        assert_eq!(cands.len(), 2);
    }

    #[test]
    fn document_removal_evicts_all_its_snippets() {
        let mut s = store_with_sources(1);
        s.insert(snip(0, 0, 1, &[1])).unwrap(); // doc 0
        s.insert(snip(1, 0, 2, &[2])).unwrap(); // doc 0
        s.insert(snip(2, 0, 3, &[3])).unwrap(); // doc 1
        let removed = s.remove_document(DocId::new(0)).unwrap();
        assert_eq!(removed.len(), 2);
        assert_eq!(s.len(), 1);
        assert!(matches!(
            s.remove_document(DocId::new(0)),
            Err(Error::UnknownDocument(_))
        ));
    }

    #[test]
    fn source_removal_evicts_and_unindexes() {
        let mut s = store_with_sources(2);
        s.insert(snip(0, 0, 1, &[1])).unwrap();
        s.insert(snip(1, 1, 2, &[1])).unwrap();
        let evicted = s.remove_source(SourceId::new(0)).unwrap();
        assert_eq!(evicted.len(), 1);
        assert_eq!(s.source_count(), 1);
        assert_eq!(s.len(), 1);
        // Entity index must no longer return the evicted snippet.
        let cands = s.candidates_by_entities([EntityId::new(1)]);
        assert_eq!(cands, vec![(SnippetId::new(1), 1)]);
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
