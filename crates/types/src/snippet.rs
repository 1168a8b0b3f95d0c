//! Information snippets — the elemental unit of information (paper §2.1).

use crate::event_type::EventType;
use crate::ids::{DocId, EntityId, SnippetId, SourceId, TermId};
use crate::sparse::SparseVec;
use crate::time::Timestamp;

/// The content of a snippet: what the extraction pipeline recovered from
/// the originating document excerpt.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SnippetContent {
    /// Entities involved in the event, with salience weights
    /// (e.g. `{Ukraine, Malaysia Airlines}` in the paper's example).
    pub entities: SparseVec<EntityId>,
    /// Description terms with TF-IDF style weights
    /// (e.g. `{crash, plane, shot}`).
    pub terms: SparseVec<TermId>,
    /// Coarse category of the described activity.
    pub event_type: EventType,
    /// Short human-readable headline for display modules.
    pub headline: String,
}

impl SnippetContent {
    /// Whether the content carries any matching signal at all.
    pub fn is_vacuous(&self) -> bool {
        self.entities.is_empty() && self.terms.is_empty()
    }
}

/// An information snippet: timestamped, source-attributed content
/// extracted from one document excerpt.
#[derive(Debug, Clone, PartialEq)]
pub struct Snippet {
    /// Unique id of this snippet.
    pub id: SnippetId,
    /// The data source the originating document belongs to.
    pub source: SourceId,
    /// The originating document.
    pub doc: DocId,
    /// When the described real-world event occurred.
    pub timestamp: Timestamp,
    /// Extracted content.
    pub content: SnippetContent,
}

impl Snippet {
    /// Start building a snippet.
    pub fn builder(id: SnippetId, source: SourceId, timestamp: Timestamp) -> SnippetBuilder {
        SnippetBuilder {
            id,
            source,
            doc: DocId::new(0),
            timestamp,
            entities: Vec::new(),
            terms: Vec::new(),
            event_type: EventType::Other,
            headline: String::new(),
        }
    }

    /// Entities of this snippet.
    #[inline]
    pub fn entities(&self) -> &SparseVec<EntityId> {
        &self.content.entities
    }

    /// Description terms of this snippet.
    #[inline]
    pub fn terms(&self) -> &SparseVec<TermId> {
        &self.content.terms
    }

    /// Heap bytes behind this snippet — its three allocations: entity
    /// vector, term vector, headline (the memory account).
    pub fn heap_bytes(&self) -> usize {
        self.content.entities.heap_bytes()
            + self.content.terms.heap_bytes()
            + self.content.headline.capacity()
    }
}

/// Fluent builder for [`Snippet`] used by the extraction pipeline, the
/// corpus generator, and tests.
///
/// ```
/// use storypivot_types::{Snippet, SnippetId, SourceId, EntityId, TermId, Timestamp, EventType};
/// let s = Snippet::builder(SnippetId::new(0), SourceId::new(1), Timestamp::from_ymd(2014, 7, 17))
///     .entity(EntityId::new(3), 1.0)
///     .term(TermId::new(9), 0.7)
///     .event_type(EventType::Accident)
///     .headline("Jetliner Explodes over Ukraine")
///     .build();
/// assert_eq!(s.entities().len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct SnippetBuilder {
    id: SnippetId,
    source: SourceId,
    doc: DocId,
    timestamp: Timestamp,
    entities: Vec<(EntityId, f32)>,
    terms: Vec<(TermId, f32)>,
    event_type: EventType,
    headline: String,
}

impl SnippetBuilder {
    /// Set the originating document.
    pub fn doc(mut self, doc: DocId) -> Self {
        self.doc = doc;
        self
    }

    /// Add one weighted entity.
    pub fn entity(mut self, e: EntityId, weight: f32) -> Self {
        self.entities.push((e, weight));
        self
    }

    /// Add many unit-weight entities.
    pub fn entities<I: IntoIterator<Item = EntityId>>(mut self, es: I) -> Self {
        self.entities.extend(es.into_iter().map(|e| (e, 1.0)));
        self
    }

    /// Add one weighted description term.
    pub fn term(mut self, t: TermId, weight: f32) -> Self {
        self.terms.push((t, weight));
        self
    }

    /// Add many unit-weight terms.
    pub fn terms<I: IntoIterator<Item = TermId>>(mut self, ts: I) -> Self {
        self.terms.extend(ts.into_iter().map(|t| (t, 1.0)));
        self
    }

    /// Set the event type.
    pub fn event_type(mut self, t: EventType) -> Self {
        self.event_type = t;
        self
    }

    /// Set the display headline.
    pub fn headline<S: Into<String>>(mut self, h: S) -> Self {
        self.headline = h.into();
        self
    }

    /// Finalise the snippet.
    pub fn build(self) -> Snippet {
        Snippet {
            id: self.id,
            source: self.source,
            doc: self.doc,
            timestamp: self.timestamp,
            content: SnippetContent {
                entities: SparseVec::from_pairs(self.entities),
                terms: SparseVec::from_pairs(self.terms),
                event_type: self.event_type,
                headline: self.headline,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assembles_content() {
        let s = Snippet::builder(SnippetId::new(5), SourceId::new(2), Timestamp::from_ymd(2014, 7, 18))
            .doc(DocId::new(9))
            .entity(EntityId::new(1), 2.0)
            .entities([EntityId::new(4), EntityId::new(1)])
            .term(TermId::new(7), 0.5)
            .event_type(EventType::Accident)
            .headline("Evidence of Russian Links to Jet's Downing")
            .build();
        assert_eq!(s.id, SnippetId::new(5));
        assert_eq!(s.doc, DocId::new(9));
        // entity 1 appears twice: weights merge to 3.0
        assert_eq!(s.entities().get(&EntityId::new(1)), Some(3.0));
        assert_eq!(s.entities().len(), 2);
        assert_eq!(s.content.event_type, EventType::Accident);
        assert!(!s.content.is_vacuous());
    }

    /// Every stored snippet is one arena slot of this size (and the
    /// repository benchmark holds two corpus copies): a new inline field
    /// must not silently grow them all. 136 B = the content at 112 (two
    /// sparse vectors at 40 — buffer, norm, signature — the headline at
    /// 24, the event type padded to 8) plus three ids and the timestamp
    /// at 24. Only 125 of them are data, but the 7 padding bytes sit
    /// inside `SnippetContent`, out of the outer struct's reach.
    #[test]
    fn snippet_stays_within_136_bytes() {
        let size = std::mem::size_of::<Snippet>();
        assert!(size <= 136, "Snippet grew to {size} B");
    }

    #[test]
    fn vacuous_content_detected() {
        let s = Snippet::builder(SnippetId::new(0), SourceId::new(0), Timestamp::EPOCH).build();
        assert!(s.content.is_vacuous());
    }
}
