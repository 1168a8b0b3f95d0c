//! Per-story aggregate state.
//!
//! A [`StoryState`] carries everything the matching phases need to know
//! about one per-source story without touching its member snippets:
//! centroid entity/term vectors, a temporal evolution signature, and the
//! event-type histogram. All of it updates incrementally in `O(content)`
//! per added snippet.

use storypivot_sketch::TemporalSignature;
use storypivot_types::{
    mem, EntityId, EventType, Snippet, SourceId, SparseVec, StoryId, TermId, TimeRange,
};

/// Map an entity id into the shared 64-bit sketch item space. The engine
/// builds no sketch; the benchmark's MinHash signature loop reads this.
#[inline]
pub fn entity_item(e: EntityId) -> u64 {
    (1u64 << 32) | e.raw() as u64
}

/// Map a term id into the shared 64-bit sketch item space (see
/// [`entity_item`]).
#[inline]
pub fn term_item(t: TermId) -> u64 {
    (2u64 << 32) | t.raw() as u64
}

/// Aggregate state of one per-source story.
#[derive(Debug, Clone)]
pub struct StoryState {
    /// The story's membership and lifespan.
    pub story: storypivot_types::Story,
    /// Summed entity weights over all member snippets (centroid × n).
    pub entities: SparseVec<EntityId>,
    /// Summed term weights over all member snippets.
    pub terms: SparseVec<TermId>,
    /// Bucketed activity curve of the story's evolution.
    pub signature: TemporalSignature,
    /// Histogram of member event types.
    pub event_types: [u32; EventType::COUNT],
    /// Cached argmax of `event_types` (ties break by discriminant),
    /// refreshed on every histogram mutation so the identification
    /// ranking loop reads a field instead of rescanning.
    dominant: EventType,
    /// Bumped by every mutation except an in-order append (see
    /// [`StoryState::epoch`]).
    epoch: u64,
}

impl StoryState {
    /// A new empty story in `source`.
    pub fn new(id: StoryId, source: SourceId, bucket_width: i64) -> Self {
        StoryState {
            story: storypivot_types::Story::new(id, source),
            entities: SparseVec::new(),
            terms: SparseVec::new(),
            signature: TemporalSignature::new(bucket_width),
            event_types: [0; EventType::COUNT],
            dominant: EventType::Other,
            epoch: 0,
        }
    }

    /// Story id.
    #[inline]
    pub fn id(&self) -> StoryId {
        self.story.id
    }

    /// Owning source.
    #[inline]
    pub fn source(&self) -> SourceId {
        self.story.source
    }

    /// Number of member snippets.
    #[inline]
    pub fn len(&self) -> usize {
        self.story.len()
    }

    /// Whether the story has no members.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.story.is_empty()
    }

    /// Story lifespan.
    #[inline]
    pub fn lifespan(&self) -> TimeRange {
        self.story.lifespan
    }

    /// The story's epoch. It changes whenever the members stop being a
    /// `(timestamp, id)`-ordered extension of what they were: any
    /// [`StoryState::absorb`] or [`StoryState::rebuild`], and any
    /// [`StoryState::add_snippet`] whose snippet does not sort after
    /// every member. While it holds, the members in any time window are
    /// the same sequence plus, possibly, members appended at its end.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Fold a snippet into every aggregate.
    pub fn add_snippet(&mut self, snippet: &Snippet) {
        debug_assert_eq!(snippet.source, self.story.source, "cross-source story member");
        // Members are sorted by id, so `last` is the largest.
        let (end, last) = (self.story.lifespan.end, self.story.members.last());
        let appends = snippet.timestamp > end
            || (snippet.timestamp == end && last.is_some_and(|&m| snippet.id > m));
        if !appends {
            self.epoch += 1;
        }
        self.story.add_member(snippet.id, snippet.timestamp);
        self.entities.merge_add(snippet.entities());
        self.terms.merge_add(snippet.terms());
        self.signature.add(snippet.timestamp, 1.0);
        self.event_types[snippet.content.event_type.code() as usize] += 1;
        self.refresh_dominant();
    }

    /// Rebuild every aggregate exactly from the given member snippets
    /// (used after removals and splits). The membership list is replaced
    /// by the snippets passed in.
    pub fn rebuild<'a, I>(&mut self, members: I)
    where
        I: IntoIterator<Item = &'a Snippet>,
    {
        let epoch = self.epoch + 1;
        *self = StoryState::new(self.story.id, self.story.source, self.signature.bucket_width());
        self.epoch = epoch;
        for s in members {
            self.add_snippet(s);
        }
    }

    /// Absorb all aggregates of `other` (story merge). Membership and
    /// lifespan merge too; `other` should be discarded afterwards.
    pub fn absorb(&mut self, other: &StoryState) {
        self.epoch += 1;
        for &m in &other.story.members {
            if let Err(pos) = self.story.members.binary_search(&m) {
                self.story.members.insert(pos, m);
            }
        }
        self.story.lifespan = self.story.lifespan.cover(other.story.lifespan);
        self.entities.merge_add(&other.entities);
        self.terms.merge_add(&other.terms);
        self.signature.merge(&other.signature);
        for (a, &b) in self.event_types.iter_mut().zip(&other.event_types) {
            *a += b;
        }
        self.refresh_dominant();
    }

    /// The story's dominant event type (ties break by discriminant).
    #[inline]
    pub fn dominant_event_type(&self) -> EventType {
        self.dominant
    }

    /// Recompute the cached dominant event type from the histogram.
    fn refresh_dominant(&mut self) {
        let mut best = EventType::Other;
        let mut best_count = 0u32;
        for (i, &c) in self.event_types.iter().enumerate() {
            if c > best_count {
                best_count = c;
                best = EventType::ALL[i];
            }
        }
        self.dominant = best;
    }

    /// Exact content similarity between two stories: weighted Jaccard of
    /// entity mass plus cosine of term mass, averaged.
    pub fn content_sim_exact(&self, other: &StoryState) -> f64 {
        let e = self.entities.weighted_jaccard(&other.entities);
        let t = self.terms.cosine(&other.terms);
        0.6 * e + 0.4 * t
    }

    /// Heap bytes held by this state (the memory account).
    pub fn heap_bytes(&self) -> usize {
        mem::vec_bytes(&self.story.members)
            + self.entities.heap_bytes()
            + self.terms.heap_bytes()
            + self.signature.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use storypivot_types::{SnippetId, Timestamp, DAY};

    fn state() -> StoryState {
        StoryState::new(StoryId::new(0), SourceId::new(0), DAY)
    }

    fn snip(id: u32, day: i64, entities: &[u32], terms: &[u32]) -> Snippet {
        let mut b = Snippet::builder(
            SnippetId::new(id),
            SourceId::new(0),
            Timestamp::from_secs(day * DAY),
        );
        for &e in entities {
            b = b.entity(EntityId::new(e), 1.0);
        }
        for &t in terms {
            b = b.term(TermId::new(t), 1.0);
        }
        b.event_type(EventType::Accident).build()
    }

    #[test]
    fn add_updates_all_aggregates() {
        let mut s = state();
        s.add_snippet(&snip(0, 0, &[1, 2], &[10]));
        s.add_snippet(&snip(1, 2, &[1], &[10, 11]));
        assert_eq!(s.len(), 2);
        assert_eq!(s.entities.get(&EntityId::new(1)), Some(2.0));
        assert_eq!(s.terms.get(&TermId::new(10)), Some(2.0));
        assert_eq!(s.signature.total(), 2.0);
        assert_eq!(s.dominant_event_type(), EventType::Accident);
        assert_eq!(
            s.lifespan(),
            TimeRange::new(Timestamp::from_secs(0), Timestamp::from_secs(2 * DAY))
        );
    }

    #[test]
    fn rebuild_restores_exact_state() {
        let mut s = state();
        let a = snip(0, 0, &[1], &[10]);
        let b = snip(1, 1, &[2], &[11]);
        s.add_snippet(&a);
        s.add_snippet(&b);
        s.rebuild([&b]);
        let mut fresh = state();
        fresh.add_snippet(&b);
        assert_eq!(s.entities, fresh.entities);
        assert_eq!(s.terms, fresh.terms);
        assert_eq!(s.signature, fresh.signature);
        assert_eq!(s.event_types, fresh.event_types);
        assert_eq!(s.story.members, fresh.story.members);
        assert_eq!(s.lifespan(), fresh.lifespan());
    }

    #[test]
    fn absorb_merges_everything() {
        let mut a = state();
        a.add_snippet(&snip(0, 0, &[1], &[10]));
        let mut b = StoryState::new(StoryId::new(1), SourceId::new(0), DAY);
        b.add_snippet(&snip(1, 5, &[2], &[11]));
        a.absorb(&b);
        assert_eq!(a.len(), 2);
        assert!(a.story.contains(SnippetId::new(1)));
        assert_eq!(a.entities.len(), 2);
        assert_eq!(a.terms.len(), 2);
        assert_eq!(a.signature.total(), 2.0);
        assert_eq!(
            a.lifespan(),
            TimeRange::new(Timestamp::from_secs(0), Timestamp::from_secs(5 * DAY))
        );
    }

    #[test]
    fn similar_stories_have_high_content_sim() {
        let mut a = state();
        let mut b = StoryState::new(StoryId::new(1), SourceId::new(1), DAY);
        for i in 0..5 {
            a.add_snippet(&snip(i, i as i64, &[1, 2, 3], &[10, 11]));
        }
        for i in 5..10 {
            let mut s = snip(i, (i - 5) as i64, &[1, 2, 3], &[10, 11]);
            s.source = SourceId::new(1);
            b.add_snippet(&s);
        }
        assert!(a.content_sim_exact(&b) > 0.8);

        let mut c = StoryState::new(StoryId::new(2), SourceId::new(1), DAY);
        let mut s = snip(20, 0, &[7, 8], &[20]);
        s.source = SourceId::new(1);
        c.add_snippet(&s);
        assert!(a.content_sim_exact(&c) < 0.1);
    }

    #[test]
    fn item_spaces_do_not_collide() {
        assert_ne!(entity_item(EntityId::new(5)), term_item(TermId::new(5)));
    }
}
