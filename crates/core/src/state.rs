//! Per-story aggregate state.
//!
//! A [`StoryState`] carries everything the matching phases need to know
//! about one per-source story without touching its member snippets:
//! centroid entity/term vectors, a temporal evolution signature, and the
//! event-type histogram. All of it updates incrementally in `O(content)`
//! per added snippet.
//!
//! The MinHash sketch of paper §2.4 is *not* kept here: it is a function
//! of the centroids' key sets ([`StoryState::sketch`]), so alignment
//! derives it for the stories it compares and identification never pays
//! for it.

use storypivot_sketch::{HashFamily, MinHash, TemporalSignature};
use storypivot_types::{
    mem, EntityId, EventType, Snippet, SourceId, SparseVec, StoryId, TermId, TimeRange,
};

/// Map an entity id into the shared 64-bit sketch item space.
#[inline]
pub fn entity_item(e: EntityId) -> u64 {
    (1u64 << 32) | e.raw() as u64
}

/// Map a term id into the shared 64-bit sketch item space.
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

    /// Fold a snippet into every aggregate.
    pub fn add_snippet(&mut self, snippet: &Snippet) {
        debug_assert_eq!(snippet.source, self.story.source, "cross-source story member");
        self.story.add_member(snippet.id, snippet.timestamp);
        self.entities.merge_add(snippet.entities());
        self.terms.merge_add(snippet.terms());
        self.signature.add(snippet.timestamp, 1.0);
        self.event_types[snippet.content.event_type.code() as usize] += 1;
        self.refresh_dominant();
    }

    /// Remove a snippet by subtracting it from the aggregates. Float
    /// subtraction can leave a centroid key the remaining members no
    /// longer carry (or drop one they do), so [`StoryState::sketch`] is
    /// not valid until [`StoryState::rebuild`] runs (the engine's removal
    /// paths rebuild instead of calling this). Returns whether the snippet
    /// was a member.
    pub fn remove_snippet(&mut self, snippet: &Snippet) -> bool {
        if !self.story.remove_member(snippet.id) {
            return false;
        }
        self.entities.merge_sub(snippet.entities());
        self.terms.merge_sub(snippet.terms());
        self.signature.remove(snippet.timestamp, 1.0);
        let ty = snippet.content.event_type.code() as usize;
        self.event_types[ty] = self.event_types[ty].saturating_sub(1);
        self.refresh_dominant();
        true
    }

    /// Rebuild every aggregate exactly from the given member snippets
    /// (used after removals and splits). The membership list is replaced
    /// by the snippets passed in.
    pub fn rebuild<'a, I>(&mut self, members: I)
    where
        I: IntoIterator<Item = &'a Snippet>,
    {
        *self = StoryState::new(self.story.id, self.story.source, self.signature.bucket_width());
        for s in members {
            self.add_snippet(s);
        }
    }

    /// Absorb all aggregates of `other` (story merge). Membership and
    /// lifespan merge too; `other` should be discarded afterwards.
    pub fn absorb(&mut self, other: &StoryState) {
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

    /// Centroid-normalized entity vector (weights divided by member
    /// count) — used for cohesion scoring.
    pub fn entity_centroid(&self) -> SparseVec<EntityId> {
        let mut v = self.entities.clone();
        if !self.is_empty() {
            v.scale(1.0 / self.len() as f32);
        }
        v
    }

    /// Exact content similarity between two stories: weighted Jaccard of
    /// entity mass plus cosine of term mass, averaged.
    pub fn content_sim_exact(&self, other: &StoryState) -> f64 {
        let e = self.entities.weighted_jaccard(&other.entities);
        let t = self.terms.cosine(&other.terms);
        0.6 * e + 0.4 * t
    }

    /// The story's MinHash sketch under `family` (§2.4), derived from the
    /// centroids: a snippet's vectors hold only positive weights and
    /// folding them in only adds, so the centroids' keys are exactly the
    /// union of the members' entity and term sets — the item set a
    /// signature maintained per ingest would have seen.
    pub fn sketch(&self, family: &HashFamily) -> MinHash {
        MinHash::from_items(
            family,
            self.entities.keys().map(entity_item).chain(self.terms.keys().map(term_item)),
        )
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

    fn family() -> HashFamily {
        HashFamily::new(7, 64)
    }

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
        assert!(!s.sketch(&family()).is_empty());
        assert_eq!(s.signature.total(), 2.0);
        assert_eq!(s.dominant_event_type(), EventType::Accident);
        assert_eq!(
            s.lifespan(),
            TimeRange::new(Timestamp::from_secs(0), Timestamp::from_secs(2 * DAY))
        );
    }

    #[test]
    fn remove_subtracts() {
        let mut s = state();
        let a = snip(0, 0, &[1, 2], &[10]);
        let b = snip(1, 1, &[1], &[11]);
        s.add_snippet(&a);
        s.add_snippet(&b);
        assert!(s.remove_snippet(&a));
        assert!(!s.remove_snippet(&a), "second removal is a no-op");
        assert_eq!(s.len(), 1);
        assert_eq!(s.entities.get(&EntityId::new(2)), None);
        assert_eq!(s.entities.get(&EntityId::new(1)), Some(1.0));
        assert_eq!(s.signature.total(), 1.0);
    }

    #[test]
    fn rebuild_restores_exact_state() {
        let mut s = state();
        let a = snip(0, 0, &[1], &[10]);
        let b = snip(1, 1, &[2], &[11]);
        s.add_snippet(&a);
        s.add_snippet(&b);
        s.remove_snippet(&a);
        s.rebuild([&b]);
        let mut fresh = state();
        fresh.add_snippet(&b);
        assert_eq!(s.sketch(&family()), fresh.sketch(&family()));
        assert_eq!(s.entities, fresh.entities);
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
        let items = [entity_item(EntityId::new(1)), entity_item(EntityId::new(2))]
            .into_iter()
            .chain([term_item(TermId::new(10)), term_item(TermId::new(11))]);
        assert_eq!(a.sketch(&family()), MinHash::from_items(&family(), items));
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
        let f = family();
        assert!(a.sketch(&f).estimate_jaccard(&b.sketch(&f)) > 0.8);

        let mut c = StoryState::new(StoryId::new(2), SourceId::new(1), DAY);
        let mut s = snip(20, 0, &[7, 8], &[20]);
        s.source = SourceId::new(1);
        c.add_snippet(&s);
        assert!(a.content_sim_exact(&c) < 0.1);
        assert!(a.sketch(&f).estimate_jaccard(&c.sketch(&f)) < 0.2);
    }

    #[test]
    fn centroid_divides_by_member_count() {
        let mut s = state();
        s.add_snippet(&snip(0, 0, &[1], &[]));
        s.add_snippet(&snip(1, 0, &[1], &[]));
        let c = s.entity_centroid();
        assert!((c.get(&EntityId::new(1)).unwrap() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn item_spaces_do_not_collide() {
        assert_ne!(entity_item(EntityId::new(5)), term_item(TermId::new(5)));
    }
}
