//! Per-story aggregate state.
//!
//! A [`StoryState`] carries what identification reads of one per-source
//! story on every ingest: its membership and lifespan, and the event-type
//! histogram with its dominant type, updated on every added snippet
//! without touching the others. It also keeps the story's windowed
//! fold, the sums identification last scored it with, which the story's
//! own mutators clear whenever it might no longer lead the story's
//! members. What alignment compares of a whole story — its entity and
//! term sums and its activity over time — is built from the members by
//! the aligner (`Profile` in [`crate::align`]), not kept here.

use storypivot_types::{
    mem, EntityId, EventType, Snippet, SnippetId, SourceId, SparseVec, StoryId, TermId, TimeRange,
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

/// The entity and term sums of a story's first `len` windowed members,
/// led by `first`: what identification last folded the story into when
/// it scored a probe against it (`Identifier::score_probe`).
///
/// Window queries return ascending `(timestamp, id)` order, and until
/// the fold is cleared the story gains members only after all the
/// others in that order. So while the first windowed member is `first`
/// and the window holds at least `len` of the story's members, the fold
/// is of a prefix of them, and scoring folds only the rest. The
/// story's mutators clear it whenever that could break: an
/// [`StoryState::add_snippet`] that does not sort after every member,
/// any [`StoryState::absorb`] and any [`StoryState::rebuild`].
#[derive(Debug, Clone, Default)]
pub(crate) struct WindowFold {
    /// The first member folded.
    pub(crate) first: SnippetId,
    /// Number of members folded.
    pub(crate) len: u32,
    /// Sum of the members' entity vectors.
    pub(crate) entities: SparseVec<EntityId>,
    /// Sum of the members' term vectors.
    pub(crate) terms: SparseVec<TermId>,
}

impl WindowFold {
    /// How many of a story's `n` windowed members, led by `first`, the
    /// fold already holds: `len` if they begin with the members folded,
    /// otherwise 0.
    pub(crate) fn covers(&self, first: SnippetId, n: usize) -> usize {
        let len = self.len as usize;
        if self.first == first && len <= n {
            len
        } else {
            0
        }
    }

    /// Drop the fold but keep the allocations for reuse.
    pub(crate) fn clear(&mut self) {
        self.len = 0;
        self.entities.clear();
        self.terms.clear();
    }

    /// Heap bytes of both sums.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.entities.heap_bytes() + self.terms.heap_bytes()
    }
}

/// Aggregate state of one per-source story.
#[derive(Debug, Clone)]
pub struct StoryState {
    /// The story's membership and lifespan.
    pub story: storypivot_types::Story,
    /// Histogram of member event types.
    pub event_types: [u32; EventType::COUNT],
    /// Cached argmax of `event_types` (ties break by discriminant),
    /// refreshed on every histogram mutation so the identification
    /// ranking loop reads a field instead of rescanning.
    dominant: EventType,
    /// The windowed fold identification resumes (see [`WindowFold`]).
    pub(crate) fold: WindowFold,
}

impl StoryState {
    /// A new empty story in `source`.
    pub fn new(id: StoryId, source: SourceId) -> Self {
        StoryState {
            story: storypivot_types::Story::new(id, source),
            event_types: [0; EventType::COUNT],
            dominant: EventType::Other,
            fold: WindowFold::default(),
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

    /// Add a snippet to the membership and the histogram.
    pub fn add_snippet(&mut self, snippet: &Snippet) {
        debug_assert_eq!(snippet.source, self.story.source, "cross-source story member");
        // Members are sorted by id, so `last` is the largest.
        let (end, last) = (self.story.lifespan.end, self.story.members.last());
        let appends = snippet.timestamp > end
            || (snippet.timestamp == end && last.is_some_and(|&m| snippet.id > m));
        if !appends {
            self.fold.clear();
        }
        self.story.add_member(snippet.id, snippet.timestamp);
        self.event_types[snippet.content.event_type.code() as usize] += 1;
        self.refresh_dominant();
    }

    /// Rebuild the state exactly from the given member snippets
    /// (used after removals and splits), from a fresh state: the
    /// membership list is replaced by the snippets passed in and the
    /// fold is empty.
    pub fn rebuild<'a, I>(&mut self, members: I)
    where
        I: IntoIterator<Item = &'a Snippet>,
    {
        *self = StoryState::new(self.story.id, self.story.source);
        for s in members {
            self.add_snippet(s);
        }
    }

    /// Absorb `other` (story merge): membership, lifespan and histogram.
    /// `other` should be discarded afterwards.
    pub fn absorb(&mut self, other: &StoryState) {
        self.fold.clear();
        self.story.members = merge_sorted(&self.story.members, &other.story.members);
        self.story.lifespan = self.story.lifespan.cover(other.story.lifespan);
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

    /// Heap bytes held by this state (the memory account).
    pub fn heap_bytes(&self) -> usize {
        mem::vec_bytes(&self.story.members) + self.fold.heap_bytes()
    }
}

/// The union of two ascending id lists, ascending, each id once: one
/// pass over both.
fn merge_sorted(a: &[SnippetId], b: &[SnippetId]) -> Vec<SnippetId> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        out.push(x.min(y));
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use storypivot_types::{Timestamp, DAY};

    fn state() -> StoryState {
        StoryState::new(StoryId::new(0), SourceId::new(0))
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
        assert_eq!(s.event_types[EventType::Accident.code() as usize], 2);
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
        assert_eq!(s.event_types, fresh.event_types);
        assert_eq!(s.story.members, fresh.story.members);
        assert_eq!(s.lifespan(), fresh.lifespan());
    }

    #[test]
    fn absorb_merges_everything() {
        let mut a = state();
        a.add_snippet(&snip(0, 0, &[1], &[10]));
        a.add_snippet(&snip(4, 1, &[1], &[10]));
        let mut b = StoryState::new(StoryId::new(1), SourceId::new(0));
        b.add_snippet(&snip(1, 5, &[2], &[11]));
        b.add_snippet(&snip(7, 5, &[2], &[11]));
        a.absorb(&b);
        let ids = |raw: &[u32]| raw.iter().map(|&r| SnippetId::new(r)).collect::<Vec<_>>();
        assert_eq!(a.story.members, ids(&[0, 1, 4, 7]), "one ascending list");
        assert_eq!(a.event_types[EventType::Accident.code() as usize], 4);
        assert_eq!(
            a.lifespan(),
            TimeRange::new(Timestamp::from_secs(0), Timestamp::from_secs(5 * DAY))
        );
        // Absorbing a story that shares members lists each of them once.
        let mut c = StoryState::new(StoryId::new(2), SourceId::new(0));
        c.add_snippet(&snip(4, 1, &[1], &[10]));
        c.add_snippet(&snip(9, 6, &[1], &[10]));
        a.absorb(&c);
        assert_eq!(a.story.members, ids(&[0, 1, 4, 7, 9]));
    }

    #[test]
    fn a_fold_covers_only_a_prefix() {
        let first = SnippetId::new(7);
        let fold = WindowFold {
            first,
            len: 2,
            ..WindowFold::default()
        };
        assert_eq!(fold.covers(first, 2), 2, "exact");
        assert_eq!(fold.covers(first, 5), 2, "grew at the trailing edge");
        assert_eq!(fold.covers(first, 1), 0, "window shrank");
        assert_eq!(fold.covers(SnippetId::new(8), 5), 0, "leading edge slid");
    }

    #[test]
    fn item_spaces_do_not_collide() {
        assert_ne!(entity_item(EntityId::new(5)), term_item(TermId::new(5)));
    }
}
