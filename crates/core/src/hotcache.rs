//! Zipf-aware cache of pre-folded windowed story centroids.
//!
//! The identification scoring loop needs, per candidate story, the sum
//! of the story's *windowed* members' entity and term vectors. Snippet
//! traffic is Zipf-skewed (the generator models this explicitly), so a
//! handful of hot stories absorb most comparisons — and their windowed
//! member list barely changes between consecutive probes. This cache
//! keeps those folds alive across probes.
//!
//! ## Correctness model
//!
//! An entry keys its fold by the story's epoch
//! ([`StoryState::epoch`](crate::state::StoryState::epoch)), the first
//! member folded and how many were folded. Window queries return
//! ascending `(timestamp, id)` order, and while its epoch holds a story
//! gains members only after all the others in that order. So when the
//! epoch and the first windowed member are unchanged and the window
//! holds at least `len` of the story's members, the fold is of a prefix
//! of them: fold only the rest (hit). Anything else refolds in place
//! (miss). A resumed fold is bit-identical to one from scratch, because
//! `SparseVec::merge_add` applies the same additions in the same order
//! (debug builds check every hit); that is what makes partitions
//! byte-identical with the cache on or off.
//!
//! The cache hears of one event only: a story leaving the identifier
//! ([`HotStoryCache::remove`]), so that a dead story's entry neither
//! holds capacity nor meets a re-created id at a stale epoch.
//!
//! ## Eviction
//!
//! Capacity-bounded, evict-least-frequently-used with the story id as a
//! deterministic tie-break. Entries for stories referenced by the probe
//! currently being scored are never evicted (the caller marks them
//! protected); if every resident entry is protected, the new story is
//! simply not admitted and the caller folds into local scratch instead.

use std::collections::HashMap;

use storypivot_types::{mem, EntityId, SnippetId, SparseVec, StoryId, TermId};

/// One cached story: the folded entity/term sums of its first `len`
/// windowed members from `first`, at story epoch `epoch`.
#[derive(Debug, Clone, Default)]
pub struct CacheEntry {
    /// The story's epoch when the fold was started.
    pub epoch: u64,
    /// The first member folded.
    pub first: SnippetId,
    /// Number of members folded.
    pub len: u32,
    /// Sum of the members' entity vectors.
    pub entities: SparseVec<EntityId>,
    /// Sum of the members' term vectors.
    pub terms: SparseVec<TermId>,
    /// Lookup count (LFU eviction key).
    pub uses: u64,
}

impl CacheEntry {
    /// How many of a story's `n` windowed members, led by `first`, the
    /// fold already holds at story epoch `epoch`: `len` if they begin
    /// with the members folded, otherwise 0.
    pub fn covers(&self, epoch: u64, first: SnippetId, n: usize) -> usize {
        let len = self.len as usize;
        if self.epoch == epoch && self.first == first && len <= n {
            len
        } else {
            0
        }
    }

    /// Drop the fold but keep the allocations for reuse.
    pub fn clear(&mut self) {
        self.len = 0;
        self.entities.clear();
        self.terms.clear();
    }

    /// Heap bytes of both folds.
    pub fn heap_bytes(&self) -> usize {
        self.entities.heap_bytes() + self.terms.heap_bytes()
    }
}

/// One slab slot: a cache entry plus the story it serves.
#[derive(Debug, Clone)]
struct Slot {
    story: StoryId,
    entry: CacheEntry,
}

/// Capacity-bounded LFU cache of pre-folded story centroids: a slab of
/// entries and a story → slot index.
#[derive(Debug, Clone)]
pub struct HotStoryCache {
    capacity: usize,
    index: HashMap<StoryId, u32>,
    slots: Vec<Slot>,
}

impl HotStoryCache {
    /// A cache holding at most `capacity` stories (0 disables caching).
    pub fn new(capacity: usize) -> Self {
        HotStoryCache {
            capacity,
            index: HashMap::with_capacity(capacity.min(1024)),
            slots: Vec::new(),
        }
    }

    /// Heap bytes of the index, the slab and every entry's folds.
    pub fn heap_bytes(&self) -> usize {
        mem::hash_map_bytes(&self.index)
            + mem::vec_bytes(&self.slots)
            + self.slots.iter().map(|s| s.entry.heap_bytes()).sum::<usize>()
    }

    /// Drop a story's entry (the story left the identifier).
    pub fn remove(&mut self, story: StoryId) {
        if let Some(i) = self.index.remove(&story) {
            self.slots.swap_remove(i as usize);
            if let Some(moved) = self.slots.get(i as usize) {
                self.index.insert(moved.story, i);
            }
        }
    }

    /// `story`'s entry, admitted empty (`len` 0, `uses` 0) if it is not
    /// resident, evicting the least-frequently-used unprotected entry if
    /// the cache is full. `None` when the cache is disabled or every
    /// resident entry is protected.
    ///
    /// `protected` marks stories that must not be evicted — the caller
    /// passes the stories involved in the probe currently being scored,
    /// whose entries it may already have refreshed this round.
    pub fn entry(
        &mut self,
        story: StoryId,
        mut protected: impl FnMut(StoryId) -> bool,
    ) -> Option<&mut CacheEntry> {
        if self.capacity == 0 {
            return None;
        }
        if let Some(&i) = self.index.get(&story) {
            return Some(&mut self.slots[i as usize].entry);
        }
        let i = if self.slots.len() >= self.capacity {
            // LFU victim, story id as deterministic tie-break; the min
            // is unique so scan order does not matter.
            let victim = self
                .slots
                .iter()
                .enumerate()
                .filter(|(_, s)| !protected(s.story))
                .min_by_key(|(_, s)| (s.entry.uses, s.story))
                .map(|(i, _)| i)?;
            // Reuse the victim's slot (and allocations) in place.
            self.index.remove(&self.slots[victim].story);
            victim
        } else {
            self.slots.push(Slot {
                story,
                entry: CacheEntry::default(),
            });
            self.slots.len() - 1
        };
        self.index.insert(story, i as u32);
        let slot = &mut self.slots[i];
        slot.story = story;
        slot.entry.clear();
        slot.entry.uses = 0;
        Some(&mut slot.entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sid(n: u32) -> StoryId {
        StoryId::new(n)
    }

    fn resident(c: &HotStoryCache, story: StoryId) -> bool {
        c.index.contains_key(&story)
    }

    #[test]
    fn entry_is_admitted_empty_and_then_resident() {
        let mut c = HotStoryCache::new(2);
        let e = c.entry(sid(1), |_| false).unwrap();
        assert_eq!((e.len, e.uses), (0, 0));
        e.len = 4;
        e.uses = 3;
        assert_eq!(c.entry(sid(1), |_| false).unwrap().len, 4);
        assert_eq!(c.index.len(), 1);
    }

    #[test]
    fn covers_only_a_prefix_at_the_same_epoch() {
        let first = SnippetId::new(7);
        let e = CacheEntry {
            epoch: 3,
            first,
            len: 2,
            ..CacheEntry::default()
        };
        assert_eq!(e.covers(3, first, 2), 2, "exact");
        assert_eq!(e.covers(3, first, 5), 2, "grew at the trailing edge");
        assert_eq!(e.covers(3, first, 1), 0, "window shrank");
        assert_eq!(e.covers(4, first, 5), 0, "epoch moved");
        assert_eq!(e.covers(3, SnippetId::new(8), 5), 0, "leading edge slid");
    }

    #[test]
    fn zero_capacity_disables() {
        let mut c = HotStoryCache::new(0);
        assert!(c.entry(sid(1), |_| false).is_none());
        assert_eq!(c.index.len(), 0);
    }

    #[test]
    fn evicts_least_frequently_used() {
        let mut c = HotStoryCache::new(2);
        c.entry(sid(1), |_| false).unwrap().uses = 10;
        c.entry(sid(2), |_| false).unwrap().uses = 1;
        c.entry(sid(3), |_| false).unwrap();
        assert!(resident(&c, sid(1)), "hot entry survives");
        assert!(!resident(&c, sid(2)), "cold entry evicted");
        assert!(resident(&c, sid(3)));
    }

    #[test]
    fn tie_break_is_lowest_story_id() {
        let mut c = HotStoryCache::new(2);
        c.entry(sid(5), |_| false).unwrap().uses = 1;
        c.entry(sid(2), |_| false).unwrap().uses = 1;
        c.entry(sid(9), |_| false).unwrap();
        assert!(!resident(&c, sid(2)), "lowest id among equal uses goes");
        assert!(resident(&c, sid(5)));
    }

    #[test]
    fn protected_entries_are_never_evicted() {
        let mut c = HotStoryCache::new(1);
        c.entry(sid(1), |_| false).unwrap();
        assert!(
            c.entry(sid(2), |s| s == sid(1)).is_none(),
            "full of protected entries ⇒ no admission"
        );
        assert!(resident(&c, sid(1)));
    }

    #[test]
    fn remove_frees_the_slot_and_keeps_the_rest_indexed() {
        let mut c = HotStoryCache::new(2);
        c.entry(sid(1), |_| false).unwrap().uses = 99;
        c.entry(sid(2), |_| false).unwrap().uses = 5;
        c.remove(sid(1));
        assert_eq!(c.index.len(), 1);
        assert_eq!(c.entry(sid(2), |_| false).unwrap().uses, 5, "moved slot still found");
        assert_eq!(c.entry(sid(3), |_| false).unwrap().uses, 0, "admitted without eviction");
        assert!(resident(&c, sid(2)));
    }
}
