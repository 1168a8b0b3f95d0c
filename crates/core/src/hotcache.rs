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
//! A cache entry stores the member-id list it was folded from, in fold
//! order. On lookup the caller compares that list against the current
//! windowed member list:
//!
//! * **exact match** — the fold is current, reuse it (hit);
//! * **prefix match** — the window grew at the trailing edge (window
//!   queries return ascending `(timestamp, id)` order, so new members of
//!   a story append); fold only the tail (hit);
//! * **anything else** — refold from scratch (miss).
//!
//! Because snippets are immutable and the fold is a pure function of the
//! member list, list equality *implies* vector validity — the cache is
//! self-validating, and the explicit [`HotStoryCache::invalidate`] calls
//! on merge/split/removal are hygiene (they free capacity early and keep
//! hit accounting honest) rather than load-bearing. Fold results are
//! bit-identical whether resumed from a prefix or rebuilt, because
//! `SparseVec::merge_add` applies the same additions in the same order
//! either way. That is what makes partitions byte-identical with the
//! cache on or off.
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

/// One cached story: the windowed member list a fold was computed from,
/// and the folded entity/term sums.
#[derive(Debug, Clone, Default)]
pub struct CacheEntry {
    /// Member snippet ids, in window (fold) order.
    pub members: Vec<SnippetId>,
    /// Sum of the members' entity vectors.
    pub entities: SparseVec<EntityId>,
    /// Sum of the members' term vectors.
    pub terms: SparseVec<TermId>,
    /// Lookup count (LFU eviction key).
    pub uses: u64,
}

impl CacheEntry {
    /// Drop the fold but keep the allocations for reuse.
    pub fn reset(&mut self) {
        self.members.clear();
        self.entities.clear();
        self.terms.clear();
        self.uses = 0;
    }

    /// Heap bytes of the member list and both folds.
    pub fn heap_bytes(&self) -> usize {
        mem::vec_bytes(&self.members) + self.entities.heap_bytes() + self.terms.heap_bytes()
    }
}

/// One slab slot: a cache entry plus the story it currently serves.
///
/// Dead slots (`live == false`) keep their `CacheEntry` allocations so
/// the next admission reuses them instead of allocating fresh vectors.
#[derive(Debug, Clone)]
struct Slot {
    story: StoryId,
    live: bool,
    entry: CacheEntry,
}

/// Capacity-bounded LFU cache of pre-folded story centroids.
///
/// Entries live in an index-stable slab: once admitted, an entry keeps
/// its slot index until it is evicted or invalidated. The scoring loop
/// exploits this — it resolves each story's entry **once** (one hash
/// lookup via [`HotStoryCache::get_mut_indexed`] /
/// [`HotStoryCache::admit`]), folds into it, and reads the fold back
/// with [`HotStoryCache::by_index`] at array-index cost instead of
/// re-hashing per kernel.
#[derive(Debug, Clone)]
pub struct HotStoryCache {
    capacity: usize,
    index: HashMap<StoryId, u32>,
    slots: Vec<Slot>,
    free: Vec<u32>,
}

impl HotStoryCache {
    /// A cache holding at most `capacity` stories (0 disables caching).
    pub fn new(capacity: usize) -> Self {
        HotStoryCache {
            capacity,
            index: HashMap::with_capacity(capacity.min(1024)),
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Heap bytes of the index, the slab and every slot's buffers, live
    /// or kept for reuse.
    pub fn heap_bytes(&self) -> usize {
        mem::hash_map_bytes(&self.index)
            + mem::vec_bytes(&self.slots)
            + mem::vec_bytes(&self.free)
            + self.slots.iter().map(|s| s.entry.heap_bytes()).sum::<usize>()
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Read a resident entry.
    pub fn get(&self, story: StoryId) -> Option<&CacheEntry> {
        self.index.get(&story).map(|&i| &self.slots[i as usize].entry)
    }

    /// Read an entry by the slot index returned from
    /// [`HotStoryCache::get_mut_indexed`] or [`HotStoryCache::admit`].
    /// The index stays valid until that story is evicted or invalidated.
    #[inline]
    pub fn by_index(&self, idx: u32) -> &CacheEntry {
        let slot = &self.slots[idx as usize];
        debug_assert!(slot.live, "stale cache index");
        &slot.entry
    }

    /// Mutate a resident entry (lookup-and-refresh path).
    pub fn get_mut(&mut self, story: StoryId) -> Option<&mut CacheEntry> {
        self.get_mut_indexed(story).map(|(_, e)| e)
    }

    /// Like [`HotStoryCache::get_mut`], also yielding the entry's slot
    /// index for later [`HotStoryCache::by_index`] reads.
    pub fn get_mut_indexed(&mut self, story: StoryId) -> Option<(u32, &mut CacheEntry)> {
        let &i = self.index.get(&story)?;
        Some((i, &mut self.slots[i as usize].entry))
    }

    /// Drop a story's entry (story merged away, split, or had a member
    /// removed).
    pub fn invalidate(&mut self, story: StoryId) {
        if let Some(i) = self.index.remove(&story) {
            self.slots[i as usize].live = false;
            self.free.push(i);
        }
    }

    /// Admit `story`, evicting the least-frequently-used unprotected
    /// entry if the cache is full. Returns the slot index and the
    /// (reset) entry to fold into, or `None` when the cache is disabled
    /// or every resident entry is protected.
    ///
    /// `protected` marks stories that must not be evicted — the caller
    /// passes the stories involved in the probe currently being scored,
    /// whose entries it may already have refreshed this round.
    pub fn admit(
        &mut self,
        story: StoryId,
        mut protected: impl FnMut(StoryId) -> bool,
    ) -> Option<(u32, &mut CacheEntry)> {
        if self.capacity == 0 {
            return None;
        }
        if let Some(&i) = self.index.get(&story) {
            let entry = &mut self.slots[i as usize].entry;
            entry.reset();
            return Some((i, entry));
        }
        let i = if self.index.len() >= self.capacity {
            // LFU victim, story id as deterministic tie-break; the min
            // is unique so scan order does not matter.
            let victim = self
                .slots
                .iter()
                .enumerate()
                .filter(|(_, s)| s.live && !protected(s.story))
                .min_by_key(|(_, s)| (s.entry.uses, s.story))
                .map(|(i, _)| i as u32)?;
            // Reuse the victim's slot (and allocations) in place.
            self.index.remove(&self.slots[victim as usize].story);
            victim
        } else if let Some(i) = self.free.pop() {
            i
        } else {
            self.slots.push(Slot {
                story,
                live: false,
                entry: CacheEntry::default(),
            });
            (self.slots.len() - 1) as u32
        };
        self.index.insert(story, i);
        let slot = &mut self.slots[i as usize];
        slot.story = story;
        slot.live = true;
        slot.entry.reset();
        Some((i, &mut slot.entry))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sid(n: u32) -> StoryId {
        StoryId::new(n)
    }

    #[test]
    fn admit_and_get_round_trip() {
        let mut c = HotStoryCache::new(2);
        let e = c.admit(sid(1), |_| false).unwrap().1;
        e.members.push(SnippetId::new(7));
        e.uses = 3;
        assert_eq!(c.get(sid(1)).unwrap().members, vec![SnippetId::new(7)]);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn zero_capacity_disables() {
        let mut c = HotStoryCache::new(0);
        assert!(c.admit(sid(1), |_| false).is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn evicts_least_frequently_used() {
        let mut c = HotStoryCache::new(2);
        c.admit(sid(1), |_| false).unwrap().1.uses = 10;
        c.admit(sid(2), |_| false).unwrap().1.uses = 1;
        c.admit(sid(3), |_| false).unwrap();
        assert!(c.get(sid(1)).is_some(), "hot entry survives");
        assert!(c.get(sid(2)).is_none(), "cold entry evicted");
        assert!(c.get(sid(3)).is_some());
    }

    #[test]
    fn tie_break_is_lowest_story_id() {
        let mut c = HotStoryCache::new(2);
        c.admit(sid(5), |_| false).unwrap().1.uses = 1;
        c.admit(sid(2), |_| false).unwrap().1.uses = 1;
        c.admit(sid(9), |_| false).unwrap();
        assert!(c.get(sid(2)).is_none(), "lowest id among equal uses goes");
        assert!(c.get(sid(5)).is_some());
    }

    #[test]
    fn protected_entries_are_never_evicted() {
        let mut c = HotStoryCache::new(1);
        c.admit(sid(1), |_| false).unwrap().1.uses = 0;
        assert!(
            c.admit(sid(2), |s| s == sid(1)).is_none(),
            "full of protected entries ⇒ no admission"
        );
        assert!(c.get(sid(1)).is_some());
    }

    #[test]
    fn invalidate_frees_the_slot() {
        let mut c = HotStoryCache::new(1);
        c.admit(sid(1), |_| false).unwrap().1.uses = 99;
        c.invalidate(sid(1));
        assert!(c.is_empty());
        assert!(c.admit(sid(2), |_| false).is_some());
    }

    #[test]
    fn readmitting_resident_story_resets_it() {
        let mut c = HotStoryCache::new(2);
        let e = c.admit(sid(1), |_| false).unwrap().1;
        e.members.push(SnippetId::new(1));
        e.uses = 5;
        let e = c.admit(sid(1), |_| false).unwrap().1;
        assert!(e.members.is_empty());
        assert_eq!(e.uses, 0);
    }
}
