//! Story identification within one data source (paper §2.2).
//!
//! The identifier processes snippets *incrementally*: for every incoming
//! snippet it finds the most likely story and joins it, or opens a new
//! story around the snippet — exactly the loop described in §2.1. The
//! comparison scope depends on the [`MatchMode`]:
//!
//! * **Temporal** (Figure 2b): only snippets with timestamps in
//!   `[t-ω, t+ω]` are candidates — faster, and robust to story drift.
//! * **Complete** (Figure 2a): every prior snippet of the source is a
//!   candidate — the baseline that "overfits stories".
//!
//! Stories evolve, so the identifier also supports **merge** (an
//! incoming snippet that strongly matches two stories is evidence they
//! are one) and **split** (a maintenance pass that breaks a story whose
//! member-similarity graph has fallen apart) — the incremental record
//! linkage behaviour the paper cites.
//!
//! # Maintenance is proportional to what changed
//!
//! Whether a story splits, and into which fragments, is a pure function
//! of its member list: `Story::members` is sorted by snippet id, two
//! members share an edge iff they lie within `2ω` of each other (temporal
//! mode) and their `snippet_sim` reaches `split_threshold`, and
//! [`UnionFind::groups`] orders the components by smallest member before
//! the stable sort by size hands out fresh ids. Stored snippets never
//! change, so a verdict stays true until the member list changes. The
//! identifier therefore keeps the set of stories *not known connected*
//! (`pending`), and [`Identifier::maintain`] looks at nothing else.
//!
//! **Invariant.** A story absent from `pending` has fewer than 3 members
//! or a connected member graph; for a *grew-by* entry, the members it
//! does not list are one component. Who keeps it:
//!
//! * a join onto a story of ≥ 3 members held as connected records the
//!   newcomer (*grew-by*); onto anything smaller, *unknown* — a story
//!   that never had 3 members has never been swept, so its first two
//!   are not known connected;
//! * a merge makes the survivor *unknown* (the bridge cleared
//!   `merge_threshold` on a blended story-level score, which is no
//!   pairwise edge) and the absorbed id leaves the set;
//! * [`Identifier::remove_snippet`] (a bridge may be gone) and
//!   [`Identifier::force_assign`] (refinement moves, reassignment, every
//!   member on checkpoint load) make the story *unknown*; an emptied
//!   story leaves the set;
//! * after a split the survivor and every fragment are components, hence
//!   connected; a pass leaves the set empty.
//!
//! `StoryPivot::check_invariants` re-derives this from scratch
//! ([`Identifier::check_pending`]).

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use storypivot_store::EventStore;
use storypivot_types::ids::IdGen;
use storypivot_types::{mem, Error, Result, Snippet, SnippetId, SourceId, StoryId};

use crate::config::{IdentifyConfig, MatchMode, SketchConfig};
use crate::hotcache::{CacheEntry, HotStoryCache};
use crate::state::StoryState;
use crate::unionfind::UnionFind;

/// Number of story-id slots reserved per source (story ids are
/// partitioned by source so identifiers can run in parallel without a
/// shared allocator).
pub const STORY_ID_STRIDE: u32 = 1 << 24;

/// "No story" in [`Identifier`]'s snippet → story table. No live story
/// id equals it: story ids are `source · 2²⁴ + n`, and
/// `StoryPivot::add_source_with_lag` / `add_source_registered` reject
/// sources ≥ 255, so every id is below `255 · 2²⁴ < u32::MAX`
/// (`record_assignment` asserts it for ids forced in from outside).
const UNASSIGNED: u32 = u32::MAX;

/// What happened when a snippet was identified.
#[derive(Debug, Clone, PartialEq)]
pub struct IdentifyDecision {
    /// The story the snippet ended up in.
    pub story: StoryId,
    /// Whether that story was newly created for this snippet.
    pub created: bool,
    /// The best candidate score observed (0 when there were no candidates).
    pub best_score: f64,
    /// Stories merged into `story` as a side effect of this snippet.
    pub merged: Vec<StoryId>,
    /// Number of snippet comparisons performed (drives experiment E1).
    pub compared: usize,
    /// Hot-story-cache hits while scoring this snippet (candidate
    /// stories whose windowed fold was reused or merely extended).
    pub cache_hits: usize,
    /// Hot-story-cache misses (stories folded from scratch, whether
    /// admitted to the cache or accumulated in local scratch).
    pub cache_misses: usize,
}

/// Report of a maintenance pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MaintenanceReport {
    /// Each entry: a story that split, with the ids of the fragments
    /// (the original id is reused for the largest fragment).
    pub splits: Vec<(StoryId, Vec<StoryId>)>,
    /// Stories of ≥ 3 members whose member graph the pass examined.
    pub stories_checked: usize,
    /// Snippet-pair similarities the pass evaluated.
    pub pairs_scored: usize,
}

/// What the next maintenance pass must still establish about a story
/// (the module docs state the invariant).
#[derive(Debug, Clone)]
enum Pending {
    /// Nothing is known about the member graph.
    Unknown,
    /// The story was held as connected and has only gained these members
    /// since: the members not listed are one component.
    Grew(Vec<SnippetId>),
}

/// Connected components of `members`' similarity graph — an edge joins
/// two members within `2ω` of each other (temporal mode) whose
/// similarity reaches `split_threshold` — and the number of similarities
/// evaluated to find them.
///
/// With `grew`, the members it does not list are taken as one component
/// and only pairs involving a listed one are looked at. Either way the
/// scan skips pairs already in one component and stops once a single
/// component is left, newest members first (a joiner's best pair is
/// recent): neither can change which components come out, only how many
/// similarities it takes.
fn member_components(
    cfg: &IdentifyConfig,
    members: &[&Snippet],
    grew: Option<&[SnippetId]>,
) -> (UnionFind, usize) {
    let n = members.len();
    let mut uf = UnionFind::new(n);
    let fresh: Vec<bool> = members
        .iter()
        .map(|m| grew.is_none_or(|new| new.contains(&m.id)))
        .collect();
    let mut settled = (0..n).filter(|&i| !fresh[i]);
    if let Some(first) = settled.next() {
        for i in settled {
            uf.union(first, i);
        }
    }
    let max_gap = cfg.mode.omega().map(|w| 2 * w);
    let mut pairs = 0usize;
    for i in (0..n).rev().filter(|&i| fresh[i]) {
        // Bit-identical to `snippet_sim` per pair, in either argument
        // order: every kernel behind it is symmetric term by term.
        let scorer = cfg.weights.probe(&members[i].content);
        for j in (0..n).rev() {
            // Two fresh members meet in the row of the newer one.
            if j == i || (fresh[j] && j > i) || uf.connected(i, j) {
                continue;
            }
            if max_gap.is_some_and(|gap| members[i].timestamp.distance(members[j].timestamp) > gap) {
                continue;
            }
            pairs += 1;
            if scorer.score(&members[j].content) >= cfg.split_threshold {
                uf.union(i, j);
                if uf.component_count() == 1 {
                    return (uf, pairs);
                }
            }
        }
    }
    (uf, pairs)
}

/// Where a candidate story's windowed fold lives for the current probe.
/// Phase 2 sets this for every live slot; phase 3 reads the fold back
/// at array-index cost (no per-story hashing while scoring).
#[derive(Debug, Clone, Copy)]
enum Fold {
    /// Hot-cache slab index (read with [`HotStoryCache::by_index`]).
    Cached(u32),
    /// Pooled local scratch buffer index.
    Local(u32),
}

/// One candidate story's accumulation state during a probe.
#[derive(Debug, Clone)]
struct Slot {
    story: StoryId,
    /// Best single-pair similarity seen so far.
    pair: f64,
    /// Indices into the probe's candidate list belonging to this story,
    /// in window (fold) order.
    cand_idx: Vec<u32>,
    /// Fold location; the placeholder is always overwritten in phase 2.
    fold: Fold,
}

impl Slot {
    fn reset(&mut self, story: StoryId) {
        self.story = story;
        self.pair = 0.0;
        self.cand_idx.clear();
        self.fold = Fold::Local(0);
    }
}

/// Reusable per-probe scoring state. Every buffer is pooled: a probe
/// clears and refills them, so steady-state candidate scoring performs
/// no allocation at all (the old code allocated a freshly merged vector
/// per candidate — O(story size) allocations per probe).
#[derive(Debug, Clone, Default)]
struct ScoreScratch {
    /// Story → slot index as a stamped dense array ("sparse set").
    /// Story ids are allocated sequentially per source, so the id
    /// offset from the source's base indexes directly — no hashing on
    /// the per-candidate path. `si_of[off]` is valid for the current
    /// probe iff `stamp[off] == probe`.
    stamp: Vec<u32>,
    si_of: Vec<u32>,
    probe: u32,
    /// Slot pool; only `slots[..live]` belong to the current probe.
    slots: Vec<Slot>,
    live: usize,
    /// Pool of fold buffers for stories that could not use the cache.
    locals: Vec<CacheEntry>,
    live_locals: usize,
    /// `(story, blended score)`: the best-scoring story first, then
    /// the stories reaching `merge_threshold` in rank order — all
    /// [`Identifier::decide`] reads.
    ranked: Vec<(StoryId, f64)>,
}

impl ScoreScratch {
    fn begin(&mut self) {
        self.probe = self.probe.wrapping_add(1);
        if self.probe == 0 {
            // Stamp wrapped (once per 2^32 probes): old stamps could
            // collide, so reset them all and restart at 1.
            self.stamp.fill(0);
            self.probe = 1;
        }
        self.live = 0;
        self.live_locals = 0;
    }

    /// Index of the slot for `story` (id offset `off` from the source's
    /// story-id base), acquiring one from the pool on first sight.
    /// Slots are issued in first-seen order, exactly as the hash-map
    /// entry API this replaces.
    fn slot(&mut self, story: StoryId, off: usize) -> usize {
        if off >= self.stamp.len() {
            self.stamp.resize(off + 1, 0);
            self.si_of.resize(off + 1, 0);
        }
        if self.stamp[off] == self.probe {
            return self.si_of[off] as usize;
        }
        let si = self.live;
        self.live += 1;
        if si == self.slots.len() {
            self.slots.push(Slot {
                story,
                pair: 0.0,
                cand_idx: Vec::new(),
                fold: Fold::Local(0),
            });
        } else {
            self.slots[si].reset(story);
        }
        self.stamp[off] = self.probe;
        self.si_of[off] = si as u32;
        si
    }
}

/// Append the candidates at `idx` (in that order) to `entry`'s fold.
/// Every fold in phase 2 goes through here, so the order of f32
/// additions — and with it every score — cannot differ between the
/// cached, extended, refolded and local paths.
#[inline]
fn fold_members(entry: &mut CacheEntry, candidates: &[&Snippet], idx: &[u32]) {
    for &ci in idx {
        let c = candidates[ci as usize];
        entry.entities.merge_add(c.entities());
        entry.terms.merge_add(c.terms());
        entry.members.push(c.id);
    }
}

/// Rank order of scored stories: descending score, ties by ascending
/// story id. `total_cmp` keeps this a strict total order even when a
/// degenerate weight config produces NaN scores; NaN ranks first but
/// fails the match threshold, so the decision stays deterministic
/// instead of depending on sort internals.
fn by_rank(a: &(StoryId, f64), b: &(StoryId, f64)) -> std::cmp::Ordering {
    b.1.total_cmp(&a.1).then(a.0.cmp(&b.0))
}

/// Cut `ranked` down to what [`Identifier::decide`] reads of the full
/// ranking: its head, then the entries reaching `merge_threshold` in
/// rank order. [`by_rank`] is a total order over distinct stories, so
/// both are what a full sort would have put there — the head is its
/// minimum, and sorting a subset yields the full sort's subsequence.
fn rank_for_decision(ranked: &mut Vec<(StoryId, f64)>, merge_threshold: f64) {
    let Some(&head) = ranked.iter().min_by(|a, b| by_rank(a, b)) else {
        return;
    };
    ranked.retain(|e| e.0 != head.0 && e.1 >= merge_threshold);
    ranked.sort_unstable_by(by_rank);
    ranked.insert(0, head);
}

/// Incremental story identifier for one data source.
#[derive(Debug, Clone)]
pub struct Identifier {
    source: SourceId,
    cfg: IdentifyConfig,
    stories: HashMap<StoryId, StoryState>,
    /// The snippet → story table: raw story id indexed by snippet raw
    /// id, [`UNASSIGNED`] where the snippet has no story here.
    assignment: Vec<u32>,
    /// Number of entries of `assignment` that hold a story.
    assigned: usize,
    ids: IdGen<StoryId>,
    since_maintenance: usize,
    /// Stories not known connected (module docs). Holds at most one
    /// entry per story joined or forced since the last pass.
    pending: HashMap<StoryId, Pending>,
    cache: HotStoryCache,
    scratch: ScoreScratch,
}

impl Identifier {
    /// A fresh identifier for `source`. Identification keeps no
    /// sketches — alignment derives them ([`StoryState::sketch`]) — so
    /// the sketch settings are not used here.
    pub fn new(source: SourceId, cfg: IdentifyConfig, _sketch_cfg: SketchConfig) -> Self {
        Identifier {
            source,
            stories: HashMap::new(),
            assignment: Vec::new(),
            assigned: 0,
            ids: IdGen::starting_at(source.raw().wrapping_mul(STORY_ID_STRIDE)),
            since_maintenance: 0,
            pending: HashMap::new(),
            cache: HotStoryCache::new(cfg.hot_cache_capacity),
            scratch: ScoreScratch::default(),
            cfg,
        }
    }

    /// The source this identifier owns.
    pub fn source(&self) -> SourceId {
        self.source
    }

    /// Number of (non-empty) stories.
    pub fn story_count(&self) -> usize {
        self.stories.len()
    }

    /// All story states (arbitrary order).
    pub fn stories(&self) -> impl Iterator<Item = &StoryState> + '_ {
        self.stories.values()
    }

    /// Story ids sorted ascending (deterministic iteration).
    pub fn story_ids(&self) -> Vec<StoryId> {
        let mut v: Vec<StoryId> = self.stories.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// One story's state.
    pub fn story(&self, id: StoryId) -> Option<&StoryState> {
        self.stories.get(&id)
    }

    /// The story a snippet is assigned to.
    #[inline]
    pub fn story_of(&self, snippet: SnippetId) -> Option<StoryId> {
        match self.assignment.get(snippet.index()) {
            Some(&raw) if raw != UNASSIGNED => Some(StoryId::new(raw)),
            _ => None,
        }
    }

    /// Number of assigned snippets.
    pub fn assigned_count(&self) -> usize {
        self.assigned
    }

    /// Heap bytes by part (the memory account): the story table with
    /// every state's buffers and the snippet → story table, the hot-story
    /// cache, the pending-maintenance set, and the pooled probe scratch.
    pub fn heap_bytes(&self) -> [(&'static str, usize); 4] {
        let stories = mem::hash_map_bytes(&self.stories)
            + self.stories.values().map(StoryState::heap_bytes).sum::<usize>()
            + mem::vec_bytes(&self.assignment);
        let pending = mem::hash_map_bytes(&self.pending)
            + self
                .pending
                .values()
                .map(|p| match p {
                    Pending::Unknown => 0,
                    Pending::Grew(new) => mem::vec_bytes(new),
                })
                .sum::<usize>();
        let s = &self.scratch;
        let scratch = mem::vec_bytes(&s.stamp)
            + mem::vec_bytes(&s.si_of)
            + mem::vec_bytes(&s.slots)
            + s.slots.iter().map(|slot| mem::vec_bytes(&slot.cand_idx)).sum::<usize>()
            + mem::vec_bytes(&s.locals)
            + s.locals.iter().map(CacheEntry::heap_bytes).sum::<usize>()
            + mem::vec_bytes(&s.ranked);
        [
            ("identify.stories", stories),
            ("identify.hot_cache", self.cache.heap_bytes()),
            ("identify.pending", pending),
            ("identify.scratch", scratch),
        ]
    }

    /// Iterate all `(snippet, story)` assignments, ascending by snippet
    /// id.
    pub fn assignments(&self) -> impl Iterator<Item = (SnippetId, StoryId)> + '_ {
        self.assignment
            .iter()
            .enumerate()
            .filter(|&(_, &raw)| raw != UNASSIGNED)
            .map(|(i, &raw)| (SnippetId::new(i as u32), StoryId::new(raw)))
    }

    /// Raw value of the next story id this identifier would allocate
    /// (checkpointing).
    pub fn next_story_id_raw(&self) -> u32 {
        self.ids.allocated()
    }

    /// Restore the story-id allocator position (checkpoint load).
    pub fn restore_next_story_id(&mut self, raw: u32) {
        self.ids = IdGen::starting_at(raw);
    }

    /// Snippets identified since the last maintenance pass
    /// (checkpointing: a restored engine must split at the same events
    /// as the one that kept running).
    pub fn since_maintenance(&self) -> usize {
        self.since_maintenance
    }

    /// Restore the maintenance phase (checkpoint load).
    pub fn restore_since_maintenance(&mut self, n: usize) {
        self.since_maintenance = n;
    }

    /// Record `snippet → story`, replacing any previous assignment.
    fn record_assignment(&mut self, snippet: SnippetId, story: StoryId) {
        assert_ne!(story.raw(), UNASSIGNED, "story id {story} is the unassigned sentinel");
        let off = snippet.index();
        if off >= self.assignment.len() {
            self.assignment.resize(off + 1, UNASSIGNED);
        }
        if self.assignment[off] == UNASSIGNED {
            self.assigned += 1;
        }
        self.assignment[off] = story.raw();
    }

    /// Forget `snippet`'s assignment, returning the story it had.
    fn erase_assignment(&mut self, snippet: SnippetId) -> Option<StoryId> {
        let prev = self.story_of(snippet)?;
        self.assignment[snippet.index()] = UNASSIGNED;
        self.assigned -= 1;
        Some(prev)
    }

    /// Identify one snippet. The snippet must already be stored in
    /// `store` (so window queries can see it); it must belong to this
    /// identifier's source.
    ///
    /// Returns the decision; also runs the periodic maintenance pass
    /// when due (its effect is visible through the story table, not the
    /// returned decision).
    pub fn assign(&mut self, snippet: &Snippet, store: &EventStore) -> IdentifyDecision {
        let (compared, cache_hits, cache_misses) = self.score_probe(snippet, store);
        self.decide(snippet, compared, cache_hits, cache_misses)
    }

    /// The scoring phases of [`Identifier::assign`]: score `snippet`
    /// against every candidate story and leave the ranked `(story,
    /// score)` list in the internal scratch. Mutates only the hot-story
    /// cache (folds, admissions, LFU popularity) — never assignments or
    /// the story table — so running it without the subsequent decision
    /// is harmless, and running it twice makes the second pass a
    /// guaranteed cache hit. Returns `(compared, cache_hits,
    /// cache_misses)`.
    ///
    /// Public so the benchmark harness can time the similarity hot path
    /// in isolation.
    pub fn score_probe(&mut self, snippet: &Snippet, store: &EventStore) -> (usize, usize, usize) {
        debug_assert_eq!(snippet.source, self.source);

        // ---- phase 1: pair scoring, group candidates by story ----------
        //
        // Score = pair_blend·best-pair + (1-pair_blend)·window-centroid.
        // The best-pair (single-link) component lets evolving stories
        // chain through their most recent snippets; the centroid of the
        // story's *windowed* members keeps one spuriously similar pair
        // from chaining unrelated stories together (the incremental
        // record-linkage failure mode at scale). E10 ablates the blend.
        let candidates: Vec<&Snippet> = match self.cfg.mode {
            MatchMode::Temporal { omega } => store.window(self.source, snippet.timestamp, omega),
            MatchMode::Complete => store.snippets_of_source(self.source),
        };
        let mut compared = 0usize;
        let scorer = self.cfg.weights.probe(&snippet.content);
        let id_base = self.source.raw().wrapping_mul(STORY_ID_STRIDE);
        self.scratch.begin();
        for (ci, cand) in candidates.iter().enumerate() {
            if cand.id == snippet.id {
                continue;
            }
            let Some(story) = self.story_of(cand.id) else {
                continue; // not yet identified (later batch position)
            };
            compared += 1;
            let s = scorer.score(&cand.content);
            let off = story.raw().wrapping_sub(id_base) as usize;
            let si = self.scratch.slot(story, off);
            let slot = &mut self.scratch.slots[si];
            if s > slot.pair {
                slot.pair = s;
            }
            slot.cand_idx.push(ci as u32);
        }

        // ---- phase 2: bring each story's windowed fold current ---------
        //
        // The fold (sum of the story's windowed members' vectors) is the
        // expensive part; hot stories are served from the cache, which
        // only has to extend the fold by the members that newly entered
        // the window. Everything else is refolded into pooled scratch.
        let mut cache_hits = 0usize;
        let mut cache_misses = 0usize;
        {
            let ScoreScratch {
                stamp,
                probe,
                slots,
                live,
                locals,
                live_locals,
                ..
            } = &mut self.scratch;
            // A story is part of the current probe iff its stamp slot
            // carries this probe's stamp — the sparse-set equivalent of
            // the old `slot_of.contains_key`.
            let in_probe = |s: StoryId| {
                let off = s.raw().wrapping_sub(id_base) as usize;
                stamp.get(off).is_some_and(|&st| st == *probe)
            };
            for slot in &mut slots[..*live] {
                if let Some((idx, entry)) = self.cache.get_mut_indexed(slot.story) {
                    let is_prefix = entry.members.len() <= slot.cand_idx.len()
                        && entry
                            .members
                            .iter()
                            .zip(&slot.cand_idx)
                            .all(|(&m, &ci)| m == candidates[ci as usize].id);
                    if is_prefix {
                        // Exact hit or trailing-edge growth: fold only
                        // the members beyond the cached list.
                        let cached = entry.members.len();
                        fold_members(entry, &candidates, &slot.cand_idx[cached..]);
                        entry.uses += 1;
                        cache_hits += 1;
                    } else {
                        // Window slid or membership changed: refold in
                        // place, keeping the entry's LFU popularity.
                        let uses = entry.uses;
                        entry.reset();
                        entry.uses = uses + 1;
                        fold_members(entry, &candidates, &slot.cand_idx);
                        cache_misses += 1;
                    }
                    slot.fold = Fold::Cached(idx);
                    continue;
                }
                if let Some((idx, entry)) = self.cache.admit(slot.story, &in_probe) {
                    entry.uses = 1;
                    fold_members(entry, &candidates, &slot.cand_idx);
                    cache_misses += 1;
                    slot.fold = Fold::Cached(idx);
                    continue;
                }
                // Cache disabled or full of protected entries: fold into
                // a pooled local buffer. Bit-identical either way.
                let li = *live_locals;
                *live_locals += 1;
                if li == locals.len() {
                    locals.push(CacheEntry::default());
                }
                locals[li].reset();
                fold_members(&mut locals[li], &candidates, &slot.cand_idx);
                cache_misses += 1;
                slot.fold = Fold::Local(li as u32);
            }
        }

        // ---- phase 3: score the probe against each fold, rank stories --
        //
        // A fold's signature is the OR of its members' (`merge_add`), so
        // a probe sharing no entity, or no term, with a story's whole
        // window is answered from the two inline signatures.
        {
            let ScoreScratch {
                slots,
                live,
                locals,
                ranked,
                ..
            } = &mut self.scratch;
            let cache = &self.cache;
            let w = &self.cfg.weights;
            ranked.clear();
            for slot in &slots[..*live] {
                let fold = match slot.fold {
                    Fold::Local(li) => &locals[li as usize],
                    Fold::Cached(ci) => cache.by_index(ci),
                };
                let type_affinity = snippet.content.event_type.affinity(
                    self.stories
                        .get(&slot.story)
                        .map(|s| s.dominant_event_type())
                        .unwrap_or(snippet.content.event_type),
                );
                let centroid = (w.entity * snippet.entities().cosine(&fold.entities)
                    + w.term * snippet.terms().cosine(&fold.terms)
                    + w.event * type_affinity)
                    / w.total();
                ranked.push((
                    slot.story,
                    self.cfg.pair_blend * slot.pair + (1.0 - self.cfg.pair_blend) * centroid,
                ));
            }
            rank_for_decision(ranked, self.cfg.merge_threshold);
        }
        (compared, cache_hits, cache_misses)
    }

    /// The decision phase of [`Identifier::assign`]: consume the ranked
    /// list left in scratch by [`Identifier::score_probe`] and commit
    /// the assignment (story creation, merges, bookkeeping).
    fn decide(
        &mut self,
        snippet: &Snippet,
        compared: usize,
        cache_hits: usize,
        cache_misses: usize,
    ) -> IdentifyDecision {
        // ---- pick the best story, detect merge evidence ---------------
        let decision = match self.scratch.ranked.first().copied() {
            Some((best_story, best_score)) if best_score >= self.cfg.match_threshold => {
                // Merge every other story that also matches strongly.
                let mut merged = Vec::new();
                for i in 1..self.scratch.ranked.len() {
                    let (other, score) = self.scratch.ranked[i];
                    if score >= self.cfg.merge_threshold {
                        if let Some(other_state) = self.stories.remove(&other) {
                            for &m in &other_state.story.members {
                                self.record_assignment(m, best_story);
                            }
                            self.stories
                                .get_mut(&best_story)
                                .expect("best story exists")
                                .absorb(&other_state);
                            self.cache.invalidate(other);
                            self.pending.remove(&other);
                            merged.push(other);
                        }
                    }
                }
                if !merged.is_empty() {
                    self.cache.invalidate(best_story);
                }
                let state = self.stories.get_mut(&best_story).expect("best story exists");
                let pending = self.pending.entry(best_story).or_insert_with(|| {
                    if state.len() >= 3 {
                        Pending::Grew(Vec::new())
                    } else {
                        Pending::Unknown
                    }
                });
                match pending {
                    Pending::Grew(new) if merged.is_empty() => new.push(snippet.id),
                    _ => *pending = Pending::Unknown,
                }
                state.add_snippet(snippet);
                self.record_assignment(snippet.id, best_story);
                IdentifyDecision {
                    story: best_story,
                    created: false,
                    best_score,
                    merged,
                    compared,
                    cache_hits,
                    cache_misses,
                }
            }
            other => {
                let best_score = other.map_or(0.0, |(_, s)| s);
                let id = self.ids.next_id();
                let mut state = StoryState::new(id, self.source, storypivot_types::DAY);
                state.add_snippet(snippet);
                self.stories.insert(id, state);
                self.record_assignment(snippet.id, id);
                IdentifyDecision {
                    story: id,
                    created: true,
                    best_score,
                    merged: Vec::new(),
                    compared,
                    cache_hits,
                    cache_misses,
                }
            }
        };

        self.since_maintenance += 1;
        decision
    }

    /// Whether the periodic merge/split maintenance pass is due. Owners
    /// call [`Identifier::maintain`] when it is (the pass is separate so
    /// the caller can observe the split report, e.g. for dirty-story
    /// tracking in incremental alignment).
    pub fn maintenance_due(&self) -> bool {
        self.cfg.maintenance_every > 0 && self.since_maintenance >= self.cfg.maintenance_every
    }

    /// Remove a snippet from its story (document removal / refinement).
    /// Rebuilds the story's aggregates exactly; drops the story when it
    /// becomes empty. Returns the story it was removed from.
    pub fn remove_snippet(&mut self, snippet: &Snippet, store: &EventStore) -> Option<StoryId> {
        let story_id = self.erase_assignment(snippet.id)?;
        self.cache.invalidate(story_id);
        let Entry::Occupied(mut entry) = self.stories.entry(story_id) else {
            return None;
        };
        let state = entry.get_mut();
        state.story.remove_member(snippet.id);
        if state.story.is_empty() {
            entry.remove();
            self.pending.remove(&story_id);
        } else {
            let members: Vec<&Snippet> = state
                .story
                .members
                .iter()
                .filter_map(|&m| store.get(m))
                .collect();
            state.rebuild(members);
            self.pending.insert(story_id, Pending::Unknown);
        }
        Some(story_id)
    }

    /// Force-assign a snippet to a specific story (used by refinement to
    /// propagate alignment decisions back, Figure 1d). Creates the story
    /// if it does not exist.
    pub fn force_assign(&mut self, snippet: &Snippet, story: StoryId) {
        debug_assert_eq!(snippet.source, self.source);
        self.cache.invalidate(story);
        let state = self
            .stories
            .entry(story)
            .or_insert_with(|| StoryState::new(story, self.source, storypivot_types::DAY));
        state.add_snippet(snippet);
        self.record_assignment(snippet.id, story);
        self.pending.insert(story, Pending::Unknown);
    }

    /// Allocate a fresh story id (for refinement moves that need a new
    /// story).
    pub fn fresh_story_id(&mut self) -> StoryId {
        self.ids.next_id()
    }

    /// Run the merge/split maintenance pass now.
    ///
    /// Split: inside each story, member snippets stay connected when
    /// their pairwise similarity reaches `split_threshold` *and* (in
    /// temporal mode) they lie within `2ω` of each other. Stories whose
    /// member graph decomposes are split into their components.
    ///
    /// Only the stories in the pending set are examined (module docs):
    /// every other story has the member list a sweep already found
    /// connected, and would be found connected again. The pass walks the
    /// set in ascending story id, the order the walk over every story
    /// took, so fresh fragment ids are allocated in the same order; and a
    /// *grew-by* scan yields the same components as all pairs would,
    /// because the pairs it leaves out lie inside one component. When
    /// the pass runs is not this function's business: the cadence
    /// (`maintenance_every`, [`Identifier::maintenance_due`]) decides at
    /// which event a split fires, and with it the partition.
    pub fn maintain(&mut self, store: &EventStore) -> MaintenanceReport {
        self.since_maintenance = 0;
        let mut report = MaintenanceReport::default();
        let mut pending: Vec<(StoryId, Pending)> = self.pending.drain().collect();
        pending.sort_unstable_by_key(|&(id, _)| id);
        for (story_id, known) in pending {
            let state = &self.stories[&story_id];
            if state.len() < 3 {
                continue;
            }
            let members: Vec<&Snippet> = state
                .story
                .members
                .iter()
                .filter_map(|&m| store.get(m))
                .collect();
            if members.len() < 3 {
                continue;
            }
            let grew = match &known {
                // A member the store no longer has voids what was known.
                Pending::Grew(new) if members.len() == state.len() => Some(new.as_slice()),
                _ => None,
            };
            let (mut uf, pairs) = member_components(&self.cfg, &members, grew);
            report.stories_checked += 1;
            report.pairs_scored += pairs;
            if uf.component_count() == 1 {
                continue;
            }
            // Split: largest component keeps the id, others get new ids.
            self.cache.invalidate(story_id);
            let mut groups = uf.groups();
            groups.sort_by_key(|g| std::cmp::Reverse(g.len()));
            let mut fragment_ids = vec![story_id];

            // Rebuild the surviving story from the largest group.
            self.stories
                .get_mut(&story_id)
                .expect("story exists")
                .rebuild(groups[0].iter().map(|&i| members[i]));

            for group in &groups[1..] {
                let new_id = self.ids.next_id();
                let mut state = StoryState::new(new_id, self.source, storypivot_types::DAY);
                for &i in group {
                    state.add_snippet(members[i]);
                }
                for &i in group {
                    self.record_assignment(members[i].id, new_id);
                }
                self.stories.insert(new_id, state);
                fragment_ids.push(new_id);
            }
            report.splits.push((story_id, fragment_ids));
        }
        report
    }

    /// [`Identifier::maintain`] as the sweep over every story it used to
    /// be: forget what is known, then run the same pass. The oracle for
    /// `maintain` — the two differ only in which pairs get evaluated.
    #[doc(hidden)]
    pub fn maintain_reference(&mut self, store: &EventStore) -> MaintenanceReport {
        self.pending = self.stories.keys().map(|&id| (id, Pending::Unknown)).collect();
        self.maintain(store)
    }

    /// Check the pending set against a sweep from scratch (the module
    /// docs' invariant), describing the first violation: every member
    /// list maintenance would skip, or take as one component, must be
    /// connected, and no entry may outlive its story.
    pub fn check_pending(&self, store: &EventStore) -> Result<()> {
        if let Some(dead) = self.pending.keys().find(|id| !self.stories.contains_key(id)) {
            return Err(Error::Invariant(format!("story {dead} is gone but pending maintenance")));
        }
        for story_id in self.story_ids() {
            // Stories under 3 members are never swept, so nothing is
            // claimed about them — unless a grew-by entry says so.
            let (grew, claimed_from) = match self.pending.get(&story_id) {
                Some(Pending::Unknown) => continue,
                Some(Pending::Grew(new)) => (new.as_slice(), 2),
                None => (&[][..], 3),
            };
            let held: Vec<&Snippet> = self.stories[&story_id]
                .story
                .members
                .iter()
                .filter(|m| !grew.contains(m))
                .filter_map(|&m| store.get(m))
                .collect();
            if held.len() >= claimed_from
                && member_components(&self.cfg, &held, None).0.component_count() > 1
            {
                return Err(Error::Invariant(format!(
                    "story {story_id}: maintenance holds {} members as connected, and they are not",
                    held.len()
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use storypivot_types::{EntityId, EventType, Source, SourceKind, TermId, Timestamp, DAY};

    fn store() -> EventStore {
        let mut s = EventStore::new();
        s.register_source(Source::new(SourceId::new(0), "s0", SourceKind::Newspaper))
            .unwrap();
        s
    }

    fn snip(id: u32, day: i64, entities: &[u32], terms: &[u32]) -> Snippet {
        let mut b = Snippet::builder(
            SnippetId::new(id),
            SourceId::new(0),
            Timestamp::from_secs(day * DAY),
        )
        .event_type(EventType::Accident);
        for &e in entities {
            b = b.entity(EntityId::new(e), 1.0);
        }
        for &t in terms {
            b = b.term(TermId::new(t), 1.0);
        }
        b.build()
    }

    fn ident(mode: MatchMode) -> Identifier {
        let cfg = IdentifyConfig {
            mode,
            maintenance_every: 0,
            ..IdentifyConfig::default()
        };
        Identifier::new(SourceId::new(0), cfg, SketchConfig::default())
    }

    fn ingest(st: &mut EventStore, id: &mut Identifier, s: Snippet) -> IdentifyDecision {
        st.insert(s.clone()).unwrap();
        id.assign(&s, st)
    }

    #[test]
    fn first_snippet_creates_story() {
        let mut st = store();
        let mut id = ident(MatchMode::Complete);
        let d = ingest(&mut st, &mut id, snip(0, 0, &[1, 2], &[10]));
        assert!(d.created);
        assert_eq!(d.best_score, 0.0);
        assert_eq!(id.story_count(), 1);
        assert_eq!(id.story_of(SnippetId::new(0)), Some(d.story));
    }

    #[test]
    fn similar_snippets_join_the_same_story() {
        let mut st = store();
        let mut id = ident(MatchMode::Complete);
        let d0 = ingest(&mut st, &mut id, snip(0, 0, &[1, 2], &[10, 11]));
        let d1 = ingest(&mut st, &mut id, snip(1, 1, &[1, 2], &[10, 11]));
        assert!(!d1.created);
        assert_eq!(d1.story, d0.story);
        assert_eq!(id.story_count(), 1);
        assert!(d1.best_score > 0.9);
    }

    #[test]
    fn dissimilar_snippets_get_separate_stories() {
        let mut st = store();
        let mut id = ident(MatchMode::Complete);
        ingest(&mut st, &mut id, snip(0, 0, &[1, 2], &[10]));
        let d = ingest(&mut st, &mut id, snip(1, 0, &[7, 8], &[20]));
        assert!(d.created);
        assert_eq!(id.story_count(), 2);
    }

    #[test]
    fn temporal_mode_ignores_out_of_window_candidates() {
        let mut st = store();
        let mut id = ident(MatchMode::Temporal { omega: 2 * DAY });
        let d0 = ingest(&mut st, &mut id, snip(0, 0, &[1, 2], &[10]));
        // Identical content but 100 days later: outside the window.
        let d1 = ingest(&mut st, &mut id, snip(1, 100, &[1, 2], &[10]));
        assert!(d1.created);
        assert_ne!(d1.story, d0.story);
        assert_eq!(d1.compared, 0);
    }

    #[test]
    fn complete_mode_chains_across_time() {
        let mut st = store();
        let mut id = ident(MatchMode::Complete);
        let d0 = ingest(&mut st, &mut id, snip(0, 0, &[1, 2], &[10]));
        let d1 = ingest(&mut st, &mut id, snip(1, 100, &[1, 2], &[10]));
        assert_eq!(d1.story, d0.story);
        assert!(d1.compared >= 1);
    }

    #[test]
    fn complete_comparisons_grow_with_corpus() {
        let mut st = store();
        let mut id = ident(MatchMode::Complete);
        let mut last = 0;
        for i in 0..20 {
            let d = ingest(&mut st, &mut id, snip(i, i as i64, &[i, i + 100], &[i]));
            last = d.compared;
        }
        assert_eq!(last, 19, "complete mode compares against all prior snippets");
    }

    #[test]
    fn temporal_comparisons_stay_bounded() {
        let mut st = store();
        let mut id = ident(MatchMode::Temporal { omega: 3 * DAY });
        let mut last = 0;
        for i in 0..50 {
            let d = ingest(&mut st, &mut id, snip(i, i as i64, &[1], &[1]));
            last = d.compared;
        }
        assert!(last <= 7, "window bounds comparisons, got {last}");
    }

    #[test]
    fn bridging_snippet_merges_stories() {
        let mut st = store();
        let mut id = ident(MatchMode::Complete);
        // Two initially distinct stories...
        let da = ingest(&mut st, &mut id, snip(0, 0, &[1, 2], &[10, 11]));
        let db = ingest(&mut st, &mut id, snip(1, 1, &[3, 4], &[12, 13]));
        assert_ne!(da.story, db.story);
        // ...bridged by a snippet strongly matching both.
        let d = ingest(&mut st, &mut id, snip(2, 2, &[1, 2, 3, 4], &[10, 11, 12, 13]));
        assert_eq!(id.story_count(), 1, "stories should merge");
        assert_eq!(d.merged.len(), 1);
        // All three snippets now share one story.
        let s0 = id.story_of(SnippetId::new(0)).unwrap();
        let s1 = id.story_of(SnippetId::new(1)).unwrap();
        let s2 = id.story_of(SnippetId::new(2)).unwrap();
        assert_eq!(s0, s1);
        assert_eq!(s1, s2);
    }

    #[test]
    fn maintenance_splits_disconnected_story() {
        let mut st = store();
        // High merge threshold so the bridge joins but doesn't merge, low
        // split threshold so the split check uses pure connectivity.
        let cfg = IdentifyConfig {
            mode: MatchMode::Complete,
            match_threshold: 0.2,
            merge_threshold: 0.99,
            split_threshold: 0.3,
            maintenance_every: 0,
            ..IdentifyConfig::default()
        };
        let mut id = Identifier::new(SourceId::new(0), cfg, SketchConfig::default());
        // A story built from a chain a-bridge-b where a and b are
        // unrelated; removing the bridge disconnects them.
        ingest(&mut st, &mut id, snip(0, 0, &[1, 2], &[10, 11]));
        ingest(&mut st, &mut id, snip(1, 1, &[1, 2, 3, 4], &[10, 11, 12, 13]));
        ingest(&mut st, &mut id, snip(2, 2, &[3, 4], &[12, 13]));
        assert_eq!(id.story_count(), 1);
        // Remove the bridge.
        let bridge = st.get(SnippetId::new(1)).unwrap().clone();
        st.remove(SnippetId::new(1)).unwrap();
        id.remove_snippet(&bridge, &st);
        let report = id.maintain(&st);
        // Two members left with sim 0 → still one story of 2? No:
        // stories under 3 members are skipped. Add a third to each side
        // and re-check.
        assert_eq!(report.splits.len(), 0);
        ingest(&mut st, &mut id, snip(3, 0, &[1, 2], &[10, 11]));
        ingest(&mut st, &mut id, snip(4, 2, &[3, 4], &[12, 13]));
        let report = id.maintain(&st);
        assert_eq!(report.splits.len(), 1);
        assert_eq!(id.story_count(), 2);
        // The two sides are now distinct stories.
        let sa = id.story_of(SnippetId::new(0)).unwrap();
        let sb = id.story_of(SnippetId::new(2)).unwrap();
        assert_ne!(sa, sb);
        assert_eq!(id.story_of(SnippetId::new(3)), Some(sa));
        assert_eq!(id.story_of(SnippetId::new(4)), Some(sb));
    }

    #[test]
    fn remove_snippet_drops_empty_story() {
        let mut st = store();
        let mut id = ident(MatchMode::Complete);
        let s = snip(0, 0, &[1], &[10]);
        ingest(&mut st, &mut id, s.clone());
        st.remove(SnippetId::new(0)).unwrap();
        let removed_from = id.remove_snippet(&s, &st);
        assert!(removed_from.is_some());
        assert_eq!(id.story_count(), 0);
        assert_eq!(id.story_of(SnippetId::new(0)), None);
    }

    #[test]
    fn out_of_order_arrival_joins_existing_story() {
        let mut st = store();
        let mut id = ident(MatchMode::Temporal { omega: 5 * DAY });
        ingest(&mut st, &mut id, snip(0, 10, &[1, 2], &[10]));
        // A late-arriving snippet dated *before* the first one.
        let d = ingest(&mut st, &mut id, snip(1, 8, &[1, 2], &[10]));
        assert!(!d.created, "symmetric window must catch late arrivals");
        assert_eq!(id.story_count(), 1);
    }

    #[test]
    fn story_ids_are_partitioned_by_source() {
        let a = Identifier::new(SourceId::new(0), IdentifyConfig::default(), SketchConfig::default());
        let b = Identifier::new(SourceId::new(1), IdentifyConfig::default(), SketchConfig::default());
        let mut a = a;
        let mut b = b;
        assert_ne!(a.fresh_story_id(), b.fresh_story_id());
    }

    #[test]
    fn adversarial_weights_keep_assignment_deterministic() {
        // Infinite weights drive every blended score to NaN (inf·0 and
        // inf/inf both appear). The old partial_cmp/unwrap_or(Equal)
        // comparator was not a strict weak order under mixed NaN, so the
        // ranking — and thus the partition — depended on sort internals.
        // With total_cmp the sort is well-defined and NaN fails the
        // match threshold, so every run yields the same partition.
        use crate::sim::SimWeights;
        let run = || {
            let cfg = IdentifyConfig {
                mode: MatchMode::Complete,
                weights: SimWeights {
                    entity: f64::INFINITY,
                    term: 1.0,
                    event: 0.0,
                },
                maintenance_every: 0,
                ..IdentifyConfig::default()
            };
            let mut st = store();
            let mut id = Identifier::new(SourceId::new(0), cfg, SketchConfig::default());
            let mut out = Vec::new();
            for i in 0..16u32 {
                let d = ingest(&mut st, &mut id, snip(i, (i / 3) as i64, &[i % 4], &[i % 3]));
                out.push((d.story, d.created));
            }
            out
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        // NaN never satisfies the threshold: every snippet opens a story.
        assert!(a.iter().all(|&(_, created)| created));
    }

    #[test]
    fn partial_ranking_is_a_cut_of_the_full_sort() {
        let story = StoryId::new;
        let nan = f64::NAN;
        let lists: [&[(u32, f64)]; 6] = [
            &[],
            &[(4, 0.3)],
            &[(7, 0.7), (2, 0.9), (5, 0.7), (1, 0.2), (3, 0.9), (6, 0.61)],
            &[(3, 0.1), (2, 0.1), (1, 0.1)],
            &[(1, 0.8), (2, nan), (3, 0.65), (4, -nan), (5, nan)],
            &[(9, 0.6), (8, 0.6), (7, 0.6)],
        ];
        for list in lists {
            let full: Vec<(StoryId, f64)> = list.iter().map(|&(id, s)| (story(id), s)).collect();
            let mut sorted = full.clone();
            sorted.sort_unstable_by(by_rank);
            let expected: Vec<(StoryId, f64)> = sorted
                .iter()
                .enumerate()
                .filter(|&(i, &(_, s))| i == 0 || s >= 0.6)
                .map(|(_, &e)| e)
                .collect();
            let mut ranked = full;
            rank_for_decision(&mut ranked, 0.6);
            // Compare bits: NaN != NaN.
            let bits = |v: &[(StoryId, f64)]| -> Vec<(StoryId, u64)> {
                v.iter().map(|&(id, s)| (id, s.to_bits())).collect()
            };
            assert_eq!(bits(&ranked), bits(&expected), "{list:?}");
        }
    }

    #[test]
    fn tied_merge_candidates_decide_as_under_a_full_sort() {
        let cfg = IdentifyConfig {
            mode: MatchMode::Complete,
            merge_threshold: 0.42,
            maintenance_every: 0,
            ..IdentifyConfig::default()
        };
        let mut st = store();
        let mut id = Identifier::new(SourceId::new(0), cfg, SketchConfig::default());
        let a = ingest(&mut st, &mut id, snip(0, 0, &[1, 2], &[10, 11])).story;
        let b = ingest(&mut st, &mut id, snip(1, 0, &[3, 4], &[12, 13])).story;
        let c = ingest(&mut st, &mut id, snip(2, 0, &[5, 6], &[14, 15])).story;
        let d = ingest(&mut st, &mut id, snip(3, 0, &[7, 8], &[16, 17])).story;
        // Matches b and c equally (0.59), a a little less (0.45: term 11
        // is missing), d not at all (0.10).
        let probe = snip(4, 0, &[1, 2, 3, 4, 5, 6], &[10, 12, 13, 14, 15]);
        st.insert(probe.clone()).unwrap();

        // The reference ranks with no cut — every score reaches −∞, so
        // the whole list is kept and sorted — and decides on that.
        let mut reference = id.clone();
        let merge_threshold = reference.cfg.merge_threshold;
        reference.cfg.merge_threshold = f64::NEG_INFINITY;
        let (compared, hits, misses) = reference.score_probe(&probe, &st);
        reference.cfg.merge_threshold = merge_threshold;
        let full = reference.scratch.ranked.clone();
        assert_eq!(full.iter().map(|&(s, _)| s).collect::<Vec<_>>(), vec![b, c, a, d]);
        assert_eq!(full[0].1.to_bits(), full[1].1.to_bits(), "b and c must tie");
        assert!(full[2].1 >= merge_threshold && full[3].1 < merge_threshold);
        let expected = reference.decide(&probe, compared, hits, misses);

        let got = id.assign(&probe, &st);
        assert_eq!(id.scratch.ranked, full[..3], "the cut drops d only");
        assert_eq!(got, expected);
        assert_eq!(got.story, b);
        assert_eq!(got.merged, vec![c, a], "rank order: the tie by id, then the lower score");
        assert_eq!(partition(&id), partition(&reference));
    }

    #[test]
    fn hot_cache_hits_on_repeated_probes_of_the_same_story() {
        let mut st = store();
        let mut id = ident(MatchMode::Temporal { omega: 5 * DAY });
        let d0 = ingest(&mut st, &mut id, snip(0, 0, &[1, 2], &[10, 11]));
        assert_eq!(d0.cache_hits + d0.cache_misses, 0, "no candidate stories yet");
        let d1 = ingest(&mut st, &mut id, snip(1, 0, &[1, 2], &[10, 11]));
        assert_eq!((d1.cache_hits, d1.cache_misses), (0, 1), "first fold of the story");
        let d2 = ingest(&mut st, &mut id, snip(2, 0, &[1, 2], &[10, 11]));
        assert_eq!(
            (d2.cache_hits, d2.cache_misses),
            (1, 0),
            "cached fold extends at the trailing edge"
        );
    }

    #[test]
    fn disabled_cache_counts_only_misses() {
        let mut st = store();
        let cfg = IdentifyConfig {
            mode: MatchMode::Complete,
            maintenance_every: 0,
            hot_cache_capacity: 0,
            ..IdentifyConfig::default()
        };
        let mut id = Identifier::new(SourceId::new(0), cfg, SketchConfig::default());
        ingest(&mut st, &mut id, snip(0, 0, &[1, 2], &[10, 11]));
        ingest(&mut st, &mut id, snip(1, 0, &[1, 2], &[10, 11]));
        let d = ingest(&mut st, &mut id, snip(2, 0, &[1, 2], &[10, 11]));
        assert_eq!(d.cache_hits, 0);
        assert_eq!(d.cache_misses, 1, "one candidate story, folded locally");
    }

    #[test]
    fn force_assign_moves_snippet() {
        let mut st = store();
        let mut id = ident(MatchMode::Complete);
        let s = snip(0, 0, &[1], &[10]);
        ingest(&mut st, &mut id, s.clone());
        let target = id.fresh_story_id();
        id.remove_snippet(&s, &st);
        id.force_assign(&s, target);
        assert_eq!(id.story_of(SnippetId::new(0)), Some(target));
        assert_eq!(id.story(target).unwrap().len(), 1);
    }

    // ---- maintenance proportional to what changed ------------------------
    //
    // Same event type everywhere, default weights: sim = 0.10 + 0.45 ·
    // weighted Jaccard(entities) + 0.45 · cosine(terms).

    /// Complete mode, no periodic maintenance; joins are easy (0.2) so a
    /// snippet can join a story without sharing an edge with any member.
    fn splitter(merge_threshold: f64, split_threshold: f64) -> Identifier {
        let cfg = IdentifyConfig {
            mode: MatchMode::Complete,
            match_threshold: 0.2,
            merge_threshold,
            split_threshold,
            maintenance_every: 0,
            ..IdentifyConfig::default()
        };
        Identifier::new(SourceId::new(0), cfg, SketchConfig::default())
    }

    /// `x`: the crash report every "clean" story below is made of.
    fn x(id: u32) -> Snippet {
        snip(id, 0, &[1, 2], &[10, 11])
    }

    /// Similar enough to `x` to join its story (blended 0.51), not enough
    /// for an edge at 0.5 (pairwise 0.475).
    fn near_x(id: u32) -> Snippet {
        snip(id, 0, &[1, 3], &[10, 12])
    }

    fn partition(id: &Identifier) -> Vec<(StoryId, Vec<SnippetId>)> {
        let stories = id.story_ids().into_iter();
        stories.map(|s| (s, id.story(s).unwrap().story.members.clone())).collect()
    }

    /// `maintain` on `id` against the full sweep on a clone of it: same
    /// splits, same fragment ids, same stories; the pending set holds its
    /// invariant before and after.
    fn maintain_like_reference(id: &mut Identifier, st: &EventStore) -> MaintenanceReport {
        id.check_pending(st).unwrap();
        let mut reference = id.clone();
        let report = id.maintain(st);
        assert_eq!(report.splits, reference.maintain_reference(st).splits);
        assert_eq!(partition(id), partition(&reference));
        id.check_pending(st).unwrap();
        assert!(id.pending.is_empty(), "a pass leaves nothing pending");
        report
    }

    #[test]
    fn a_pair_that_was_never_swept_is_not_known_connected() {
        let mut st = store();
        let mut id = splitter(0.99, 0.5);
        ingest(&mut st, &mut id, x(0));
        ingest(&mut st, &mut id, near_x(1));
        // A pass in between must not leave the pair looking verified.
        assert_eq!(maintain_like_reference(&mut id, &st).stories_checked, 0);
        // The third member has an edge to the second only.
        ingest(&mut st, &mut id, near_x(2));
        assert_eq!(id.story_count(), 1);
        let report = maintain_like_reference(&mut id, &st);
        assert_eq!(report.splits.len(), 1, "the first member was never connected");
        assert_ne!(id.story_of(SnippetId::new(0)), id.story_of(SnippetId::new(1)));
    }

    #[test]
    fn a_merge_makes_the_survivor_unknown_and_forgets_the_absorbed_story() {
        let mut st = store();
        let mut id = splitter(0.3, 0.6);
        for i in 0..3 {
            ingest(&mut st, &mut id, x(i));
        }
        assert_eq!(maintain_like_reference(&mut id, &st).stories_checked, 1);
        // A second story, pending because it has only just got a second member.
        let other = ingest(&mut st, &mut id, snip(3, 0, &[5, 6], &[20, 21])).story;
        ingest(&mut st, &mut id, snip(4, 0, &[5, 6], &[20, 21]));
        assert!(id.pending.contains_key(&other));
        // The bridge has an edge to the first story (0.77) and clears
        // `merge_threshold` against the second on the blended score
        // (0.43) without an edge to either of its members (0.40).
        let d = ingest(&mut st, &mut id, snip(5, 0, &[1, 2, 5], &[10, 11, 20]));
        assert_eq!(d.merged, vec![other]);
        assert!(!id.pending.contains_key(&other), "the absorbed id must leave the set");
        let report = maintain_like_reference(&mut id, &st);
        assert_eq!(report.splits.len(), 1, "a merge is no pairwise edge");
        assert_eq!(id.story(report.splits[0].1[1]).unwrap().len(), 2);
    }

    #[test]
    fn removing_a_bridge_makes_a_verified_story_unknown() {
        let mut st = store();
        let mut id = splitter(0.99, 0.3);
        ingest(&mut st, &mut id, snip(0, 0, &[1, 2], &[10, 11]));
        ingest(&mut st, &mut id, snip(1, 0, &[1, 2], &[10, 11]));
        ingest(&mut st, &mut id, snip(2, 1, &[1, 2, 3, 4], &[10, 11, 12, 13]));
        ingest(&mut st, &mut id, snip(3, 2, &[3, 4], &[12, 13]));
        ingest(&mut st, &mut id, snip(4, 2, &[3, 4], &[12, 13]));
        assert_eq!(id.story_count(), 1);
        let verified = maintain_like_reference(&mut id, &st);
        assert_eq!((verified.stories_checked, verified.splits.len()), (1, 0));

        let bridge = st.remove(SnippetId::new(2)).unwrap();
        id.remove_snippet(&bridge, &st);
        assert_eq!(maintain_like_reference(&mut id, &st).splits.len(), 1);
    }

    #[test]
    fn an_emptied_story_leaves_the_pending_set() {
        let mut st = store();
        let mut id = splitter(0.99, 0.3);
        ingest(&mut st, &mut id, x(0));
        ingest(&mut st, &mut id, x(1));
        for i in 0..2 {
            let s = st.remove(SnippetId::new(i)).unwrap();
            id.remove_snippet(&s, &st);
        }
        assert_eq!(id.story_count(), 0);
        // Would index a dead story otherwise.
        assert_eq!(maintain_like_reference(&mut id, &st), MaintenanceReport::default());
    }

    #[test]
    fn forced_members_are_not_known_connected() {
        let mut st = store();
        let mut id = splitter(0.99, 0.5);
        for i in 0..3 {
            ingest(&mut st, &mut id, x(i));
        }
        let story = id.story_of(SnippetId::new(0)).unwrap();
        maintain_like_reference(&mut id, &st);
        // Refinement or a what-if forces a stranger into the verified story.
        let stranger = snip(3, 0, &[7, 8], &[30, 31]);
        st.insert(stranger.clone()).unwrap();
        id.force_assign(&stranger, story);
        let report = maintain_like_reference(&mut id, &st);
        assert_eq!(report.splits.len(), 1);

        // A checkpoint load forces every member: nothing carries over.
        let mut restored = splitter(0.99, 0.5);
        for s in [x(0), near_x(1), near_x(2)] {
            restored.force_assign(&s, story);
        }
        let mut st = store();
        for s in [x(0), near_x(1), near_x(2)] {
            st.insert(s).unwrap();
        }
        assert_eq!(maintain_like_reference(&mut restored, &st).splits.len(), 1);
    }

    #[test]
    fn a_newcomer_without_an_edge_splits_off_as_under_the_reference() {
        let mut st = store();
        let mut id = splitter(0.99, 0.5);
        for i in 0..3 {
            ingest(&mut st, &mut id, x(i));
        }
        maintain_like_reference(&mut id, &st);
        let d = ingest(&mut st, &mut id, near_x(3));
        assert!(!d.created, "joined on the blended score");
        // The clone inside must know the newcomer is unverified too.
        let report = maintain_like_reference(&mut id, &st);
        assert_eq!(report.stories_checked, 1);
        assert_eq!(report.pairs_scored, 3, "the newcomer against each old member");
        assert_eq!(report.splits.len(), 1);
        assert_eq!(id.story(report.splits[0].1[1]).unwrap().story.members, vec![SnippetId::new(3)]);
    }

    #[test]
    fn a_second_pass_in_a_row_checks_nothing_and_a_split_leaves_clean_stories() {
        let mut st = store();
        let mut id = splitter(0.99, 0.5);
        for i in 0..3 {
            ingest(&mut st, &mut id, x(i));
        }
        ingest(&mut st, &mut id, near_x(3));
        let first = maintain_like_reference(&mut id, &st);
        assert_eq!((first.stories_checked, first.splits.len()), (1, 1));
        let second = maintain_like_reference(&mut id, &st);
        assert_eq!((second.stories_checked, second.pairs_scored), (0, 0));
        // The survivor is held as connected: one more join costs one pair.
        ingest(&mut st, &mut id, x(4));
        let third = maintain_like_reference(&mut id, &st);
        assert_eq!((third.stories_checked, third.pairs_scored), (1, 1));
    }

    #[test]
    fn joins_onto_verified_stories_cost_a_few_pairs_each() {
        let mut st = store();
        let cfg = IdentifyConfig {
            mode: MatchMode::Temporal { omega: 5 * DAY },
            maintenance_every: 0,
            ..IdentifyConfig::default()
        };
        let mut id = Identifier::new(SourceId::new(0), cfg, SketchConfig::default());
        // Four stories of 20 members each, ten days apart.
        let member = |i: u32| {
            let story = i % 4;
            snip(i, 10 * story as i64 + (i / 4 % 3) as i64, &[10 * story, 10 * story + 1], &[story])
        };
        for i in 0..80 {
            ingest(&mut st, &mut id, member(i));
        }
        assert_eq!(id.story_count(), 4);
        let sweep = maintain_like_reference(&mut id, &st);
        assert_eq!(sweep.stories_checked, 4);
        for i in 80..144 {
            ingest(&mut st, &mut id, member(i));
        }
        let mut reference = id.clone();
        let report = id.maintain(&st);
        assert_eq!((report.stories_checked, report.splits.len()), (4, 0));
        assert!(report.pairs_scored <= 2 * 64, "{} pairs for 64 joins", report.pairs_scored);
        // What the sweep over everything pays to say the same.
        let full = reference.maintain_reference(&st);
        assert_eq!(full.splits, report.splits);
        assert_eq!(full.stories_checked, 4);
    }

    #[test]
    fn check_pending_catches_a_story_wrongly_held_as_connected() {
        let mut st = store();
        let mut id = splitter(0.99, 0.5);
        for i in 0..3 {
            ingest(&mut st, &mut id, x(i));
        }
        maintain_like_reference(&mut id, &st);
        ingest(&mut st, &mut id, near_x(3));
        id.check_pending(&st).unwrap();
        // Forget the newcomer: the story now counts as verified, and is not.
        let forgotten = std::mem::take(&mut id.pending);
        let err = id.check_pending(&st).unwrap_err().to_string();
        assert!(err.contains("holds 4 members as connected"), "{err}");
        // An entry for a story that no longer exists is caught as well.
        id.pending = forgotten;
        id.pending.insert(StoryId::new(99), Pending::Unknown);
        assert!(id.check_pending(&st).unwrap_err().to_string().contains("is gone"));
    }
}
