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
use std::collections::{BinaryHeap, HashMap};

use storypivot_store::{EventStore, WindowEntry};
use storypivot_types::ids::IdGen;
use storypivot_types::{
    mem, Error, EventType, Result, Snippet, SnippetId, SourceId, StoryId, TimeRange,
};

use crate::config::{IdentifyConfig, MatchMode, SketchConfig};
use crate::sim::{ProbeScorer, ProbeTables};
use crate::state::{StoryState, WindowFold};
use crate::unionfind::UnionFind;

/// Number of story-id slots reserved per source (story ids are
/// partitioned by source, so each identifier allocates its own without
/// a shared allocator).
pub const STORY_ID_STRIDE: u32 = 1 << 24;

/// How many sources the story-id partitioning scheme holds: source ids
/// run `0..MAX_SOURCES` (255), so every story id stays below
/// `u32::MAX`. The engine and the serving layer's id allocator both
/// refuse the next one.
pub const MAX_SOURCES: u32 = u32::MAX / STORY_ID_STRIDE;

/// Snippet ids run `0..MAX_SNIPPET_ID` (2²⁴, above the paper's ~10 M
/// snippet stream). Each source's snippet → story table is indexed by
/// the id, so the bound keeps one table at 64 MiB or less;
/// `StoryPivot::ingest` refuses the next id.
pub const MAX_SNIPPET_ID: u32 = 1 << 24;

/// "No story" in [`Identifier`]'s snippet → story table. No live story
/// id equals it: story ids are `source · 2²⁴ + n`, and
/// `StoryPivot::add_source_with_lag` / `add_source_registered` reject
/// sources ≥ [`MAX_SOURCES`], so every id is below `255 · 2²⁴ < u32::MAX`
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
    /// Number of window candidates: the prior snippets of the source in
    /// the comparison scope that have a story (experiment E1's
    /// "comparisons"). Not the similarities computed: those are
    /// [`IdentifyDecision::pairs_scored`].
    pub compared: usize,
    /// Exact snippet-pair similarities computed, at most `compared`: a
    /// candidate story the reachability bound rules out before its pairs
    /// are scored adds none.
    pub pairs_scored: usize,
    /// Candidate stories whose stored windowed fold was resumed while
    /// scoring this snippet (reused, or extended by the members that
    /// entered the window). These and the misses count folds, so a
    /// candidate story the reachability bound skipped counts in neither.
    pub cache_hits: usize,
    /// Candidate stories folded from scratch.
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
///
/// Each row's member is bound in `tables` as a probe; without tables
/// (the oracle, [`Identifier::check_pending`]) every pair is scored by
/// [`crate::sim::SimWeights::content_sim`]'s merge, to the same bits.
fn member_components(
    cfg: &IdentifyConfig,
    members: &[&Snippet],
    grew: Option<&[SnippetId]>,
    mut tables: Option<&mut ProbeTables>,
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
        let row = &members[i].content;
        let scorer = tables.as_deref_mut().map(|t| cfg.weights.probe(row, t));
        for j in (0..n).rev() {
            // Two fresh members meet in the row of the newer one.
            if j == i || (fresh[j] && j > i) || uf.connected(i, j) {
                continue;
            }
            if max_gap.is_some_and(|gap| members[i].timestamp.distance(members[j].timestamp) > gap) {
                continue;
            }
            pairs += 1;
            let other = &members[j].content;
            let s = match &scorer {
                Some(scorer) => scorer.score(other),
                None => cfg.weights.content_sim(row, other),
            };
            if s >= cfg.split_threshold {
                uf.union(i, j);
                if uf.component_count() == 1 {
                    return (uf, pairs);
                }
            }
        }
    }
    (uf, pairs)
}

/// What [`Identifier::score_probe`] adds to a story's upper bound before
/// comparing it with what the decision reads: many orders of magnitude
/// above the few ulps by which the bound's rounding and the exact
/// score's can differ.
const SLACK: f64 = 1e-9;

/// What one probe's scoring did ([`Identifier::score`]): the counts an
/// [`IdentifyDecision`] reports.
#[derive(Debug, Clone, Copy, Default)]
struct Work {
    compared: usize,
    pairs_scored: usize,
    cache_hits: usize,
    cache_misses: usize,
}

/// A story whose candidates' norms sum to this or more is never skipped:
/// below it no entry of the fold can round to ∞ (an entry is at most the
/// sum of the members' weights on its key, each at most its member's
/// norm), so the exact score is finite and the bound holds for it.
const FOLD_NORM_LIMIT: f64 = f32::MAX as f64 / 2.0;

/// A candidate story in the scoring loop's visiting order: the greatest
/// bound at affinity 1 first (`total_cmp`), ties by the smaller slot
/// index. A strict total order, so a max-heap pops the stories in
/// exactly the order a full sort lists them.
#[derive(Debug, Clone, Copy)]
struct Visit {
    bound: f64,
    si: u32,
}

impl Ord for Visit {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.bound.total_cmp(&other.bound).then(other.si.cmp(&self.si))
    }
}

impl PartialOrd for Visit {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Visit {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Visit {}

/// One candidate story's accumulation state during a probe.
#[derive(Debug, Clone, Default)]
struct Slot {
    story: StoryId,
    /// Indices into the probe's candidate list belonging to this story,
    /// in window (fold) order.
    cand_idx: Vec<u32>,
    /// OR of the candidates' entity and term signatures: the signatures
    /// of the story's windowed fold, since `merge_add` ORs them, and a
    /// superset of each candidate's.
    entity_sig: u64,
    term_sig: u64,
    /// OR of `1 << code` over the candidates' event types.
    types: u16,
    /// Sums of the candidates' entity and term norms ([`FOLD_NORM_LIMIT`]).
    entity_norms: f64,
    term_norms: f64,
}

impl Slot {
    fn reset(&mut self, story: StoryId) {
        let mut cand_idx = std::mem::take(&mut self.cand_idx);
        cand_idx.clear();
        *self = Slot {
            story,
            cand_idx,
            ..Slot::default()
        };
    }

    /// Add the candidate at `ci`.
    fn add(&mut self, ci: usize, cand: &WindowEntry) {
        self.cand_idx.push(ci as u32);
        self.entity_sig |= cand.entity_sig;
        self.term_sig |= cand.term_sig;
        self.types |= 1 << cand.event_type.code();
        self.entity_norms += cand.entity_norm;
        self.term_norms += cand.term_norm;
    }

    /// Whether no entry of the story's fold can round to ∞, so its bound
    /// holds ([`FOLD_NORM_LIMIT`]).
    fn finite_fold(&self) -> bool {
        self.entity_norms < FOLD_NORM_LIMIT && self.term_norms < FOLD_NORM_LIMIT
    }
}

/// Reusable per-probe scoring state. Every buffer here is pooled: a
/// probe clears and refills them, so none allocates in steady state
/// (the old code allocated a freshly merged vector per candidate —
/// O(story size) allocations per probe). The window candidates are a
/// slice borrowed from the store (`EventStore::window`), so what a
/// probe still allocates is a pooled buffer or a stored fold growing
/// past its capacity: ≈ 0.35 allocations and 0.4 reallocations per
/// probe on an `identify_dense`-shaped stream (`tests/probe_allocations.rs`
/// holds it to 2).
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
    /// The current probe's stories by bound at affinity 1: the buffer
    /// of the max-heap the scoring loop pops them from.
    order: Vec<Visit>,
    /// Fold buffer for a story whose stored fold is not used.
    local: WindowFold,
    /// `(story, blended score)`: the best-scoring story first, then
    /// the stories reaching `merge_threshold` in rank order — all
    /// [`Identifier::decide`] reads.
    ranked: Vec<(StoryId, f64)>,
    /// The probe's entity and term tables, lent to maintenance's member
    /// scans between probes.
    tables: ProbeTables,
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
    }

    /// Index of the slot for `story` (id offset `off` from the source's
    /// story-id base), acquiring one from the pool on first sight.
    /// Slots are issued in first-seen order.
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
            self.slots.push(Slot::default());
        }
        self.slots[si].reset(story);
        self.stamp[off] = self.probe;
        self.si_of[off] = si as u32;
        si
    }
}

/// The best pair similarity of the probe against the candidates at `idx`,
/// 0 if there are none. A NaN pair score is ignored: it fails `>`.
#[inline]
fn best_pair(scorer: &ProbeScorer<'_>, store: &EventStore, candidates: &[WindowEntry], idx: &[u32]) -> f64 {
    idx.iter().fold(0.0, |best, &ci| {
        let s = scorer.score(&store.resolve(&candidates[ci as usize]).content);
        if s > best {
            s
        } else {
            best
        }
    })
}

/// Append the candidates at `idx` (in that order) to `fold`. Every fold
/// in the scoring loop goes through here, so the order of f32 additions
/// — and with it every score — cannot differ between the resumed,
/// refolded and local paths.
#[inline]
fn fold_members(fold: &mut WindowFold, store: &EventStore, candidates: &[WindowEntry], idx: &[u32]) {
    for &ci in idx {
        let c = store.resolve(&candidates[ci as usize]);
        fold.entities.merge_add(c.entities());
        fold.terms.merge_add(c.terms());
    }
    fold.len += idx.len() as u32;
}

/// Whether two folds hold the same keys with the same weights, to the bit.
#[cfg(debug_assertions)]
fn same_bits(a: &WindowFold, b: &WindowFold) -> bool {
    fn eq<K: PartialEq>(a: &[(K, f32)], b: &[(K, f32)]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
    }
    eq(a.entities.as_slice(), b.entities.as_slice()) && eq(a.terms.as_slice(), b.terms.as_slice())
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
    scratch: ScoreScratch,
}

impl Identifier {
    /// A fresh identifier for `source`. The sketch settings are not
    /// used ([`SketchConfig`]).
    pub fn new(source: SourceId, cfg: IdentifyConfig, _sketch_cfg: SketchConfig) -> Self {
        Identifier {
            source,
            stories: HashMap::new(),
            assignment: Vec::new(),
            assigned: 0,
            ids: IdGen::starting_at(source.raw().wrapping_mul(STORY_ID_STRIDE)),
            since_maintenance: 0,
            pending: HashMap::new(),
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
    /// every state's buffers (its windowed fold included), the snippet →
    /// story table (as long as the largest snippet id this source has
    /// seen), the pending-maintenance set, and the pooled probe scratch.
    pub fn heap_bytes(&self) -> [(&'static str, usize); 4] {
        let stories = mem::hash_map_bytes(&self.stories)
            + self.stories.values().map(StoryState::heap_bytes).sum::<usize>();
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
            + mem::vec_bytes(&s.order)
            + s.local.heap_bytes()
            + mem::vec_bytes(&s.ranked)
            + s.tables.heap_bytes();
        [
            ("identify.stories", stories),
            ("identify.assignment", mem::vec_bytes(&self.assignment)),
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
        self.assign_with(snippet, store, true)
    }

    /// [`Identifier::assign`]; with `skip` false every candidate pair is
    /// scored and every candidate story folded from scratch, the
    /// reachability bound unused and no stored fold read or written (how
    /// [`crate::StoryPivot::ingest_reference`] identifies). The decision
    /// is the same either way, to the bit, except the pair and fold
    /// counts.
    pub(crate) fn assign_with(
        &mut self,
        snippet: &Snippet,
        store: &EventStore,
        skip: bool,
    ) -> IdentifyDecision {
        let work = self.score(snippet, store, skip);
        self.decide(snippet, work)
    }

    /// The scoring phases of [`Identifier::assign`]: score `snippet`
    /// against every candidate story that can reach the decision and
    /// leave the ranked `(story, score)` list in the internal scratch.
    /// Mutates only the stories' stored windowed folds — never
    /// assignments or anything else of the story table — so running it
    /// without the subsequent decision is harmless, and running it twice
    /// resumes every fold the first pass made. Returns `(compared, folds
    /// resumed, folds from scratch)`; a story the bound skips counts in
    /// neither of the last two.
    ///
    /// Public so the benchmark harness can time the similarity hot path
    /// in isolation.
    pub fn score_probe(&mut self, snippet: &Snippet, store: &EventStore) -> (usize, usize, usize) {
        let work = self.score(snippet, store, true);
        (work.compared, work.cache_hits, work.cache_misses)
    }

    /// [`Identifier::score_probe`], skipping unreachable stories only
    /// when `skip`.
    fn score(&mut self, snippet: &Snippet, store: &EventStore, skip: bool) -> Work {
        debug_assert_eq!(snippet.source, self.source);

        // ---- phase 1: group the candidates by story --------------------
        //
        // No pair is scored here. Each story's slot collects its
        // candidates and ORs their signatures and event types, which is
        // all its bound needs; the window entries carry them, so this
        // phase reads the entries and the snippet → story table only.
        let candidates: &[WindowEntry] = match self.cfg.mode {
            MatchMode::Temporal { omega } => store.window(self.source, snippet.timestamp, omega),
            MatchMode::Complete => store.window_in(self.source, TimeRange::ALL),
        };
        let mut work = Work::default();
        let id_base = self.source.raw().wrapping_mul(STORY_ID_STRIDE);
        let own = self.story_of(snippet.id);
        self.scratch.begin();
        for (ci, cand) in candidates.iter().enumerate() {
            if cand.id == snippet.id {
                continue;
            }
            let Some(story) = self.story_of(cand.id) else {
                continue; // not yet identified (later batch position)
            };
            work.compared += 1;
            let off = story.raw().wrapping_sub(id_base) as usize;
            let si = self.scratch.slot(story, off);
            self.scratch.slots[si].add(ci, cand);
        }

        // ---- phase 2: bound every story, order by bound ----------------
        //
        // Score = pair_blend·best-pair + (1-pair_blend)·window-centroid.
        // The best-pair (single-link) component lets evolving stories
        // chain through their most recent snippets; the centroid of the
        // story's *windowed* members keeps one spuriously similar pair
        // from chaining unrelated stories together (the incremental
        // record-linkage failure mode at scale). E10 ablates the blend.
        //
        // A story scores at most its bound: every component blended in
        // is replaced by the probe's bound on it over the story's ORed
        // signatures (`ProbeScorer::{entity_bounds, term_bound}`), a
        // superset of each candidate's and the fold's, and the pair's
        // type affinity by the largest among the candidates' types.
        // The blend is monotone under non-negative weights. Stories are
        // visited in descending bound at affinity 1, so high scores come
        // early and rule out more of the rest. They are popped from a
        // max-heap, not sorted: most are ruled out, and once a popped
        // bound rules out every story left, the rest is never ordered.
        //
        // The tables leave the scratch for the probe, so the scorer's
        // borrow of them does not hold all of it.
        let mut tables = std::mem::take(&mut self.scratch.tables);
        let scorer = self.cfg.weights.probe(&snippet.content, &mut tables);
        let (w, pair_blend) = (&self.cfg.weights, self.cfg.pair_blend);
        let merge_threshold = self.cfg.merge_threshold;
        let story_score = |pair: f64, entity: f64, term: f64, affinity: f64| {
            pair_blend * pair + (1.0 - pair_blend) * w.blend(entity, term, affinity)
        };
        // A story's bounds on its best pair and on its fold's entity and
        // term cosines.
        let affinities = EventType::ALL.map(|t| snippet.content.event_type.affinity(t));
        let bounds_of = |slot: &Slot| {
            let (entity, jaccard) = scorer.entity_bounds(slot.entity_sig);
            let term = scorer.term_bound(slot.term_sig);
            let (mut types, mut affinity) = (slot.types, 0f64);
            while types != 0 {
                affinity = affinity.max(affinities[types.trailing_zeros() as usize]);
                types &= types - 1;
            }
            (w.blend(jaccard, term, affinity), entity, term)
        };
        let ScoreScratch {
            slots,
            live,
            order,
            local,
            ranked,
            ..
        } = &mut self.scratch;
        let slots = &slots[..*live];
        // A story its bound at affinity 1 can never skip: the bound is
        // not finite, or the fold may overflow.
        let pinned = |slot: &Slot, bound: f64| !(bound.is_finite() && slot.finite_fold());
        let mut pinned_left = 0usize;
        order.clear();
        order.extend(slots.iter().enumerate().map(|(si, slot)| {
            let (pair, entity, term) = bounds_of(slot);
            let bound = story_score(pair, entity, term, 1.0);
            pinned_left += pinned(slot, bound) as usize;
            Visit { bound, si: si as u32 }
        }));
        let mut heap = BinaryHeap::from(std::mem::take(order));

        // ---- phase 3: score the pairs, fold and score the stories ------
        //
        // `decide` reads the best story and the stories at or above
        // `merge_threshold`, nothing else. A story whose bound falls
        // short of both `merge_threshold` and an exact score already
        // seen can be neither merged nor the head, so it is skipped: no
        // pair scored, no fold. The cut below ranks
        // what scoring every story would have. The bound at affinity 1
        // rules most stories out before their dominant type is looked
        // up; the rest are tested at it, then once more with their exact
        // best pair. A story is skipped only when everything the
        // argument rests on is finite: weights are unchecked client
        // input, a NaN score ranks first on some targets, and a NaN
        // bound skips nothing.
        //
        // The fold (sum of the story's windowed members' vectors) is the
        // expensive part. Each story keeps the fold it was last scored
        // with, so it only has to be extended by the members that newly
        // entered the window (`StoryState`'s `WindowFold`). The reference
        // path folds every story into local scratch, and so does the
        // story of a probe that already has one: its windowed members
        // lack the probe, so they extend no fold.
        //
        // The bound is an upper bound on the score only under
        // non-negative weights and a blend in [0, 1]: what config
        // validation requires and `Identifier::new` does not check.
        let prune = skip
            && scorer.bounds_hold()
            && w.entity >= 0.0
            && w.term >= 0.0
            && w.event >= 0.0
            && (0.0..=1.0).contains(&pair_blend);
        let affinity = |state: Option<&StoryState>| {
            let dominant = state.map_or(snippet.content.event_type, StoryState::dominant_event_type);
            snippet.content.event_type.affinity(dominant)
        };
        // Debug builds score a skipped story anyway, folded outside the
        // story so its state matches release's, and hold it to the bound
        // it was skipped on.
        #[cfg(debug_assertions)]
        let assert_under = |slot: &Slot, local: &mut WindowFold, type_affinity: f64, bound: f64, which: &str| {
            let pair = best_pair(&scorer, store, candidates, &slot.cand_idx);
            local.clear();
            fold_members(local, store, candidates, &slot.cand_idx);
            let (e, t) = (scorer.entity_cosine(&local.entities), scorer.term_cosine(&local.terms));
            let exact = story_score(pair, e, t, type_affinity);
            assert!(
                exact <= bound + SLACK,
                "story {} scores {exact}, above its {which} bound {bound}",
                slot.story
            );
        };
        let mut best = f64::NEG_INFINITY;
        ranked.clear();
        while let Some(Visit { bound: at_one, si }) = heap.pop() {
            let slot = &slots[si as usize];
            pinned_left -= pinned(slot, at_one) as usize;
            let guarded = prune && slot.finite_fold();
            let unreachable = |bound: f64| {
                guarded && bound.is_finite() && bound + SLACK < merge_threshold && bound + SLACK < best
            };
            if unreachable(at_one) {
                #[cfg(debug_assertions)]
                assert_under(slot, local, affinity(self.stories.get(&slot.story)), at_one, "pre-pair");
                if pinned_left == 0 {
                    // Every story left bounds at most `at_one` at affinity
                    // 1 and can be skipped on it, so each would be.
                    #[cfg(debug_assertions)]
                    for Visit { bound, si } in heap.drain() {
                        let slot = &slots[si as usize];
                        assert_under(slot, local, affinity(self.stories.get(&slot.story)), bound, "pre-pair");
                    }
                    break;
                }
                continue;
            }
            let state = self.stories.get_mut(&slot.story);
            let type_affinity = affinity(state.as_deref());
            let (pair_bound, entity, term) = bounds_of(slot);
            let before_pairs = story_score(pair_bound, entity, term, type_affinity);
            if unreachable(before_pairs) {
                #[cfg(debug_assertions)]
                assert_under(slot, local, type_affinity, before_pairs, "pre-pair");
                continue;
            }
            let pair = best_pair(&scorer, store, candidates, &slot.cand_idx);
            work.pairs_scored += slot.cand_idx.len();
            let with_pair = story_score(pair, entity, term, type_affinity);
            if unreachable(with_pair) {
                #[cfg(debug_assertions)]
                assert_under(slot, local, type_affinity, with_pair, "pair");
                continue;
            }
            let stored = match state {
                Some(state) if skip && own != Some(slot.story) => Some(&mut state.fold),
                _ => None,
            };
            let fold = match stored {
                Some(fold) => {
                    let first = candidates[slot.cand_idx[0] as usize].id;
                    let done = fold.covers(first, slot.cand_idx.len());
                    if done == 0 {
                        // Window slid or the story changed: refold in place.
                        fold.clear();
                        fold.first = first;
                        work.cache_misses += 1;
                    } else {
                        work.cache_hits += 1;
                    }
                    fold_members(fold, store, candidates, &slot.cand_idx[done..]);
                    // Debug builds hold every resumed fold to one from scratch.
                    #[cfg(debug_assertions)]
                    if done > 0 {
                        local.clear();
                        fold_members(local, store, candidates, &slot.cand_idx);
                        assert!(same_bits(fold, local), "story {}: resumed fold != refold", slot.story);
                    }
                    &*fold
                }
                None => {
                    local.clear();
                    fold_members(local, store, candidates, &slot.cand_idx);
                    work.cache_misses += 1;
                    &*local
                }
            };
            let (e, t) = (scorer.entity_cosine(&fold.entities), scorer.term_cosine(&fold.terms));
            let s = story_score(pair, e, t, type_affinity);
            if s > best {
                best = s;
            }
            ranked.push((slot.story, s));
        }
        *order = heap.into_vec();
        rank_for_decision(ranked, merge_threshold);
        drop(scorer);
        self.scratch.tables = tables;
        debug_assert!(work.pairs_scored <= work.compared);
        work
    }

    /// The decision phase of [`Identifier::assign`]: consume the ranked
    /// list left in scratch by [`Identifier::score_probe`] and commit
    /// the assignment (story creation, merges, bookkeeping).
    fn decide(&mut self, snippet: &Snippet, work: Work) -> IdentifyDecision {
        let Work {
            compared,
            pairs_scored,
            cache_hits,
            cache_misses,
        } = work;
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
                            self.pending.remove(&other);
                            merged.push(other);
                        }
                    }
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
                    pairs_scored,
                    cache_hits,
                    cache_misses,
                }
            }
            other => {
                let best_score = other.map_or(0.0, |(_, s)| s);
                let id = self.ids.next_id();
                let mut state = StoryState::new(id, self.source);
                state.add_snippet(snippet);
                self.stories.insert(id, state);
                self.record_assignment(snippet.id, id);
                IdentifyDecision {
                    story: id,
                    created: true,
                    best_score,
                    merged: Vec::new(),
                    compared,
                    pairs_scored,
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
    /// Rebuilds the story's state exactly; drops the story when it
    /// becomes empty. Returns the story it was removed from.
    pub fn remove_snippet(&mut self, snippet: &Snippet, store: &EventStore) -> Option<StoryId> {
        let story_id = self.erase_assignment(snippet.id)?;
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
        let state = self
            .stories
            .entry(story)
            .or_insert_with(|| StoryState::new(story, self.source));
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
            let tables = Some(&mut self.scratch.tables);
            let (mut uf, pairs) = member_components(&self.cfg, &members, grew, tables);
            report.stories_checked += 1;
            report.pairs_scored += pairs;
            if uf.component_count() == 1 {
                continue;
            }
            // Split: largest component keeps the id, others get new ids.
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
                let mut state = StoryState::new(new_id, self.source);
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
                && member_components(&self.cfg, &held, None, None).0.component_count() > 1
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

    /// `d` as the reference path reports it: every fold from scratch.
    fn resumed_as_fresh(d: &IdentifyDecision) -> IdentifyDecision {
        IdentifyDecision {
            cache_hits: 0,
            cache_misses: d.cache_hits + d.cache_misses,
            ..d.clone()
        }
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

        // The reference scores every story and ranks with no cut — every
        // score reaches −∞, so the whole list is kept and sorted — and
        // decides on that.
        let mut reference = id.clone();
        let merge_threshold = reference.cfg.merge_threshold;
        reference.cfg.merge_threshold = f64::NEG_INFINITY;
        let work = reference.score(&probe, &st, false);
        reference.cfg.merge_threshold = merge_threshold;
        let full = reference.scratch.ranked.clone();
        assert_eq!(full.iter().map(|&(s, _)| s).collect::<Vec<_>>(), vec![b, c, a, d]);
        assert_eq!(full[0].1.to_bits(), full[1].1.to_bits(), "b and c must tie");
        assert!(full[2].1 >= merge_threshold && full[3].1 < merge_threshold);
        let expected = reference.decide(&probe, work);
        assert_eq!((expected.cache_hits, expected.cache_misses), (0, 4), "the reference folds all four");
        assert_eq!(expected.pairs_scored, 4, "and scores every pair");

        // d's bound is below the threshold and b's score: neither its
        // pair scored nor its story folded.
        let got = id.assign(&probe, &st);
        assert_eq!(id.scratch.ranked, full[..3], "the cut drops d only");
        assert_eq!((got.pairs_scored, got.cache_hits, got.cache_misses), (3, 3, 0), "d is skipped");
        let work = |d: &IdentifyDecision| IdentifyDecision {
            pairs_scored: 0,
            cache_hits: 0,
            cache_misses: 0,
            ..d.clone()
        };
        assert_eq!(work(&got), work(&expected));
        assert_eq!(got.story, b);
        assert_eq!(got.merged, vec![c, a], "rank order: the tie by id, then the lower score");
        assert_eq!(partition(&id), partition(&reference));
    }

    #[test]
    fn an_overflowing_fold_is_scored_not_skipped() {
        use storypivot_types::kernel::key_bit;
        let (t, u) = (TermId::new(10), TermId::new(11));
        assert_ne!(key_bit(t), key_bit(u), "the two terms must sit on different bits");
        let weighted = |id: u32, entity: u32, terms: &[(TermId, f32)]| {
            let at = Timestamp::from_secs(0);
            let mut b = Snippet::builder(SnippetId::new(id), SourceId::new(0), at)
                .event_type(EventType::Accident)
                .entity(EntityId::new(entity), 1.0);
            for &(term, w) in terms {
                b = b.term(term, w);
            }
            b.build()
        };
        let mut st = store();
        let mut id = ident(MatchMode::Complete);
        // A story the probe matches well (entity 1, term u)...
        let good = ingest(&mut st, &mut id, weighted(0, 1, &[(u, 1.0)])).story;
        ingest(&mut st, &mut id, weighted(1, 1, &[(u, 1.0)]));
        // ...and one whose fold overflows: f32::MAX + f32::MAX on t.
        let huge = ingest(&mut st, &mut id, weighted(2, 7, &[(t, f32::MAX)])).story;
        ingest(&mut st, &mut id, weighted(3, 7, &[(t, f32::MAX)]));
        assert_eq!(id.story_count(), 2);
        // The probe's weight on t is a hundredth of its term norm, so its
        // bound against the huge story is ≈ 0.1, far under `good`'s
        // score; yet its exact score is ∞ / ∞ = NaN.
        let probe = weighted(4, 1, &[(t, 1.0), (u, 100.0)]);
        st.insert(probe.clone()).unwrap();

        let mut reference = id.clone();
        let want = reference.assign_with(&probe, &st, false);
        let got = id.assign(&probe, &st);
        assert_eq!(resumed_as_fresh(&got), want, "the same decision and the same folds");
        assert_eq!((got.story, got.cache_hits + got.cache_misses), (good, 2), "{huge} is folded");
        assert_eq!(partition(&id), partition(&reference));
    }

    #[test]
    fn a_story_ruled_out_early_does_not_rule_out_an_overflowing_one_after_it() {
        use storypivot_types::kernel::key_bit;
        let (t, u, v) = (TermId::new(10), TermId::new(11), TermId::new(12));
        let bits = [key_bit(t), key_bit(u), key_bit(v)];
        assert!(bits[0] != bits[1] && bits[1] != bits[2] && bits[0] != bits[2]);
        let (e1, e5, e7) = (EntityId::new(1), EntityId::new(5), EntityId::new(7));
        assert!(key_bit(e5) != key_bit(e1) && key_bit(e7) != key_bit(e1));
        let weighted = |id: u32, entity: EntityId, terms: &[(TermId, f32)]| {
            let mut b = Snippet::builder(SnippetId::new(id), SourceId::new(0), Timestamp::from_secs(0))
                .event_type(EventType::Accident)
                .entity(entity, 1.0);
            for &(term, w) in terms {
                b = b.term(term, w);
            }
            b.build()
        };
        let mut st = store();
        let mut id = ident(MatchMode::Complete);
        let good = ingest(&mut st, &mut id, weighted(0, e1, &[(u, 1.0)])).story;
        ingest(&mut st, &mut id, weighted(1, e1, &[(u, 1.0)]));
        // A weak story, bounded above the huge one and below `good`: the
        // scoring loop rules it out before it reaches the huge story.
        ingest(&mut st, &mut id, weighted(2, e5, &[(v, 1.0)]));
        let huge = ingest(&mut st, &mut id, weighted(3, e7, &[(t, f32::MAX)])).story;
        ingest(&mut st, &mut id, weighted(4, e7, &[(t, f32::MAX)]));
        assert_eq!(id.story_count(), 3);
        let probe = weighted(5, e1, &[(t, 1.0), (u, 100.0), (v, 10.0)]);
        st.insert(probe.clone()).unwrap();

        let mut reference = id.clone();
        let want = reference.assign_with(&probe, &st, false);
        let got = id.assign(&probe, &st);
        assert_eq!((got.story, got.best_score.to_bits()), (want.story, want.best_score.to_bits()));
        // The weak story's one pair is never scored; the huge story is
        // still folded, and both of its pairs scored.
        assert_eq!((got.pairs_scored, want.pairs_scored), (4, 5));
        assert_eq!((got.story, got.cache_hits + got.cache_misses), (good, 2), "{huge} is folded");
        assert_eq!(partition(&id), partition(&reference));
    }

    #[test]
    fn a_mixed_type_story_is_bounded_by_its_best_typed_pair() {
        // Every snippet below carries the probe's keys, so each story's
        // signature bounds are 1 and its score is decided by weights and
        // event types alone.
        let typed = |id: u32, ty: EventType, entity_2: f32| {
            Snippet::builder(SnippetId::new(id), SourceId::new(0), Timestamp::from_secs(id as i64 * DAY))
                .event_type(ty)
                .entity(EntityId::new(1), 1.0)
                .entity(EntityId::new(2), entity_2)
                .term(TermId::new(10), 1.0)
                .term(TermId::new(11), 1.0)
                .build()
        };
        let cfg = IdentifyConfig {
            mode: MatchMode::Complete,
            merge_threshold: 0.99,
            maintenance_every: 0,
            ..IdentifyConfig::default()
        };
        let mut st = store();
        let mut id = Identifier::new(SourceId::new(0), cfg, SketchConfig::default());
        // The weaker Accident story comes first in the window, so with
        // the same bound at affinity 1 it is scored first: 0.9322.
        let weak = id.fresh_story_id();
        // The mixed story is mostly Sports (its dominant type, affinity 0
        // to Accident) plus one Accident snippet equal to the probe: its
        // best pair is 1.0 and its centroid term 0.9, so it scores 0.95,
        // exactly its bound. Bounding its pair term at the dominant
        // type's affinity instead would give 0.9 and skip it.
        let mixed = id.fresh_story_id();
        let members = [
            (typed(0, EventType::Accident, 0.5), weak),
            (typed(1, EventType::Sports, 1.0), mixed),
            (typed(2, EventType::Sports, 1.0), mixed),
            (typed(3, EventType::Sports, 1.0), mixed),
            (typed(4, EventType::Accident, 1.0), mixed),
        ];
        for (s, story) in members {
            st.insert(s.clone()).unwrap();
            id.force_assign(&s, story);
        }
        assert_eq!(id.story(mixed).unwrap().dominant_event_type(), EventType::Sports);
        let probe = typed(5, EventType::Accident, 1.0);
        st.insert(probe.clone()).unwrap();

        let mut reference = id.clone();
        let want = reference.assign_with(&probe, &st, false);
        let got = id.assign(&probe, &st);
        assert_eq!(resumed_as_fresh(&got), want, "the same decision, pairs and folds");
        assert_eq!((got.story, got.created), (mixed, false));
        assert!((got.best_score - 0.95).abs() < 1e-12, "{got:?}");
        assert_eq!(partition(&id), partition(&reference));
    }

    #[test]
    fn a_stored_fold_resumes_on_repeated_probes_of_the_same_story() {
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
            "the stored fold extends at the trailing edge"
        );
    }

    #[test]
    fn the_reference_path_neither_reads_nor_writes_a_stored_fold() {
        let mut st = store();
        let mut id = ident(MatchMode::Complete);
        let story = ingest(&mut st, &mut id, snip(0, 0, &[1, 2], &[10, 11])).story;
        ingest(&mut st, &mut id, snip(1, 0, &[1, 2], &[10, 11]));
        assert_eq!(id.stories[&story].fold.len, 1, "the join's probe folded member 0");
        let s = snip(2, 0, &[1, 2], &[10, 11]);
        st.insert(s.clone()).unwrap();
        let d = id.assign_with(&s, &st, false);
        assert_eq!((d.story, d.cache_hits, d.cache_misses), (story, 0, 1), "folded locally");
        assert_eq!(id.stories[&story].fold.len, 1, "and the stored fold left as it was");
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

    // ---- when a story's stored fold is resumed ----------------------------
    //
    // Probes are scored, never stored, so probing moves only the folds.
    // Debug builds also refold every resumed fold and assert the bits
    // match.

    fn x_at(id: u32, day: i64) -> Snippet {
        snip(id, day, &[1, 2], &[10, 11])
    }

    /// `(resumed, from scratch)` folds of scoring `probe`.
    fn folds(id: &mut Identifier, st: &EventStore, probe: &Snippet) -> (usize, usize) {
        let (_, resumed, fresh) = id.score_probe(probe, st);
        (resumed, fresh)
    }

    /// [`folds`] of a probe like `x` at `day`.
    fn next_fold(id: &mut Identifier, st: &EventStore, day: i64) -> (usize, usize) {
        folds(id, st, &x_at(999, day))
    }

    /// One story with ids 0, 1, 5 at days 0, 2, 4, in a 5-day window,
    /// its fold stored by a probe at day 2. 0 and 5 are `x`s, 1 is not
    /// quite, so a fold that drops or repeats a member is a wrong fold.
    fn folded_story() -> (EventStore, Identifier, StoryId) {
        let mut st = store();
        let mut id = ident(MatchMode::Temporal { omega: 5 * DAY });
        let story = ingest(&mut st, &mut id, x_at(0, 0)).story;
        for s in [snip(1, 2, &[1, 2, 3], &[10, 11, 12]), x_at(5, 4)] {
            assert_eq!(ingest(&mut st, &mut id, s).story, story);
        }
        next_fold(&mut id, &st, 2);
        assert_eq!(next_fold(&mut id, &st, 2), (1, 0), "an unchanged story resumes");
        (st, id, story)
    }

    fn force(st: &mut EventStore, id: &mut Identifier, s: Snippet, story: StoryId) {
        st.insert(s.clone()).unwrap();
        id.force_assign(&s, story);
    }

    /// `StoryPivot::reassign_snippet` on one identifier: the stored
    /// snippet out of its story and into `story`, creating it if need be.
    fn reassign(st: &EventStore, id: &mut Identifier, snippet: u32, story: StoryId) {
        let s = st.get(SnippetId::new(snippet)).unwrap().clone();
        id.remove_snippet(&s, st);
        id.force_assign(&s, story);
    }

    #[test]
    fn in_order_joins_extend_the_stored_fold() {
        let (mut st, mut id, story) = folded_story();
        // Each join's own probe (window [0, 10]) extends the fold too.
        let d = ingest(&mut st, &mut id, x_at(6, 5));
        assert_eq!((d.story, d.cache_hits), (story, 1));
        assert_eq!(next_fold(&mut id, &st, 2), (1, 0), "a later timestamp appends");
        assert_eq!(ingest(&mut st, &mut id, x_at(7, 5)).story, story);
        assert_eq!(next_fold(&mut id, &st, 2), (1, 0), "the same timestamp and a higher id append");
    }

    #[test]
    fn an_out_of_order_join_misses() {
        let (mut st, mut id, story) = folded_story();
        assert_eq!(ingest(&mut st, &mut id, x_at(3, 1)).story, story);
        assert_eq!(next_fold(&mut id, &st, 2), (0, 1));
    }

    #[test]
    fn a_join_at_the_same_timestamp_with_a_lower_id_misses() {
        let (mut st, mut id, story) = folded_story();
        assert_eq!(ingest(&mut st, &mut id, x_at(3, 4)).story, story);
        assert_eq!(next_fold(&mut id, &st, 2), (0, 1));
    }

    #[test]
    fn an_out_of_order_force_assign_misses() {
        let (mut st, mut id, story) = folded_story();
        force(&mut st, &mut id, x_at(3, 1), story);
        assert_eq!(next_fold(&mut id, &st, 2), (0, 1));
    }

    #[test]
    fn a_removal_with_survivors_misses() {
        let (mut st, mut id, story) = folded_story();
        let gone = st.remove(SnippetId::new(1)).unwrap();
        id.remove_snippet(&gone, &st);
        // Back to three members, the first unchanged: only the cleared
        // fold tells the fold of 0, 1, 5 from the window's 0, 5, 6.
        force(&mut st, &mut id, x_at(6, 6), story);
        assert_eq!(next_fold(&mut id, &st, 2), (0, 1));
    }

    #[test]
    fn a_slid_leading_edge_misses() {
        let (mut st, mut id, story) = folded_story();
        for (i, day) in [(6, 6), (7, 8)] {
            force(&mut st, &mut id, x_at(i, day), story);
        }
        // Window [1, 11]: 1, 5, 6, 7 — at least as many as were folded,
        // all appended in order, but no longer led by 0.
        assert_eq!(next_fold(&mut id, &st, 6), (0, 1));
    }

    #[test]
    fn a_merge_survivor_misses() {
        let mut st = store();
        let mut id = ident(MatchMode::Temporal { omega: 5 * DAY });
        let y_at = |id: u32, day: i64| snip(id, day, &[3, 4], &[12, 13]);
        let survivor = ingest(&mut st, &mut id, x_at(0, 0)).story;
        let other = ingest(&mut st, &mut id, y_at(1, 1)).story;
        ingest(&mut st, &mut id, x_at(2, 2));
        ingest(&mut st, &mut id, y_at(3, 3));
        // The bridge folds the survivor as 0, 2 and appends after all
        // members; the merge interleaves 1 and 3.
        let d = ingest(&mut st, &mut id, snip(4, 4, &[1, 2, 3, 4], &[10, 11, 12, 13]));
        assert_eq!((d.story, d.merged), (survivor, vec![other]));
        assert_eq!(next_fold(&mut id, &st, 2), (0, 1));
    }

    #[test]
    fn a_split_survivor_misses() {
        let (mut st, mut id, story) = folded_story();
        // A stranger with no edge to anyone, in the window and in order.
        force(&mut st, &mut id, snip(6, 5, &[7, 8], &[30, 31]), story);
        assert_eq!(next_fold(&mut id, &st, 2), (1, 0));
        assert_eq!(id.maintain(&st).splits.len(), 1);
        // Back to four members in order: only the cleared fold tells the
        // fold of 0, 1, 5, 6 from the survivor's 0, 1, 5, 7.
        force(&mut st, &mut id, x_at(7, 6), story);
        assert_eq!(next_fold(&mut id, &st, 2), (0, 1));
    }

    #[test]
    fn a_probe_that_is_already_a_member_folds_its_story_outside_it() {
        let (mut st, mut id, _) = folded_story();
        let mut reference = id.clone();
        let member = st.get(SnippetId::new(1)).unwrap().clone();
        // Its story's window lacks it (0, 5): no prefix of 0, 1, 5.
        assert_eq!(id.score_probe(&member, &st), (2, 0, 1));
        assert_eq!(next_fold(&mut id, &st, 2), (1, 0), "the stored fold is untouched");
        let probe = x_at(6, 2);
        st.insert(probe.clone()).unwrap();
        let (got, want) = (id.assign(&probe, &st), reference.assign_with(&probe, &st, false));
        assert_eq!(got.best_score.to_bits(), want.best_score.to_bits());
    }

    #[test]
    fn a_story_that_died_hands_no_fold_to_a_later_probe() {
        // Emptied by removal, then re-created under its id by
        // reassignment, with the very members it had.
        let (st, mut id, story) = folded_story();
        let elsewhere = id.fresh_story_id();
        for m in [0, 1, 5] {
            reassign(&st, &mut id, m, elsewhere);
        }
        assert!(id.story(story).is_none(), "emptied");
        for m in [0, 1, 5] {
            reassign(&st, &mut id, m, story);
        }
        assert_eq!(next_fold(&mut id, &st, 2), (0, 1), "a re-created story starts empty");

        // Merged away, then re-created under its id: led by the same
        // member, with as many in the window, but not the same ones.
        let mut st = store();
        let mut id = ident(MatchMode::Temporal { omega: 5 * DAY });
        let y_at = |id: u32, day: i64| snip(id, day, &[3, 4], &[12, 13]);
        let bridge_at = |id: u32, day: i64| snip(id, day, &[1, 2, 3, 4], &[10, 11, 12, 13]);
        let survivor = ingest(&mut st, &mut id, x_at(0, 0)).story;
        let other = ingest(&mut st, &mut id, y_at(1, 1)).story;
        ingest(&mut st, &mut id, x_at(2, 2));
        ingest(&mut st, &mut id, y_at(3, 3));
        // The probe scores both stories and stores their folds.
        folds(&mut id, &st, &bridge_at(999, 2));
        assert_eq!(folds(&mut id, &st, &bridge_at(999, 2)), (2, 0));
        let d = ingest(&mut st, &mut id, bridge_at(4, 4));
        assert_eq!((d.story, d.merged), (survivor, vec![other]));
        assert!(id.story(other).is_none(), "merged away");
        st.insert(x_at(6, 3)).unwrap();
        for m in [1, 6] {
            reassign(&st, &mut id, m, other);
        }
        // `other` is 1, 6 where its fold was of 1, 3; the survivor lost
        // 1 and was rebuilt.
        assert_eq!(folds(&mut id, &st, &bridge_at(999, 2)), (0, 2));
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
