//! The StoryPivot engine: store + identification + alignment +
//! refinement behind one API.

use std::collections::{HashMap, HashSet};

use storypivot_store::EventStore;
use storypivot_types::ids::IdGen;
use storypivot_types::mem;
use storypivot_types::{
    DocId, Error, GlobalStory, GlobalStoryId, Result, Snippet, SnippetId, Source, SourceId,
    SourceKind, StoryId,
};

use crate::align::{AlignOutcome, Aligner};
use crate::config::PivotConfig;
use crate::identify::{
    Identifier, IdentifyDecision, MaintenanceReport, MAX_SNIPPET_ID, MAX_SOURCES,
};
use crate::metrics::EngineMetrics;
use crate::refine::{apply_moves, plan_reference, RefineReport, Refiner};
use crate::state::StoryState;

/// The stories mutations have touched, for two consumers with different
/// clocks: `dirty` is what the next alignment must rescore (cleared by
/// every alignment), `log` is what a subscriber has not yet drained
/// (see [`StoryPivot::log_changes`]). Every mutation site reports through
/// [`Touched::insert`] / [`Touched::extend`], so neither can miss one
/// the other sees.
///
/// `dirty` is `None` until the first alignment: before an outcome exists
/// nothing reads it (incremental alignment falls back to a full pass,
/// refinement aligns first, and both invariant (3) and `scrub_outcome`
/// need an outcome), so an engine that never aligns — every `pivotd`
/// shard and follower — keeps no set of every story it ever touched.
///
/// The invariant incremental alignment is built on: **a story absent
/// from `dirty` has the member list it had at the last alignment** —
/// ingest (the joined story and every story merged away), maintenance
/// splits (the original and each fragment), `remove_snippet`, both ends
/// of `reassign_snippet` and of every refine move, and `remove_source`
/// all report here. Reusing a clean pair's accept/reject decision and a
/// clean global story's member roles both rest on it, so
/// `scrub_outcome`, the one place that edits a cached outcome, also
/// marks every story whose global story it changed.
#[derive(Debug, Clone, Default)]
pub(crate) struct Touched {
    pub(crate) dirty: Option<HashSet<StoryId>>,
    /// Detached by default, like [`EngineMetrics`]: `None` costs one
    /// branch per touched story and retains nothing.
    log: Option<Vec<StoryId>>,
}

impl Touched {
    pub(crate) fn insert(&mut self, story: StoryId) {
        if let Some(dirty) = &mut self.dirty {
            dirty.insert(story);
        }
        if let Some(log) = &mut self.log {
            log.push(story);
        }
    }

    pub(crate) fn extend(&mut self, stories: impl IntoIterator<Item = StoryId>) {
        for story in stories {
            self.insert(story);
        }
    }
}

/// The story detection engine described by the paper's Figure 1:
/// extraction results go in as [`Snippet`]s, per-source stories come out
/// of identification, and integrated global stories come out of
/// alignment (+ refinement).
///
/// ```
/// use storypivot_core::config::PivotConfig;
/// use storypivot_core::pivot::StoryPivot;
/// use storypivot_types::{EntityId, Snippet, SnippetId, SourceKind, TermId, Timestamp};
///
/// let mut pivot = StoryPivot::new(PivotConfig::default());
/// let nyt = pivot.add_source("New York Times", SourceKind::Newspaper);
/// let wsj = pivot.add_source("Wall Street Journal", SourceKind::Newspaper);
///
/// let t = Timestamp::from_ymd(2014, 7, 17);
/// for (i, src) in [nyt, wsj].into_iter().enumerate() {
///     pivot.ingest(
///         Snippet::builder(SnippetId::new(i as u32), src, t)
///             .entity(EntityId::new(0), 1.0)   // Ukraine
///             .entity(EntityId::new(1), 1.0)   // Malaysia Airlines
///             .term(TermId::new(0), 1.0)       // "crash"
///             .build(),
///     ).unwrap();
/// }
/// pivot.align();
/// assert_eq!(pivot.global_stories().len(), 1);
/// assert!(pivot.global_stories()[0].is_cross_source());
/// ```
#[derive(Debug, Clone)]
pub struct StoryPivot {
    pub(crate) config: PivotConfig,
    pub(crate) store: EventStore,
    pub(crate) identifiers: HashMap<SourceId, Identifier>,
    pub(crate) aligner: Aligner,
    pub(crate) outcome: Option<AlignOutcome>,
    pub(crate) touched: Touched,
    pub(crate) refiner: Refiner,
    pub(crate) source_ids: IdGen<SourceId>,
    pub(crate) snippet_ids: IdGen<SnippetId>,
    pub(crate) doc_ids: IdGen<DocId>,
    pub(crate) metrics: EngineMetrics,
}

impl StoryPivot {
    /// Build an engine from a validated configuration.
    ///
    /// # Panics
    /// Panics when the configuration is invalid; use
    /// [`StoryPivot::try_new`] to handle invalid configs gracefully.
    pub fn new(config: PivotConfig) -> Self {
        Self::try_new(config).expect("invalid PivotConfig")
    }

    /// Build an engine, reporting configuration errors.
    pub fn try_new(config: PivotConfig) -> Result<Self> {
        config.validate()?;
        Ok(StoryPivot {
            aligner: Aligner::new(config.align.clone(), config.identify.weights),
            config,
            store: EventStore::new(),
            identifiers: HashMap::new(),
            outcome: None,
            touched: Touched::default(),
            refiner: Refiner::default(),
            source_ids: IdGen::new(),
            snippet_ids: IdGen::new(),
            doc_ids: IdGen::new(),
            metrics: EngineMetrics::default(),
        })
    }

    /// The active configuration.
    pub fn config(&self) -> &PivotConfig {
        &self.config
    }

    /// Attach engine metric handles (default: detached no-ops). The
    /// serving layer registers one set per shard registry; summing the
    /// shard registries reproduces an unsharded engine's counters.
    pub fn set_metrics(&mut self, metrics: EngineMetrics) {
        self.metrics = metrics;
    }

    /// The attached engine metric handles.
    pub fn metrics(&self) -> &EngineMetrics {
        &self.metrics
    }

    /// Read access to the underlying event store.
    pub fn store(&self) -> &EventStore {
        &self.store
    }

    // ---- sources -----------------------------------------------------

    /// Register a new data source and return its id.
    ///
    /// # Panics
    /// Panics when [`MAX_SOURCES`] (255) sources are already registered
    /// — story ids are partitioned by source.
    pub fn add_source<S: Into<String>>(&mut self, name: S, kind: SourceKind) -> SourceId {
        self.add_source_with_lag(name, kind, 0)
    }

    /// Register a new data source with a typical reporting lag (seconds).
    pub fn add_source_with_lag<S: Into<String>>(
        &mut self,
        name: S,
        kind: SourceKind,
        lag: i64,
    ) -> SourceId {
        let id = self.source_ids.next_id();
        assert!(
            id.raw() < MAX_SOURCES,
            "too many sources for the story-id partitioning scheme"
        );
        self.store
            .register_source(Source::new(id, name, kind).with_lag(lag))
            .expect("fresh source id cannot collide");
        self.identifiers.insert(
            id,
            Identifier::new(id, self.config.identify.clone(), self.config.sketch),
        );
        id
    }

    /// Register a source whose id was allocated *externally*. Sharded
    /// deployments (`storypivot-serve`) allocate source ids centrally
    /// and route each source to one shard engine; the shard must then
    /// register the source under exactly that id so story-id
    /// partitioning stays globally consistent. The internal allocator
    /// is advanced past the given id so locally allocated sources never
    /// collide with externally allocated ones.
    pub fn add_source_registered(&mut self, source: Source) -> Result<SourceId> {
        let id = source.id;
        if id.raw() >= MAX_SOURCES {
            return Err(Error::InvalidConfig(format!(
                "source id {id} exceeds the story-id partitioning limit ({MAX_SOURCES})"
            )));
        }
        if self.identifiers.contains_key(&id) {
            return Err(Error::Duplicate(format!("source {id}")));
        }
        self.store.register_source(source)?;
        self.identifiers.insert(
            id,
            Identifier::new(id, self.config.identify.clone(), self.config.sketch),
        );
        if id.raw() >= self.source_ids.allocated() {
            self.source_ids = IdGen::starting_at(id.raw() + 1);
        }
        Ok(id)
    }

    /// Remove a source together with its snippets and stories. Returns
    /// how many snippets were evicted. The cached alignment outcome is
    /// scrubbed of them at once, and the next alignment can be
    /// incremental (§2.4: sources can disappear).
    pub fn remove_source(&mut self, id: SourceId) -> Result<usize> {
        let ident = self.identifiers.remove(&id).ok_or(Error::UnknownSource(id))?;
        self.touched.extend(ident.story_ids());
        let evicted = self.store.remove_source(id)?;
        self.refiner.forget(); // the evicted ids may come back with other content
        // Every story of the source the outcome knows is dead, including
        // one merged away since the alignment (its identifier no longer
        // lists it).
        let dead: Vec<StoryId> = self
            .outcome
            .iter()
            .flat_map(|o| o.story_to_global.keys().copied())
            .filter(|&s| crate::refine::story_source(s) == id)
            .collect();
        let removed: Vec<SnippetId> = evicted.iter().map(|s| s.id).collect();
        self.scrub_outcome(&removed, &dead);
        Ok(evicted.len())
    }

    /// Registered sources, ordered by id.
    pub fn sources(&self) -> Vec<&Source> {
        self.store.sources().collect()
    }

    // ---- id allocation helpers ----------------------------------------

    /// Allocate a fresh snippet id (callers may also manage their own).
    pub fn fresh_snippet_id(&mut self) -> SnippetId {
        self.snippet_ids.next_id()
    }

    /// Allocate a fresh document id.
    pub fn fresh_doc_id(&mut self) -> DocId {
        self.doc_ids.next_id()
    }

    // ---- ingestion ------------------------------------------------------

    /// Ingest one snippet: store it, identify its story within its
    /// source, and mark the touched story dirty for incremental
    /// re-alignment. Returns the per-source story it joined. Refuses an
    /// unknown source, a stored id, and an id at or above
    /// [`MAX_SNIPPET_ID`], before anything is stored.
    pub fn ingest(&mut self, snippet: Snippet) -> Result<StoryId> {
        Ok(self.ingest_detailed(snippet)?.story)
    }

    /// Like [`StoryPivot::ingest`] but returns the full identification
    /// decision (creation flag, best score, merges, comparison count).
    pub fn ingest_detailed(&mut self, snippet: Snippet) -> Result<IdentifyDecision> {
        self.ingest_with(snippet, false)
    }

    /// [`StoryPivot::ingest_detailed`] scoring every candidate story (no
    /// reachability bound), with the maintenance pass it may trigger run
    /// as the sweep over every story
    /// ([`Identifier::maintain_reference`]); how the oracle engine of
    /// `tests/differential.rs` ingests.
    #[doc(hidden)]
    pub fn ingest_reference(&mut self, snippet: Snippet) -> Result<IdentifyDecision> {
        self.ingest_with(snippet, true)
    }

    fn ingest_with(&mut self, snippet: Snippet, reference: bool) -> Result<IdentifyDecision> {
        let (id, source) = (snippet.id, snippet.source);
        if id.raw() >= MAX_SNIPPET_ID {
            return Err(Error::Invariant(format!(
                "snippet id {id} is not below the snippet-id limit ({MAX_SNIPPET_ID})"
            )));
        }
        let ident = self
            .identifiers
            .get_mut(&source)
            .ok_or(Error::UnknownSource(source))?;
        self.store.insert(snippet)?;
        let snippet = self.store.get(id).expect("inserted on the line above");
        let timer = self.metrics.identify_duration.start();
        let decision = ident.assign_with(snippet, &self.store, !reference);
        drop(timer);
        let m = &self.metrics;
        m.ingest_total.inc();
        m.identify_compared_total.add(decision.compared as u64);
        m.identify_pairs_scored_total.add(decision.pairs_scored as u64);
        if decision.created {
            m.identify_new_story_total.inc();
        } else {
            m.identify_assigned_total.inc();
        }
        m.identify_merge_total.add(decision.merged.len() as u64);
        m.story_cache_hits_total.add(decision.cache_hits as u64);
        m.story_cache_misses_total.add(decision.cache_misses as u64);
        self.touched.insert(decision.story);
        self.touched.extend(decision.merged.iter().copied());
        if ident.maintenance_due() {
            let report = if reference {
                ident.maintain_reference(&self.store)
            } else {
                ident.maintain(&self.store)
            };
            Self::record_pass(&self.metrics, &mut self.touched, &report);
        }
        Ok(decision)
    }

    /// Book one source's maintenance pass: the counters, and every
    /// split story and fragment as touched.
    fn record_pass(metrics: &EngineMetrics, touched: &mut Touched, report: &MaintenanceReport) {
        metrics.maintenance_runs_total.inc();
        metrics.identify_split_total.add(report.splits.len() as u64);
        metrics.maintenance_stories_checked_total.add(report.stories_checked as u64);
        metrics.maintenance_pairs_scored_total.add(report.pairs_scored as u64);
        for (orig, fragments) in &report.splits {
            touched.insert(*orig);
            touched.extend(fragments.iter().copied());
        }
    }

    // ---- removal ---------------------------------------------------------

    /// Remove one snippet (store + story), marking its story dirty.
    ///
    /// The cached alignment outcome is scrubbed immediately: queries
    /// issued between the removal and the next (incremental) alignment
    /// must not surface the removed snippet, nor a story whose last
    /// snippet just vanished.
    pub fn remove_snippet(&mut self, id: SnippetId) -> Result<()> {
        let dead = self.evict_snippet(id)?;
        self.scrub_outcome(&[id], dead.as_slice());
        Ok(())
    }

    /// Take a snippet out of the store and out of its story, marking the
    /// story touched. Returns the story when the snippet was its last
    /// member. The caller scrubs the cached outcome.
    fn evict_snippet(&mut self, id: SnippetId) -> Result<Option<StoryId>> {
        let snippet = self.store.remove(id)?;
        self.refiner.forget(); // `id` may come back with other content
        let Some(ident) = self.identifiers.get_mut(&snippet.source) else { return Ok(None) };
        let Some(story) = ident.remove_snippet(&snippet, &self.store) else { return Ok(None) };
        self.touched.insert(story);
        Ok(ident.story(story).is_none().then_some(story))
    }

    /// Evict removed snippets and dead stories from the cached
    /// [`AlignOutcome`] in one pass, so reads stay consistent until the
    /// next alignment rebuilds it: no lookup answers for a removed
    /// snippet, and no global story lists one, nor a dead story, nor a
    /// source only dead stories held.
    fn scrub_outcome(&mut self, removed: &[SnippetId], dead: &[StoryId]) {
        let Some(outcome) = self.outcome.as_mut() else { return };
        // The global stories that list a removed snippet or a dead story.
        let mut reached: Vec<GlobalStoryId> = removed
            .iter()
            .filter_map(|s| outcome.snippet_to_global.remove(s))
            .chain(dead.iter().filter_map(|s| outcome.story_to_global.remove(s)))
            .collect();
        if reached.is_empty() {
            return;
        }
        reached.sort_unstable();
        reached.dedup();
        let removed: HashSet<SnippetId> = removed.iter().copied().collect();
        let dead: HashSet<StoryId> = dead.iter().copied().collect();
        outcome.accepted_pairs.retain(|(a, b)| !dead.contains(a) && !dead.contains(b));
        let mut emptied = false;
        for gid in reached {
            let Ok(idx) = outcome.global_stories.binary_search_by_key(&gid, |g| g.id) else {
                continue;
            };
            let g = &mut outcome.global_stories[idx];
            g.members.retain(|(m, _)| !removed.contains(m));
            let stories = g.member_stories.len();
            g.member_stories.retain(|s| !dead.contains(s));
            if g.member_stories.len() < stories {
                let mut sources: Vec<SourceId> =
                    g.member_stories.iter().map(|&s| crate::refine::story_source(s)).collect();
                sources.sort_unstable();
                sources.dedup();
                g.sources = sources;
                // What is left of `g` is no longer what an alignment
                // computed for these stories (a member may have lost
                // its counterpart), so none of them may pass as clean.
                self.touched.extend(g.member_stories.iter().copied());
                emptied |= g.member_stories.is_empty();
            }
        }
        if emptied {
            outcome.global_stories.retain(|g| !g.member_stories.is_empty());
        }
    }

    /// Remove a whole document (the demo's remove-document interaction,
    /// §4.2.1). Returns how many snippets were evicted.
    pub fn remove_document(&mut self, doc: DocId) -> Result<usize> {
        let ids = self.store.snippets_of_doc(doc);
        if ids.is_empty() {
            return Err(Error::UnknownDocument(doc));
        }
        let mut dead = Vec::new();
        for &id in &ids {
            dead.extend(self.evict_snippet(id)?);
        }
        self.scrub_outcome(&ids, &dead);
        Ok(ids.len())
    }

    /// Forcibly reassign a snippet to another story of its source (a
    /// what-if/error-injection hook used by the demo's interactive
    /// exploration and by the refinement experiments). The target story
    /// is created when it does not exist; pass
    /// [`StoryPivot::fresh_story_id_for`] output to open a new one.
    pub fn reassign_snippet(&mut self, id: SnippetId, story: StoryId) -> Result<()> {
        let snippet = self.store.get_or_err(id)?.clone();
        let ident = self
            .identifiers
            .get_mut(&snippet.source)
            .ok_or(Error::UnknownSource(snippet.source))?;
        if let Some(old) = ident.remove_snippet(&snippet, &self.store) {
            self.touched.insert(old);
        }
        ident.force_assign(&snippet, story);
        self.touched.insert(story);
        Ok(())
    }

    /// Allocate a fresh story id in `source` (for
    /// [`StoryPivot::reassign_snippet`]).
    pub fn fresh_story_id_for(&mut self, source: SourceId) -> Result<StoryId> {
        self.identifiers
            .get_mut(&source)
            .map(Identifier::fresh_story_id)
            .ok_or(Error::UnknownSource(source))
    }

    /// Run the merge/split maintenance pass over every source now
    /// (ordinarily it runs automatically every
    /// `identify.maintenance_every` ingests). Returns all splits as
    /// `(original story, fragment ids)`; affected stories are marked
    /// dirty for incremental re-alignment.
    pub fn run_maintenance(&mut self) -> Vec<(StoryId, Vec<StoryId>)> {
        let mut splits = Vec::new();
        let mut sources: Vec<SourceId> = self.identifiers.keys().copied().collect();
        sources.sort_unstable();
        for source in sources {
            let ident = self.identifiers.get_mut(&source).expect("listed source");
            let report = ident.maintain(&self.store);
            Self::record_pass(&self.metrics, &mut self.touched, &report);
            splits.extend(report.splits);
        }
        splits
    }

    // ---- alignment ----------------------------------------------------------

    /// Every story state, by source then story id. Takes the field, not
    /// `&self`: the aligner is borrowed mutably beside it.
    fn collect_states(identifiers: &HashMap<SourceId, Identifier>) -> Vec<&StoryState> {
        let mut ids: Vec<SourceId> = identifiers.keys().copied().collect();
        ids.sort_unstable();
        ids.iter()
            .flat_map(|id| {
                let ident = &identifiers[id];
                ident
                    .story_ids()
                    .into_iter()
                    .map(move |sid| ident.story(sid).expect("listed story exists"))
            })
            .collect()
    }

    /// Run story alignment from scratch and return the outcome.
    pub fn align(&mut self) -> &AlignOutcome {
        let timer = self.metrics.align_duration.start();
        let states = Self::collect_states(&self.identifiers);
        let outcome = self.aligner.align(&states, &self.store);
        drop(timer);
        self.metrics.align_runs_total.inc();
        self.metrics.align_pairs_total.add(outcome.pairs_scored as u64);
        self.touched.dirty.get_or_insert_with(HashSet::new).clear();
        self.outcome = Some(outcome);
        self.outcome.as_ref().expect("just set")
    }

    /// Run alignment incrementally: only story pairs touching a dirty
    /// story are rescored; everything else reuses the previous outcome.
    /// Falls back to a full pass when no previous outcome exists.
    pub fn align_incremental(&mut self) -> &AlignOutcome {
        let timer = self.metrics.align_duration.start();
        let states = Self::collect_states(&self.identifiers);
        let outcome = match (&self.outcome, &self.touched.dirty) {
            (Some(prev), Some(dirty)) => {
                self.aligner.align_incremental(&states, &self.store, prev, dirty)
            }
            _ => self.aligner.align(&states, &self.store),
        };
        drop(timer);
        self.metrics.align_runs_total.inc();
        self.metrics.align_pairs_total.add(outcome.pairs_scored as u64);
        self.touched.dirty.get_or_insert_with(HashSet::new).clear();
        self.outcome = Some(outcome);
        self.outcome.as_ref().expect("just set")
    }

    // ---- memory ------------------------------------------------------------------

    /// Heap bytes held by each part of the engine: the store's three
    /// parts, the identifiers' four summed over sources, the aligner's
    /// probe tables and story profiles, the cached alignment outcome,
    /// the stories dirty since it and the refiner. Computed from the
    /// collections' layouts ([`storypivot_types::mem`]) in time linear
    /// in the number of stories and snippets; `tests/memory_account.rs`
    /// holds the sum to what a counting allocator saw.
    pub fn memory_account(&self) -> Vec<(&'static str, usize)> {
        let mut account = self.store.heap_bytes().to_vec();
        let per_source = self.identifiers.values().map(Identifier::heap_bytes);
        let identify = per_source.reduce(|mut sum, parts| {
            for (total, part) in sum.iter_mut().zip(parts) {
                total.1 += part.1;
            }
            sum
        });
        account.extend(identify.into_iter().flatten());
        account.extend(self.aligner.heap_bytes());
        account.push(("align.outcome", self.outcome.as_ref().map_or(0, AlignOutcome::heap_bytes)));
        account.push(("align.dirty", self.touched.dirty.as_ref().map_or(0, mem::hash_set_bytes)));
        account.extend(self.refiner.heap_bytes());
        account
    }

    /// Number of stories currently marked dirty (ingested/changed since
    /// the last alignment); before the first alignment, every story.
    pub fn dirty_count(&self) -> usize {
        self.touched.dirty.as_ref().map_or_else(|| self.story_count(), HashSet::len)
    }

    /// Start recording which stories change, for
    /// [`StoryPivot::drain_changes`]. Off by default and after
    /// [`StoryPivot::load_checkpoint`]: an engine nobody drains must not
    /// grow a log. Calling it again keeps what is already logged.
    pub fn log_changes(&mut self) {
        self.touched.log.get_or_insert_with(Vec::new);
    }

    /// Replace `changed` with every story whose member list or lifespan
    /// may have changed — created, grown, shrunk, merged away, split,
    /// emptied — since the previous drain (or since
    /// [`StoryPivot::log_changes`]), ascending and deduplicated. A
    /// listed id that [`StoryPivot::story`] no longer knows is a story
    /// that ceased to exist. Alignment does not clear this. Empty when
    /// logging was never started. Both the log and `changed` keep their
    /// capacity, so a caller that drains into the same buffer after
    /// every op allocates nothing once the two have grown.
    pub fn drain_changes(&mut self, changed: &mut Vec<StoryId>) {
        changed.clear();
        if let Some(log) = &mut self.touched.log {
            changed.append(log);
        }
        changed.sort_unstable();
        changed.dedup();
    }

    /// Run story refinement (Figure 1d): repeatedly move snippets whose
    /// cross-source cohesion contradicts their assignment, re-aligning
    /// between rounds, until a round makes no move or the configured
    /// round budget is exhausted.
    pub fn refine(&mut self) -> RefineReport {
        self.refine_with(false)
    }

    /// [`StoryPivot::refine`] with every sweep planned by the original,
    /// uncached planner ([`crate::refine`]'s reference). Same round loop,
    /// same apply step; it exists so tests and `harness refine` can hold
    /// `refine` to "the identical move list".
    #[doc(hidden)]
    pub fn refine_reference(&mut self) -> RefineReport {
        self.refine_with(true)
    }

    fn refine_with(&mut self, reference: bool) -> RefineReport {
        let timer = self.metrics.refine_duration.start();
        let mut report = RefineReport::default();
        for _ in 0..self.config.refine.max_rounds {
            if self.outcome.is_none() || self.dirty_count() > 0 {
                self.align_incremental();
            }
            // Out of `self` for the sweep, so planning can borrow it
            // beside the refiner and the identifiers without a clone.
            let outcome = self.outcome.take().expect("aligned above");
            let cfg = &self.config.refine;
            let weights = &self.config.identify.weights;
            let (planned, stats) = if reference {
                plan_reference(&self.store, &self.identifiers, &outcome, cfg, weights)
            } else {
                self.refiner
                    .plan(&self.store, &self.identifiers, &outcome, cfg, weights)
            };
            let moves = apply_moves(&self.store, &mut self.identifiers, &outcome, planned);
            self.outcome = Some(outcome);
            self.metrics.refine_pairs_scored_total.add(stats.pairs_scored);
            self.metrics.refine_cohesion_cache_hits_total.add(stats.cache_hits);
            self.metrics.refine_cohesion_cache_misses_total.add(stats.cache_misses);
            self.metrics.refine_cohesion_extended_total.add(stats.extended);
            self.metrics.refine_settled_total.add(stats.settled);
            report.rounds += 1;
            if moves.is_empty() {
                break;
            }
            for m in &moves {
                self.touched.insert(m.from_story);
                self.touched.insert(m.to_story);
            }
            report.moves.extend(moves);
            self.align_incremental();
        }
        drop(timer);
        self.metrics.refine_moves_total.add(report.move_count() as u64);
        self.metrics.refine_rounds_total.add(report.rounds as u64);
        report
    }

    // ---- inspection ------------------------------------------------------------

    /// The integrated global stories from the most recent alignment
    /// (empty before the first [`StoryPivot::align`] call).
    pub fn global_stories(&self) -> &[GlobalStory] {
        self.outcome
            .as_ref()
            .map(|o| o.global_stories.as_slice())
            .unwrap_or(&[])
    }

    /// The full outcome of the most recent alignment.
    pub fn alignment(&self) -> Option<&AlignOutcome> {
        self.outcome.as_ref()
    }

    /// The per-source story a snippet belongs to.
    pub fn story_of(&self, snippet: SnippetId) -> Option<StoryId> {
        let source = self.store.get(snippet)?.source;
        self.identifiers.get(&source)?.story_of(snippet)
    }

    /// The global story a snippet belongs to (after alignment).
    pub fn global_of(&self, snippet: SnippetId) -> Option<GlobalStoryId> {
        self.outcome.as_ref()?.snippet_to_global.get(&snippet).copied()
    }

    /// All story states of one source, ordered by story id.
    pub fn stories_of_source(&self, source: SourceId) -> Vec<&StoryState> {
        match self.identifiers.get(&source) {
            Some(ident) => ident
                .story_ids()
                .into_iter()
                .map(|id| ident.story(id).expect("listed story exists"))
                .collect(),
            None => Vec::new(),
        }
    }

    /// One story's state, looked up across sources.
    pub fn story(&self, id: StoryId) -> Option<&StoryState> {
        self.identifiers
            .get(&crate::refine::story_source(id))
            .and_then(|ident| ident.story(id))
    }

    /// Total number of per-source stories.
    pub fn story_count(&self) -> usize {
        self.identifiers.values().map(Identifier::story_count).sum()
    }

    /// The per-source story partition: every story with its members,
    /// ordered by story id, members sorted. Identification is
    /// per-source, so this partition is invariant under sharding by
    /// source — the serving layer's QUERY_STORIES frame and the
    /// served-vs-in-process equivalence tests are built on it.
    pub fn story_partition(&self) -> Vec<(StoryId, Vec<SnippetId>)> {
        let mut out: Vec<(StoryId, Vec<SnippetId>)> = self
            .identifiers
            .values()
            .flat_map(|ident| {
                ident.story_ids().into_iter().map(move |sid| {
                    let mut members: Vec<SnippetId> = ident
                        .story(sid)
                        .expect("listed story exists")
                        .story
                        .members
                        .clone();
                    members.sort_unstable();
                    (sid, members)
                })
            })
            .collect();
        out.sort_unstable_by_key(|&(sid, _)| sid);
        out
    }

    /// Verify the engine's internal invariants, returning a description
    /// of the first violation found. Intended for tests and debugging;
    /// cost is linear in the corpus.
    ///
    /// Checked invariants:
    /// 1. every stored snippet is assigned to exactly one story of its
    ///    source, every story member is a stored snippet, and the
    ///    snippet → story table and the stories' member lists agree in
    ///    both directions;
    /// 2. story lifespans cover their members' timestamps;
    /// 3. when an alignment outcome exists, its global stories partition
    ///    the per-source stories (modulo stories changed since);
    /// 4. every story of ≥ 3 members that its identifier does not hold
    ///    as pending maintenance has a connected member graph, found by
    ///    a sweep from scratch ([`Identifier::check_pending`]);
    /// 5. between alignments as well, every snippet the cached outcome
    ///    lists is stored and every source it lists is registered;
    /// 6. every source's window index is what a rebuild from the stored
    ///    snippets would hold ([`EventStore::check_windows`]);
    /// 7. every alternatives block the refiner keeps is free or held by
    ///    exactly one snippet its last judgment left free to move.
    pub fn check_invariants(&self) -> Result<()> {
        let fail = |msg: String| Err(Error::Invariant(msg));

        // (1) + (2)
        let mut assigned = std::collections::HashSet::new();
        for (source, ident) in &self.identifiers {
            for story_id in ident.story_ids() {
                let state = ident.story(story_id).expect("listed story exists");
                if state.is_empty() {
                    return fail(format!("story {story_id} is empty but alive"));
                }
                for &m in &state.story.members {
                    let Some(sn) = self.store.get(m) else {
                        return fail(format!("story {story_id} references missing snippet {m}"));
                    };
                    if sn.source != *source {
                        return fail(format!("snippet {m} of {} in story of {source}", sn.source));
                    }
                    if ident.story_of(m) != Some(story_id) {
                        return fail(format!(
                            "snippet {m} is a member of story {story_id} but assigned to {:?}",
                            ident.story_of(m)
                        ));
                    }
                    if !state.lifespan().contains(sn.timestamp) {
                        return fail(format!(
                            "snippet {m} at {} outside story {story_id} lifespan {}",
                            sn.timestamp,
                            state.lifespan()
                        ));
                    }
                    if !assigned.insert(m) {
                        return fail(format!("snippet {m} belongs to two stories"));
                    }
                }
            }
            // Every member agreed with the table above, so a count
            // mismatch means surplus table entries: snippets still
            // assigned to a story that merged away or was dropped.
            let listed: usize = ident.stories().map(|s| s.len()).sum();
            if ident.assigned_count() != listed {
                let stale = ident.assignments().find(|(m, _)| !assigned.contains(m));
                return fail(match stale {
                    Some((m, story)) => {
                        format!("snippet {m} is assigned to story {story}, which does not list it")
                    }
                    None => format!(
                        "source {source} has {} assignments but {listed} story members",
                        ident.assigned_count()
                    ),
                });
            }
        }
        for sn in self.store.iter() {
            if !assigned.contains(&sn.id) {
                return fail(format!("stored snippet {} is unassigned", sn.id));
            }
        }

        // (3) — only meaningful right after alignment (dirty == 0).
        if let Some(outcome) = &self.outcome {
            if self.dirty_count() == 0 {
                let mut covered = std::collections::HashSet::new();
                for g in &outcome.global_stories {
                    for &s in &g.member_stories {
                        if !covered.insert(s) {
                            return fail(format!("story {s} in two global stories"));
                        }
                    }
                }
                for ident in self.identifiers.values() {
                    for story_id in ident.story_ids() {
                        if !covered.contains(&story_id) {
                            return fail(format!("story {story_id} missing from alignment"));
                        }
                    }
                }
            }
        }

        // (4)
        for ident in self.identifiers.values() {
            ident.check_pending(&self.store)?;
        }

        // (6)
        self.store.check_windows()?;

        // (7)
        self.refiner.check_blocks()?;

        // (5)
        if let Some(outcome) = &self.outcome {
            let stored = |m: &SnippetId| self.store.get(*m).is_some();
            if let Some(m) = outcome.snippet_to_global.keys().find(|m| !stored(m)) {
                return fail(format!("the alignment maps removed snippet {m}"));
            }
            for g in &outcome.global_stories {
                if let Some((m, _)) = g.members.iter().find(|(m, _)| !stored(m)) {
                    return fail(format!("global story {} lists removed snippet {m}", g.id));
                }
                if let Some(s) = g.sources.iter().find(|s| !self.identifiers.contains_key(s)) {
                    return fail(format!("global story {} lists removed source {s}", g.id));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use storypivot_types::{EntityId, EventType, TermId, Timestamp, DAY};

    fn snip(pivot: &mut StoryPivot, source: SourceId, day: i64, entities: &[u32], terms: &[u32]) -> SnippetId {
        let id = pivot.fresh_snippet_id();
        let mut b = Snippet::builder(id, source, Timestamp::from_secs(day * DAY))
            .event_type(EventType::Accident);
        for &e in entities {
            b = b.entity(EntityId::new(e), 1.0);
        }
        for &t in terms {
            b = b.term(TermId::new(t), 1.0);
        }
        pivot.ingest(b.build()).unwrap();
        id
    }

    #[test]
    fn end_to_end_two_sources() {
        let mut pivot = StoryPivot::new(PivotConfig::default());
        let a = pivot.add_source("NYT", SourceKind::Newspaper);
        let b = pivot.add_source("WSJ", SourceKind::Newspaper);
        for day in 0..5 {
            snip(&mut pivot, a, day, &[1, 2], &[10, 11]);
            snip(&mut pivot, b, day, &[1, 2], &[10, 11]);
        }
        assert_eq!(pivot.story_count(), 2);
        pivot.align();
        assert_eq!(pivot.global_stories().len(), 1);
        assert!(pivot.global_stories()[0].is_cross_source());
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut cfg = PivotConfig::default();
        cfg.identify.match_threshold = 7.0;
        assert!(StoryPivot::try_new(cfg).is_err());
    }

    #[test]
    fn unknown_source_ingest_fails() {
        let mut pivot = StoryPivot::new(PivotConfig::default());
        let s = Snippet::builder(SnippetId::new(0), SourceId::new(9), Timestamp::EPOCH).build();
        assert!(matches!(pivot.ingest(s), Err(Error::UnknownSource(_))));
    }

    #[test]
    fn dirty_tracking_and_incremental_alignment() {
        let mut pivot = StoryPivot::new(PivotConfig::default());
        let a = pivot.add_source("a", SourceKind::Newspaper);
        let b = pivot.add_source("b", SourceKind::Newspaper);
        for day in 0..3 {
            snip(&mut pivot, a, day, &[1, 2], &[10]);
            snip(&mut pivot, b, day, &[1, 2], &[10]);
        }
        assert!(pivot.dirty_count() > 0);
        pivot.align();
        assert_eq!(pivot.dirty_count(), 0);
        snip(&mut pivot, a, 3, &[1, 2], &[10]);
        assert_eq!(pivot.dirty_count(), 1);
        pivot.align_incremental();
        assert_eq!(pivot.global_stories().len(), 1);
    }

    #[test]
    fn an_engine_that_never_aligns_keeps_no_dirty_set() {
        let mut pivot = StoryPivot::new(PivotConfig::default());
        pivot.log_changes();
        let a = pivot.add_source("a", SourceKind::Newspaper);
        for i in 0..300 {
            snip(&mut pivot, a, i / 20, &[i as u32 % 7, 100], &[i as u32 % 5]);
        }
        let dirty_bytes = |p: &StoryPivot| {
            p.memory_account().into_iter().find(|(s, _)| *s == "align.dirty").map(|(_, b)| b)
        };
        assert!(pivot.touched.dirty.is_none(), "no outcome yet: nothing is retained");
        assert_eq!(dirty_bytes(&pivot), Some(0));
        assert_eq!(pivot.dirty_count(), pivot.story_count(), "every story awaits the first pass");

        pivot.align();
        snip(&mut pivot, a, 30, &[1, 100], &[1]);
        assert_eq!(pivot.dirty_count(), 1);
        assert!(dirty_bytes(&pivot) > Some(0), "once aligned, the set is counted");
    }

    #[test]
    fn an_engine_that_never_refines_keeps_no_entity_postings() {
        let mut pivot = StoryPivot::new(PivotConfig::default());
        let a = pivot.add_source("a", SourceKind::Newspaper);
        let b = pivot.add_source("b", SourceKind::Newspaper);
        for i in 0..200 {
            let source = if i % 2 == 0 { a } else { b };
            snip(&mut pivot, source, i / 20, &[i as u32 % 7, 100], &[i as u32 % 5]);
        }
        let doomed = Snippet::builder(pivot.fresh_snippet_id(), a, Timestamp::from_secs(3 * DAY))
            .entity(EntityId::new(1), 1.0)
            .doc(DocId::new(7))
            .build();
        pivot.ingest(doomed).unwrap();
        pivot.align();
        assert_eq!(pivot.remove_document(DocId::new(7)).unwrap(), 1);
        let account = pivot.memory_account();
        let store = account.iter().map(|&(s, _)| s).filter(|s| s.starts_with("store."));
        assert!(
            store.eq(["store.arena", "store.windows", "store.doc_index"]),
            "the store indexes no entities: {account:?}"
        );
        let refine_bytes = |p: &StoryPivot, row: &str| {
            p.memory_account().into_iter().find(|(s, _)| *s == row).map(|(_, b)| b)
        };
        assert_eq!(refine_bytes(&pivot, "refine.rows"), Some(0), "nothing refined: no rows");
        assert_eq!(refine_bytes(&pivot, "refine.scratch"), Some(0), "nothing refined: no postings");

        pivot.refine();
        assert!(refine_bytes(&pivot, "refine.rows") > Some(0), "a sweep keeps what it judged");
        assert!(refine_bytes(&pivot, "refine.scratch") > Some(0), "a sweep builds its postings");
    }

    #[test]
    fn an_engine_that_never_aligns_builds_no_story_profile() {
        let mut pivot = StoryPivot::new(PivotConfig::default());
        let a = pivot.add_source("a", SourceKind::Newspaper);
        let b = pivot.add_source("b", SourceKind::Newspaper);
        for i in 0..200 {
            let source = if i % 2 == 0 { a } else { b };
            snip(&mut pivot, source, i / 20, &[i as u32 % 7, 100], &[i as u32 % 5]);
        }
        let doomed = Snippet::builder(pivot.fresh_snippet_id(), a, Timestamp::from_secs(3 * DAY))
            .entity(EntityId::new(1), 1.0)
            .doc(DocId::new(7))
            .build();
        pivot.ingest(doomed).unwrap();
        assert_eq!(pivot.remove_document(DocId::new(7)).unwrap(), 1);
        pivot.run_maintenance();
        let profile_bytes = |p: &StoryPivot| {
            p.memory_account().into_iter().find(|(s, _)| *s == "align.profiles").map(|(_, b)| b)
        };
        assert_eq!(profile_bytes(&pivot), Some(0), "identification keeps no story profile");

        pivot.align();
        let aligned = profile_bytes(&pivot);
        assert!(aligned > Some(0), "alignment builds one per story");
        assert_eq!(pivot.dirty_count(), 0);
        pivot.align_incremental();
        assert_eq!(profile_bytes(&pivot), aligned, "nothing dirty: every profile is kept");
    }

    #[test]
    fn change_log_is_detached_until_asked_for_and_survives_alignment() {
        let mut pivot = StoryPivot::new(PivotConfig::default());
        let a = pivot.add_source("a", SourceKind::Newspaper);
        for i in 0..1000 {
            snip(&mut pivot, a, i / 50, &[i as u32 % 7, 100], &[i as u32 % 5]);
        }
        let mut changed = vec![StoryId::new(0)];
        assert!(pivot.touched.log.is_none(), "nobody asked: nothing is retained");
        pivot.drain_changes(&mut changed);
        assert!(changed.is_empty(), "a drain replaces what the buffer held");

        // A checkpoint-restored engine starts detached as well, whatever
        // the engine that wrote the checkpoint was doing.
        pivot.log_changes();
        let mut restored =
            StoryPivot::load_checkpoint(PivotConfig::default(), &pivot.save_checkpoint()).unwrap();
        snip(&mut restored, a, 21, &[1, 100], &[1]);
        assert!(restored.touched.log.is_none());
        restored.drain_changes(&mut changed);
        assert!(changed.is_empty());

        // Logging: alignment clears the dirty set but not the log; a
        // drain empties it and hands the ids out sorted, once each.
        let first = snip(&mut pivot, a, 21, &[1, 100], &[1]);
        let again = snip(&mut pivot, a, 21, &[1, 100], &[1]);
        let story = pivot.story_of(first).unwrap();
        assert_eq!(pivot.story_of(again), Some(story));
        pivot.align();
        assert_eq!(pivot.dirty_count(), 0);
        pivot.drain_changes(&mut changed);
        assert_eq!(changed, vec![story]);
        pivot.drain_changes(&mut changed);
        assert!(changed.is_empty());
    }

    #[test]
    fn document_removal_updates_stories() {
        let mut pivot = StoryPivot::new(PivotConfig::default());
        let a = pivot.add_source("a", SourceKind::Newspaper);
        let doc = pivot.fresh_doc_id();
        let id0 = pivot.fresh_snippet_id();
        pivot
            .ingest(
                Snippet::builder(id0, a, Timestamp::EPOCH)
                    .doc(doc)
                    .entity(EntityId::new(1), 1.0)
                    .build(),
            )
            .unwrap();
        assert_eq!(pivot.story_count(), 1);
        assert_eq!(pivot.remove_document(doc).unwrap(), 1);
        assert_eq!(pivot.story_count(), 0);
        assert!(pivot.remove_document(doc).is_err());
    }

    #[test]
    fn source_removal_prunes_everything() {
        let mut pivot = StoryPivot::new(PivotConfig::default());
        let a = pivot.add_source("a", SourceKind::Newspaper);
        let b = pivot.add_source("b", SourceKind::Newspaper);
        snip(&mut pivot, a, 0, &[1], &[1]);
        snip(&mut pivot, b, 0, &[1], &[1]);
        pivot.align();
        assert_eq!(pivot.remove_source(a).unwrap(), 1);
        pivot.align_incremental();
        assert_eq!(pivot.global_stories().len(), 1);
        assert_eq!(pivot.global_stories()[0].sources, vec![b]);
    }

    #[test]
    fn refine_fixes_injected_error() {
        let mut pivot = StoryPivot::new(PivotConfig::default());
        let a = pivot.add_source("a", SourceKind::Newspaper);
        let b = pivot.add_source("b", SourceKind::Newspaper);
        // Two clear stories in both sources.
        let mut crash_snips = Vec::new();
        for day in 0..3 {
            crash_snips.push(snip(&mut pivot, a, day, &[1, 2], &[10, 11]));
            snip(&mut pivot, a, day, &[7, 8], &[20, 21]);
            snip(&mut pivot, b, day, &[1, 2], &[10, 11]);
            snip(&mut pivot, b, day, &[7, 8], &[20, 21]);
        }
        // Inject an error: force the last crash snippet into the sports
        // story of source a.
        let victim_id = crash_snips[2];
        let victim = pivot.store().get(victim_id).unwrap().clone();
        let sports_story = pivot
            .stories_of_source(a)
            .iter()
            .map(|s| s.id())
            .find(|&sid| sid != pivot.story_of(victim_id).unwrap())
            .unwrap();
        let right_story = pivot.story_of(victim_id).unwrap();
        {
            let ident = pivot.identifiers.get_mut(&a).unwrap();
            ident.remove_snippet(&victim, &pivot.store);
            ident.force_assign(&victim, sports_story);
        }
        pivot.touched.insert(sports_story);
        pivot.touched.insert(right_story);

        let report = pivot.refine();
        assert!(report.move_count() >= 1, "refinement must correct the error");
        assert_eq!(pivot.story_of(victim_id), Some(right_story));
    }

    #[test]
    fn externally_registered_sources_interleave_with_local_ones() {
        let mut pivot = StoryPivot::new(PivotConfig::default());
        // A sharded server registers sources 1 and 3 on this shard.
        for id in [1u32, 3] {
            let got = pivot
                .add_source_registered(Source::new(SourceId::new(id), format!("s{id}"), SourceKind::Wire))
                .unwrap();
            assert_eq!(got.raw(), id);
        }
        // Registering the same id twice is refused.
        assert!(pivot
            .add_source_registered(Source::new(SourceId::new(3), "dup", SourceKind::Blog))
            .is_err());
        // A locally allocated source continues past the external ids.
        let local = pivot.add_source("local", SourceKind::Newspaper);
        assert_eq!(local.raw(), 4);
        // Ids beyond the story-partitioning limit are refused.
        assert!(pivot
            .add_source_registered(Source::new(SourceId::new(u32::MAX / 256), "big", SourceKind::Wire))
            .is_err());
        // Ingest works against the external ids.
        snip(&mut pivot, SourceId::new(1), 0, &[1, 2], &[1]);
        snip(&mut pivot, SourceId::new(3), 0, &[1, 2], &[1]);
        pivot.align();
        assert_eq!(pivot.global_stories().len(), 1);
    }

    #[test]
    fn story_partition_lists_every_snippet_once() {
        let mut pivot = StoryPivot::new(PivotConfig::default());
        let a = pivot.add_source("a", SourceKind::Newspaper);
        let b = pivot.add_source("b", SourceKind::Newspaper);
        let mut all = Vec::new();
        for day in 0..4 {
            all.push(snip(&mut pivot, a, day, &[1, 2], &[1]));
            all.push(snip(&mut pivot, b, day, &[8, 9], &[8]));
        }
        let partition = pivot.story_partition();
        assert_eq!(partition.len(), pivot.story_count());
        let mut members: Vec<SnippetId> =
            partition.iter().flat_map(|(_, m)| m.iter().copied()).collect();
        members.sort_unstable();
        all.sort_unstable();
        assert_eq!(members, all);
        // Ordered by story id, and each story's id maps back to it.
        for w in partition.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
        for (sid, m) in &partition {
            assert_eq!(pivot.story_of(m[0]), Some(*sid));
        }
    }

    #[test]
    fn global_stories_empty_before_alignment() {
        let pivot = StoryPivot::new(PivotConfig::default());
        assert!(pivot.global_stories().is_empty());
        assert!(pivot.alignment().is_none());
    }

    #[test]
    fn removing_last_snippet_scrubs_alignment_and_window() {
        use crate::query::{query_stories, StoryQuery};

        let mut pivot = StoryPivot::new(PivotConfig::default());
        let a = pivot.add_source("a", SourceKind::Newspaper);
        let b = pivot.add_source("b", SourceKind::Newspaper);
        // A healthy cross-source story plus a lone single-snippet story
        // in source a with disjoint content.
        for day in 0..3 {
            snip(&mut pivot, a, day, &[1, 2], &[10, 11]);
            snip(&mut pivot, b, day, &[1, 2], &[10, 11]);
        }
        let lone = snip(&mut pivot, a, 1, &[77, 78], &[90, 91]);
        let lone_story = pivot.story_of(lone).unwrap();
        pivot.align();
        let before = pivot.global_stories().len();
        assert_eq!(before, 2);

        pivot.remove_snippet(lone).unwrap();

        // The dead story must vanish from alignment results, not linger
        // until the next align pass.
        assert_eq!(pivot.global_stories().len(), before - 1);
        let outcome = pivot.alignment().unwrap();
        assert!(!outcome.snippet_to_global.contains_key(&lone));
        assert!(!outcome.story_to_global.contains_key(&lone_story));
        assert!(outcome
            .global_stories
            .iter()
            .all(|g| !g.member_stories.contains(&lone_story)
                && g.members.iter().all(|&(m, _)| m != lone)));
        // Queries over the cached alignment see no trace of it either.
        let hits = query_stories(&pivot, &StoryQuery::entity(EntityId::new(77)));
        assert!(hits.is_empty());
        // No stale window-index entry survives in the store.
        assert!(pivot
            .store()
            .window(a, Timestamp::from_secs(DAY), 10 * DAY)
            .iter()
            .all(|s| s.id != lone));

        // Removing a non-last snippet keeps the story but drops the
        // member from the cached alignment.
        let keep = snip(&mut pivot, a, 3, &[1, 2], &[10, 11]);
        pivot.align();
        pivot.remove_snippet(keep).unwrap();
        let outcome = pivot.alignment().unwrap();
        assert_eq!(outcome.global_stories.len(), 1);
        assert!(outcome.global_stories[0].members.iter().all(|&(m, _)| m != keep));
        assert!(!outcome.snippet_to_global.contains_key(&keep));

        pivot.align();
        pivot.check_invariants().unwrap();
        assert_eq!(pivot.global_stories().len(), 1);
    }

    #[test]
    fn invariants_catch_an_assignment_no_story_lists() {
        // The bridge joins a+b into one story without merging anything
        // (nothing else exists yet), then vanishes from the store behind
        // the identifier's back. The split that follows rebuilds both
        // fragments from stored members only, so the bridge stays in the
        // snippet → story table while no story lists it.
        let mut cfg = PivotConfig::complete();
        cfg.identify.match_threshold = 0.2;
        cfg.identify.split_threshold = 0.3;
        cfg.identify.maintenance_every = 0;
        let mut pivot = StoryPivot::new(cfg);
        let a = pivot.add_source("a", SourceKind::Newspaper);
        let bridge = snip(&mut pivot, a, 1, &[1, 2, 3, 4], &[10, 11, 12, 13]);
        for day in [0, 2] {
            snip(&mut pivot, a, day, &[1, 2], &[10, 11]);
            snip(&mut pivot, a, day, &[3, 4], &[12, 13]);
        }
        assert_eq!(pivot.story_count(), 1);
        pivot.check_invariants().unwrap();

        pivot.store.remove(bridge).unwrap();
        assert_eq!(pivot.run_maintenance().len(), 1);
        let err = pivot.check_invariants().unwrap_err().to_string();
        assert!(err.contains(&format!("snippet {bridge} is assigned to story")), "{err}");
    }

    #[test]
    fn engine_metrics_count_hot_path_work() {
        use storypivot_substrate::metrics::Registry;

        let registry = Registry::new();
        let mut pivot = StoryPivot::new(PivotConfig::default());
        pivot.set_metrics(EngineMetrics::register(&registry));
        let a = pivot.add_source("a", SourceKind::Newspaper);
        let b = pivot.add_source("b", SourceKind::Newspaper);
        for day in 0..4 {
            snip(&mut pivot, a, day, &[1, 2], &[10, 11]);
            snip(&mut pivot, b, day, &[1, 2], &[10, 11]);
        }
        pivot.align();
        pivot.refine();

        let m = pivot.metrics();
        assert_eq!(m.ingest_total.get(), 8);
        // Every snippet either joined a story or opened one.
        assert_eq!(
            m.identify_assigned_total.get() + m.identify_new_story_total.get(),
            8
        );
        assert_eq!(m.align_runs_total.get(), 1);
        // One global story, so each sweep judges every snippet against
        // its own story and nothing else: one slot per snippet.
        let judged = 8 * m.refine_rounds_total.get();
        assert_eq!(
            m.refine_cohesion_cache_hits_total.get() + m.refine_cohesion_cache_misses_total.get(),
            judged
        );
        assert!(m.refine_pairs_scored_total.get() > 0);
        // Nothing changed, so a second call answers every slot from the cache.
        let (hits, pairs) = (
            m.refine_cohesion_cache_hits_total.get(),
            m.refine_pairs_scored_total.get(),
        );
        pivot.refine();
        let m = pivot.metrics();
        assert_eq!(m.refine_cohesion_cache_hits_total.get(), hits + 8);
        assert_eq!(m.refine_pairs_scored_total.get(), pairs);
        assert!(m.identify_duration.count() == 8);
        let save = pivot.save_checkpoint();
        assert!(!save.is_empty());
        assert_eq!(m.checkpoint_save_duration.count(), 1);
        let snap = registry.snapshot();
        assert_eq!(snap.counter_value("storypivot_ingest_total", &[]), Some(8));
    }

    /// `refine()` on `pivot` must report what the reference planner
    /// reports on an identical engine, and leave the same stories.
    fn assert_refine_matches_reference(pivot: &mut StoryPivot) -> RefineReport {
        let mut reference = pivot.clone();
        let report = pivot.refine();
        assert_eq!(report, reference.refine_reference());
        assert_eq!(pivot.story_partition(), reference.story_partition());
        report
    }

    /// Crash and sports stories in two sources, refined once so the
    /// refiner's cache is warm. Returns the sources and a's crash snippets.
    fn refined_two_story_engine() -> (StoryPivot, SourceId, SourceId, Vec<SnippetId>) {
        let mut pivot = StoryPivot::new(PivotConfig::default());
        let a = pivot.add_source("a", SourceKind::Newspaper);
        let b = pivot.add_source("b", SourceKind::Newspaper);
        let mut crash = Vec::new();
        for day in 0..4 {
            crash.push(snip(&mut pivot, a, day, &[1, 2], &[10, 11]));
            snip(&mut pivot, a, day, &[7, 8], &[20, 21]);
            snip(&mut pivot, b, day, &[1, 2], &[10, 11]);
            snip(&mut pivot, b, day, &[7, 8], &[20, 21]);
        }
        assert_eq!(assert_refine_matches_reference(&mut pivot).move_count(), 0);
        assert_eq!(pivot.global_stories().len(), 2);
        (pivot, a, b, crash)
    }

    #[test]
    fn reused_snippet_id_is_not_answered_from_the_cohesion_cache() {
        let (mut pivot, a, _, crash) = refined_two_story_engine();
        let lists = |p: &StoryPivot| -> Vec<Vec<SnippetId>> {
            let stories = p.global_stories().iter();
            stories.map(|g| g.members.iter().map(|&(m, _)| m).collect()).collect()
        };
        let before = lists(&pivot);

        // The same id comes back as a sports report, forced into the
        // crash story: every global member list repeats id for id, but
        // what the cache knew about that id is now wrong.
        let (victim, crash_story) = (crash[1], pivot.story_of(crash[1]).unwrap());
        pivot.remove_snippet(victim).unwrap();
        let reborn = Snippet::builder(victim, a, Timestamp::from_secs(DAY))
            .event_type(EventType::Accident)
            .entity(EntityId::new(7), 1.0)
            .entity(EntityId::new(8), 1.0)
            .term(TermId::new(20), 1.0)
            .term(TermId::new(21), 1.0)
            .build();
        pivot.ingest(reborn).unwrap();
        pivot.reassign_snippet(victim, crash_story).unwrap();
        pivot.align_incremental();
        assert_eq!(lists(&pivot), before);

        let report = assert_refine_matches_reference(&mut pivot);
        assert!(report.moves.iter().any(|m| m.snippet == victim), "{report:?}");
        pivot.check_invariants().unwrap();
    }

    #[test]
    fn reassignment_inside_one_global_story_keeps_refine_exact() {
        let (mut pivot, a, _, crash) = refined_two_story_engine();
        // Split a's crash story in two; both halves align with b's.
        let half = pivot.fresh_story_id_for(a).unwrap();
        pivot.reassign_snippet(crash[2], half).unwrap();
        pivot.reassign_snippet(crash[3], half).unwrap();
        assert_refine_matches_reference(&mut pivot);
        assert_eq!(pivot.global_of(crash[0]), pivot.global_of(crash[3]));

        // Now a move that changes per-source stories but no global list.
        let target = pivot.story_of(crash[3]).unwrap();
        assert_ne!(pivot.story_of(crash[1]), Some(target));
        pivot.reassign_snippet(crash[1], target).unwrap();
        assert_refine_matches_reference(&mut pivot);
        pivot.check_invariants().unwrap();
    }

    #[test]
    fn restored_engine_refines_from_an_empty_cohesion_cache() {
        use storypivot_substrate::metrics::Registry;

        let (mut pivot, a, _, crash) = refined_two_story_engine();
        let sports_story = pivot
            .stories_of_source(a)
            .iter()
            .map(|s| s.id())
            .find(|&sid| Some(sid) != pivot.story_of(crash[0]))
            .unwrap();
        pivot.reassign_snippet(crash[2], sports_story).unwrap();

        // One sweep per call, so the counters below describe the first
        // sweep after the restore and nothing else.
        let mut one_sweep = PivotConfig::default();
        one_sweep.refine.max_rounds = 1;
        let bytes = pivot.save_checkpoint();
        let mut restored = StoryPivot::load_checkpoint(one_sweep, &bytes).unwrap();
        let registry = Registry::new();
        restored.set_metrics(EngineMetrics::register(&registry));
        let report = assert_refine_matches_reference(&mut restored);
        assert!(report.moves.iter().any(|m| m.snippet == crash[2]), "{report:?}");
        let m = restored.metrics();
        assert_eq!(m.refine_cohesion_cache_hits_total.get(), 0, "nothing to reuse yet");
        assert!(m.refine_cohesion_cache_misses_total.get() >= 16);
        // The move changed both global stories; once they repeat, so do hits.
        assert_refine_matches_reference(&mut restored);
        assert_refine_matches_reference(&mut restored);
        assert!(restored.metrics().refine_cohesion_cache_hits_total.get() > 0);
    }
}
