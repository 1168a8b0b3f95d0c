//! The differential driver: over a generated corpus (half the cases
//! with entity-less near-duplicates added), one seeded sequence of
//! §2.4's ops — snippets arriving in waves and late, documents and
//! snippets retracted, snippets reassigned (into an existing story or a
//! fresh one, or a snippet's nearest story-mate between two
//! refinements), maintenance, incremental alignment and refinement
//! interleaved, a source leaving, a held-back source coming on board,
//! and checkpoint reloads — run through a [`Target`] beside an oracle
//! engine and compared after every op by `Twins::check_step`.
//!
//! The oracle runs the same configuration through the reference paths:
//! `ingest_reference` (every candidate story folded from scratch and
//! scored, no stored fold resumed, and every due maintenance pass a sweep of
//! every story), a full `align()` wherever the engine under test aligns
//! incrementally, and `refine_reference()`. It is never checkpointed and
//! never restarted, so it is also the uninterrupted twin.
//!
//! The op alphabet falls into three groups. The wire subset —
//! `oplog::ReplayOp`'s register a source, ingest (single or as one
//! INGEST_BATCH) and remove a document — goes to every target. The
//! process-only rest (`remove_snippet`, `reassign_snippet`,
//! `run_maintenance`, `align_incremental`, `refine`, `remove_source`,
//! checkpoint reload) runs only on a target with an engine in this
//! process. Lifecycle ops (graceful restart, `kill -9` and recovery, a
//! follower's bootstrap, catch-up and `kill -9`) belong to the served
//! target, which draws them from its own stream, so they never shift a
//! case's script. [`Via`] names the three targets.
//!
//! `tests/differential.rs` runs the driver on freely drawn configs
//! ([`run`]) and holds the coverage floors of the whole driver. Every
//! other test that includes this module runs a [`slice`] (or
//! [`slice_via`] another target): further cases on the configs one focus
//! accepts, with the floor that slice is there for. A case is a pure
//! function of its seed, so every failure — whichever test it came from —
//! names the case seed, the drawn config, the step and the op, and
//! `STORYPIVOT_PROP_SEED=<seed> cargo test --test <the test's file>`
//! replays that one case (`-p storypivot-serve` for the files under
//! `crates/serve/tests`, which include this module by `#[path]`).

// Each test binary reads only the floors of its own slice.
#![allow(dead_code)]

pub mod served;

use std::collections::BTreeMap;
use std::fmt::Debug;

use storypivot_core::config::{PivotConfig, RefineConfig};
use storypivot_core::identify::IdentifyDecision;
use storypivot_core::metrics::EngineMetrics;
use storypivot_core::oplog::{self, Applied, ReplayOp};
use storypivot_core::refine::story_source;
use storypivot_core::StoryPivot;
use storypivot_gen::{Corpus, CorpusBuilder, GenConfig, GroundTruth};
use storypivot_substrate::metrics::Registry;
use storypivot_substrate::prop;
use storypivot_substrate::rng::{splitmix64, RngExt, StdRng};
use storypivot_types::{DocId, EntityId, Snippet, SnippetId, Source, SourceId, StoryId, Timestamp, DAY};

pub use served::{Deployment, Lifecycle};

/// Entity catalogue sizes: hot (nearly every snippet shares an entity
/// with one that moved, so refinement probes afresh), middling, and
/// sparse (most snippets keep the alternatives of the previous sweep).
pub const CATALOGUES: [u32; 3] = [20, 80, 400];

/// A per-source partition: story ids with their sorted members, by id.
pub type Partition = Vec<(StoryId, Vec<SnippetId>)>;

/// What one case draws besides its corpus.
#[derive(Debug, Clone, Copy)]
pub struct Case {
    pub sources: u32,
    /// Drifting stories at a raised split threshold, so maintenance splits.
    pub splitting: bool,
    pub drift: f64,
    pub catalogue: usize,
    pub snippets: usize,
    pub omega_days: i64,
    pub split_threshold: f64,
    pub maintenance_every: usize,
    /// Never drawn: the defaults, unless a [`slice_refining`] pins others.
    pub refine: RefineConfig,
    /// Entity-less near-duplicates in the corpus ([`add_near_duplicates`]).
    pub near_duplicates: bool,
}

impl Case {
    fn draw(rng: &mut StdRng) -> Case {
        let splitting = rng.random_bool(0.4);
        Case {
            sources: rng.random_range(1u32..11),
            splitting,
            drift: if splitting { 0.4 } else { rng.random_range(0.0f64..0.6) },
            catalogue: rng.random_range(0..CATALOGUES.len()),
            snippets: rng.random_range(150usize..350),
            omega_days: rng.random_range(2i64..15),
            split_threshold: if splitting { 0.45 } else { rng.random_range(0.18f64..0.5) },
            maintenance_every: rng.random_range(4usize..71),
            refine: RefineConfig::default(),
            // Drawn where a hot-story cache capacity once was, so that
            // every case seed keeps the config and corpus seed it had.
            near_duplicates: rng.random_bool(0.5),
        }
    }

    fn corpus(&self, seed: u64) -> Corpus {
        let config = GenConfig {
            seed,
            sources: self.sources,
            entities: CATALOGUES[self.catalogue],
            drift: self.drift,
            ..GenConfig::default()
        };
        let mut corpus = CorpusBuilder::new(config.with_target_snippets(self.snippets)).build();
        if self.near_duplicates {
            add_near_duplicates(&mut corpus, seed);
        }
        corpus
    }

    fn config(&self) -> PivotConfig {
        let mut config = PivotConfig::temporal(self.omega_days * DAY);
        config.identify.split_threshold = self.split_threshold;
        config.identify.maintenance_every = self.maintenance_every;
        config.refine = self.refine;
        config
    }
}

/// Beside about one snippet in six, an entity-less near-duplicate of it,
/// delivered right after it: the same source, document, time, terms,
/// event type and true story, about other entities of the same
/// catalogue — each entity `e` becomes `(e + k) mod catalogue` for a `k`
/// that leaves the two sharing none. Under the default weights such a
/// pair scores at most 0.55, so a snippet can be most like a member that
/// its entity postings never reach. Ids are renumbered to stay in
/// delivery order, and the truth with them.
fn add_near_duplicates(corpus: &mut Corpus, seed: u64) {
    let catalogue = corpus.config.entities;
    let mut rng = StdRng::seed_from_u64(splitmix64(&mut (seed ^ 0x6475_7073)));
    let originals = std::mem::take(&mut corpus.snippets);
    let mut truth = GroundTruth::new();
    for s in originals {
        let label = corpus.truth.label_of(s.id);
        let k = rng.random_range(1..catalogue);
        let moved = |e: EntityId| EntityId::new((e.raw() + k) % catalogue);
        let disjoint = s.entities().keys().all(|e| !s.entities().contains(&moved(e)));
        let twin = (rng.random_bool(1.0 / 6.0) && disjoint).then(|| {
            let mut twin = s.clone();
            twin.content.entities = s.entities().iter().map(|(e, w)| (moved(e), w)).collect();
            twin
        });
        for mut s in std::iter::once(s).chain(twin) {
            s.id = SnippetId::new(corpus.snippets.len() as u32);
            if let Some(label) = label {
                truth.record(s.id, label, s.source);
            }
            corpus.snippets.push(s);
        }
    }
    corpus.truth = truth;
}

/// What the cases did, summed: the coverage floors are asserted on it.
#[derive(Debug, Default)]
pub struct Tally {
    pub splits: u64,
    pub merges: usize,
    pub late: usize,
    pub reassigned: usize,
    /// Snippets' nearest story-mates reassigned just before a refine.
    pub twins: usize,
    pub moves: usize,
    /// Sources that left, and held-back sources that came on board.
    pub left: usize,
    pub onboarded: usize,
    /// Folds the engine under test's probes resumed, and folded from
    /// scratch.
    pub cache: [usize; 2],
    /// Pairs scored by the passes ingest ran: engine under test, oracle.
    pub maintenance_pairs: [u64; 2],
    /// Snippet pairs identification scored: engine under test, oracle
    /// (which scores every window candidate).
    pub identify_pairs: [u64; 2],
    /// Pairs scored by the align ops: incremental, full.
    pub align_pairs: [usize; 2],
    /// Align ops with nothing marked dirty since the last alignment.
    pub idle_aligns: usize,
    /// Cross-source pairs the final alignment of each case accepted.
    pub accepted: usize,
    /// Per case, its catalogue and what its refinement sweeps did:
    /// snippets judged, cohesions extended, snippets settled (judged
    /// against their own story only).
    pub refine_cases: Vec<(usize, [u64; 3])>,
    /// Documents removed.
    pub docs_removed: usize,
    /// Checkpoint reloads: all of them, and those with ≥ 100 snippets
    /// held before and ≥ 100 ingested after.
    pub reloads: [usize; 2],
    /// Sources granted an id other than their own (a rejected
    /// registration burns an id).
    pub remapped: usize,
    /// Cases whose corpus holds entity-less near-duplicates.
    pub near_duplicate_cases: usize,
    /// What served targets did: see [`served::Counts`].
    pub served: served::Counts,
}

impl Tally {
    /// [`Tally::refine_cases`] summed per catalogue.
    pub fn refine(&self) -> [[u64; 3]; CATALOGUES.len()] {
        let mut sums = [[0; 3]; CATALOGUES.len()];
        for &(catalogue, case) in &self.refine_cases {
            for (sum, n) in sums[catalogue].iter_mut().zip(case) {
                *sum += n;
            }
        }
        sums
    }
}

/// Which target a slice runs the script through.
#[derive(Debug, Clone, Copy)]
pub enum Via {
    /// The engine called directly.
    Direct,
    /// The engine fed through `oplog::apply`, each op encoded and decoded
    /// first, as the journal and a follower's tail carry it.
    Journal,
    /// A server reached by `Client`.
    Served(Deployment),
}

/// What a target says about one ingested snippet.
pub enum Reply {
    /// The whole decision (the engine called directly).
    Decision(IdentifyDecision),
    /// The story the snippet joined (`oplog::apply`, a single INGEST).
    Story(StoryId),
    /// Nothing per snippet: an INGEST_BATCH answers with a count.
    Batched,
}

/// Where the script's ops land beside the oracle. Every target takes
/// the wire subset; `at` names the case, step and op for its failures.
pub trait Target {
    /// The engine behind the target, when it runs in this process: the
    /// process-only ops and the engine's rows of `check_step` need it.
    fn engine(&mut self) -> Option<&mut StoryPivot>;
    /// Register `source`; the id the target granted it.
    fn add_source(&mut self, at: &str, source: &Source) -> SourceId;
    /// Ingest `wave` in order.
    fn ingest(&mut self, at: &str, wave: &[Snippet]) -> Vec<Reply>;
    /// Remove `doc`: how many snippets left, where the target can tell.
    fn remove_doc(&mut self, at: &str, doc: DocId) -> Option<usize>;
    /// The partition the target answers with.
    fn partition(&mut self, at: &str) -> Partition;
    /// The lifecycle op to run after this step, if any.
    fn lifecycle(&mut self) -> Option<Lifecycle> {
        None
    }
    /// Run `op`; the target must come back as `oracle` is.
    fn run_lifecycle(&mut self, _at: &str, _op: Lifecycle, _oracle: &StoryPivot) {}
    /// The case is over: last checks, counts folded into `tally`.
    fn finish(&mut self, _at: &str, _oracle: &StoryPivot, _tally: &mut Tally) {}
}

/// Panic with `at` on an error.
fn ok<T, E: std::fmt::Display>(at: &str, result: Result<T, E>) -> T {
    result.unwrap_or_else(|e| panic!("{at}: {e}"))
}

/// The engine called directly.
impl Target for StoryPivot {
    fn engine(&mut self) -> Option<&mut StoryPivot> {
        Some(self)
    }

    fn add_source(&mut self, at: &str, source: &Source) -> SourceId {
        ok(at, self.add_source_registered(source.clone()))
    }

    fn ingest(&mut self, at: &str, wave: &[Snippet]) -> Vec<Reply> {
        wave.iter().map(|s| Reply::Decision(ok(at, self.ingest_detailed(s.clone())))).collect()
    }

    fn remove_doc(&mut self, at: &str, doc: DocId) -> Option<usize> {
        Some(ok(at, self.remove_document(doc)))
    }

    fn partition(&mut self, _at: &str) -> Partition {
        self.story_partition()
    }
}

/// The engine fed through `oplog::apply`.
pub struct Journaled(StoryPivot);

impl Journaled {
    fn apply(&mut self, at: &str, op: ReplayOp) -> Applied {
        let op = ok(at, ReplayOp::decode(&op.to_bytes()));
        ok(at, oplog::apply(&mut self.0, op))
    }
}

impl Target for Journaled {
    fn engine(&mut self) -> Option<&mut StoryPivot> {
        Some(&mut self.0)
    }

    fn add_source(&mut self, at: &str, source: &Source) -> SourceId {
        match self.apply(at, ReplayOp::AddSource(source.clone())) {
            Applied::Source(id) => id,
            other => panic!("{at}: registering a source applied {other:?}"),
        }
    }

    fn ingest(&mut self, at: &str, wave: &[Snippet]) -> Vec<Reply> {
        let ingest = |s: &Snippet| match self.apply(at, ReplayOp::Ingest(s.clone())) {
            Applied::Story(story) => Reply::Story(story),
            other => panic!("{at}: ingesting snippet {} applied {other:?}", s.id),
        };
        wave.iter().map(ingest).collect()
    }

    fn remove_doc(&mut self, at: &str, doc: DocId) -> Option<usize> {
        match self.apply(at, ReplayOp::RemoveDoc(doc)) {
            Applied::Removed(n) => Some(n as usize),
            other => panic!("{at}: removing document {doc} applied {other:?}"),
        }
    }

    fn partition(&mut self, _at: &str) -> Partition {
        self.0.story_partition()
    }
}

/// An engine for `config` with live metrics and its change log on: the
/// engine under test of the in-process targets.
fn engine_for(config: &PivotConfig) -> StoryPivot {
    let mut engine = StoryPivot::new(config.clone());
    engine.set_metrics(EngineMetrics::register(&Registry::new()));
    engine.log_changes();
    engine
}

/// The uninterrupted twin for `config`: the same configuration, with
/// live metrics.
pub fn twin_of(config: &PivotConfig) -> StoryPivot {
    let mut twin = StoryPivot::new(config.clone());
    twin.set_metrics(EngineMetrics::register(&Registry::new()));
    twin
}

/// The target, its oracle, and what is checked beside them.
struct Twins {
    seed: u64,
    case: Case,
    /// Set when the target pins the default config instead of the drawn one.
    pinned: bool,
    step: usize,
    target: Box<dyn Target>,
    oracle: StoryPivot,
    config: PivotConfig,
    /// The engine's partition, patched only from `drain_changes`.
    shadow: BTreeMap<StoryId, Vec<SnippetId>>,
    /// Per source, the newest timestamp ingested (to count late arrivals).
    newest: BTreeMap<SourceId, Timestamp>,
    /// Corpus source ids the target granted other ids.
    remap: BTreeMap<SourceId, SourceId>,
    /// Snippets ingested, and how many had been at each reload, beside
    /// how many the engine held.
    ingested: usize,
    reloads: Vec<(usize, usize)>,
    /// Snippets judged by this case's refinement sweeps.
    judged: u64,
    tally: Tally,
}

impl Twins {
    fn new(seed: u64, case: Case, via: Via, tally: Tally) -> Twins {
        let pinned = matches!(via, Via::Served(d) if d.pins_config());
        let config = if pinned { PivotConfig::default() } else { case.config() };
        let target: Box<dyn Target> = match via {
            Via::Direct => Box::new(engine_for(&config)),
            Via::Journal => Box::new(Journaled(engine_for(&config))),
            Via::Served(deployment) => {
                Box::new(served::Served::start(deployment, &config, seed, tally.served))
            }
        };
        Twins {
            seed,
            case,
            pinned,
            step: 0,
            target,
            oracle: twin_of(&config),
            config,
            shadow: BTreeMap::new(),
            newest: BTreeMap::new(),
            remap: BTreeMap::new(),
            ingested: 0,
            reloads: Vec::new(),
            judged: 0,
            tally,
        }
    }

    /// Where a failure happened: the case's seed and config, the step and the op.
    fn at(&self, op: &str) -> String {
        let pinned = if self.pinned { " on the default config" } else { "" };
        format!("case seed {} {:?}{pinned}, step {} ({op})", self.seed, self.case, self.step)
    }

    /// The target's engine; only process-only ops ask for it.
    fn engine(&mut self) -> &mut StoryPivot {
        self.target.engine().expect("process-only ops run on an engine in this process")
    }

    /// Run `f` on the engine and the oracle; their results must be equal.
    fn both<R: PartialEq + Debug>(&mut self, op: &str, mut f: impl FnMut(&mut StoryPivot) -> R) -> R {
        let got = f(self.engine());
        let want = f(&mut self.oracle);
        assert_eq!(got, want, "{}", self.at(op));
        got
    }

    /// `removed` left both sides. Reads must stop answering for those
    /// snippets at once, not at the next alignment.
    fn removed(&mut self, op: &str, removed: &[SnippetId]) {
        let at = self.at(op);
        let engine = self.target.engine().map(|e| &*e);
        for (who, e) in [("engine", engine), ("oracle", Some(&self.oracle))] {
            if let Some(id) = e.and_then(|e| removed.iter().find(|&&id| e.global_of(id).is_some())) {
                panic!("{at}: {who}: the alignment still answers for removed snippet {id}");
            }
        }
        self.check_step(op, false);
    }

    fn remove_source(&mut self, source: SourceId) {
        let removed: Vec<SnippetId> =
            self.oracle.store().snippets_of_source(source).iter().map(|s| s.id).collect();
        let left = self.both("remove_source", |e| e.remove_source(source).unwrap());
        assert_eq!(left, removed.len(), "{}", self.at("remove_source"));
        self.removed("remove_source", &removed);
        self.tally.left += 1;
    }

    fn remove_doc(&mut self, doc: DocId) {
        let at = self.at("remove_document");
        let removed = self.oracle.store().snippets_of_doc(doc);
        let got = self.target.remove_doc(&at, doc);
        let want = ok(&at, self.oracle.remove_document(doc));
        assert_eq!(want, removed.len(), "{at}");
        if let Some(got) = got {
            assert_eq!(got, want, "{at}: snippets removed");
        }
        self.tally.docs_removed += 1;
        self.removed("remove_document", &removed);
    }

    fn add_source(&mut self, source: &Source) {
        let at = self.at("add_source_registered");
        let granted = self.target.add_source(&at, source);
        if granted != source.id {
            self.remap.insert(source.id, granted);
            self.tally.remapped += 1;
        }
        ok(&at, self.oracle.add_source_registered(Source { id: granted, ..source.clone() }));
    }

    fn ingest(&mut self, op: &str, wave: &[Snippet]) {
        let at = self.at(op);
        let without_folds = |d: IdentifyDecision| IdentifyDecision {
            pairs_scored: 0,
            cache_hits: 0,
            cache_misses: 0,
            ..d
        };
        // Maintenance's and identification's pairs: engine, oracle.
        let pairs = |t: &mut Twins| {
            let of = |m: &EngineMetrics| {
                [m.maintenance_pairs_scored_total.get(), m.identify_pairs_scored_total.get()]
            };
            [t.target.engine().map_or([0, 0], |e| of(e.metrics())), of(t.oracle.metrics())]
        };
        let mut wave = wave.to_vec();
        for s in &mut wave {
            s.source = *self.remap.get(&s.source).unwrap_or(&s.source);
        }
        let before = pairs(self);
        let replies = self.target.ingest(&at, &wave);
        for (s, reply) in wave.iter().zip(replies) {
            let want = ok(&at, self.oracle.ingest_reference(s.clone()));
            self.tally.merges += want.merged.len();
            let every = want.pairs_scored == want.compared;
            assert!(every, "{at}: the oracle skipped pairs of snippet {}: {want:?}", s.id);
            assert_eq!(want.cache_hits, 0, "{at}: the oracle resumed a fold for snippet {}", s.id);
            match reply {
                Reply::Decision(got) => {
                    assert!(got.pairs_scored <= got.compared, "{at}: snippet {}: {got:?}", s.id);
                    self.tally.cache[0] += got.cache_hits;
                    self.tally.cache[1] += got.cache_misses;
                    assert_eq!(without_folds(got), without_folds(want), "{at}: snippet {}", s.id);
                }
                Reply::Story(story) => assert_eq!(story, want.story, "{at}: the story of snippet {}", s.id),
                Reply::Batched => {}
            }
            let newest = self.newest.entry(s.source).or_insert(s.timestamp);
            self.tally.late += usize::from(s.timestamp < *newest);
            *newest = (*newest).max(s.timestamp);
        }
        self.ingested += wave.len();
        let after = pairs(self);
        for i in 0..2 {
            self.tally.maintenance_pairs[i] += after[i][0] - before[i][0];
            self.tally.identify_pairs[i] += after[i][1] - before[i][1];
        }
        self.check_step(op, false);
    }

    /// A stored snippet, picked uniformly.
    fn pick(&mut self, rng: &mut StdRng) -> Option<Snippet> {
        let store = match self.target.engine() {
            Some(engine) => engine.store(),
            None => self.oracle.store(),
        };
        let n = store.len();
        (n > 0).then(|| store.iter().nth(rng.random_range(0..n)).expect("n-th of n").clone())
    }

    fn reassign(&mut self, rng: &mut StdRng) {
        let Some(s) = self.pick(rng) else { return };
        self.reassign_snippet(&s, rng);
    }

    /// `s` into a fresh story of its source one time in five, else into
    /// one of its source's stories drawn uniformly (its own included).
    fn reassign_snippet(&mut self, s: &Snippet, rng: &mut StdRng) {
        let (op, target) = if rng.random_bool(0.2) {
            let fresh = self.both("fresh_story_id_for", |e| e.fresh_story_id_for(s.source).unwrap());
            ("reassign_snippet into a fresh story", fresh)
        } else {
            let stories = self.engine().stories_of_source(s.source);
            ("reassign_snippet", stories[rng.random_range(0..stories.len())].id())
        };
        self.both(op, |e| e.reassign_snippet(s.id, target).unwrap());
        self.tally.reassigned += 1;
        self.check_step(op, false);
    }

    /// An analyst's correction between two refinements: after a refine,
    /// the story-mate most similar to a snippet `v` — the member `v`'s
    /// cohesion is attained by, unless another source's member of its
    /// global story beats it — is reassigned, and refinement runs again.
    /// Its first sweep sees one reassignment since the sweep before,
    /// so most snippets are clean and carry their probes over, and `v`
    /// may have dropped out of the settled band.
    fn reassign_twin_between_refines(&mut self, rng: &mut StdRng) {
        self.refine();
        let Some(v) = self.pick(rng) else { return };
        let engine = self.engine();
        let weights = engine.config().identify.weights;
        let (store, mates) = (engine.store(), engine.story_of(v.id).and_then(|id| engine.story(id)));
        let sim = |m: &&Snippet| weights.content_sim(&v.content, &m.content);
        let twin = mates
            .iter()
            .flat_map(|state| &state.story.members)
            .filter(|&&m| m != v.id)
            .filter_map(|&m| store.get(m))
            .max_by(|a, b| sim(a).total_cmp(&sim(b)))
            .cloned();
        let Some(twin) = twin else { return };
        self.reassign_snippet(&twin, rng);
        self.tally.twins += 1;
        self.refine();
    }

    fn align(&mut self) {
        let engine = self.engine();
        let idle = engine.dirty_count() == 0;
        let pairs = engine.align_incremental().pairs_scored;
        self.tally.idle_aligns += usize::from(idle);
        self.tally.align_pairs[0] += pairs;
        self.tally.align_pairs[1] += self.oracle.align().pairs_scored;
        self.check_step("align_incremental", true);
    }

    fn refine(&mut self) {
        let engine = self.engine();
        let report = engine.refine();
        let sweeps = report.rounds * engine.store().len();
        assert_eq!(report, self.oracle.refine_reference(), "{}", self.at("refine"));
        self.oracle.align();
        self.tally.moves += report.move_count();
        self.judged += sweeps as u64;
        self.check_step("refine", true);
    }

    /// The engine under test restarts from its own checkpoint.
    fn reload(&mut self) {
        let config = self.config.clone();
        let engine = self.engine();
        let metrics = engine.metrics().clone();
        let image = engine.save_checkpoint();
        *engine = StoryPivot::load_checkpoint(config, &image).unwrap();
        engine.set_metrics(metrics);
        engine.log_changes();
        let held = engine.store().len();
        self.reloads.push((held, self.ingested));
        self.tally.reloads[0] += 1;
        self.check_step("checkpoint reload", false);
    }

    /// A lifecycle op, if the target draws one after this step.
    fn lifecycle(&mut self) {
        if let Some(op) = self.target.lifecycle() {
            let at = self.at(op.name());
            self.target.run_lifecycle(&at, op, &self.oracle);
            self.check_step(op.name(), false);
        }
    }

    /// Everything that must hold after every op; `aligned` when the op
    /// left both engines freshly aligned.
    fn check_step(&mut self, op: &str, aligned: bool) {
        let at = self.at(op);
        let partition = self.target.partition(&at);
        assert_eq!(partition, self.oracle.story_partition(), "{at}: per-source partitions");
        if let Some(engine) = self.target.engine() {
            if aligned {
                let (got, want) = (engine.alignment().unwrap(), self.oracle.alignment().unwrap());
                assert_eq!(got.global_stories, want.global_stories, "{at}: global stories");
                assert_eq!(got.story_to_global, want.story_to_global, "{at}: story_to_global");
                assert_eq!(got.snippet_to_global, want.snippet_to_global, "{at}: snippet_to_global");
                assert_eq!(got.accepted_pairs, want.accepted_pairs, "{at}: accepted pairs");
                assert_well_formed(&self.oracle, &at);
            }
            engine.check_invariants().unwrap_or_else(|err| panic!("{at}: engine: {err}"));
            let mut changed = Vec::new();
            engine.drain_changes(&mut changed);
            for id in changed {
                match engine.story(id) {
                    Some(state) => {
                        let mut members = state.story.members.clone();
                        members.sort_unstable();
                        self.shadow.insert(id, members);
                    }
                    None => {
                        self.shadow.remove(&id);
                    }
                }
            }
            let patched: Partition =
                self.shadow.iter().map(|(&id, members)| (id, members.clone())).collect();
            assert_eq!(patched, partition, "{at}: the change log missed a story");
        }
        self.oracle.check_invariants().unwrap_or_else(|err| panic!("{at}: oracle: {err}"));
        self.step += 1;
    }

    /// The tally, with the case's counters folded in.
    fn finish(mut self) -> Tally {
        let at = self.at("the end of the case");
        self.target.finish(&at, &self.oracle, &mut self.tally);
        let ingested = self.ingested;
        self.tally.reloads[1] += self
            .reloads
            .iter()
            .filter(|&&(held, before)| held >= 100 && ingested - before >= 100)
            .count();
        self.tally.splits += self.oracle.metrics().identify_split_total.get();
        if let Some(engine) = self.target.engine() {
            self.tally.accepted += engine.alignment().map_or(0, |o| o.accepted_pairs.len());
            let metrics = engine.metrics();
            let refine = [
                self.judged,
                metrics.refine_cohesion_extended_total.get(),
                metrics.refine_settled_total.get(),
            ];
            self.tally.refine_cases.push((self.case.catalogue, refine));
        }
        self.tally
    }
}

/// What an alignment outcome is by construction, whatever it decided:
/// accepted pairs join stories of different sources, every live story
/// has a global story, and each global story's member list, sources and
/// lifespan describe its member snippets.
fn assert_well_formed(pivot: &StoryPivot, at: &str) {
    let outcome = pivot.alignment().expect("aligned");
    for &(a, b) in &outcome.accepted_pairs {
        assert_ne!(story_source(a), story_source(b), "{at}: same-source pair {a} {b}");
    }
    assert_eq!(outcome.story_to_global.len(), pivot.story_count(), "{at}: story_to_global");
    for g in &outcome.global_stories {
        for &(m, _) in &g.members {
            let s = pivot.store().get(m).unwrap_or_else(|| panic!("{at}: {} lists missing {m}", g.id));
            assert_eq!(outcome.snippet_to_global.get(&m), Some(&g.id), "{at}: snippet_to_global of {m}");
            assert!(g.sources.contains(&s.source), "{at}: {} omits the source of {m}", g.id);
            assert!(g.lifespan.contains(s.timestamp), "{at}: {} does not span {m}", g.id);
        }
    }
}

/// Runs `cases` cases on freely drawn configs and returns what they
/// did, summed — or `None` on a replay, where floors summed over many
/// cases mean nothing.
pub fn run(cases: u32) -> Option<Tally> {
    slice("", cases, |_| true)
}

/// [`run`], each case on a config `focus` accepts. `label` salts the
/// case seeds (the empty label leaves them as the harness draws them),
/// so that no two tests run the same case.
pub fn slice(label: &str, cases: u32, focus: impl Fn(&Case) -> bool) -> Option<Tally> {
    slice_via(Via::Direct, label, cases, focus)
}

/// [`slice`] through the target `via` names.
pub fn slice_via(via: Via, label: &str, cases: u32, focus: impl Fn(&Case) -> bool) -> Option<Tally> {
    run_slice(via, label, cases, RefineConfig::default(), focus)
}

/// [`slice`] with both engines refining on `refine` instead of the
/// defaults (it shows in every failure's case).
pub fn slice_refining(
    label: &str,
    cases: u32,
    refine: RefineConfig,
    focus: impl Fn(&Case) -> bool,
) -> Option<Tally> {
    run_slice(Via::Direct, label, cases, refine, focus)
}

fn run_slice(
    via: Via,
    label: &str,
    cases: u32,
    refine: RefineConfig,
    focus: impl Fn(&Case) -> bool,
) -> Option<Tally> {
    let salt = label.bytes().fold(0, |h, b| splitmix64(&mut (h ^ u64::from(b))));
    let mut tally = Tally::default();
    prop::run(cases, |rng| {
        for seed in case_seeds(rng, salt, &focus) {
            run_case(seed, via, refine, &mut tally);
        }
    });
    std::env::var_os(prop::REPLAY_ENV).is_none().then_some(tally)
}

/// The seeds of the cases one harness case runs: the first salted seed
/// drawn from the harness's RNG whose config `focus` accepts and, while
/// the harness replays a seed, that seed too — so the case seed a
/// failure names and the harness's own replay line both reproduce the
/// failing case.
fn case_seeds(rng: &mut StdRng, salt: u64, focus: impl Fn(&Case) -> bool) -> Vec<u64> {
    let replayed = std::env::var(prop::REPLAY_ENV).ok();
    let replayed = replayed.map(|raw| raw.trim().parse().expect("the harness checked it is a u64"));
    let drawn = std::iter::repeat_with(|| rng.random::<u64>() ^ salt)
        .find(|&seed| focus(&Case::draw(&mut StdRng::seed_from_u64(seed))))
        .expect("an endless stream");
    replayed.into_iter().chain([drawn]).collect()
}

/// One seeded op sequence over one drawn corpus and config, added to `tally`.
fn run_case(seed: u64, via: Via, refine: RefineConfig, tally: &mut Tally) {
    let mut rng = StdRng::seed_from_u64(seed);
    let case = Case { refine, ..Case::draw(&mut rng) };
    let corpus = case.corpus(rng.random());
    let mut twins = Twins::new(seed, case, via, std::mem::take(tally));
    let process = twins.target.engine().is_some();

    // The last source comes on board mid-stream; the first may leave.
    let newcomer = (case.sources > 1).then(|| SourceId::new(case.sources - 1));
    let mut leaver = (case.sources > 2 && process).then(|| SourceId::new(0));
    for s in corpus.sources.iter().filter(|s| Some(s.id) != newcomer) {
        twins.add_source(s);
    }
    let (mut stream, mut late, mut onboard) = (Vec::new(), Vec::new(), Vec::new());
    for s in &corpus.snippets {
        if Some(s.source) == newcomer {
            onboard.push(s.clone());
        } else if rng.random_bool(0.1) {
            late.push(s.clone());
        } else {
            stream.push(s.clone());
        }
    }
    stream.reverse(); // popped from the back, in delivery order

    while !(stream.is_empty() && late.is_empty() && onboard.is_empty()) {
        // The newcomer comes on board when the stream runs dry, if not before.
        let op = if stream.is_empty() && !onboard.is_empty() { 99 } else { rng.random_range(0..100) };
        match op {
            0..=39 => {
                // (the late snippets, once the stream has run dry)
                let next = if stream.is_empty() { &mut late } else { &mut stream };
                let size = rng.random_range(1usize..40);
                let wave: Vec<Snippet> = (0..size).map_while(|_| next.pop()).collect();
                twins.ingest("an in-order wave", &wave);
            }
            40..=47 => {
                let s: Vec<Snippet> = late.pop().into_iter().collect();
                twins.ingest("a late snippet", &s);
            }
            48..=49 => {
                if let Some(s) = twins.pick(&mut rng) {
                    twins.remove_doc(s.doc);
                }
            }
            // The process-only ops.
            50..=92 if !process => {}
            50..=51 => {
                if let Some(s) = twins.pick(&mut rng) {
                    let removed = twins.both("remove_snippet", |e| e.remove_snippet(s.id).map(|()| 1).unwrap());
                    assert_eq!(removed, 1, "{}", twins.at("remove_snippet"));
                    twins.removed("remove_snippet", &[s.id]);
                }
            }
            52..=58 => twins.reassign(&mut rng),
            59..=61 => twins.reassign_twin_between_refines(&mut rng),
            62..=67 => {
                twins.both("run_maintenance", StoryPivot::run_maintenance);
                twins.check_step("run_maintenance", false);
            }
            68..=79 => twins.align(),
            80..=84 => twins.refine(),
            85..=87 => twins.reload(),
            88..=92 => {
                // Once, and not before there is something to lose.
                if let Some(source) = leaver.filter(|_| twins.oracle.store().len() > 100) {
                    twins.remove_source(source);
                    stream.retain(|s| s.source != source);
                    late.retain(|s| s.source != source);
                    leaver = None;
                }
            }
            _ => {
                // The newcomer's snippets join the stream in delivery order.
                if let Some(source) = newcomer.filter(|_| !onboard.is_empty()) {
                    let source = corpus.sources.iter().find(|s| s.id == source).expect("generated");
                    twins.add_source(source);
                    twins.check_step("add_source_registered", false);
                    twins.tally.onboarded += 1;
                    stream.append(&mut onboard);
                    stream.sort_unstable_by_key(|s| std::cmp::Reverse(s.id));
                }
            }
        }
        twins.lifecycle();
    }
    if process {
        // A leaver whose turn never came leaves before the flush.
        if let Some(source) = leaver {
            twins.remove_source(source);
        }
        // What a pipeline's flush does.
        twins.align();
        twins.refine();
    }
    *tally = twins.finish();
    tally.near_duplicate_cases += usize::from(case.near_duplicates);
}
