//! The differential driver: the engine under test and an oracle engine,
//! run in lockstep through one seeded sequence of §2.4's ops — snippets
//! arriving in waves and late, documents and snippets retracted,
//! snippets reassigned (into an existing story or a fresh one),
//! maintenance, incremental alignment and refinement interleaved, a
//! source leaving, a held-back source coming on board, and checkpoint
//! reloads of the engine under test — and compared after every op by
//! `Twins::check_step`.
//!
//! The oracle runs the same configuration without a hot-story cache and
//! through the reference paths: `ingest_reference` (every due
//! maintenance pass sweeps every story), a full `align()` wherever the
//! engine under test aligns incrementally, and `refine_reference()`. It
//! is never checkpointed, so it is also the uninterrupted twin.
//!
//! `tests/differential.rs` runs the driver on freely drawn configs
//! ([`run`]) and holds the coverage floors of the whole driver. Every
//! other test that includes this module runs a [`slice`]: further cases
//! on the configs one focus accepts, with the floor that slice is there
//! for. A case is a pure function of its seed, so every failure —
//! whichever test it came from — names the case seed, the drawn config,
//! the step and the op, and
//! `STORYPIVOT_PROP_SEED=<seed> cargo test --test differential` replays
//! that one case.

// Each test binary reads only the floors of its own slice.
#![allow(dead_code)]

use std::collections::BTreeMap;
use std::fmt::Debug;

use storypivot::core::identify::IdentifyDecision;
use storypivot::core::metrics::EngineMetrics;
use storypivot::core::refine::story_source;
use storypivot::gen::{Corpus, CorpusBuilder, GenConfig};
use storypivot::prelude::*;
use storypivot::substrate::metrics::Registry;
use storypivot::substrate::prop;
use storypivot::substrate::rng::{splitmix64, RngExt, StdRng};

/// Entity catalogue sizes: hot (nearly every snippet shares an entity
/// with one that moved, so refinement probes afresh), middling, and
/// sparse (most snippets keep the alternatives of the previous sweep).
pub const CATALOGUES: [u32; 3] = [20, 80, 400];

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
    pub hot_cache_capacity: usize,
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
            hot_cache_capacity: if rng.random_bool(0.5) { 2 } else { 512 },
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
        CorpusBuilder::new(config.with_target_snippets(self.snippets)).build()
    }

    fn config(&self) -> PivotConfig {
        let mut config = PivotConfig::temporal(self.omega_days * DAY);
        config.identify.split_threshold = self.split_threshold;
        config.identify.maintenance_every = self.maintenance_every;
        config.identify.hot_cache_capacity = self.hot_cache_capacity;
        config
    }
}

/// What the cases did, summed: the coverage floors are asserted on it.
#[derive(Debug, Default)]
pub struct Tally {
    pub splits: u64,
    pub merges: usize,
    pub late: usize,
    pub reassigned: usize,
    pub moves: usize,
    /// Sources that left, and held-back sources that came on board.
    pub left: usize,
    pub onboarded: usize,
    /// Hot-cache hits and misses of the engine under test's probes.
    pub cache: [usize; 2],
    /// Pairs scored by the passes ingest ran: engine under test, oracle.
    pub maintenance_pairs: [u64; 2],
    /// Pairs scored by the align ops: incremental, full.
    pub align_pairs: [usize; 2],
    /// Align ops with nothing marked dirty since the last alignment.
    pub idle_aligns: usize,
    /// Cross-source pairs the final alignment of each case accepted.
    pub accepted: usize,
    /// Per catalogue: snippets judged by refinement sweeps, probes
    /// carried over, cohesions extended.
    pub refine: [[u64; 3]; CATALOGUES.len()],
}

/// The engine under test, its oracle, and what is checked beside them.
struct Twins {
    seed: u64,
    case: Case,
    step: usize,
    engine: StoryPivot,
    oracle: StoryPivot,
    config: PivotConfig,
    metrics: [EngineMetrics; 2],
    /// The engine's partition, patched only from `drain_changes`.
    shadow: BTreeMap<StoryId, Vec<SnippetId>>,
    /// Per source, the newest timestamp ingested (to count late arrivals).
    newest: BTreeMap<SourceId, Timestamp>,
    tally: Tally,
}

impl Twins {
    fn new(seed: u64, case: Case, config: PivotConfig, tally: Tally) -> Twins {
        let metrics = [(); 2].map(|_| EngineMetrics::register(&Registry::new()));
        let mut engine = StoryPivot::new(config.clone());
        engine.set_metrics(metrics[0].clone());
        engine.log_changes();
        let mut oracle_config = config.clone();
        oracle_config.identify.hot_cache_capacity = 0;
        let mut oracle = StoryPivot::new(oracle_config);
        oracle.set_metrics(metrics[1].clone());
        Twins {
            seed,
            case,
            step: 0,
            engine,
            oracle,
            config,
            metrics,
            shadow: BTreeMap::new(),
            newest: BTreeMap::new(),
            tally,
        }
    }

    /// Where a failure happened: the case's seed and config, the step and the op.
    fn at(&self, op: &str) -> String {
        format!("case seed {} {:?}, step {} ({op})", self.seed, self.case, self.step)
    }

    /// Run `f` on both engines; their results must be equal.
    fn both<R: PartialEq + Debug>(&mut self, op: &str, mut f: impl FnMut(&mut StoryPivot) -> R) -> R {
        let got = f(&mut self.engine);
        let want = f(&mut self.oracle);
        assert_eq!(got, want, "{}", self.at(op));
        got
    }

    /// Run a removal of `removed` on both engines. Reads must stop
    /// answering for those snippets at once, not at the next alignment.
    fn remove(&mut self, op: &str, removed: &[SnippetId], f: impl FnMut(&mut StoryPivot) -> usize) {
        assert_eq!(self.both(op, f), removed.len(), "{}", self.at(op));
        for (who, e) in [("engine", &self.engine), ("oracle", &self.oracle)] {
            if let Some(id) = removed.iter().find(|&&id| e.global_of(id).is_some()) {
                panic!("{}: {who}: the alignment still answers for removed snippet {id}", self.at(op));
            }
        }
        self.check_step(op, false);
    }

    fn remove_source(&mut self, source: SourceId) {
        let removed: Vec<SnippetId> =
            self.engine.store().snippets_of_source(source).iter().map(|s| s.id).collect();
        self.remove("remove_source", &removed, |e| e.remove_source(source).unwrap());
        self.tally.left += 1;
    }

    fn add_source(&mut self, source: &Source) {
        self.both("add_source_registered", |e| e.add_source_registered(source.clone()).unwrap());
    }

    fn ingest(&mut self, op: &str, snippets: &[Snippet]) {
        let without_cache =
            |d: IdentifyDecision| IdentifyDecision { cache_hits: 0, cache_misses: 0, ..d };
        let pairs = |t: &Twins| [0, 1].map(|i| t.metrics[i].maintenance_pairs_scored_total.get());
        let before = pairs(self);
        for s in snippets {
            let got = self.engine.ingest_detailed(s.clone()).unwrap();
            let want = self.oracle.ingest_reference(s.clone()).unwrap();
            self.tally.merges += got.merged.len();
            self.tally.cache[0] += got.cache_hits;
            self.tally.cache[1] += got.cache_misses;
            assert_eq!(without_cache(got), without_cache(want), "{}: snippet {}", self.at(op), s.id);
            let newest = self.newest.entry(s.source).or_insert(s.timestamp);
            self.tally.late += usize::from(s.timestamp < *newest);
            *newest = (*newest).max(s.timestamp);
        }
        let after = pairs(self);
        for i in 0..2 {
            self.tally.maintenance_pairs[i] += after[i] - before[i];
        }
        self.check_step(op, false);
    }

    /// A stored snippet, picked uniformly.
    fn pick(&self, rng: &mut StdRng) -> Option<Snippet> {
        let store = self.engine.store();
        let n = store.len();
        (n > 0).then(|| store.iter().nth(rng.random_range(0..n)).expect("n-th of n").clone())
    }

    fn reassign(&mut self, rng: &mut StdRng) {
        let Some(s) = self.pick(rng) else { return };
        let (op, target) = if rng.random_bool(0.2) {
            let fresh = self.both("fresh_story_id_for", |e| e.fresh_story_id_for(s.source).unwrap());
            ("reassign_snippet into a fresh story", fresh)
        } else {
            let stories = self.engine.stories_of_source(s.source);
            ("reassign_snippet", stories[rng.random_range(0..stories.len())].id())
        };
        self.both(op, |e| e.reassign_snippet(s.id, target).unwrap());
        self.tally.reassigned += 1;
        self.check_step(op, false);
    }

    fn align(&mut self) {
        self.tally.idle_aligns += usize::from(self.engine.dirty_count() == 0);
        self.tally.align_pairs[0] += self.engine.align_incremental().pairs_scored;
        self.tally.align_pairs[1] += self.oracle.align().pairs_scored;
        self.check_step("align_incremental", true);
    }

    fn refine(&mut self) {
        let report = self.engine.refine();
        assert_eq!(report, self.oracle.refine_reference(), "{}", self.at("refine"));
        self.oracle.align();
        self.tally.moves += report.move_count();
        self.tally.refine[self.case.catalogue][0] += (report.rounds * self.engine.store().len()) as u64;
        self.check_step("refine", true);
    }

    /// The engine under test restarts from its own checkpoint.
    fn reload(&mut self) {
        let image = self.engine.save_checkpoint();
        self.engine = StoryPivot::load_checkpoint(self.config.clone(), &image).unwrap();
        self.engine.set_metrics(self.metrics[0].clone());
        self.engine.log_changes();
        self.check_step("checkpoint reload", false);
    }

    /// Everything that must hold after every op; `aligned` when the op
    /// left both engines freshly aligned.
    fn check_step(&mut self, op: &str, aligned: bool) {
        let at = self.at(op);
        let partition = self.engine.story_partition();
        assert_eq!(partition, self.oracle.story_partition(), "{at}: per-source partitions");
        if aligned {
            let (got, want) = (self.engine.alignment().unwrap(), self.oracle.alignment().unwrap());
            assert_eq!(got.global_stories, want.global_stories, "{at}: global stories");
            assert_eq!(got.story_to_global, want.story_to_global, "{at}: story_to_global");
            assert_eq!(got.snippet_to_global, want.snippet_to_global, "{at}: snippet_to_global");
            assert_eq!(got.accepted_pairs, want.accepted_pairs, "{at}: accepted pairs");
            assert_well_formed(&self.oracle, &at);
        }
        for (who, e) in [("engine", &self.engine), ("oracle", &self.oracle)] {
            e.check_invariants().unwrap_or_else(|err| panic!("{at}: {who}: {err}"));
        }

        let changed = self.engine.drain_changes();
        for &id in &changed {
            match self.engine.story(id) {
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
        let patched: Vec<(StoryId, Vec<SnippetId>)> =
            self.shadow.iter().map(|(&id, members)| (id, members.clone())).collect();
        assert_eq!(patched, partition, "{at}: the change log missed a story");
        self.step += 1;
    }

    /// The tally, with the case's counters folded in.
    fn finish(mut self) -> Tally {
        let engine = &self.metrics[0];
        self.tally.splits += engine.identify_split_total.get();
        self.tally.accepted += self.engine.alignment().map_or(0, |o| o.accepted_pairs.len());
        let refine = &mut self.tally.refine[self.case.catalogue];
        refine[1] += engine.refine_probes_reused_total.get();
        refine[2] += engine.refine_cohesion_extended_total.get();
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
    let salt = label.bytes().fold(0, |h, b| splitmix64(&mut (h ^ u64::from(b))));
    let mut tally = Tally::default();
    prop::run(cases, |rng| {
        for seed in case_seeds(rng, salt, &focus) {
            run_case(seed, &mut tally);
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
fn run_case(seed: u64, tally: &mut Tally) {
    let mut rng = StdRng::seed_from_u64(seed);
    let case = Case::draw(&mut rng);
    let corpus = case.corpus(rng.random());
    let mut twins = Twins::new(seed, case, case.config(), std::mem::take(tally));

    // The last source comes on board mid-stream; the first may leave.
    let newcomer = (case.sources > 1).then(|| SourceId::new(case.sources - 1));
    let mut leaver = (case.sources > 2).then(|| SourceId::new(0));
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
                    let removed = twins.engine.store().snippets_of_doc(s.doc);
                    twins.remove("remove_document", &removed, |e| e.remove_document(s.doc).unwrap());
                }
            }
            50..=51 => {
                if let Some(s) = twins.pick(&mut rng) {
                    let remove = |e: &mut StoryPivot| e.remove_snippet(s.id).map(|()| 1).unwrap();
                    twins.remove("remove_snippet", &[s.id], remove);
                }
            }
            52..=61 => twins.reassign(&mut rng),
            62..=67 => {
                twins.both("run_maintenance", StoryPivot::run_maintenance);
                twins.check_step("run_maintenance", false);
            }
            68..=79 => twins.align(),
            80..=84 => twins.refine(),
            85..=87 => twins.reload(),
            88..=92 => {
                // Once, and not before there is something to lose.
                if let Some(source) = leaver.filter(|_| twins.engine.store().len() > 100) {
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
    }
    // A leaver whose turn never came leaves before the flush.
    if let Some(source) = leaver {
        twins.remove_source(source);
    }
    // What a pipeline's flush does.
    twins.align();
    twins.refine();
    *tally = twins.finish();
}
