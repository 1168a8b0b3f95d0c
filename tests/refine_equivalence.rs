//! `StoryPivot::refine` against its oracle: on seeded corpora, streamed
//! through the dynamic pipeline with identification errors injected
//! along the way, every refinement round must report the move list the
//! original full sweep (`refine_reference`) reports on an identical
//! engine — same moves, same order, same rounds — and leave the same
//! per-source and global stories. The corpora come in three entity
//! catalogue sizes: with 20 entities nearly every snippet shares one
//! with something that moved (its candidate probe runs afresh), with 400
//! most share none (their alternatives are carried over from the
//! previous sweep); documents are retracted along the way, which makes
//! the refiner forget everything it knew.

use storypivot::core::metrics::EngineMetrics;
use storypivot::core::pipeline::{DynamicPivot, PipelinePolicy};
use storypivot::gen::{CorpusBuilder, GenConfig};
use storypivot::prelude::*;
use storypivot::substrate::metrics::Registry;
use storypivot::substrate::prop;
use storypivot::substrate::rng::{RngExt, StdRng};

const ALIGN_EVERY: usize = 64;

/// Entity catalogue sizes: hot (clean snippets are rare), the size the
/// suite always ran, and sparse (clean snippets are common).
const CATALOGUES: [u32; 3] = [20, 80, 400];

fn arb_config(rng: &mut StdRng, entities: u32) -> GenConfig {
    GenConfig {
        seed: rng.random(),
        sources: rng.random_range(2u32..11),
        // A small catalogue, so stories share entities and refinement
        // has alternatives to weigh.
        entities,
        terms: 300,
        events_per_story: 8.0,
        drift: rng.random_range(0.0f64..0.4),
        ..GenConfig::default()
    }
    .with_target_snippets(rng.random_range(140usize..300))
}

fn assert_same_stories(a: &StoryPivot, b: &StoryPivot, what: &str) {
    assert_eq!(a.story_partition(), b.story_partition(), "{what}: per-source stories");
    assert_eq!(a.global_stories(), b.global_stories(), "{what}: global stories");
}

/// One round (`ingest` of the snippet that made it due, if any, then
/// `align_incremental`, then refinement) replayed on two clones of the
/// engine as it was before the round — one per planner — and compared
/// with each other and with what the pipeline itself did.
fn check_round(before: &StoryPivot, due: Option<&Snippet>, after: &StoryPivot) -> Round {
    let (mut new, mut reference) = (before.clone(), before.clone());
    let registry = Registry::new();
    new.set_metrics(EngineMetrics::register(&registry));
    for pivot in [&mut new, &mut reference] {
        if let Some(s) = due {
            pivot.ingest(s.clone()).unwrap();
        }
        pivot.align_incremental();
    }
    let report = new.refine();
    assert_eq!(report, reference.refine_reference());
    assert_same_stories(&new, &reference, "refine vs refine_reference");
    assert_same_stories(after, &reference, "pipeline vs refine_reference");
    after.check_invariants().unwrap();
    Round {
        moves: report.move_count(),
        probes: report.rounds * new.store().len(),
        reused: new.metrics().refine_probes_reused_total.get() as usize,
        extended: new.metrics().refine_cohesion_extended_total.get() as usize,
    }
}

/// What one checked round did: moves, snippets judged (one candidate
/// probe each, carried over or not) and the two shortcuts' counters.
#[derive(Debug, Clone, Copy, Default)]
struct Round {
    moves: usize,
    probes: usize,
    reused: usize,
    extended: usize,
}

impl std::ops::AddAssign for Round {
    fn add_assign(&mut self, r: Round) {
        self.moves += r.moves;
        self.probes += r.probes;
        self.reused += r.reused;
        self.extended += r.extended;
    }
}

#[test]
fn refine_plans_what_the_reference_sweep_plans() {
    let mut totals = [Round::default(); CATALOGUES.len()];
    prop::run(24, |rng| {
        let catalogue = rng.random_range(0..CATALOGUES.len());
        let total = &mut totals[catalogue];
        let corpus = CorpusBuilder::new(arb_config(rng, CATALOGUES[catalogue])).build();
        let mut dp = DynamicPivot::new(
            PivotConfig::temporal(14 * DAY),
            PipelinePolicy {
                align_every: ALIGN_EVERY,
                refine_on_align: true,
                ..PipelinePolicy::default()
            },
        );
        for s in &corpus.sources {
            dp.pivot_mut().add_source_with_lag(s.name.clone(), s.kind, s.typical_lag);
        }
        for (i, s) in corpus.snippets.iter().enumerate() {
            let before = ((i + 1) % ALIGN_EVERY == 0).then(|| dp.pivot().clone());
            dp.ingest(s.clone()).unwrap();
            if let Some(before) = before {
                *total += check_round(&before, Some(s), dp.pivot());
            }
            // E7's corruption, as the stream goes by: 5 % of the snippets
            // are thrown into a random other story of their source.
            if rng.random_bool(0.05) {
                let pivot = dp.pivot_mut();
                let own = pivot.story_of(s.id).unwrap();
                let stories = pivot.stories_of_source(s.source);
                let others: Vec<StoryId> =
                    stories.iter().map(|st| st.id()).filter(|&id| id != own).collect();
                if !others.is_empty() {
                    let target = others[rng.random_range(0..others.len())];
                    pivot.reassign_snippet(s.id, target).unwrap();
                }
            }
            // A retraction now and then: the refiner forgets everything.
            if rng.random_bool(0.004) {
                let doc = corpus.snippets[rng.random_range(0..=i)].doc;
                let _ = dp.pivot_mut().remove_document(doc); // (may be gone already)
            }
        }
        let before = dp.pivot().clone();
        dp.flush();
        *total += check_round(&before, None, dp.pivot());
    });

    let moves: usize = totals.iter().map(|t| t.moves).sum();
    assert!(moves > 100, "the corpora must give refinement work to do; moved {moves}");
    // Both kinds of sweep occurred: ones that probe nearly everything
    // afresh and ones that carry most probes over.
    let [hot, _, sparse] = totals;
    assert!(hot.probes > 2_000 && sparse.probes > 2_000, "{totals:?}");
    assert!(hot.reused * 10 < hot.probes, "hot entities leave few snippets clean: {hot:?}");
    assert!(sparse.reused * 4 > sparse.probes, "sparse entities leave many clean: {sparse:?}");
    assert!(totals.iter().all(|t| t.extended > 0), "{totals:?}");
}
