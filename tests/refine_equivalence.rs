//! `StoryPivot::refine` against its oracle: on seeded corpora, streamed
//! through the dynamic pipeline with identification errors injected
//! along the way, every refinement round must report the move list the
//! original full sweep (`refine_reference`) reports on an identical
//! engine — same moves, same order, same rounds — and leave the same
//! per-source and global stories.

use storypivot::core::pipeline::{DynamicPivot, PipelinePolicy};
use storypivot::gen::{CorpusBuilder, GenConfig};
use storypivot::prelude::*;
use storypivot::substrate::prop;
use storypivot::substrate::rng::{RngExt, StdRng};

const ALIGN_EVERY: usize = 64;

fn arb_config(rng: &mut StdRng) -> GenConfig {
    GenConfig {
        seed: rng.random(),
        sources: rng.random_range(2u32..11),
        // A small catalogue, so stories share entities and refinement
        // has alternatives to weigh.
        entities: 80,
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
/// with each other and with what the pipeline itself did. Returns the
/// number of moves.
fn check_round(before: &StoryPivot, due: Option<&Snippet>, after: &StoryPivot) -> usize {
    let (mut new, mut reference) = (before.clone(), before.clone());
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
    report.move_count()
}

#[test]
fn refine_plans_what_the_reference_sweep_plans() {
    let mut moves = 0usize;
    prop::run(16, |rng| {
        let corpus = CorpusBuilder::new(arb_config(rng)).build();
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
                moves += check_round(&before, Some(s), dp.pivot());
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
        }
        let before = dp.pivot().clone();
        dp.flush();
        moves += check_round(&before, None, dp.pivot());
    });
    assert!(moves > 100, "the corpora must give refinement work to do; moved {moves}");
}
