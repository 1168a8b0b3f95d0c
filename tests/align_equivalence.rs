//! `StoryPivot::align_incremental` against its oracle, on *everything*
//! an outcome holds: after seeded sequences of every operation that can
//! change a story — in-order and late ingests, document removals,
//! reassignments, maintenance passes that split, refinement moves, a
//! source leaving and a source coming on board — the incremental outcome
//! must equal a from-scratch `align()` of the same engine: whole global
//! stories (ids, member stories, sources, member roles, lifespans), both
//! lookup maps and the accepted pairs. (`incremental_consistency.rs` and
//! `alignment_invariants.rs` compare member-id partitions only.)

use storypivot::gen::{CorpusBuilder, GenConfig};
use storypivot::prelude::*;
use storypivot::substrate::prop;
use storypivot::substrate::rng::{RngExt, StdRng};

/// Align `pivot` incrementally and hold the outcome to a full alignment
/// of a clone. Returns how many global stories span several stories.
fn align_and_check(pivot: &mut StoryPivot, what: &str) -> usize {
    let mut full = pivot.clone();
    let full = full.align();
    let inc = pivot.align_incremental();
    assert_eq!(inc.global_stories, full.global_stories, "after {what}: global stories");
    assert_eq!(inc.story_to_global, full.story_to_global, "after {what}: story_to_global");
    assert_eq!(inc.snippet_to_global, full.snippet_to_global, "after {what}: snippet_to_global");
    assert_eq!(inc.accepted_pairs, full.accepted_pairs, "after {what}: accepted_pairs");
    inc.global_stories.iter().filter(|g| g.member_stories.len() > 1).count()
}

/// A stored snippet, picked uniformly.
fn any_snippet(pivot: &StoryPivot, rng: &mut StdRng) -> Option<Snippet> {
    let n = pivot.store().len();
    (n > 0).then(|| pivot.store().iter().nth(rng.random_range(0..n)).expect("n-th of n").clone())
}

#[test]
fn incremental_alignment_equals_full_alignment_on_every_field() {
    let (mut aligned, mut splits, mut moves) = (0usize, 0usize, 0usize);
    prop::run(12, |rng| {
        let sources = rng.random_range(3u32..7);
        // Drifting stories and a raised split threshold, so maintenance
        // splits (as in `tests/persistence.rs`).
        let corpus = CorpusBuilder::new(
            GenConfig {
                seed: rng.random(),
                drift: 0.4,
                ..GenConfig::default()
            }
            .with_sources(sources)
            .with_target_snippets(rng.random_range(250usize..450)),
        )
        .build();
        let mut config = PivotConfig::temporal(7 * DAY);
        config.identify.split_threshold = 0.45;
        let mut pivot = StoryPivot::new(config);

        // The last source comes on board only after the others are
        // aligned; one snippet in ten of the others arrives late.
        let newcomer = SourceId::new(sources - 1);
        for s in corpus.sources.iter().filter(|s| s.id != newcomer) {
            pivot.add_source_with_lag(s.name.clone(), s.kind, s.typical_lag);
        }
        let (mut stream, mut late, mut onboard) = (Vec::new(), Vec::new(), Vec::new());
        for s in &corpus.snippets {
            if s.source == newcomer {
                onboard.push(s.clone());
            } else if rng.random_bool(0.1) {
                late.push(s.clone());
            } else {
                stream.push(s.clone());
            }
        }
        let mut stream = stream.into_iter();

        let mut leaver = Some(SourceId::new(0));
        loop {
            let what = match rng.random_range(0u32..10) {
                0..=3 => {
                    let wave: Vec<Snippet> =
                        stream.by_ref().take(rng.random_range(1usize..40)).collect();
                    if wave.is_empty() {
                        break;
                    }
                    // (snippets of the source that left are dropped)
                    for s in wave.into_iter().filter(|s| leaver.is_some() || s.source.raw() != 0) {
                        pivot.ingest(s).unwrap();
                    }
                    "an in-order wave"
                }
                4 => {
                    if let Some(s) = late.pop().filter(|s| leaver.is_some() || s.source.raw() != 0) {
                        pivot.ingest(s).unwrap();
                    }
                    "a late snippet"
                }
                5 => {
                    if let Some(s) = any_snippet(&pivot, rng) {
                        pivot.remove_document(s.doc).unwrap();
                    }
                    "a document removal"
                }
                6 => {
                    if let Some(s) = any_snippet(&pivot, rng) {
                        let stories = pivot.stories_of_source(s.source);
                        let target = if rng.random_bool(0.2) {
                            pivot.fresh_story_id_for(s.source).unwrap()
                        } else {
                            stories[rng.random_range(0..stories.len())].id()
                        };
                        pivot.reassign_snippet(s.id, target).unwrap();
                    }
                    "a reassignment"
                }
                7 => {
                    splits += pivot.run_maintenance().len();
                    "a maintenance pass"
                }
                8 => {
                    moves += pivot.refine().move_count();
                    "a refinement"
                }
                _ => {
                    // Once, and not before there is something to lose.
                    if pivot.store().len() > 150 {
                        if let Some(source) = leaver.take() {
                            pivot.remove_source(source).unwrap();
                        }
                    }
                    "a source removal"
                }
            };
            aligned += align_and_check(&mut pivot, what);
        }

        let source = corpus.sources.iter().find(|s| s.id == newcomer).expect("generated");
        pivot
            .add_source_registered(
                Source::new(source.id, source.name.clone(), source.kind).with_lag(source.typical_lag),
            )
            .unwrap();
        for s in onboard {
            pivot.ingest(s).unwrap();
        }
        aligned += align_and_check(&mut pivot, "onboarding a source");
        pivot.check_invariants().unwrap();
    });
    assert!(aligned > 100, "stories must align for roles to matter; saw {aligned}");
    assert!(splits > 0, "maintenance must split; split {splits}");
    assert!(moves > 0, "refinement must move; moved {moves}");
}
