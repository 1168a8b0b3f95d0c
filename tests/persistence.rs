//! Durability integration: engine checkpoints across a simulated
//! restart. (Journal + checkpoint recovery of the served system is
//! covered by `crates/serve/tests/crash_recovery.rs`.)

use storypivot::core::config::PivotConfig;
use storypivot::gen::{CorpusBuilder, GenConfig};
use storypivot::prelude::*;
use storypivot::substrate::prop;
use storypivot::substrate::rng::RngExt;
use storypivot::types::DAY;

fn corpus(target: usize, seed: u64) -> storypivot::gen::Corpus {
    CorpusBuilder::new(
        GenConfig::default()
            .with_sources(4)
            .with_seed(seed)
            .with_target_snippets(target),
    )
    .build()
}

/// Full engine restart via checkpoint: identified state carries over and
/// continued ingestion converges with the never-restarted engine.
#[test]
fn checkpoint_restart_converges_with_uninterrupted_run() {
    let c = corpus(400, 72);
    let half = c.len() / 2;

    // Uninterrupted reference.
    let mut reference = StoryPivot::new(PivotConfig::temporal(14 * DAY));
    for s in &c.sources {
        reference.add_source_with_lag(s.name.clone(), s.kind, s.typical_lag);
    }
    for s in &c.snippets {
        reference.ingest(s.clone()).unwrap();
    }
    reference.align();

    // Interrupted run: ingest half, checkpoint, "restart", finish.
    let mut first = StoryPivot::new(PivotConfig::temporal(14 * DAY));
    for s in &c.sources {
        first.add_source_with_lag(s.name.clone(), s.kind, s.typical_lag);
    }
    for s in &c.snippets[..half] {
        first.ingest(s.clone()).unwrap();
    }
    let bytes = first.save_checkpoint();
    drop(first);

    let mut resumed =
        StoryPivot::load_checkpoint(PivotConfig::temporal(14 * DAY), &bytes).unwrap();
    for s in &c.snippets[half..] {
        resumed.ingest(s.clone()).unwrap();
    }
    resumed.align();
    resumed.check_invariants().unwrap();

    // Same number of snippets; identical global partitions.
    assert_eq!(resumed.store().len(), reference.store().len());
    let partition = |p: &StoryPivot| -> Vec<Vec<u32>> {
        let mut v: Vec<Vec<u32>> = p
            .global_stories()
            .iter()
            .map(|g| {
                let mut m: Vec<u32> = g.members.iter().map(|&(id, _)| id.raw()).collect();
                m.sort_unstable();
                m
            })
            .collect();
        v.sort();
        v
    };
    assert_eq!(partition(&resumed), partition(&reference));
}

#[test]
fn checkpoints_round_trip_arbitrary_engine_states() {
    prop::run(12, |rng| {
        let seed: u64 = rng.random();
        let target = rng.random_range(50usize..250);
        let removals = rng.random_range(0usize..10);

        let c = corpus(target, seed);
        let mut pivot = StoryPivot::new(PivotConfig::default());
        for s in &c.sources {
            pivot.add_source_with_lag(s.name.clone(), s.kind, s.typical_lag);
        }
        for s in &c.snippets {
            pivot.ingest(s.clone()).unwrap();
        }
        // Random-ish mutations before checkpointing.
        for i in 0..removals.min(c.len()) {
            let id = c.snippets[i * 7 % c.len()].id;
            let _ = pivot.remove_snippet(id);
        }
        pivot.align();

        let bytes = pivot.save_checkpoint();
        let restored = StoryPivot::load_checkpoint(PivotConfig::default(), &bytes).unwrap();
        assert_eq!(restored.store().len(), pivot.store().len());
        assert_eq!(restored.story_count(), pivot.story_count());
        for sn in pivot.store().iter() {
            assert_eq!(restored.story_of(sn.id), pivot.story_of(sn.id));
        }
        restored.check_invariants().unwrap();
    });
}
