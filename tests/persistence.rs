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

/// Restored mid-stream == uninterrupted, *with splits occurring*. The
/// maintenance phase (snippets identified since the last pass) is part
/// of the checkpoint: an engine that restarted its count at the reload
/// would run its passes — and fire its splits — at other events than its
/// twin, and the two partitions drift apart. Default thresholds rarely
/// split, so the corpora here drift and the split threshold is raised
/// (0.45 splits ~20 times per corpus; at 0.35 these seeds never do).
#[test]
fn restored_engine_splits_at_the_same_events_as_its_uninterrupted_twin() {
    use storypivot::core::metrics::EngineMetrics;
    use storypivot::substrate::metrics::Registry;

    let mut config = PivotConfig::temporal(7 * DAY);
    config.identify.split_threshold = 0.45;
    let mut splits = 0;
    for seed in 0..8u64 {
        let c = CorpusBuilder::new(
            GenConfig { drift: 0.4, ..GenConfig::default() }
                .with_sources(2)
                .with_seed(seed)
                .with_target_snippets(500),
        )
        .build();
        let registry = Registry::new();
        let mut uninterrupted = StoryPivot::new(config.clone());
        uninterrupted.set_metrics(EngineMetrics::register(&registry));
        for s in &c.sources {
            uninterrupted.add_source_with_lag(s.name.clone(), s.kind, s.typical_lag);
        }
        let mut restored = uninterrupted.clone();
        restored.set_metrics(EngineMetrics::default());
        for (i, s) in c.snippets.iter().enumerate() {
            if i == 100 {
                // Not a multiple of `maintenance_every` per source: both
                // identifiers are mid-count.
                restored =
                    StoryPivot::load_checkpoint(config.clone(), &restored.save_checkpoint()).unwrap();
            }
            uninterrupted.ingest(s.clone()).unwrap();
            restored.ingest(s.clone()).unwrap();
        }
        assert_eq!(restored.story_partition(), uninterrupted.story_partition(), "seed {seed}");
        restored.check_invariants().unwrap();
        splits += uninterrupted.metrics().identify_split_total.get();
    }
    assert!(splits >= 50, "the corpora must split for the phase to matter; split {splits}");
}

#[test]
fn version_one_checkpoints_are_rejected_not_misread() {
    let mut pivot = StoryPivot::new(PivotConfig::default());
    pivot.add_source("a", SourceKind::Newspaper);
    let mut bytes = pivot.save_checkpoint();
    assert_eq!(bytes[4..8], 2u32.to_le_bytes());
    bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
    let err = StoryPivot::load_checkpoint(PivotConfig::default(), &bytes).unwrap_err();
    assert!(err.to_string().contains("unsupported checkpoint version 1"), "{err}");
}
