//! `Identifier::maintain` against its oracle: on seeded corpora built to
//! split, two engines run in lockstep — one whose due maintenance passes
//! look only at the stories that changed (`ingest_detailed`), one whose
//! passes sweep every story (`ingest_reference`, i.e.
//! `Identifier::maintain_reference`) — through in- and out-of-order
//! ingest, forced reassignments, removals and checkpoint reloads. Every
//! op must change the same stories in both (fragment ids included), and
//! the partitions must agree whenever a pass split something.

use storypivot::core::metrics::EngineMetrics;
use storypivot::gen::{CorpusBuilder, GenConfig};
use storypivot::prelude::*;
use storypivot::substrate::metrics::Registry;
use storypivot::substrate::prop;
use storypivot::substrate::rng::{RngExt, StdRng};

fn arb_corpus(rng: &mut StdRng) -> storypivot::gen::Corpus {
    CorpusBuilder::new(
        GenConfig {
            seed: rng.random(),
            sources: rng.random_range(1u32..4),
            drift: rng.random_range(0.0f64..0.6),
            ..GenConfig::default()
        }
        .with_target_snippets(rng.random_range(300usize..700)),
    )
    .build()
}

fn arb_config(rng: &mut StdRng) -> PivotConfig {
    let mut config = PivotConfig::temporal(rng.random_range(2i64..15) * DAY);
    config.identify.split_threshold = rng.random_range(0.18f64..0.5);
    config.identify.maintenance_every = rng.random_range(4usize..71);
    config
}

/// The engine under test and its oracle, fed the same ops.
struct Twins {
    new: StoryPivot,
    reference: StoryPivot,
    metrics: [EngineMetrics; 2],
    config: PivotConfig,
}

impl Twins {
    fn both(&mut self, mut op: impl FnMut(&mut StoryPivot)) {
        op(&mut self.new);
        op(&mut self.reference);
    }

    fn splits(&self) -> [u64; 2] {
        [0, 1].map(|i| self.metrics[i].identify_split_total.get())
    }

    /// Both engines restart from their own checkpoints.
    fn reload(&mut self) {
        for (engine, metrics) in [&mut self.new, &mut self.reference].into_iter().zip(&self.metrics) {
            *engine = StoryPivot::load_checkpoint(self.config.clone(), &engine.save_checkpoint()).unwrap();
            engine.set_metrics(metrics.clone());
            engine.log_changes();
        }
    }

    fn assert_same_changes(&mut self, after: &str) {
        assert_eq!(self.new.drain_changes(), self.reference.drain_changes(), "after {after}");
    }

    fn assert_same_stories(&self, after: &str) {
        assert_eq!(self.new.story_partition(), self.reference.story_partition(), "after {after}");
    }
}

#[test]
fn maintain_splits_what_the_sweep_over_every_story_splits() {
    let mut splits = 0u64;
    let mut pairs = [0u64; 2];
    prop::run(16, |rng| {
        let corpus = arb_corpus(rng);
        let config = arb_config(rng);
        let registries = [Registry::new(), Registry::new()];
        let metrics = [0, 1].map(|i| EngineMetrics::register(&registries[i]));
        let mut new = StoryPivot::new(config.clone());
        for s in &corpus.sources {
            new.add_source_with_lag(s.name.clone(), s.kind, s.typical_lag);
        }
        new.log_changes();
        let mut reference = new.clone();
        new.set_metrics(metrics[0].clone());
        reference.set_metrics(metrics[1].clone());
        let mut twins = Twins { new, reference, metrics, config };

        let mut live: Vec<&Snippet> = Vec::new();
        for (i, s) in corpus.snippets.iter().enumerate() {
            let before = twins.splits();
            let decision = twins.new.ingest_detailed(s.clone()).unwrap();
            assert_eq!(decision, twins.reference.ingest_reference(s.clone()).unwrap());
            twins.assert_same_changes("ingest");
            let after = twins.splits();
            assert_eq!(after[0], after[1], "splits at event {i}");
            if after != before || i % 16 == 0 {
                twins.assert_same_stories("ingest");
            }
            live.push(s);

            // E7's corruption: the snippet is thrown into a random other
            // story of its source. Maintenance splits most of them off.
            if rng.random_bool(0.05) {
                let own = twins.new.story_of(s.id).unwrap();
                let stories = twins.new.stories_of_source(s.source);
                let others: Vec<StoryId> =
                    stories.iter().map(|st| st.id()).filter(|&id| id != own).collect();
                if !others.is_empty() {
                    let target = others[rng.random_range(0..others.len())];
                    twins.both(|e| e.reassign_snippet(s.id, target).unwrap());
                    twins.assert_same_changes("reassign_snippet");
                }
            }
            if rng.random_bool(0.03) {
                let victim = live.swap_remove(rng.random_range(0..live.len())).id;
                twins.both(|e| e.remove_snippet(victim).unwrap());
                twins.assert_same_changes("remove_snippet");
            }
            if rng.random_bool(0.01) {
                twins.reload();
                twins.assert_same_stories("checkpoint reload");
            }
            if i % 64 == 0 {
                twins.both(|e| e.check_invariants().unwrap());
            }
        }
        // One on-demand pass over every source, reports side by side.
        let report = twins.new.run_maintenance();
        assert_eq!(report, twins.reference.run_maintenance());
        twins.assert_same_stories("run_maintenance");
        twins.both(|e| e.check_invariants().unwrap());

        splits += twins.splits()[0];
        for (total, m) in pairs.iter_mut().zip(&twins.metrics) {
            *total += m.maintenance_pairs_scored_total.get();
        }
    });
    assert!(splits > 50, "the corpora must keep splitting; split {splits}");
    // Reloads, reassignments and removals all force full sweeps here, and
    // the oracle stops at the first spanning set of edges as well.
    assert!(
        pairs[0] * 2 < pairs[1],
        "maintain scored {} pairs, the sweep over every story {}",
        pairs[0],
        pairs[1]
    );
}
