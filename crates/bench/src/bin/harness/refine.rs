use std::time::{Duration, Instant};

use storypivot_bench::{corpus_fixed_period, pivot_for};
use storypivot_core::config::PivotConfig;
use storypivot_core::metrics::EngineMetrics;
use storypivot_eval::Table;
use storypivot_substrate::metrics::Registry;

use super::{f3, ms, Experiment, Scale};

pub(super) const EXPERIMENT: Experiment = Experiment {
    name: "refine",
    alias: Some("e18"),
    title: "E18 — refinement cost vs corpus size (§2.3, Fig 1d)",
    run: e18_refine,
};

/// E18 — refinement cost vs corpus size. Two engines ingest the same
/// stream in lockstep under the `align_refine` workload's policy
/// (re-align and refine every 256 ingests, then a flush); one refines
/// with `StoryPivot::refine`, the other with `refine_reference`, the
/// original sweep. Every call's report must be equal — the run asserts
/// it — so the rows compare two ways of computing one move list.
fn e18_refine(scale: &Scale, seed: u64) -> Table {
    const ALIGN_EVERY: usize = 256;
    let mut table = Table::new([
        "snippets",
        "refine calls",
        "sweeps",
        "moves",
        "pairs scored (reference)",
        "pairs scored",
        "cache hit ratio",
        "extended",
        "probes reused",
    ])
    .clocks(["ms/call (reference)", "ms/call", "final call ms (reference)", "final call ms"]);
    for &n in &scale.refine_sizes {
        let corpus = corpus_fixed_period(n, 10, seed ^ 59);
        let registries = [Registry::new(), Registry::new()];
        let mut engines = registries.each_ref().map(|registry| {
            let mut pivot = pivot_for(&corpus, PivotConfig::default());
            pivot.set_metrics(EngineMetrics::register(registry));
            pivot
        });
        let (mut calls, mut moves) = (0usize, 0usize);
        let mut spent = [Duration::ZERO; 2];
        let mut last = [Duration::ZERO; 2];
        for (i, s) in corpus.snippets.iter().enumerate() {
            for pivot in &mut engines {
                pivot.ingest(s.clone()).expect("valid corpus snippet");
            }
            if (i + 1) % ALIGN_EVERY != 0 && i + 1 != corpus.len() {
                continue;
            }
            let [new, reference] = &mut engines;
            new.align_incremental();
            reference.align_incremental();
            let t = Instant::now();
            let report = new.refine();
            last[0] = t.elapsed();
            let t = Instant::now();
            let expected = reference.refine_reference();
            last[1] = t.elapsed();
            assert_eq!(report, expected, "refine diverged from its reference at snippet {i}");
            calls += 1;
            moves += report.move_count();
            spent[0] += last[0];
            spent[1] += last[1];
        }
        assert_eq!(
            engines[0].story_partition(),
            engines[1].story_partition(),
            "refine and its reference left different stories"
        );
        let count = |slot: usize, name: &str| {
            registries[slot].snapshot().counter_value(name, &[]).unwrap_or(0)
        };
        let hits = count(0, "storypivot_refine_cohesion_cache_hits_total");
        let misses = count(0, "storypivot_refine_cohesion_cache_misses_total");
        let per_call = |d: Duration| ms(d.as_nanos() as f64 / calls as f64);
        table.row([
            corpus.len().to_string(),
            calls.to_string(),
            count(0, "storypivot_refine_rounds_total").to_string(),
            moves.to_string(),
            count(1, "storypivot_refine_pairs_scored_total").to_string(),
            count(0, "storypivot_refine_pairs_scored_total").to_string(),
            f3(hits as f64 / (hits + misses).max(1) as f64),
            count(0, "storypivot_refine_cohesion_extended_total").to_string(),
            count(0, "storypivot_refine_probes_reused_total").to_string(),
            per_call(spent[1]),
            per_call(spent[0]),
            ms(last[1].as_nanos() as f64),
            ms(last[0].as_nanos() as f64),
        ]);
    }
    table
}
