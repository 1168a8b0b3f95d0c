use std::time::Instant;

use storypivot_bench::{corpus_fixed_period, pivot_for, OMEGA};
use storypivot_core::config::PivotConfig;
use storypivot_core::metrics::EngineMetrics;
use storypivot_eval::Table;
use storypivot_substrate::metrics::Registry;

use super::{Experiment, Scale};

pub(super) const EXPERIMENT: Experiment = Experiment {
    name: "metrics",
    alias: Some("e13"),
    title: "E13 — metrics instrumentation overhead (observability)",
    run: e13_metrics,
};

/// E13 — instrumentation overhead: the same ingest stream into two
/// engines — metrics detached (the default: one `None` branch per
/// operation, the compiled-out configuration) and attached to a live
/// registry (atomic counters + mutexed histograms). Best-of-N per
/// configuration to suppress scheduler noise; DESIGN.md §8 budgets the
/// live overhead at < 5%.
fn e13_metrics(scale: &Scale, seed: u64) -> Table {
    const TRIALS: usize = 5;
    let corpus = corpus_fixed_period(scale.mid, 10, seed ^ 47);
    let cfg = PivotConfig::temporal(OMEGA);
    let names = ["detached (default)", "live registry"];
    let mut best = [f64::INFINITY; 2];
    for _ in 0..TRIALS {
        for (slot, best_ns) in best.iter_mut().enumerate() {
            let registry = (slot == 1).then(Registry::new);
            let mut pivot = pivot_for(&corpus, cfg.clone());
            if let Some(r) = &registry {
                pivot.set_metrics(EngineMetrics::register(r));
            }
            let t = Instant::now();
            for s in &corpus.snippets {
                pivot.ingest(s.clone()).unwrap();
            }
            let nanos = t.elapsed().as_nanos() as f64 / corpus.len() as f64;
            *best_ns = best_ns.min(nanos);
            if let Some(r) = registry {
                // The timing is only meaningful if the live run really
                // recorded its work.
                assert_eq!(
                    r.snapshot().counter_value("storypivot_ingest_total", &[]),
                    Some(corpus.len() as u64),
                    "live registry must count every ingest"
                );
            }
        }
    }
    println!("best of {TRIALS} trials per configuration\n");
    let mut table = Table::new(["config", "events"]).clocks(["ns/event", "overhead vs detached"]);
    for (slot, name) in names.iter().enumerate() {
        let overhead = if slot == 0 {
            "baseline".to_string()
        } else {
            format!("{:+.2}%", (best[slot] - best[0]) / best[0] * 100.0)
        };
        table.row([
            name.to_string(),
            corpus.len().to_string(),
            format!("{:.0}", best[slot]),
            overhead,
        ]);
    }
    table
}
