use storypivot_bench::{corpus_constant_density, OMEGA};
use storypivot_core::config::PivotConfig;
use storypivot_eval::run::{run, RunOptions};
use storypivot_eval::Table;

use super::{ms, Experiment, Scale};

pub(super) const EXPERIMENT: Experiment = Experiment {
    name: "e1",
    alias: None,
    title: "E1 — identification cost vs #events (Fig 7, performance)",
    run: e1,
};

/// E1 — Figure 7, performance panel: per-event identification time as
/// the number of events grows, at constant event density.
fn e1(scale: &Scale, seed: u64) -> Table {
    let mut table = Table::new(["events", "SI method"])
        .clocks(["ms/event", "p50 ms", "p95 ms"])
        .counts(["comparisons", "stories"]);
    for &n in &scale.e1_sizes {
        let corpus = corpus_constant_density(n, 10, seed ^ 7);
        for (name, cfg) in [
            ("temporal", PivotConfig::temporal(OMEGA)),
            ("complete", PivotConfig::complete()),
        ] {
            let r = run(
                &corpus,
                cfg,
                RunOptions {
                    align: false,
                    refine: false,
                    delivery_order: true,
                },
            );
            table.row([
                corpus.len().to_string(),
                name.to_string(),
                ms(r.per_event_nanos),
                ms(r.p50_nanos as f64),
                ms(r.p95_nanos as f64),
                r.comparisons.to_string(),
                r.stories.to_string(),
            ]);
        }
    }
    table
}
