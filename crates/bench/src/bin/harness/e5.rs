use storypivot_bench::OMEGA;
use storypivot_core::config::PivotConfig;
use storypivot_eval::run::{run, RunOptions};
use storypivot_eval::Table;
use storypivot_gen::{CorpusBuilder, GenConfig};
use storypivot_types::HOUR;

use super::{f3, Experiment, Scale};

pub(super) const EXPERIMENT: Experiment = Experiment {
    name: "e5",
    alias: None,
    title: "E5 — out-of-order delivery (§2.4)",
    run: e5,
};

/// E5 — out-of-order robustness: publication lag scrambles delivery
/// order; quality must degrade gracefully.
fn e5(scale: &Scale, seed: u64) -> Table {
    let mut table = Table::new(["mean pub lag", "inversion frac", "order", "SI F1", "SA F1"]);
    for lag_hours in [0i64, 6, 24, 72, 168] {
        let mut gen = GenConfig::default().with_seed(seed ^ 19).with_target_snippets(scale.mid);
        gen.mean_pub_lag = lag_hours * HOUR;
        let corpus = CorpusBuilder::new(gen).build();
        for (order, delivery) in [("delivery", true), ("event-time", false)] {
            let r = run(
                &corpus,
                PivotConfig::temporal(OMEGA),
                RunOptions {
                    delivery_order: delivery,
                    ..RunOptions::default()
                },
            );
            table.row([
                format!("{lag_hours}h"),
                format!("{:.3}", corpus.inversion_fraction()),
                order.to_string(),
                f3(r.si_f1()),
                f3(r.sa_f1()),
            ]);
        }
    }
    table
}
