use storypivot_bench::corpus_fixed_period;
use storypivot_core::config::PivotConfig;
use storypivot_eval::run::{run, RunOptions};
use storypivot_eval::Table;
use storypivot_types::DAY;

use super::{f3, ms, Experiment, Scale};

pub(super) const EXPERIMENT: Experiment = Experiment {
    name: "e3",
    alias: None,
    title: "E3 — window size ω sweep (§2.2)",
    run: e3,
};

/// E3 — sliding-window sweep: runtime and quality as ω varies; the
/// complete mode is the ω → ∞ limit.
fn e3(scale: &Scale, seed: u64) -> Table {
    let corpus = corpus_fixed_period(scale.mid, 10, seed ^ 13);
    let mut table = Table::new(["omega"])
        .clocks(["ms/event"])
        .counts(["comparisons", "SI F1", "SA F1"]);
    for days in [1i64, 3, 7, 14, 30, 90] {
        let r = run(&corpus, PivotConfig::temporal(days * DAY), RunOptions::default());
        table.row([
            format!("{days}d"),
            ms(r.per_event_nanos),
            r.comparisons.to_string(),
            f3(r.si_f1()),
            f3(r.sa_f1()),
        ]);
    }
    let r = run(&corpus, PivotConfig::complete(), RunOptions::default());
    table.row([
        "inf (complete)".to_string(),
        ms(r.per_event_nanos),
        r.comparisons.to_string(),
        f3(r.si_f1()),
        f3(r.sa_f1()),
    ]);
    table
}
