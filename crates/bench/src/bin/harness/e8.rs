use std::time::Instant;

use storypivot_bench::{corpus_fixed_period, ingest_all, OMEGA};
use storypivot_core::config::PivotConfig;
use storypivot_eval::run::{run, RunOptions};
use storypivot_eval::Table;

use super::{f3, ms, Experiment, Scale};

pub(super) const EXPERIMENT: Experiment = Experiment {
    name: "e8",
    alias: None,
    title: "E8 — scaling with #sources (Fig 7 inset)",
    run: e8,
};

/// E8 — scaling with the number of sources (the Figure 7 dataset panel
/// lists 50 sources).
fn e8(scale: &Scale, seed: u64) -> Table {
    let mut table = Table::new(["sources", "events"])
        .clocks(["ingest ms/event", "align ms"])
        .counts(["pairs scored", "SA F1"]);
    for &n_sources in &scale.e8_sources {
        let target = scale.per_source * n_sources as usize;
        let corpus = corpus_fixed_period(target, n_sources, seed ^ 31);
        let r = run(&corpus, PivotConfig::temporal(OMEGA), RunOptions::default());
        let mut pivot = ingest_all(&corpus, PivotConfig::temporal(OMEGA));
        let t = Instant::now();
        pivot.align();
        let align_nanos = t.elapsed().as_nanos() as f64;
        table.row([
            n_sources.to_string(),
            corpus.len().to_string(),
            ms(r.per_event_nanos),
            ms(align_nanos),
            pivot.alignment().unwrap().pairs_scored.to_string(),
            f3(r.sa_f1()),
        ]);
    }
    table
}
