use storypivot_bench::{corpus_fixed_period, OMEGA};
use storypivot_core::config::PivotConfig;
use storypivot_eval::run::{run, RunOptions};
use storypivot_eval::Table;

use super::{f3, Experiment, Scale};

pub(super) const EXPERIMENT: Experiment = Experiment {
    name: "e10",
    alias: None,
    title: "E10 — identification scoring ablation (design choice)",
    run: e10,
};

/// E10 — ablation of the snippet–story scoring blend: pure single-link
/// (pair_blend = 1.0) vs pure windowed centroid (0.0) vs the default
/// blend (0.5). The design-choice ablation called out in DESIGN.md.
fn e10(scale: &Scale, seed: u64) -> Table {
    let corpus = corpus_fixed_period(scale.mid * 2, 10, seed ^ 41);
    let mut table = Table::new(["scoring", "SI F1", "SI precision", "SI recall", "stories"]);
    for (name, blend) in [
        ("single-link (pair only)", 1.0f64),
        ("blend 0.75", 0.75),
        ("blend 0.50 (default)", 0.5),
        ("blend 0.25", 0.25),
        ("centroid only", 0.0),
    ] {
        let mut cfg = PivotConfig::temporal(OMEGA);
        cfg.identify.pair_blend = blend;
        let r = run(&corpus, cfg, RunOptions::default());
        table.row([
            name.to_string(),
            f3(r.si_f1()),
            f3(r.si_scores.precision),
            f3(r.si_scores.recall),
            r.stories.to_string(),
        ]);
    }
    table
}
