use storypivot_bench::{corpus_fixed_period, ingest_all, OMEGA};
use storypivot_core::config::PivotConfig;
use storypivot_eval::run::{run, RunOptions};
use storypivot_eval::Table;

use super::{f3, Experiment, Scale};

pub(super) const EXPERIMENT: Experiment = Experiment {
    name: "e2",
    alias: None,
    title: "E2 — F-measure vs #events (Fig 7, quality)",
    run: e2,
};

/// E2 — Figure 7, quality panel: F-measure vs #events for each SI
/// method, with and without alignment/refinement.
fn e2(scale: &Scale, seed: u64) -> Table {
    let mut table = Table::new(["events", "SI method", "SI F1", "SA F1", "SA NMI", "SA+refine F1"]);
    for &n in &scale.e2_sizes {
        let corpus = corpus_fixed_period(n, 10, seed ^ 11);
        for (name, cfg) in [
            ("temporal", PivotConfig::temporal(OMEGA)),
            ("complete", PivotConfig::complete()),
        ] {
            let base = run(&corpus, cfg.clone(), RunOptions::default());
            // NMI over the same aligned clustering (extra metric beside
            // the paper's F-measure).
            let mut pivot = ingest_all(&corpus, cfg.clone());
            pivot.align();
            let (pred, truth) = storypivot_eval::run::alignment_clusterings(&pivot, &corpus);
            let nmi = storypivot_eval::nmi(&pred, &truth);
            let refined = run(
                &corpus,
                cfg,
                RunOptions {
                    refine: true,
                    ..RunOptions::default()
                },
            );
            table.row([
                corpus.len().to_string(),
                name.to_string(),
                f3(base.si_f1()),
                f3(base.sa_f1()),
                f3(nmi),
                f3(refined.sa_f1()),
            ]);
        }
    }
    table
}
