use std::time::Instant;

use storypivot_bench::{corpus_fixed_period, ingest_all, OMEGA};
use storypivot_core::config::PivotConfig;
use storypivot_eval::run::alignment_scores;
use storypivot_eval::Table;
use storypivot_sketch::HashFamily;

use super::{f3, ms, Experiment, Scale};

pub(super) const EXPERIMENT: Experiment = Experiment {
    name: "e4",
    alias: None,
    title: "E4 — sketch vs exact story comparison (§2.4)",
    run: e4,
};

/// E4 — sketch ablation: exact centroid comparison vs MinHash sketches
/// of several sizes during alignment. Signatures are derived inside the
/// alignment pass, so `align ms` includes building them; `sketch build
/// ms` is that share, measured by deriving every story's signature once
/// more beside the pass.
fn e4(scale: &Scale, seed: u64) -> Table {
    let corpus = corpus_fixed_period(scale.mid, 20, seed ^ 17);
    let mut table = Table::new(["comparison"])
        .clocks(["align ms", "sketch build ms"])
        .counts(["pairs scored", "SA F1"]);
    let mut configs = vec![("exact".to_string(), false, 128usize)];
    for k in [32usize, 64, 128, 256] {
        configs.push((format!("minhash k={k}"), true, k));
    }
    for (name, use_sketches, k) in configs {
        let mut cfg = PivotConfig::temporal(OMEGA);
        cfg.align.use_sketches = use_sketches;
        cfg.sketch.minhash_k = k;
        let mut pivot = ingest_all(&corpus, cfg);
        let t = Instant::now();
        let outcome = pivot.align().clone();
        let align_nanos = t.elapsed().as_nanos() as f64;
        let build = if use_sketches {
            let family = HashFamily::new(pivot.config().sketch.seed, k);
            let t = Instant::now();
            for source in pivot.sources() {
                for story in pivot.stories_of_source(source.id) {
                    std::hint::black_box(story.sketch(&family));
                }
            }
            ms(t.elapsed().as_nanos() as f64)
        } else {
            "-".to_string()
        };
        let sa = alignment_scores(&pivot, &corpus);
        table.row([
            name,
            ms(align_nanos),
            build,
            outcome.pairs_scored.to_string(),
            f3(sa.f1),
        ]);
    }
    table
}
