use std::time::Instant;

use storypivot_bench::{corpus_fixed_period, ingest_all, OMEGA};
use storypivot_core::config::PivotConfig;
use storypivot_eval::run::identification_scores;
use storypivot_eval::Table;

use super::{f3, ms, Experiment, Scale};

pub(super) const EXPERIMENT: Experiment = Experiment {
    name: "e9",
    alias: None,
    title: "E9 — document add/remove latency (§4.2.1)",
    run: e9,
};

/// E9 — interactive document add/remove (§4.2.1): incremental update
/// latency vs recomputing from scratch.
fn e9(_scale: &Scale, seed: u64) -> Table {
    let corpus = corpus_fixed_period(1_000, 6, seed ^ 37);
    let mut pivot = ingest_all(&corpus, PivotConfig::temporal(OMEGA));
    pivot.align();
    let si_before = identification_scores(&pivot, &corpus).f1;

    // Remove 20 documents, one by one, measuring incremental updates.
    let mut remove_nanos = Vec::new();
    let docs: Vec<_> = (0..20u32).map(storypivot_types::DocId::new).collect();
    for &d in &docs {
        let t = Instant::now();
        pivot.remove_document(d).unwrap();
        pivot.align_incremental();
        remove_nanos.push(t.elapsed().as_nanos() as f64);
    }
    // Re-add them.
    let mut add_nanos = Vec::new();
    for &d in &docs {
        let snippet = corpus
            .snippets
            .iter()
            .find(|s| s.doc == d)
            .expect("doc exists")
            .clone();
        let t = Instant::now();
        pivot.ingest(snippet).unwrap();
        pivot.align_incremental();
        add_nanos.push(t.elapsed().as_nanos() as f64);
    }
    let si_after = identification_scores(&pivot, &corpus).f1;

    // Full rebuild, for comparison.
    let t = Instant::now();
    let mut fresh = ingest_all(&corpus, PivotConfig::temporal(OMEGA));
    fresh.align();
    let rebuild_nanos = t.elapsed().as_nanos() as f64;

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let mut table = Table::new(["operation"]).clocks(["mean ms"]).counts(["SI F1 impact"]);
    table.row([
        "remove doc + realign (incremental)".to_string(),
        ms(mean(&remove_nanos)),
        "-".into(),
    ]);
    table.row([
        "re-add doc + realign (incremental)".to_string(),
        ms(mean(&add_nanos)),
        format!("{} -> {}", f3(si_before), f3(si_after)),
    ]);
    table.row(["full rebuild + align".to_string(), ms(rebuild_nanos), "-".into()]);
    table
}
