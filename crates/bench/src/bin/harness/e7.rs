use storypivot_bench::{corpus_fixed_period, ingest_all, OMEGA};
use storypivot_core::config::PivotConfig;
use storypivot_eval::run::alignment_scores;
use storypivot_eval::Table;
use storypivot_substrate::rng::{RngExt, StdRng};
use storypivot_types::SnippetId;

use super::{f3, Experiment, Scale};

pub(super) const EXPERIMENT: Experiment = Experiment {
    name: "e7",
    alias: None,
    title: "E7 — refinement corrects injected SI errors (§2.3, Fig 1d)",
    run: e7,
};

/// E7 — refinement error-correction: inject identification errors, then
/// measure how many the alignment+refinement loop repairs (Fig 1d).
fn e7(scale: &Scale, seed: u64) -> Table {
    let corpus = corpus_fixed_period(scale.mid / 2, 6, seed ^ 29);
    let mut table = Table::new([
        "injected",
        "SA F1 clean",
        "SA F1 corrupted",
        "SA F1 refined",
        "restored",
    ]);
    for rate in [0.05f64, 0.10, 0.20] {
        let mut pivot = ingest_all(&corpus, PivotConfig::temporal(OMEGA));
        pivot.align();
        let clean = alignment_scores(&pivot, &corpus).f1;

        // Inject: move a random sample of snippets into a random other
        // story of their source.
        let mut rng = StdRng::seed_from_u64(seed ^ (1000 + (rate * 100.0) as u64));
        let mut injected: Vec<(SnippetId, storypivot_types::StoryId)> = Vec::new();
        for s in &corpus.snippets {
            if !rng.random_bool(rate) {
                continue;
            }
            let Some(original) = pivot.story_of(s.id) else { continue };
            let others: Vec<_> = pivot
                .stories_of_source(s.source)
                .iter()
                .map(|st| st.id())
                .filter(|&id| id != original)
                .collect();
            if others.is_empty() {
                continue;
            }
            let target = others[rng.random_range(0..others.len())];
            pivot.reassign_snippet(s.id, target).unwrap();
            injected.push((s.id, original));
        }
        pivot.align_incremental();
        let corrupted = alignment_scores(&pivot, &corpus).f1;

        pivot.refine();
        let refined = alignment_scores(&pivot, &corpus).f1;
        let restored = injected
            .iter()
            .filter(|&&(id, original)| pivot.story_of(id) == Some(original))
            .count();
        table.row([
            format!("{:.0}% ({})", rate * 100.0, injected.len()),
            f3(clean),
            f3(corrupted),
            f3(refined),
            format!("{restored}/{}", injected.len()),
        ]);
    }
    table
}
