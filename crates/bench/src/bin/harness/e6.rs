use std::time::Instant;

use storypivot_bench::{corpus_fixed_period, pivot_for, OMEGA};
use storypivot_core::config::PivotConfig;
use storypivot_eval::Table;

use super::{ms, Experiment, Scale};

pub(super) const EXPERIMENT: Experiment = Experiment {
    name: "e6",
    alias: None,
    title: "E6 — source onboarding (§2.1)",
    run: e6,
};

/// E6 — incremental source onboarding vs full re-alignment.
fn e6(scale: &Scale, seed: u64) -> Table {
    let corpus = corpus_fixed_period(scale.mid, 12, seed ^ 23);
    let mut table = Table::new(["step"])
        .clocks(["align ms"])
        .counts(["pairs scored", "global stories", "same partition"]);

    // Ingest the first 10 sources, align.
    let cfg = PivotConfig::temporal(OMEGA);
    let mut pivot = pivot_for(&corpus, cfg);
    for s in &corpus.snippets {
        if s.source.raw() < 10 {
            pivot.ingest(s.clone()).unwrap();
        }
    }
    let t = Instant::now();
    pivot.align();
    let base_nanos = t.elapsed().as_nanos() as f64;
    let base_pairs = pivot.alignment().unwrap().pairs_scored;
    table.row([
        "initial (10 sources)".into(),
        ms(base_nanos),
        base_pairs.to_string(),
        pivot.global_stories().len().to_string(),
        "-".into(),
    ]);

    // Onboard sources 10 and 11.
    for s in &corpus.snippets {
        if s.source.raw() >= 10 {
            pivot.ingest(s.clone()).unwrap();
        }
    }
    let mut incremental = pivot.clone();
    let t = Instant::now();
    incremental.align_incremental();
    let inc_nanos = t.elapsed().as_nanos() as f64;
    let inc_pairs = incremental.alignment().unwrap().pairs_scored;

    let mut full = pivot.clone();
    let t = Instant::now();
    full.align();
    let full_nanos = t.elapsed().as_nanos() as f64;
    let full_pairs = full.alignment().unwrap().pairs_scored;

    let partition = |p: &storypivot_core::pivot::StoryPivot| -> Vec<Vec<u32>> {
        let mut v: Vec<Vec<u32>> = p
            .global_stories()
            .iter()
            .map(|g| {
                let mut m: Vec<u32> = g.members.iter().map(|&(id, _)| id.raw()).collect();
                m.sort_unstable();
                m
            })
            .collect();
        v.sort();
        v
    };
    let same = partition(&incremental) == partition(&full);

    table.row([
        "onboard +2 (incremental)".into(),
        ms(inc_nanos),
        inc_pairs.to_string(),
        incremental.global_stories().len().to_string(),
        same.to_string(),
    ]);
    table.row([
        "onboard +2 (full realign)".into(),
        ms(full_nanos),
        full_pairs.to_string(),
        full.global_stories().len().to_string(),
        "-".into(),
    ]);
    table
}
