//! Shared fixtures for the experiment harness.
//!
//! Every experiment of the `harness` binary (see `DESIGN.md` §4) draws
//! its corpus from here. The harness reproduces the paper's figures and
//! is gated on its counts (`data/expected-counts.txt`); clocks are
//! `benchmark/`'s job.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use storypivot_core::config::PivotConfig;
use storypivot_core::pivot::StoryPivot;
use storypivot_gen::{Corpus, CorpusBuilder, GenConfig};
use storypivot_types::DAY;

/// The default identification window ω used across experiments.
pub const OMEGA: i64 = 14 * DAY;

/// A Figure-7-style corpus: fixed six-month period (Jun–Dec 2014 as in
/// the paper), 500 entities, story count scaled to hit `target`
/// snippets. Density grows with `target`.
pub fn corpus_fixed_period(target: usize, sources: u32, seed: u64) -> Corpus {
    CorpusBuilder::new(
        GenConfig::default()
            .with_sources(sources)
            .with_seed(seed)
            .with_target_snippets(target),
    )
    .build()
}

/// A constant-density corpus: the observation period grows with the
/// snippet budget, so the event rate (and thus the temporal window
/// population) stays constant. This isolates the E1 claim — temporal
/// identification cost is bounded by the window, complete cost grows
/// with everything seen so far.
pub fn corpus_constant_density(target: usize, sources: u32, seed: u64) -> Corpus {
    // Default config yields ~8k snippets over 183 days; hold that rate.
    let days = ((183.0 * target as f64 / 8_000.0) as i64).max(60);
    let mut cfg = GenConfig::default()
        .with_sources(sources)
        .with_seed(seed)
        .with_target_snippets(target);
    cfg.duration_days = days;
    CorpusBuilder::new(cfg).build()
}

/// Build a pivot pre-registered with the corpus' sources.
pub fn pivot_for(corpus: &Corpus, config: PivotConfig) -> StoryPivot {
    let mut pivot = StoryPivot::new(config);
    for src in &corpus.sources {
        let id = pivot.add_source_with_lag(src.name.clone(), src.kind, src.typical_lag);
        assert_eq!(id, src.id);
    }
    pivot
}

/// Ingest the full corpus (delivery order) into a fresh pivot.
pub fn ingest_all(corpus: &Corpus, config: PivotConfig) -> StoryPivot {
    let mut pivot = pivot_for(corpus, config);
    for s in &corpus.snippets {
        pivot.ingest(s.clone()).expect("valid corpus snippet");
    }
    pivot
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build() {
        let c = corpus_fixed_period(400, 4, 1);
        assert!(c.len() > 100);
        let d = corpus_constant_density(400, 4, 1);
        assert!(d.config.duration_days >= 60);
        let pivot = ingest_all(&c, PivotConfig::default());
        assert!(pivot.story_count() > 0);
    }
}
