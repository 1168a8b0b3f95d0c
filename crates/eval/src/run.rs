//! The experiment runner: a corpus + a configuration → timing and
//! quality numbers (the two panels of the paper's Figure 7).

use std::time::Instant;

use storypivot_core::config::PivotConfig;
use storypivot_core::pivot::StoryPivot;
use storypivot_gen::Corpus;
use storypivot_types::SourceId;

use crate::metrics::{pairwise_counts, Clustering, PairCounts, Scores};

/// What to run and measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOptions {
    /// Run story alignment after identification.
    pub align: bool,
    /// Run story refinement after alignment.
    pub refine: bool,
    /// Feed snippets in delivery order (`true`, realistic out-of-order
    /// stream) or re-sorted by event time (`false`).
    pub delivery_order: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            align: true,
            refine: false,
            delivery_order: true,
        }
    }
}

/// Measurements from one experiment run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Number of ingested snippets.
    pub snippets: usize,
    /// Total identification (ingest) wall time in nanoseconds.
    pub ingest_nanos: u64,
    /// Mean per-event identification time in nanoseconds — the paper's
    /// "Execution Time" axis.
    pub per_event_nanos: f64,
    /// Median per-event identification time in nanoseconds.
    pub p50_nanos: u64,
    /// 95th-percentile per-event identification time in nanoseconds
    /// (tail latency matters for the near-real-time integration goal of
    /// §2.4).
    pub p95_nanos: u64,
    /// Alignment wall time in nanoseconds (0 when not run).
    pub align_nanos: u64,
    /// Refinement wall time in nanoseconds (0 when not run).
    pub refine_nanos: u64,
    /// Total snippet comparisons performed during identification.
    pub comparisons: u64,
    /// Number of per-source stories identified.
    pub stories: usize,
    /// Number of integrated global stories (0 when alignment not run).
    pub global_stories: usize,
    /// Identification quality: micro-averaged per-source pairwise
    /// scores against the ground truth.
    pub si_scores: Scores,
    /// Alignment quality: pairwise scores of the global clustering
    /// against the ground truth (None when alignment not run).
    pub sa_scores: Option<Scores>,
    /// Refinement moves applied (0 when refinement not run).
    pub refine_moves: usize,
}

impl RunResult {
    /// Identification F-measure (Figure 7, "SI method" series).
    pub fn si_f1(&self) -> f64 {
        self.si_scores.f1
    }

    /// Alignment F-measure (Figure 7, "SA method" series).
    pub fn sa_f1(&self) -> f64 {
        self.sa_scores.map(|s| s.f1).unwrap_or(0.0)
    }
}

/// Run one experiment: build a pivot with `config`, stream the corpus
/// through it, optionally align and refine, and score against ground
/// truth.
pub fn run(corpus: &Corpus, config: PivotConfig, opts: RunOptions) -> RunResult {
    let mut pivot = StoryPivot::new(config);
    for src in &corpus.sources {
        let id = pivot.add_source_with_lag(src.name.clone(), src.kind, src.typical_lag);
        assert_eq!(id, src.id, "corpus sources must be dense from 0");
    }

    let stream = if opts.delivery_order {
        corpus.snippets.clone()
    } else {
        corpus.snippets_by_event_time()
    };

    // ---- identification ------------------------------------------------
    let mut comparisons = 0u64;
    let mut per_event: Vec<u64> = Vec::with_capacity(stream.len());
    let start = Instant::now();
    for s in stream {
        let t = Instant::now();
        let d = pivot.ingest_detailed(s).expect("corpus snippets are valid");
        per_event.push(t.elapsed().as_nanos() as u64);
        comparisons += d.compared as u64;
    }
    let ingest_nanos = start.elapsed().as_nanos() as u64;
    let snippets = corpus.len();
    per_event.sort_unstable();

    // ---- alignment / refinement -----------------------------------------
    let mut align_nanos = 0u64;
    let mut refine_nanos = 0u64;
    let mut refine_moves = 0usize;
    if opts.align {
        let t = Instant::now();
        pivot.align();
        align_nanos = t.elapsed().as_nanos() as u64;
        if opts.refine {
            let t = Instant::now();
            let report = pivot.refine();
            refine_nanos = t.elapsed().as_nanos() as u64;
            refine_moves = report.move_count();
        }
    }

    // ---- quality ------------------------------------------------------------
    let si_scores = identification_scores(&pivot, corpus);
    let sa_scores = if opts.align {
        Some(alignment_scores(&pivot, corpus))
    } else {
        None
    };

    RunResult {
        snippets,
        ingest_nanos,
        per_event_nanos: if snippets > 0 {
            ingest_nanos as f64 / snippets as f64
        } else {
            0.0
        },
        p50_nanos: nearest_rank(&per_event, 0.5),
        p95_nanos: nearest_rank(&per_event, 0.95),
        align_nanos,
        refine_nanos,
        comparisons,
        stories: pivot.story_count(),
        global_stories: pivot.global_stories().len(),
        si_scores,
        sa_scores,
        refine_moves,
    }
}

/// The `q`-quantile (0 ≤ q ≤ 1) of ascending `sorted` samples by
/// nearest rank; 0 when there are none.
fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[(q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64).round() as usize]
}

/// Micro-averaged per-source identification quality: within each source,
/// the predicted story partition is compared against the ground truth
/// restricted to that source; pair counts sum across sources.
pub fn identification_scores(pivot: &StoryPivot, corpus: &Corpus) -> Scores {
    let mut total = PairCounts::default();
    for src in &corpus.sources {
        total.add(identification_counts_for(pivot, corpus, src.id));
    }
    total.scores()
}

fn identification_counts_for(pivot: &StoryPivot, corpus: &Corpus, source: SourceId) -> PairCounts {
    let mut pred = Clustering::new();
    let mut truth = Clustering::new();
    for s in &corpus.snippets {
        if s.source != source {
            continue;
        }
        // Snippets removed mid-run (none in the standard harness) simply
        // drop out of the evaluation.
        let Some(story) = pivot.story_of(s.id) else { continue };
        let Some(label) = corpus.truth.label_of(s.id) else { continue };
        pred.assign(s.id.raw() as u64, story.raw() as u64);
        truth.assign(s.id.raw() as u64, label as u64);
    }
    pairwise_counts(&pred, &truth)
}

/// The predicted and reference clusterings used by
/// [`alignment_scores`] — exposed so callers can compute additional
/// metrics (NMI, B-Cubed, ARI, purity) on the same data.
pub fn alignment_clusterings(pivot: &StoryPivot, corpus: &Corpus) -> (Clustering, Clustering) {
    let mut pred = Clustering::new();
    let mut truth = Clustering::new();
    for s in &corpus.snippets {
        let Some(g) = pivot.global_of(s.id) else { continue };
        let Some(label) = corpus.truth.label_of(s.id) else { continue };
        pred.assign(s.id.raw() as u64, g.raw() as u64);
        truth.assign(s.id.raw() as u64, label as u64);
    }
    (pred, truth)
}

/// Alignment quality: the global story partition over *all* snippets
/// against the (cross-source) ground truth.
pub fn alignment_scores(pivot: &StoryPivot, corpus: &Corpus) -> Scores {
    let mut pred = Clustering::new();
    let mut truth = Clustering::new();
    for s in &corpus.snippets {
        let Some(g) = pivot.global_of(s.id) else { continue };
        let Some(label) = corpus.truth.label_of(s.id) else { continue };
        pred.assign(s.id.raw() as u64, g.raw() as u64);
        truth.assign(s.id.raw() as u64, label as u64);
    }
    pairwise_counts(&pred, &truth).scores()
}

#[cfg(test)]
mod tests {
    use super::*;
    use storypivot_gen::{CorpusBuilder, GenConfig};
    use storypivot_types::DAY;

    fn corpus() -> Corpus {
        CorpusBuilder::new(GenConfig {
            sources: 4,
            entities: 120,
            terms: 400,
            stories: 10,
            events_per_story: 8.0,
            ..GenConfig::default()
        })
        .build()
    }

    #[test]
    fn nearest_rank_picks_a_sample_and_is_calm_when_empty() {
        let sorted = [1, 2, 3, 4, 100];
        assert_eq!(nearest_rank(&sorted, 0.0), 1);
        assert_eq!(nearest_rank(&sorted, 0.5), 3);
        assert_eq!(nearest_rank(&sorted, 0.95), 100);
        assert_eq!(nearest_rank(&sorted, 1.0), 100);
        assert_eq!(nearest_rank(&[], 0.95), 0);
    }

    #[test]
    fn temporal_run_produces_sensible_numbers() {
        let c = corpus();
        let r = run(&c, PivotConfig::temporal(14 * DAY), RunOptions::default());
        assert_eq!(r.snippets, c.len());
        assert!(r.per_event_nanos > 0.0);
        assert!(r.stories > 0);
        assert!(r.global_stories > 0);
        assert!(r.global_stories <= r.stories);
        assert!(r.si_f1() > 0.4, "SI F1 too low: {}", r.si_f1());
        assert!(r.sa_f1() > 0.3, "SA F1 too low: {}", r.sa_f1());
        assert!(r.comparisons > 0);
    }

    #[test]
    fn complete_mode_does_more_comparisons() {
        let c = corpus();
        let temporal = run(&c, PivotConfig::temporal(14 * DAY), RunOptions::default());
        let complete = run(&c, PivotConfig::complete(), RunOptions::default());
        assert!(
            complete.comparisons > temporal.comparisons,
            "complete {} vs temporal {}",
            complete.comparisons,
            temporal.comparisons
        );
    }

    #[test]
    fn skipping_alignment_skips_sa_metrics() {
        let c = corpus();
        let r = run(
            &c,
            PivotConfig::default(),
            RunOptions {
                align: false,
                refine: false,
                delivery_order: true,
            },
        );
        assert!(r.sa_scores.is_none());
        assert_eq!(r.global_stories, 0);
        assert_eq!(r.align_nanos, 0);
    }

    #[test]
    fn refinement_runs_when_requested() {
        let c = corpus();
        let r = run(
            &c,
            PivotConfig::default(),
            RunOptions {
                align: true,
                refine: true,
                delivery_order: true,
            },
        );
        assert!(r.sa_scores.is_some());
        // Moves may be zero on an easy corpus; the pass must at least run.
        assert!(r.refine_nanos > 0);
    }

    #[test]
    fn event_time_order_at_least_matches_delivery_order_quality() {
        let c = corpus();
        let delivery = run(&c, PivotConfig::default(), RunOptions::default());
        let in_order = run(
            &c,
            PivotConfig::default(),
            RunOptions {
                delivery_order: false,
                ..RunOptions::default()
            },
        );
        // In-order ingestion can't be dramatically worse.
        assert!(in_order.si_f1() > delivery.si_f1() - 0.15);
    }
}
