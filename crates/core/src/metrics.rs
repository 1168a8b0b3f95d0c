//! Pre-registered engine metric handles.
//!
//! [`EngineMetrics`] bundles every counter and duration histogram the
//! engine records on its hot paths — identification, alignment,
//! refinement, maintenance, checkpointing — as cheap detached handles
//! from a [`storypivot_substrate::metrics::Registry`]. The default is
//! fully detached (every operation is a no-op costing one `None`
//! branch), so the engine pays for observability only when a registry
//! is attached via [`crate::pivot::StoryPivot::set_metrics`].
//!
//! Counter semantics are shard-invariant: every name here counts
//! per-source work, so summing the registries of N shard engines
//! yields exactly the values one unsharded engine would report on the
//! same corpus. The serving layer's `METRICS` opcode relies on this
//! when it merges per-shard snapshots into one exposition.

use storypivot_substrate::metrics::{Counter, HistogramMetric, Registry};

/// Handles for every engine-side metric family (see module docs).
#[derive(Clone, Default)]
pub struct EngineMetrics {
    /// `storypivot_ingest_total` — snippets ingested.
    pub ingest_total: Counter,
    /// `storypivot_identify_compared_total` — candidate snippet
    /// comparisons performed (the candidate-scan width of E1).
    pub identify_compared_total: Counter,
    /// `storypivot_identify_assigned_total` — snippets that joined an
    /// existing story.
    pub identify_assigned_total: Counter,
    /// `storypivot_identify_new_story_total` — snippets that opened a
    /// new story.
    pub identify_new_story_total: Counter,
    /// `storypivot_identify_merge_total` — stories absorbed by merge
    /// evidence.
    pub identify_merge_total: Counter,
    /// `storypivot_identify_split_total` — stories split by the
    /// maintenance pass.
    pub identify_split_total: Counter,
    /// `storypivot_story_cache_hits_total` — hot-story-cache hits
    /// (candidate stories whose windowed fold was reused or extended).
    pub story_cache_hits_total: Counter,
    /// `storypivot_story_cache_misses_total` — hot-story-cache misses
    /// (candidate stories folded from scratch).
    pub story_cache_misses_total: Counter,
    /// `storypivot_maintenance_runs_total` — merge/split maintenance
    /// passes executed.
    pub maintenance_runs_total: Counter,
    /// `storypivot_maintenance_stories_checked_total` — stories whose
    /// member graph a maintenance pass examined (only those changed
    /// since a pass last found them connected).
    pub maintenance_stories_checked_total: Counter,
    /// `storypivot_maintenance_pairs_scored_total` — snippet-pair
    /// similarities maintenance passes evaluated.
    pub maintenance_pairs_scored_total: Counter,
    /// `storypivot_align_runs_total` — alignment passes (full or
    /// incremental).
    pub align_runs_total: Counter,
    /// `storypivot_align_pairs_total` — candidate story pairs scored.
    pub align_pairs_total: Counter,
    /// `storypivot_refine_moves_total` — snippets moved by refinement.
    pub refine_moves_total: Counter,
    /// `storypivot_refine_rounds_total` — refinement rounds executed.
    pub refine_rounds_total: Counter,
    /// `storypivot_refine_pairs_scored_total` — snippet-pair similarity
    /// scorings performed by refinement sweeps.
    pub refine_pairs_scored_total: Counter,
    /// `storypivot_refine_cohesion_cache_hits_total` — `(snippet, global
    /// story)` cohesions a sweep reused because the story's member list
    /// had not changed since the snippet was last judged against it.
    pub refine_cohesion_cache_hits_total: Counter,
    /// `storypivot_refine_cohesion_cache_misses_total` — `(snippet,
    /// global story)` cohesions a sweep had to score.
    pub refine_cohesion_cache_misses_total: Counter,
    /// `storypivot_refine_cohesion_extended_total` — the misses among
    /// them answered from the snippet's cohesion with the story's
    /// previous member list, by scoring only the members the story
    /// gained.
    pub refine_cohesion_extended_total: Counter,
    /// `storypivot_refine_probes_reused_total` — snippets whose
    /// alternative stories a sweep carried over from the previous one
    /// because nothing sharing an entity with them had moved.
    pub refine_probes_reused_total: Counter,
    /// `storypivot_identify_duration_ns` — per-snippet identification
    /// time.
    pub identify_duration: HistogramMetric,
    /// `storypivot_align_duration_ns` — per-pass alignment time.
    pub align_duration: HistogramMetric,
    /// `storypivot_refine_duration_ns` — per-call refinement time
    /// (includes the re-alignments it triggers).
    pub refine_duration: HistogramMetric,
    /// `storypivot_checkpoint_save_duration_ns` — checkpoint
    /// serialization time.
    pub checkpoint_save_duration: HistogramMetric,
    /// `storypivot_checkpoint_load_duration_ns` — checkpoint
    /// deserialization time.
    pub checkpoint_load_duration: HistogramMetric,
}

impl std::fmt::Debug for EngineMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineMetrics").finish_non_exhaustive()
    }
}

impl EngineMetrics {
    /// Register every engine family in `registry` and return live
    /// handles (no-op handles when the registry is disabled).
    pub fn register(registry: &Registry) -> Self {
        EngineMetrics {
            ingest_total: registry
                .counter("storypivot_ingest_total", "Snippets ingested."),
            identify_compared_total: registry.counter(
                "storypivot_identify_compared_total",
                "Candidate snippet comparisons performed during identification.",
            ),
            identify_assigned_total: registry.counter(
                "storypivot_identify_assigned_total",
                "Snippets assigned to an existing story.",
            ),
            identify_new_story_total: registry.counter(
                "storypivot_identify_new_story_total",
                "Snippets that opened a new story.",
            ),
            identify_merge_total: registry.counter(
                "storypivot_identify_merge_total",
                "Stories absorbed into another story by merge evidence.",
            ),
            identify_split_total: registry.counter(
                "storypivot_identify_split_total",
                "Stories split into fragments by the maintenance pass.",
            ),
            story_cache_hits_total: registry.counter(
                "storypivot_story_cache_hits_total",
                "Hot-story-cache hits during identification scoring.",
            ),
            story_cache_misses_total: registry.counter(
                "storypivot_story_cache_misses_total",
                "Hot-story-cache misses during identification scoring.",
            ),
            maintenance_runs_total: registry.counter(
                "storypivot_maintenance_runs_total",
                "Merge/split maintenance passes executed.",
            ),
            maintenance_stories_checked_total: registry.counter(
                "storypivot_maintenance_stories_checked_total",
                "Stories whose member graph a maintenance pass examined.",
            ),
            maintenance_pairs_scored_total: registry.counter(
                "storypivot_maintenance_pairs_scored_total",
                "Snippet-pair similarities evaluated by maintenance passes.",
            ),
            align_runs_total: registry.counter(
                "storypivot_align_runs_total",
                "Alignment passes executed (full or incremental).",
            ),
            align_pairs_total: registry.counter(
                "storypivot_align_pairs_total",
                "Candidate story pairs scored by the aligner.",
            ),
            refine_moves_total: registry.counter(
                "storypivot_refine_moves_total",
                "Snippets moved between stories by refinement.",
            ),
            refine_rounds_total: registry.counter(
                "storypivot_refine_rounds_total",
                "Refinement rounds executed.",
            ),
            refine_pairs_scored_total: registry.counter(
                "storypivot_refine_pairs_scored_total",
                "Snippet-pair similarity scorings performed by refinement sweeps.",
            ),
            refine_cohesion_cache_hits_total: registry.counter(
                "storypivot_refine_cohesion_cache_hits_total",
                "Snippet-story cohesions reused from the refiner's version-keyed cache.",
            ),
            refine_cohesion_cache_misses_total: registry.counter(
                "storypivot_refine_cohesion_cache_misses_total",
                "Snippet-story cohesions the refiner had to score.",
            ),
            refine_cohesion_extended_total: registry.counter(
                "storypivot_refine_cohesion_extended_total",
                "Cohesion cache misses answered by scoring only the members a story gained.",
            ),
            refine_probes_reused_total: registry.counter(
                "storypivot_refine_probes_reused_total",
                "Snippets whose alternative stories were carried over from the previous sweep.",
            ),
            identify_duration: registry.histogram(
                "storypivot_identify_duration_ns",
                "Per-snippet identification time in nanoseconds.",
            ),
            align_duration: registry.histogram(
                "storypivot_align_duration_ns",
                "Per-pass alignment time in nanoseconds.",
            ),
            refine_duration: registry.histogram(
                "storypivot_refine_duration_ns",
                "Per-call refinement time in nanoseconds.",
            ),
            checkpoint_save_duration: registry.histogram(
                "storypivot_checkpoint_save_duration_ns",
                "Checkpoint serialization time in nanoseconds.",
            ),
            checkpoint_load_duration: registry.histogram(
                "storypivot_checkpoint_load_duration_ns",
                "Checkpoint deserialization time in nanoseconds.",
            ),
        }
    }
}

/// Export a memory account
/// ([`crate::pivot::StoryPivot::memory_account`]) to `registry` as
/// `storypivot_mem_bytes{structure=…}`, one gauge per named part. Like
/// every name here the parts are per-source or per-engine sums, so the
/// shard registries add up.
pub fn record_memory(registry: &Registry, account: &[(&'static str, usize)]) {
    for &(structure, bytes) in account {
        registry
            .gauge_with(
                "storypivot_mem_bytes",
                "Heap bytes held by one part of the engine, computed from its collections.",
                &[("structure", structure)],
            )
            .set(bytes as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_handles_are_detached() {
        let m = EngineMetrics::default();
        m.ingest_total.inc();
        assert_eq!(m.ingest_total.get(), 0);
        m.identify_duration.record(5);
        assert_eq!(m.identify_duration.count(), 0);
    }

    #[test]
    fn registered_handles_share_the_registry() {
        let registry = Registry::new();
        let a = EngineMetrics::register(&registry);
        let b = EngineMetrics::register(&registry);
        a.ingest_total.add(2);
        b.ingest_total.inc();
        assert_eq!(a.ingest_total.get(), 3);
        let text = registry.render();
        assert!(text.contains("storypivot_ingest_total 3"));
    }
}
