//! The dynamic ingestion pipeline (paper §2.4).
//!
//! Snippets "are generated dynamically every time a news document is
//! published online", arrive out of temporal order, and sources come and
//! go. [`DynamicPivot`] wraps a [`StoryPivot`] with an online policy:
//! every ingested snippet is identified immediately, and incremental
//! re-alignment (plus optional refinement) runs automatically once
//! enough stories are dirty — keeping global stories fresh without
//! paying full alignment per event.

use storypivot_types::{Result, Snippet, StoryId};

use crate::config::PivotConfig;
use crate::pivot::StoryPivot;

/// Policy of the dynamic pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelinePolicy {
    /// Re-align after this many ingested snippets (0 = only on
    /// [`DynamicPivot::flush`]).
    pub align_every: usize,
    /// Additionally re-align whenever *event time* advances by this many
    /// seconds past the last alignment (repositories like GDELT publish
    /// on fixed intervals, §1 — e.g. pass one [`storypivot_types::DAY`]
    /// to re-align at day boundaries). `None` disables.
    pub align_every_event_secs: Option<i64>,
    /// Run a refinement pass after every automatic re-alignment.
    pub refine_on_align: bool,
}

impl Default for PipelinePolicy {
    fn default() -> Self {
        PipelinePolicy {
            align_every: 256,
            align_every_event_secs: None,
            refine_on_align: false,
        }
    }
}

/// A [`StoryPivot`] with automatic incremental alignment.
#[derive(Debug, Clone)]
pub struct DynamicPivot {
    pivot: StoryPivot,
    policy: PipelinePolicy,
    since_align: usize,
    auto_aligns: usize,
    max_event_time: Option<storypivot_types::Timestamp>,
    last_align_event_time: Option<storypivot_types::Timestamp>,
}

impl DynamicPivot {
    /// Build a dynamic pipeline.
    pub fn new(config: PivotConfig, policy: PipelinePolicy) -> Self {
        DynamicPivot {
            pivot: StoryPivot::new(config),
            policy,
            since_align: 0,
            auto_aligns: 0,
            max_event_time: None,
            last_align_event_time: None,
        }
    }

    /// The wrapped engine (read access).
    pub fn pivot(&self) -> &StoryPivot {
        &self.pivot
    }

    /// The wrapped engine (write access — manual operations like source
    /// management go through here).
    pub fn pivot_mut(&mut self) -> &mut StoryPivot {
        &mut self.pivot
    }

    /// The active policy.
    pub fn policy(&self) -> PipelinePolicy {
        self.policy
    }

    /// How many automatic alignment passes have run.
    pub fn auto_align_count(&self) -> usize {
        self.auto_aligns
    }

    /// Ingest one snippet; runs incremental alignment when the policy
    /// says it is due (count-based, event-time-based, or both). Returns
    /// the per-source story the snippet joined.
    pub fn ingest(&mut self, snippet: Snippet) -> Result<StoryId> {
        let at = snippet.timestamp;
        let story = self.pivot.ingest(snippet)?;
        self.since_align += 1;
        self.max_event_time = Some(self.max_event_time.map_or(at, |m| m.max(at)));
        let count_due =
            self.policy.align_every > 0 && self.since_align >= self.policy.align_every;
        let time_due = match (self.policy.align_every_event_secs, self.max_event_time) {
            (Some(step), Some(now)) => match self.last_align_event_time {
                Some(last) => now - last >= step,
                None => false, // first alignment anchors the clock
            },
            _ => false,
        };
        if count_due || time_due {
            self.align_now();
        } else if self.last_align_event_time.is_none() && self.policy.align_every_event_secs.is_some() {
            // Anchor the event-time clock at the first snippet.
            self.last_align_event_time = self.max_event_time;
        }
        Ok(story)
    }

    /// Force an alignment (and refinement, per policy) now.
    pub fn align_now(&mut self) {
        self.pivot.align_incremental();
        if self.policy.refine_on_align {
            self.pivot.refine();
        }
        self.auto_aligns += 1;
        self.aligned();
    }

    /// Flush: align + refine regardless of policy, returning the number
    /// of refinement moves. Call before reading final results.
    pub fn flush(&mut self) -> usize {
        self.pivot.align_incremental();
        let report = self.pivot.refine();
        self.aligned();
        report.move_count()
    }

    /// Restart both alignment clocks: everything ingested so far is
    /// aligned, by count and by event time.
    fn aligned(&mut self) {
        self.since_align = 0;
        self.last_align_event_time = self.max_event_time;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use storypivot_types::{EntityId, SourceKind, TermId, Timestamp, DAY};

    fn make(align_every: usize) -> DynamicPivot {
        DynamicPivot::new(
            PivotConfig::default(),
            PipelinePolicy {
                align_every,
                ..PipelinePolicy::default()
            },
        )
    }

    fn snippet(dp: &mut DynamicPivot, source: storypivot_types::SourceId, day: i64, e: u32) -> Snippet {
        let id = dp.pivot_mut().fresh_snippet_id();
        Snippet::builder(id, source, Timestamp::from_secs(day * DAY))
            .entity(EntityId::new(e), 1.0)
            .entity(EntityId::new(e + 1), 1.0)
            .term(TermId::new(e), 1.0)
            .build()
    }

    #[test]
    fn auto_alignment_fires_on_schedule() {
        let mut dp = make(4);
        let a = dp.pivot_mut().add_source("a", SourceKind::Newspaper);
        for day in 0..8 {
            let s = snippet(&mut dp, a, day, 1);
            dp.ingest(s).unwrap();
        }
        assert_eq!(dp.auto_align_count(), 2);
        assert!(!dp.pivot().global_stories().is_empty());
    }

    #[test]
    fn zero_schedule_never_auto_aligns() {
        let mut dp = make(0);
        let a = dp.pivot_mut().add_source("a", SourceKind::Newspaper);
        for day in 0..10 {
            let s = snippet(&mut dp, a, day, 1);
            dp.ingest(s).unwrap();
        }
        assert_eq!(dp.auto_align_count(), 0);
        assert!(dp.pivot().global_stories().is_empty());
        dp.flush();
        assert!(!dp.pivot().global_stories().is_empty());
    }

    #[test]
    fn out_of_order_stream_converges_to_batch_result() {
        // Ingest the same logical stream in order and shuffled; after a
        // flush both must produce the same snippet partition.
        let run = |order: &[usize]| {
            let mut dp = make(3);
            let a = dp.pivot_mut().add_source("a", SourceKind::Newspaper);
            let b = dp.pivot_mut().add_source("b", SourceKind::Newspaper);
            // Build the stream deterministically: 2 stories × 2 sources × 5 days.
            let mut stream = Vec::new();
            for day in 0..5i64 {
                for (src, e) in [(a, 1u32), (a, 50), (b, 1), (b, 50)] {
                    stream.push((src, day, e));
                }
            }
            let mut dpx = dp;
            for &i in order {
                let (src, day, e) = stream[i];
                let id = dpx.pivot_mut().fresh_snippet_id();
                let s = Snippet::builder(id, src, Timestamp::from_secs(day * DAY))
                    .entity(EntityId::new(e), 1.0)
                    .entity(EntityId::new(e + 1), 1.0)
                    .term(TermId::new(e), 1.0)
                    .build();
                dpx.ingest(s).unwrap();
            }
            dpx.flush();
            // Partition as sets of (source, entity-signature) member keys,
            // ignoring snippet ids (which differ between orders).
            let mut partition: Vec<Vec<(u32, i64, u32)>> = dpx
                .pivot()
                .global_stories()
                .iter()
                .map(|g| {
                    let mut v: Vec<(u32, i64, u32)> = g
                        .members
                        .iter()
                        .map(|&(m, _)| {
                            let sn = dpx.pivot().store().get(m).unwrap();
                            let e = sn.entities().keys().next().unwrap().raw();
                            (sn.source.raw(), sn.timestamp.secs(), e)
                        })
                        .collect();
                    v.sort_unstable();
                    v
                })
                .collect();
            partition.sort();
            partition
        };

        let in_order: Vec<usize> = (0..20).collect();
        // A fixed "late local coverage" shuffle: reverse within days.
        let mut shuffled: Vec<usize> = Vec::new();
        for chunk in (0..20).collect::<Vec<_>>().chunks(4) {
            let mut c = chunk.to_vec();
            c.reverse();
            shuffled.extend(c);
        }
        assert_eq!(run(&in_order), run(&shuffled));
    }
}

#[cfg(test)]
mod event_time_policy_tests {
    use super::*;
    use storypivot_types::{EntityId, SourceKind, TermId, Timestamp, DAY};

    #[test]
    fn event_time_policy_aligns_at_day_boundaries() {
        let mut dp = DynamicPivot::new(
            crate::config::PivotConfig::default(),
            PipelinePolicy {
                align_every: 0, // count-based off
                align_every_event_secs: Some(2 * DAY),
                refine_on_align: false,
            },
        );
        let a = dp.pivot_mut().add_source("a", SourceKind::Newspaper);
        for day in 0..9i64 {
            let id = dp.pivot_mut().fresh_snippet_id();
            let s = Snippet::builder(id, a, Timestamp::from_secs(day * DAY))
                .entity(EntityId::new(1), 1.0)
                .term(TermId::new(1), 1.0)
                .build();
            dp.ingest(s).unwrap();
        }
        // Event time advanced 8 days past the anchor with a 2-day step:
        // roughly one alignment per 2 days.
        assert!(
            (3..=5).contains(&dp.auto_align_count()),
            "got {} auto alignments",
            dp.auto_align_count()
        );
        assert!(!dp.pivot().global_stories().is_empty());
    }

    #[test]
    fn out_of_order_events_do_not_rewind_the_clock() {
        let mut dp = DynamicPivot::new(
            crate::config::PivotConfig::default(),
            PipelinePolicy {
                align_every: 0,
                align_every_event_secs: Some(10 * DAY),
                refine_on_align: false,
            },
        );
        let a = dp.pivot_mut().add_source("a", SourceKind::Newspaper);
        // Day 0 anchors; a late day-1 arrival after day 5 must not
        // trigger (5-1 < 10) nor rewind the max-seen clock.
        for day in [0i64, 5, 1, 6] {
            let id = dp.pivot_mut().fresh_snippet_id();
            let s = Snippet::builder(id, a, Timestamp::from_secs(day * DAY))
                .entity(EntityId::new(1), 1.0)
                .build();
            dp.ingest(s).unwrap();
        }
        assert_eq!(dp.auto_align_count(), 0);
    }

    #[test]
    fn flush_restarts_the_event_time_clock() {
        let mut dp = DynamicPivot::new(
            crate::config::PivotConfig::default(),
            PipelinePolicy {
                align_every: 0,
                align_every_event_secs: Some(3 * DAY),
                refine_on_align: false,
            },
        );
        let a = dp.pivot_mut().add_source("a", SourceKind::Newspaper);
        let ingest_day = |dp: &mut DynamicPivot, day: i64| {
            let id = dp.pivot_mut().fresh_snippet_id();
            let s = Snippet::builder(id, a, Timestamp::from_secs(day * DAY))
                .entity(EntityId::new(1), 1.0)
                .build();
            dp.ingest(s).unwrap();
        };
        // Day 0 anchors, day 2 is inside the step; the flush aligns at
        // day 2, so day 3 is one day past the last alignment, not three
        // past the anchor.
        ingest_day(&mut dp, 0);
        ingest_day(&mut dp, 2);
        dp.flush();
        ingest_day(&mut dp, 3);
        assert_eq!(dp.auto_align_count(), 0);
        ingest_day(&mut dp, 5);
        assert_eq!(dp.auto_align_count(), 1);
    }
}

#[cfg(test)]
mod policy_tests {
    use super::*;
    use storypivot_types::{EntityId, SourceKind, TermId, Timestamp, DAY};

    #[test]
    fn refine_on_align_policy_runs_refinement() {
        let mut dp = DynamicPivot::new(
            crate::config::PivotConfig::default(),
            PipelinePolicy {
                align_every: 5,
                refine_on_align: true,
                ..PipelinePolicy::default()
            },
        );
        let a = dp.pivot_mut().add_source("a", SourceKind::Newspaper);
        let b = dp.pivot_mut().add_source("b", SourceKind::Newspaper);
        for day in 0..10i64 {
            for src in [a, b] {
                let id = dp.pivot_mut().fresh_snippet_id();
                let s = storypivot_types::Snippet::builder(id, src, Timestamp::from_secs(day * DAY))
                    .entity(EntityId::new(1), 1.0)
                    .entity(EntityId::new(2), 1.0)
                    .term(TermId::new(1), 1.0)
                    .build();
                dp.ingest(s).unwrap();
            }
        }
        assert!(dp.auto_align_count() >= 3);
        // Alignment (and thus refinement) has run: results are available
        // without an explicit flush.
        assert!(!dp.pivot().global_stories().is_empty());
        dp.pivot().check_invariants().unwrap();
    }
}
