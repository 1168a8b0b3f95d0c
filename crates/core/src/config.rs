//! Configuration for every StoryPivot phase.

use storypivot_types::{Error, Result, DAY};

use crate::sim::SimWeights;

/// Story identification execution mode (paper Figure 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MatchMode {
    /// Compare an incoming snippet against **all** snippets of all
    /// stories in its source (Figure 2a). The paper's baseline: per-event
    /// cost grows with corpus size and evolving stories get "overfit".
    Complete,
    /// Compare only against snippets whose timestamp lies in the sliding
    /// window `[t-ω, t+ω]` (Figure 2b). `omega` is in seconds.
    Temporal {
        /// Window half-width ω in seconds.
        omega: i64,
    },
}

impl MatchMode {
    /// The window half-width, if temporal.
    pub fn omega(&self) -> Option<i64> {
        match *self {
            MatchMode::Temporal { omega } => Some(omega),
            MatchMode::Complete => None,
        }
    }

    /// Short display name used by the statistics module.
    pub fn name(&self) -> &'static str {
        match self {
            MatchMode::Complete => "complete",
            MatchMode::Temporal { .. } => "temporal",
        }
    }
}

/// Configuration of the story identification phase (§2.2).
#[derive(Debug, Clone, PartialEq)]
pub struct IdentifyConfig {
    /// Execution mode: temporal sliding window or complete matching.
    pub mode: MatchMode,
    /// Minimum snippet–story similarity to join an existing story;
    /// below it a new story is opened.
    pub match_threshold: f64,
    /// Similarity component weights shared by all phases.
    pub weights: SimWeights,
    /// When the incoming snippet matches *two* stories above this
    /// threshold, the stories are merged (incremental merge evidence).
    pub merge_threshold: f64,
    /// Minimum pairwise similarity for two member snippets to stay
    /// connected during a split check; stories falling apart into
    /// disconnected components are split.
    pub split_threshold: f64,
    /// Run the merge/split maintenance pass every this many ingested
    /// snippets per source (0 disables periodic maintenance).
    pub maintenance_every: usize,
    /// Blend between the two snippet–story scoring components:
    /// `score = pair_blend · best-pair + (1 − pair_blend) · windowed
    /// centroid`. Pure single-link (`1.0`) chains evolving stories
    /// aggressively but over-merges at scale; pure centroid (`0.0`)
    /// resists chaining but fragments drifting stories. The E10
    /// ablation measures the trade-off.
    pub pair_blend: f64,
}

impl Default for IdentifyConfig {
    fn default() -> Self {
        IdentifyConfig {
            mode: MatchMode::Temporal { omega: 14 * DAY },
            match_threshold: 0.40,
            weights: SimWeights::default(),
            merge_threshold: 0.60,
            split_threshold: 0.18,
            maintenance_every: 64,
            pair_blend: 0.5,
        }
    }
}

/// Configuration of the story alignment phase (§2.3).
#[derive(Debug, Clone, PartialEq)]
pub struct AlignConfig {
    /// Minimum combined (content × evolution) story–story similarity to
    /// align two stories across sources.
    pub align_threshold: f64,
    /// Temporal bucket width (seconds) of story evolution signatures.
    pub bucket_width: i64,
    /// Maximum reporting lag between sources, in buckets, tolerated by
    /// the evolution comparison (§2.3: alignment allows "more tolerance
    /// in the temporal alignment of stories" than identification).
    pub max_lag_buckets: i64,
    /// Minimum snippet–snippet similarity for a cross-source
    /// *counterpart*: snippets with a counterpart are `Aligning`,
    /// without one `Enriching`.
    pub counterpart_threshold: f64,
    /// Counterparts must also share description terms (cosine ≥ this
    /// floor). Source-exclusive special reports share a story's entities
    /// but not its day-to-day description, so entity overlap alone must
    /// not make a snippet `Aligning`.
    pub counterpart_term_floor: f64,
    /// Maximum time distance (seconds) between counterpart snippets.
    pub counterpart_lag: i64,
    /// Minimum number of shared indexed entities for a story pair to be
    /// scored at all (candidate pruning).
    pub min_shared_entities: usize,
}

impl Default for AlignConfig {
    fn default() -> Self {
        AlignConfig {
            align_threshold: 0.30,
            bucket_width: DAY,
            max_lag_buckets: 3,
            counterpart_threshold: 0.35,
            counterpart_term_floor: 0.15,
            counterpart_lag: 3 * DAY,
            min_shared_entities: 1,
        }
    }
}

/// Settings of a MinHash sketch layer (§2.4). The engine no longer
/// reads them: stories are compared by exact content only. They stay for
/// the callers that still pass or time them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SketchConfig {
    /// MinHash signature length `k` (estimation error ≈ `1/√k`).
    pub minhash_k: usize,
    /// Seed of the shared hash family; all sketches in one pivot must
    /// agree on it so they can be compared.
    pub seed: u64,
}

impl Default for SketchConfig {
    fn default() -> Self {
        SketchConfig {
            minhash_k: 128,
            seed: 0x5357_4f52_5950_5654, // "STORYPVT"
        }
    }
}

/// Configuration of the refinement phase (§2.3, Figure 1d).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefineConfig {
    /// A snippet moves to a competing global story when its cohesion
    /// there exceeds cohesion in its current story by this margin
    /// (hysteresis against oscillation).
    pub move_margin: f64,
    /// Absolute cohesion floor: a snippet never moves to a story where
    /// its cohesion is below this, no matter how weak its current story
    /// is. Prevents poorly-connected singletons (e.g. a story only one
    /// source covers) from being absorbed by vaguely related stories.
    pub min_target_cohesion: f64,
    /// Maximum refinement sweeps per [`crate::pivot::StoryPivot::refine`] call.
    pub max_rounds: usize,
}

impl Default for RefineConfig {
    fn default() -> Self {
        RefineConfig {
            move_margin: 0.10,
            min_target_cohesion: 0.35,
            max_rounds: 3,
        }
    }
}

/// Top-level configuration for a [`crate::pivot::StoryPivot`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PivotConfig {
    /// Identification phase settings.
    pub identify: IdentifyConfig,
    /// Alignment phase settings.
    pub align: AlignConfig,
    /// Refinement phase settings.
    pub refine: RefineConfig,
    /// Sketch layer settings (unread by the engine; see [`SketchConfig`]).
    pub sketch: SketchConfig,
}

impl PivotConfig {
    /// A configuration using complete (baseline) identification.
    pub fn complete() -> Self {
        PivotConfig {
            identify: IdentifyConfig {
                mode: MatchMode::Complete,
                ..IdentifyConfig::default()
            },
            ..PivotConfig::default()
        }
    }

    /// A configuration using temporal identification with window ω
    /// (seconds).
    pub fn temporal(omega: i64) -> Self {
        PivotConfig {
            identify: IdentifyConfig {
                mode: MatchMode::Temporal { omega },
                ..IdentifyConfig::default()
            },
            ..PivotConfig::default()
        }
    }

    /// Validate every field's domain; call once before building a pivot.
    pub fn validate(&self) -> Result<()> {
        let unit = |v: f64, name: &str| -> Result<()> {
            if (0.0..=1.0).contains(&v) {
                Ok(())
            } else {
                Err(Error::InvalidConfig(format!("{name} must lie in [0,1], got {v}")))
            }
        };
        unit(self.identify.match_threshold, "identify.match_threshold")?;
        unit(self.identify.merge_threshold, "identify.merge_threshold")?;
        unit(self.identify.split_threshold, "identify.split_threshold")?;
        unit(self.identify.pair_blend, "identify.pair_blend")?;
        unit(self.align.align_threshold, "align.align_threshold")?;
        unit(self.align.counterpart_threshold, "align.counterpart_threshold")?;
        unit(self.align.counterpart_term_floor, "align.counterpart_term_floor")?;
        unit(self.refine.move_margin, "refine.move_margin")?;
        unit(self.refine.min_target_cohesion, "refine.min_target_cohesion")?;
        if let MatchMode::Temporal { omega } = self.identify.mode {
            if omega <= 0 {
                return Err(Error::InvalidConfig(format!(
                    "identify window omega must be positive, got {omega}"
                )));
            }
        }
        if self.align.bucket_width <= 0 {
            return Err(Error::InvalidConfig("align.bucket_width must be positive".into()));
        }
        if self.align.max_lag_buckets < 0 {
            return Err(Error::InvalidConfig("align.max_lag_buckets must be >= 0".into()));
        }
        if self.align.counterpart_lag < 0 {
            return Err(Error::InvalidConfig("align.counterpart_lag must be >= 0".into()));
        }
        self.identify.weights.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        PivotConfig::default().validate().unwrap();
        PivotConfig::complete().validate().unwrap();
        PivotConfig::temporal(7 * DAY).validate().unwrap();
    }

    #[test]
    fn mode_accessors() {
        assert_eq!(MatchMode::Complete.omega(), None);
        assert_eq!(MatchMode::Temporal { omega: 5 }.omega(), Some(5));
        assert_eq!(MatchMode::Complete.name(), "complete");
        assert_eq!(MatchMode::Temporal { omega: 5 }.name(), "temporal");
    }

    #[test]
    fn out_of_range_thresholds_rejected() {
        let mut c = PivotConfig::default();
        c.identify.match_threshold = 1.5;
        assert!(c.validate().is_err());

        let mut c = PivotConfig::default();
        c.align.align_threshold = -0.1;
        assert!(c.validate().is_err());
    }

    #[test]
    fn non_positive_window_rejected() {
        let c = PivotConfig::temporal(0);
        assert!(c.validate().is_err());
        let c = PivotConfig::temporal(-DAY);
        assert!(c.validate().is_err());
    }

    #[test]
    fn bad_bucket_width_rejected() {
        let mut c = PivotConfig::default();
        c.align.bucket_width = 0;
        assert!(c.validate().is_err());
    }
}
