//! StoryPivot core: story identification, story alignment, story
//! refinement, and the dynamic pipeline tying them together.
//!
//! The paper (SIGMOD'15) decomposes story detection into two phases:
//!
//! 1. **Story identification** ([`identify`]) — within a single data
//!    source, incrementally assign each information snippet to its best
//!    matching story or open a new one (§2.2). Two execution modes
//!    (Figure 2): *complete* (compare against every prior snippet — the
//!    baseline) and *temporal* (compare only inside a sliding window
//!    `[t-ω, t+ω]`). Stories can *merge* and *split* as the underlying
//!    real-world story evolves (incremental record linkage).
//! 2. **Story alignment** ([`align`]) — across sources, match stories
//!    whose content *and* temporal evolution are similar, producing
//!    integrated global stories; snippets are classified *aligning* or
//!    *enriching* (§2.3). Conflicts feed **story refinement**
//!    ([`refine`]): alignment evidence corrects identification mistakes
//!    (Figure 1d).
//!
//! [`pivot::StoryPivot`] is the user-facing engine combining the store,
//! per-source identifiers, the aligner, and the refiner;
//! [`pipeline::DynamicPivot`] adds the online policy of §2.4 (ingest
//! continuously, re-align dirty stories incrementally, tolerate
//! out-of-order arrival, add/remove sources and documents).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod align;
pub mod checkpoint;
pub mod explain;
pub mod config;
pub mod identify;
pub mod metrics;
pub mod oplog;
pub mod pipeline;
pub mod pivot;
pub mod query;
pub mod refine;
pub mod sim;
pub mod state;
pub mod unionfind;

pub use align::{AlignOutcome, Aligner};
pub use config::{AlignConfig, IdentifyConfig, MatchMode, PivotConfig, SketchConfig};
pub use explain::{explain_assignment, explain_counterparts, Explanation};
pub use identify::{Identifier, IdentifyDecision};
pub use metrics::EngineMetrics;
pub use oplog::{replay_op, ReplayOp};
pub use pipeline::DynamicPivot;
pub use pivot::StoryPivot;
pub use query::{query_stories, QueryHit, StoryQuery};
pub use refine::RefineReport;
pub use sim::SimWeights;
pub use state::StoryState;
