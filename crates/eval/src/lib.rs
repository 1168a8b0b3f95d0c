//! Evaluation toolkit: clustering quality metrics, result tables, and
//! the experiment runner that regenerates the paper's Figure 7
//! measurements (execution time and F-measure as functions of the
//! number of processed events, per SI/SA method).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod run;
pub mod table;

pub use metrics::{nmi, pairwise, purity, Clustering, Scores};
pub use run::{run, RunOptions, RunResult};
pub use table::Table;
