//! Sketches for fast story/snippet comparison.
//!
//! Paper §2.4: *"we propose to abstract from snippets and stories into
//! one common format which we refer to as a sketch — a (smaller) unified
//! representation of the snippet or story that allows for fast and
//! efficient similarity comparisons"* (citing Muthukrishnan's data
//! streams monograph).
//!
//! This crate provides the sketch toolbox:
//!
//! * [`minhash`] — fixed-size MinHash signatures estimating Jaccard
//!   similarity of entity/term sets; the engine derives a story's
//!   signature from its centroids when alignment compares it.
//! * [`temporal`] — bucketed activity signatures whose lag-tolerant
//!   similarity compares *story evolution* over time (paper §2.3).
//! * [`hash`] — the seeded 64-bit hash family everything above shares.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hash;
pub mod minhash;
pub mod temporal;

pub use hash::{mix64, HashFamily};
pub use minhash::MinHash;
pub use temporal::TemporalSignature;
