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
//!   similarity of entity/term sets. The engine compares stories by
//!   exact content and builds none; the benchmark times a signature.
//! * [`temporal`] — bucketed activity signatures whose lag-tolerant
//!   containment compares *story evolution* over time (paper §2.3).
//!   Only alignment builds them, one per story it compares, from the
//!   story's members.
//! * [`hash`] — the seeded 64-bit hash family everything above shares.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hash;
pub mod minhash;
pub mod temporal;

pub use hash::{mix64, HashFamily};
pub use minhash::MinHash;
pub use temporal::TemporalSignature;
