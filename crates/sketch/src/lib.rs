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
//!   similarity of entity/term sets; signatures of snippets *merge* into
//!   signatures of stories in `O(k)`.
//! * [`topk`] — Space-Saving heavy-hitter tracking (drives the
//!   `{crash,3}; {plane,3}; …` story digests of the paper's Figures 4–6).
//! * [`temporal`] — bucketed activity signatures whose lag-tolerant
//!   similarity compares *story evolution* over time (paper §2.3).
//! * [`hash`] — the seeded 64-bit hash family everything above shares.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hash;
pub mod minhash;
pub mod temporal;
pub mod topk;

pub use hash::{mix64, HashFamily};
pub use minhash::MinHash;
pub use temporal::TemporalSignature;
pub use topk::TopK;
