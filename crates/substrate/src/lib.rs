//! The zero-dependency substrate underneath every StoryPivot crate.
//!
//! The build environment for this reproduction is hermetic: there is no
//! crates.io registry, so the workspace cannot depend on `rand`,
//! `proptest`, `criterion`, `bytes`, `parking_lot`, or `crossbeam`.
//! This crate provides the narrow slices of those libraries the system
//! actually uses, built only on `std`:
//!
//! * [`rng`] — a deterministic pseudo-random generator (SplitMix64
//!   seeding + xoshiro256\*\* core) with uniform/Zipf/shuffle
//!   helpers. Replaces `rand`.
//! * [`buf`] — little-endian, length-prefixed byte reading/writing via
//!   the [`buf::Buf`]/[`buf::BufMut`] traits. Replaces `bytes`.
//! * [`prop`] — a minimal property-testing harness: deterministic
//!   per-case seeds, generator helpers, and failing-seed replay via an
//!   environment variable. Replaces `proptest`.
//! * [`timing`] — [`timing::Histogram`], a log-bucketed, mergeable
//!   latency histogram (the metrics registry's and the serving layer's
//!   percentile recorder).
//! * [`queue`] — [`queue::Bounded<T>`], a bounded, never-blocking MPMC
//!   queue with a depth read and a close (the slice of
//!   `crossbeam-channel` the serving layer needs).
//! * [`net`] — a minimal `poll(2)` readiness poller plus a socketpair
//!   wake channel (the slice of `mio` the connection-multiplexing
//!   serving runtime needs). This module contains the workspace's only
//!   FFI declaration, wrapped behind a safe slice-based API.
//! * [`wal`] — a generic CRC-framed append-only journal with
//!   configurable fsync policy and torn-tail repair, the durability
//!   primitive under `pivotd`'s per-shard write-ahead logs.
//! * [`metrics`] — a lock-cheap metrics registry (counters, gauges,
//!   histograms) with labeled families, mergeable snapshots, and a
//!   Prometheus-style text exposition encoder (the slice of
//!   `prometheus`/`metrics` the observability layer needs).
//! * [`trace`] — [`trace::TraceRing`], a fixed-capacity ring buffer of
//!   recent engine events, dumped on shard panic so supervision leaves
//!   a diagnosable artifact behind.
//! * [`fault`] — seeded deterministic fault injection
//!   ([`fault::FaultPlan`]): the durability, replication and apply
//!   paths consult per-site hooks, inert unless the plan names the
//!   site, so chaos tests can inject short-write/ENOSPC-style disk
//!   faults, connection drops and poison panics reproducibly.
//!
//! Everything here is deterministic: the same seed produces the same
//! corpus, the same property-test cases, and the same experiment tables
//! on every run and every machine.

// `deny` rather than `forbid`: the `net` module carries two scoped
// `#[allow(unsafe_code)]`s, around the `poll(2)` and `getrusage(2)` FFI
// calls; everything else in the crate still refuses unsafe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod buf;
pub mod fault;
pub mod metrics;
pub mod net;
pub mod prop;
pub mod queue;
pub mod rng;
pub mod timing;
pub mod trace;
pub mod wal;

pub use buf::{Buf, BufMut, ByteBuf};
pub use fault::{FaultHook, FaultPlan};
pub use metrics::Registry;
pub use queue::Bounded;
pub use timing::Histogram;
pub use rng::{RngCore, RngExt, SliceRandom, StdRng, Zipf};
pub use trace::TraceRing;
pub use wal::{SyncPolicy, Wal, WalFaults};
