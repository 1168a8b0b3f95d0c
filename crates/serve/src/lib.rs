//! Network serving layer for the StoryPivot engine.
//!
//! The paper's setting is a *stream*: "snippets are generated
//! dynamically every time a news document is published online" (§2.4).
//! This crate puts the engine behind a TCP wire so that stream can be
//! real traffic instead of an in-process loop:
//!
//! - [`proto`] — a length-prefixed binary protocol over
//!   `substrate::buf` (no serialization dependencies).
//! - [`server`] — `pivotd`: shards the engine by source id across N
//!   worker threads, routes frames through *bounded* queues, and
//!   answers BUSY (with a retry-after hint) instead of buffering
//!   unboundedly. Mutations are journaled to a per-shard write-ahead
//!   log before they touch the engine; startup recovers each shard
//!   from its newest checkpoint generation plus the WAL tail, and
//!   worker panics are supervised (engine rebuild, two-strike
//!   dead-letter quarantine). Graceful SHUTDOWN drains every queue and
//!   writes a final checkpoint per shard. Everything the server
//!   reports about itself is one METRICS exposition: each shard's
//!   private `substrate::metrics::Registry` (engine counters, WAL
//!   timings, per-shard serving series) and the I/O layer's are
//!   snapshotted and merged — counters summed, histograms merged
//!   bucket-wise — into Prometheus-style text.
//! - [`snapshot`] — epoch-versioned, immutable per-shard read
//!   snapshots. Shard workers publish one after every applied op,
//!   before its reply, patching only the stories the engine reports
//!   changed; I/O workers answer QUERY_STORIES and GET_STORY straight
//!   from the snapshots, so reads never ride the shard write queues.
//! - [`replica`] — WAL-shipped follower replicas: `pivotd --leader
//!   <addr>` bootstraps from the leader's newest checkpoint, tails its
//!   WAL over REPL_SUBSCRIBE, serves reads only (writes get a
//!   NOT_LEADER redirect), and exports per-shard replication lag.
//! - [`client`] — a blocking client for the protocol.
//! - [`load`] — `loadgen`: replays a [`storypivot_gen`] corpus at a
//!   target rate over M connections and reports throughput and
//!   p50/p95/p99 latency. Its storm mode ([`load::conn_storm`]) opens
//!   thousands of mostly-idle connections that trickle reads and
//!   writes, to size per-connection server memory and tail latency.
//!
//! Everything is std-only (`std::net`, `std::thread`,
//! `std::sync::mpsc`) per the workspace's hermetic-build guard.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod load;
pub mod proto;
pub mod replica;
pub mod server;
pub mod snapshot;

pub use client::{BackoffPolicy, Client, IngestReply, RetryStats};
pub use snapshot::{ShardSnapshot, SnapshotSlot};
pub use load::{
    conn_storm, query_fanout, replay, replay_script, LoadOptions, LoadReport, QueryOptions,
    QueryReport, StormOptions, StormReport, TargetReport,
};
pub use proto::{Request, Response, StorySummary, MAX_FRAME_LEN};
pub use server::{serve, ServerConfig, ServerHandle, POISON_HEADLINE};
