//! WAL-shipped follower replicas.
//!
//! `pivotd --leader <addr>` turns a server into a read-only follower:
//! it serves QUERY_STORIES/GET_STORY from its own published snapshots
//! (see [`crate::snapshot`]) and answers every write with a NOT_LEADER
//! redirect, while one *puller* thread per shard tails the leader over
//! the replication opcodes in [`crate::proto`]:
//!
//! 1. **Catch-up.** The puller asks its local shard worker where its
//!    durable copy ends (an empty `ReplApply` probe returns the
//!    checkpoint generation plus the local WAL length). Because the
//!    follower appends the leader's record payloads through the same
//!    deterministic framing, its WAL is byte-identical to the
//!    leader's, and "local WAL length" *is* the leader offset already
//!    replicated — the cursor survives restarts with zero bookkeeping.
//! 2. **Subscribe.** `REPL_SUBSCRIBE {shard, generation, wal_offset}`
//!    polls the leader. A matching generation yields a `REPL_FRAME` of
//!    whole WAL records from the offset; a stale generation yields a
//!    `REPL_CHECKPOINT` carrying the leader's newest checkpoint bytes
//!    verbatim, which the follower installs before tailing again from
//!    offset zero.
//! 3. **Apply.** Records are appended to the local WAL and replayed
//!    through the idempotent `core::oplog` path, so overlap from a
//!    resubscribe (or replay after a crash) is a no-op.
//!
//! Lag is exported per shard as `storypivot_replica_lag_ops` and
//! `storypivot_replica_lag_bytes` gauges in the METRICS exposition,
//! and reconnect attempts as `storypivot_replica_reconnects`. Pullers
//! reconnect with capped, jittered exponential backoff while the
//! leader is away — jitter keeps a fleet of shard pullers from
//! stampeding a recovering leader in lockstep — and exit when the
//! replica itself is shut down.
//!
//! This file is the puller; what the shard worker does with a
//! `Repl`/`ReplBootstrap`/`ReplApply` job (it needs the worker's engine,
//! WAL and generation) is `server/shard/repl.rs`.

use std::sync::mpsc::sync_channel;
use std::sync::Arc;
use std::time::Duration;

use storypivot_substrate::fault::FaultHook;
use storypivot_substrate::metrics::Gauge;
use storypivot_substrate::rng::splitmix64;

use crate::client::{Client, ReplDelivery};
use crate::server::{Job, ReplAck, ReplCursor, Shared};

/// How long a caught-up puller sleeps between polls.
const POLL_IDLE: Duration = Duration::from_millis(25);

/// Read/write timeout on the leader connection, so a dead leader (or
/// a replica shutdown) never wedges a puller in a blocking read.
const IO_TIMEOUT: Duration = Duration::from_millis(1000);

/// Everything one shard's puller thread needs, assembled by
/// `server::serve` when `ServerConfig::leader` is set.
pub(crate) struct PullerCtx {
    pub(crate) shard: usize,
    pub(crate) leader: String,
    pub(crate) shared: Arc<Shared>,
    pub(crate) lag_ops: Gauge,
    pub(crate) lag_bytes: Gauge,
    /// Reconnect attempts to the leader (the initial connection is not
    /// counted); failed attempts count too.
    pub(crate) reconnects: Gauge,
    /// Debug/test-gated `repl_drop` fault: when it fires, the puller
    /// drops its leader connection mid-tail and goes back through the
    /// reconnect path, exercising cursor re-probing under churn.
    pub(crate) drop_fault: FaultHook,
}

impl PullerCtx {
    /// Hand a replication job to the local shard worker and wait for
    /// the cursor it reached. `None` means the shard is gone (queue
    /// closed or worker dead) and the puller should exit; an apply
    /// error is surfaced as `Some(Err(..))` for the caller to back off
    /// on.
    fn submit(
        &self,
        make: impl FnOnce(ReplAck) -> Job,
    ) -> Option<storypivot_types::Result<ReplCursor>> {
        let (tx, rx) = sync_channel(1);
        if self.shared.shards[self.shard].queue.push(make(tx)).is_err() {
            return None; // shutting down
        }
        rx.recv().ok()
    }

    /// Where the local durable copy ends (empty apply = cursor probe).
    fn local_cursor(&self) -> Option<ReplCursor> {
        match self.submit(|ack| Job::ReplApply {
            records: Vec::new(),
            ack,
        })? {
            Ok(cursor) => Some(cursor),
            Err(e) => {
                eprintln!("pivotd: replica shard {}: cursor probe failed: {e}", self.shard);
                None
            }
        }
    }
}

/// Jitter a nominal backoff into `[delay/2, delay)`: half the delay is
/// kept so backoff still backs off, the other half is randomized so no
/// two pullers retry on the same beat (`state` is seeded per shard, so
/// pullers spread out without sharing any).
fn jittered(delay_ms: u64, state: &mut u64) -> u64 {
    let half = (delay_ms / 2).max(1);
    half + splitmix64(state) % half
}

/// Body of one `pivot-repl-{i}` thread: bootstrap-or-tail the leader
/// until the replica shuts down.
pub(crate) fn run_puller(mut ctx: PullerCtx) {
    let Some(mut cursor) = ctx.local_cursor() else { return };
    let mut backoff_ms = 50u64;
    let mut jitter_state = 0x5bd1_e995u64 ^ ((ctx.shard as u64) << 32);
    let mut connects = 0u64;
    'reconnect: while !ctx.shared.is_done() {
        if connects > 0 {
            ctx.reconnects.add(1);
        }
        connects += 1;
        let mut client = match Client::connect(&ctx.leader) {
            Ok(c) => c,
            Err(e) => {
                eprintln!(
                    "pivotd: replica shard {}: leader {} unreachable: {e}",
                    ctx.shard, ctx.leader
                );
                std::thread::sleep(Duration::from_millis(jittered(backoff_ms, &mut jitter_state)));
                backoff_ms = (backoff_ms * 2).min(2000);
                continue;
            }
        };
        if let Err(e) = client.set_io_timeout(Some(IO_TIMEOUT)) {
            eprintln!("pivotd: replica shard {}: socket timeout: {e}", ctx.shard);
        }
        backoff_ms = 50;
        loop {
            if ctx.shared.is_done() {
                break 'reconnect;
            }
            if ctx.drop_fault.fire() {
                eprintln!(
                    "pivotd: replica shard {}: injected fault: dropping leader connection",
                    ctx.shard
                );
                continue 'reconnect;
            }
            let delivery =
                match client.repl_subscribe(ctx.shard as u32, cursor.generation, cursor.wal_len) {
                    Ok(d) => d,
                    Err(e) => {
                        if !ctx.shared.is_done() {
                            eprintln!(
                                "pivotd: replica shard {}: subscribe failed ({e}); reconnecting",
                                ctx.shard
                            );
                            std::thread::sleep(Duration::from_millis(100));
                        }
                        continue 'reconnect;
                    }
                };
            match delivery {
                ReplDelivery::Frame {
                    leader_wal_len,
                    leader_ops,
                    records,
                    ..
                } => {
                    if !records.is_empty() {
                        match ctx.submit(|ack| Job::ReplApply { records, ack }) {
                            Some(Ok(c)) => cursor = c,
                            Some(Err(e)) => {
                                // Partial appends may have moved the
                                // WAL; re-probe instead of guessing.
                                eprintln!(
                                    "pivotd: replica shard {}: apply failed: {e}",
                                    ctx.shard
                                );
                                std::thread::sleep(Duration::from_millis(500));
                                match ctx.local_cursor() {
                                    Some(c) => cursor = c,
                                    None => break 'reconnect,
                                }
                            }
                            None => break 'reconnect,
                        }
                    }
                    ctx.lag_ops
                        .set(leader_ops.saturating_sub(cursor.ops) as i64);
                    ctx.lag_bytes
                        .set(leader_wal_len.saturating_sub(cursor.wal_len) as i64);
                    if cursor.wal_len >= leader_wal_len {
                        std::thread::sleep(POLL_IDLE);
                    }
                }
                ReplDelivery::Checkpoint {
                    generation,
                    checkpoint,
                } => {
                    match ctx.submit(|ack| Job::ReplBootstrap {
                        generation,
                        checkpoint,
                        ack,
                    }) {
                        Some(Ok(c)) => cursor = c,
                        Some(Err(e)) => {
                            eprintln!(
                                "pivotd: replica shard {}: bootstrap failed: {e}",
                                ctx.shard
                            );
                            std::thread::sleep(Duration::from_millis(500));
                        }
                        None => break 'reconnect,
                    }
                }
            }
        }
    }
}
