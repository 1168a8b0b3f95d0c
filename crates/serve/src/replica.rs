//! WAL-shipped follower replicas.
//!
//! `pivotd --leader <addr>` turns a server into a read-only follower:
//! it serves QUERY_STORIES/GET_STORY from its own published snapshots
//! (see [`crate::snapshot`]) and answers every write with a NOT_LEADER
//! redirect, while one *puller* thread per shard tails the leader over
//! the replication opcodes in [`crate::proto`]:
//!
//! 1. **Catch-up.** The puller asks its local shard worker where its
//!    durable copy ends: the checkpoint generation plus the local WAL
//!    length, read under the shard's owner lock. Because the
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
//! The puller does every step on its own thread: it takes the local
//! shard's owner lock, applies the jobs queued on it as every holder
//! does, and calls the worker directly — no job, no reply channel. It
//! may wait for the lock (an I/O worker never does); a shard whose
//! worker is retired ends its puller.
//!
//! Lag is exported per shard as `storypivot_replica_lag_ops` and
//! `storypivot_replica_lag_bytes` gauges in the METRICS exposition,
//! and reconnect attempts as `storypivot_replica_reconnects_total`. Pullers
//! reconnect with capped, jittered exponential backoff while the
//! leader is away — jitter keeps a fleet of shard pullers from
//! stampeding a recovering leader in lockstep — and exit when the
//! replica itself is shut down.
//!
//! This file is the puller; the worker's side of both ends — the
//! leader's answer to a poll, the follower's cursor, bootstrap and
//! apply (they need the worker's engine, WAL and generation) — is
//! `server/shard/repl.rs`.

use std::sync::Arc;
use std::time::Duration;

use storypivot_substrate::fault::FaultHook;
use storypivot_substrate::metrics::{Counter, Gauge};

use crate::client::{backoff_delay_ms, BackoffPolicy, Client};
use crate::proto::Response;
use crate::server::Shared;

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
    pub(crate) reconnects: Counter,
    /// The `repl_drop` fault site, inert unless the plan names it: when
    /// it fires, the puller drops its leader connection mid-tail and
    /// goes back through the reconnect path, exercising cursor
    /// re-probing under churn.
    pub(crate) drop_fault: FaultHook,
    /// The `sched` fault site at this puller's owner holds.
    pub(crate) sched: FaultHook,
}

/// Body of one `pivot-repl-{i}` thread: bootstrap-or-tail the leader
/// until the replica shuts down.
pub(crate) fn run_puller(mut ctx: PullerCtx) {
    // Every call on the local worker runs under its owner lock; `None`
    // means the worker is retired (a holder panicked outside
    // `catch_unwind`), which ends the puller.
    let port = &ctx.shared.shards[ctx.shard];
    let Some(mut cursor) = port.with_worker(&mut ctx.sched, |w| w.repl_cursor()) else { return };
    let backoff = BackoffPolicy { base_ms: 50, cap_ms: 2000, ..BackoffPolicy::default() };
    let mut failures = 0u32;
    // Seeded per shard, so no two pullers retry on the same beat.
    let mut jitter_state = 0x5bd1_e995u64 ^ ((ctx.shard as u64) << 32);
    let mut connects = 0u64;
    'reconnect: while !ctx.shared.is_done() {
        if connects > 0 {
            ctx.reconnects.inc();
        }
        connects += 1;
        let mut client = match Client::connect(&ctx.leader) {
            Ok(c) => c,
            Err(e) => {
                eprintln!(
                    "pivotd: replica shard {}: leader {} unreachable: {e}",
                    ctx.shard, ctx.leader
                );
                failures = failures.saturating_add(1);
                let ms = backoff_delay_ms(backoff, 0, failures, &mut jitter_state);
                std::thread::sleep(Duration::from_millis(ms));
                continue;
            }
        };
        if let Err(e) = client.set_io_timeout(Some(IO_TIMEOUT)) {
            eprintln!("pivotd: replica shard {}: socket timeout: {e}", ctx.shard);
        }
        failures = 0;
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
            let (applied, leader) = match delivery {
                Response::ReplFrame {
                    leader_wal_len,
                    leader_ops,
                    records,
                    ..
                } => {
                    let applied = if records.is_empty() {
                        Some(Ok(cursor))
                    } else {
                        port.with_worker(&mut ctx.sched, |w| w.repl_apply(&records))
                    };
                    (applied, Some((leader_ops, leader_wal_len)))
                }
                Response::ReplCheckpoint {
                    generation,
                    checkpoint,
                } => {
                    let boot = port
                        .with_worker(&mut ctx.sched, |w| w.repl_bootstrap(generation, checkpoint));
                    (boot, None)
                }
                other => unreachable!("repl_subscribe returned {other:?}"),
            };
            match applied {
                Some(Ok(c)) => cursor = c,
                Some(Err(e)) => {
                    // A partial apply or bootstrap may have moved the
                    // WAL; re-read the cursor instead of guessing.
                    eprintln!("pivotd: replica shard {}: apply failed: {e}", ctx.shard);
                    std::thread::sleep(Duration::from_millis(500));
                    match port.with_worker(&mut ctx.sched, |w| w.repl_cursor()) {
                        Some(c) => cursor = c,
                        None => break 'reconnect,
                    }
                }
                None => break 'reconnect,
            }
            if let Some((leader_ops, leader_wal_len)) = leader {
                ctx.lag_ops.set(leader_ops.saturating_sub(cursor.ops) as i64);
                ctx.lag_bytes.set(leader_wal_len.saturating_sub(cursor.wal_len) as i64);
                if cursor.wal_len >= leader_wal_len {
                    std::thread::sleep(POLL_IDLE);
                }
            }
        }
    }
}
