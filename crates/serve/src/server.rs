//! The sharded, backpressured, crash-safe TCP server.
//!
//! Topology: a fixed pool of connection-multiplexing *I/O worker*
//! threads and N shards, which have no thread of their own (a follower
//! adds one replica puller per shard; a SHUTDOWN adds its orchestrator
//! while it drains). Each shard owns a full [`StoryPivot`] engine holding a disjoint
//! subset of sources (`source id mod N`), so identification — which is
//! per-source by construction (paper §2.1) — is embarrassingly
//! parallel across shards. A shard identifies and nothing else:
//! alignment and refinement are across sources (§2.3), so no shard can
//! run them on what it holds, and no opcode serves their result yet.
//!
//! # The serving runtime
//!
//! An I/O worker owns its connections end to end. The listener is in
//! the [`substrate::net`] `poll(2)` set of every worker that holds at
//! most 1/16 more connections than the least loaded one; such a worker
//! accepts a bounded number of sockets per readiness and keeps them,
//! and the last worker to exit closes the listener. A failed accept is counted and
//! keeps that worker's listener out of its poll set for a jittered
//! backoff. Each connection runs a state machine: accumulate bytes into
//! its read buffer, peel complete frames with [`frame_ready`], decode
//! them *in place* with [`Request::decode_borrowed`] (zero heap
//! allocations for small frames), dispatch, and frame the replies onto
//! its one write buffer, flushed with one `write` per call. A
//! connection never leaves the worker that accepted it, so both
//! buffers are its own, and each is released once drained: an idle
//! connection holds no heap bytes, and a served op costs the I/O layer
//! two allocations (its frame's read buffer and its reply's write
//! buffer; a reply longer than 64 bytes regrows the write buffer, and
//! one that completes out of order adds its parked frame). Requests
//! pipeline: a connection may have up to
//! `max_pipeline` requests in flight, and responses are re-sequenced
//! (a per-request `seq` plus a reorder map) so the wire order always
//! matches the request order. An optional `idle_timeout` reaps
//! connections that complete no frame for the configured window, which
//! also bounds slow-loris readers.
//!
//! I/O workers never wait for a shard. A shard's worker (engine, WAL,
//! snapshot table) sits behind its *owner lock* in the `ShardPort`, next
//! to its mailbox, a bounded queue of `Job`s
//! ([`substrate::queue::Bounded`]); a shard has no thread. Every thread
//! that takes the owner — an I/O worker (only with `try_lock`), a
//! follower's replica puller ([`crate::replica`]) or the SHUTDOWN
//! orchestrator — follows the holder's rule (`ShardPort::hold`; flat
//! combining, after Hendler et al.): apply, FIFO, the jobs queued when
//! it took the owner; then its own work; release; only then post the
//! jobs' answers to their I/O workers' inboxes; then look at the queue
//! and, while it is not empty, `try_lock` and repeat. An I/O worker's
//! own work is a single-snippet INGEST or a REMOVE_DOC's part (none with
//! `worker_delay` set), answered straight into the connection's reorder
//! buffer. Writes that found the owner busy, INGEST_BATCH, ADD_SOURCE,
//! METRICS and REPL_SUBSCRIBE are pushed as jobs; after the tick's
//! frames the pusher `try_lock`s each shard it pushed to once more. If
//! that fails, a holder releases after the push and looks after it, so
//! no job is stranded. Reads are answered from the published snapshots.
//! A request that spans shards (INGEST_BATCH, REMOVE_DOC, METRICS) sends
//! each a part; the owning worker sums them in the connection's state.
//!
//! Invariants: per-shard order is WAL order (a job is popped only under
//! the owner and applied before its release, and a holder's own write
//! comes after every job queued before it); the lock order is owner →
//! queue; no inbox send and no socket write happens under the owner;
//! every job is answered exactly once (a `Reply` dropped unsent still
//! delivers "shard worker unavailable").
//!
//! When an ingest hits a full queue the worker replies BUSY with a
//! retry-after hint instead of buffering — memory is bounded by
//! `shards × queue_depth` jobs no matter how fast clients push. An
//! I/O worker's own write takes no queue slot, so it is never BUSY, and
//! it never waited, so it is never shed. Batch ingests and control frames
//! (source registration, removal, metrics, replication polls) want
//! backpressure, not retries: their pushes park in a pending list (the
//! connection stops parsing, preserving per-connection order) and are
//! retried until queue space frees up.
//!
//! # Durability
//!
//! With a `wal_dir` configured, every state-changing job is journaled
//! to the shard's write-ahead log ([`substrate::wal`], payloads are
//! [`core::oplog::ReplayOp`]) *before* it touches the engine. On
//! startup each shard loads its newest valid generation checkpoint
//! (`shard{i}.g{N}.spvc`, written atomically via temp file + rename)
//! and replays the WAL tail on top; replay is idempotent, so the crash
//! window between "checkpoint written" and "WAL truncated" is safe.
//! Once the WAL grows past `checkpoint_every_bytes` the shard writes a
//! fresh generation and truncates the log, bounding recovery time.
//!
//! # Supervision
//!
//! A panic inside an engine apply is caught in the worker
//! (`catch_unwind`), on whichever thread holds the owner; the shard's
//! engine is rebuilt from checkpoint + WAL and the worker keeps
//! serving — other shards never notice. A panic outside it poisons the
//! owner, and the next holder retires the worker: every queued job and
//! every later write to the shard is answered "shard worker
//! unavailable", and its puller ends. An operation that panics the
//! shard *again* during the rebuild replay is quarantined: appended to
//! the shard's dead-letter file (`shard{i}.dead`), skipped by all
//! future replays, and rejected if resubmitted. METRICS reports
//! `storypivot_shard_restarts_total` and `storypivot_shard_quarantined`
//! per shard.
//!
//! SHUTDOWN drains: a dedicated orchestrator thread takes each shard's
//! owner in turn, as an ordinary holder whose own work is to publish
//! the last snapshot and write a checkpoint generation (the engine is
//! left exactly as the last applied op left it, so a restart serves the
//! partition that was being served). Once every shard has drained the
//! queues are closed, and only then is the ack sent (to the initiator
//! and to every connection that sent a concurrent SHUTDOWN).
//!
//! # Observability
//!
//! Every serving number lives in one registry and nowhere else:
//! counters are bumped where their event happens, and the gauges that
//! are levels of state the worker already holds (queue depth, sources,
//! stories, snippets, WAL bytes, quarantined ops) are read when METRICS
//! is scraped. Each shard owns a private
//! [`substrate::metrics::Registry`]; its engine, WAL and the per-shard
//! serving series (labeled `shard="N"`) record into it. The server
//! keeps one more registry for what the I/O layer records: open
//! connections (in all and per I/O worker), pipeline depth, transient
//! accept failures, and each
//! shard's BUSY rejections and snapshot reads (also labeled
//! `shard="N"`). The
//! `METRICS` opcode snapshots every shard's registry plus the server
//! registry, merges the snapshots (counters add, histograms merge
//! bucket-wise), and renders one Prometheus-style text exposition.
//! Each shard also keeps a fixed-capacity [`substrate::trace::TraceRing`]
//! of recent engine events; when an apply panics, the ring is dumped to
//! stderr (and `shard{i}.trace` next to the durable state) *before* the
//! engine is rebuilt, preserving the lead-up to the crash.
//!
//! # Where things live
//!
//! This file: [`ServerConfig`], the state the threads share
//! (`Shared`, one `ShardPort` per shard), the holder's rule, [`serve`]
//! and the SHUTDOWN orchestrator.
//! `job.rs`: `Job` and its `Reply`.
//! `io.rs`: `IoWorker` — accept, the connection state machine, the
//! fan that sums a request's parts;
//! `io/dispatch.rs`: request decode and dispatch, push/park/retry and
//! the pusher's `try_lock`.
//! `shard.rs`: `ShardWorker` — a queued job's apply, the SHUTDOWN
//! step, journal + apply, publish, the request handlers;
//! `shard/recovery.rs`: recover, rebuild, the per-record replay,
//! checkpoints, quarantine; `shard/repl.rs`: both worker-side ends of
//! WAL shipping.
//!
//! [`StoryPivot`]: storypivot_core::StoryPivot
//! [`substrate::net`]: storypivot_substrate::net
//! [`frame_ready`]: crate::proto::frame_ready
//! [`Request::decode_borrowed`]: crate::proto::Request::decode_borrowed
//! [`substrate::queue::Bounded`]: storypivot_substrate::queue::Bounded
//! [`substrate::wal`]: storypivot_substrate::wal
//! [`core::oplog::ReplayOp`]: storypivot_core::oplog::ReplayOp
//! [`substrate::metrics::Registry`]: storypivot_substrate::metrics::Registry
//! [`substrate::trace::TraceRing`]: storypivot_substrate::trace::TraceRing

mod io;
mod job;
mod shard;

use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, LockResult, Mutex, MutexGuard, TryLockError};
use std::thread::JoinHandle;
use std::time::Duration;

use storypivot_core::config::PivotConfig;
use storypivot_substrate::fault::{FaultHook, FaultPlan};
use storypivot_substrate::metrics::{Counter, Registry};
use storypivot_substrate::net;
use storypivot_substrate::queue::Bounded;
use storypivot_substrate::wal::SyncPolicy;
use storypivot_types::{Error, Result, SourceId};

use self::io::{Inbox, IoMetrics, IoWorker, Part};
use self::job::{unavailable, Dest, Job};
use self::shard::ShardWorker;
use crate::proto::Response;
use crate::replica;
use crate::snapshot::SnapshotSlot;

/// Ingesting a snippet with this exact headline makes the owning shard
/// worker panic when the fault plan arms the `poison` site, exercising
/// the supervision path (engine restart, two-strike dead-letter
/// quarantine). The site is inert unless the plan names it; then this is
/// an ordinary headline, so no client can crash a shard.
pub const POISON_HEADLINE: &str = "__pivotd_poison_panic__";

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Number of shards (engines, each behind its owner lock, with no
    /// thread of their own). Sources are routed by `source id mod shards`.
    pub shards: usize,
    /// Bounded depth of each shard's job queue; a full queue turns
    /// single-snippet ingests into BUSY replies.
    pub queue_depth: usize,
    /// Engine configuration applied to every shard.
    pub pivot: PivotConfig,
    /// Where checkpoint generations are written
    /// (`shard{i}.g{N}.spvc`, atomic temp-file + rename); `None`
    /// disables checkpointing.
    pub checkpoint_dir: Option<PathBuf>,
    /// Where per-shard write-ahead logs live (`shard{i}.wal`); `None`
    /// disables journaling (and with it crash recovery of un-checkpointed
    /// work).
    pub wal_dir: Option<PathBuf>,
    /// When each WAL append is forced to disk.
    pub fsync: SyncPolicy,
    /// Write a checkpoint generation and truncate the WAL once it
    /// exceeds this many bytes (0 disables size-triggered checkpoints;
    /// requires both `wal_dir` and `checkpoint_dir`).
    pub checkpoint_every_bytes: u64,
    /// Artificial delay before each queued job is popped and applied, on
    /// whichever thread holds the shard's owner, simulating a slow shard
    /// whose queue stays full while it works. Zero in production; tests
    /// use it to hold a queue full deterministically. A non-zero delay
    /// also sends every single-snippet INGEST through the queue (no I/O
    /// worker applies one as its own write), so BUSY, SHED and parking
    /// are exercised. A replica puller's own applies are not delayed.
    pub worker_delay: Duration,
    /// Number of connection-multiplexing I/O worker threads. Every
    /// connection is pinned to one worker for its lifetime.
    pub io_workers: usize,
    /// Maximum requests a single connection may have in flight
    /// (dispatched, response not yet queued for write) before the
    /// worker stops reading from it.
    pub max_pipeline: usize,
    /// Reap a connection that completes no frame for this long
    /// (also bounds slow-loris readers); `None` never reaps.
    pub idle_timeout: Option<Duration>,
    /// Run as a read-only follower replica of the leader at this
    /// address: bootstrap each shard from the leader's newest
    /// checkpoint, tail its WAL over REPL_SUBSCRIBE, serve reads from
    /// snapshots, and answer every write with a NOT_LEADER redirect.
    /// Requires `wal_dir` (the follower keeps a byte-identical WAL
    /// copy as its durable replication cursor).
    pub leader: Option<String>,
    /// Per-request deadline budget for single-snippet ingests, in
    /// milliseconds. A write that has already waited in its shard queue
    /// longer than this is shed (SHED reply, counted in
    /// `storypivot_shed_total`) instead of applied late. Zero disables
    /// shedding.
    pub deadline_ms: u64,
    /// Deterministic fault-injection plan consulted by WAL appends,
    /// checkpoint writes, replica-tail connections and (site `poison`)
    /// every apply. Each site is inert unless the plan names it, in
    /// every build; `None` injects nothing. `pivotd` fills it from the
    /// `STORYPIVOT_FAULTS` environment variable.
    pub faults: Option<FaultPlan>,
}

impl ServerConfig {
    /// The plan's hook for one fault site on one instance (a shard);
    /// inert without a plan.
    fn fault_hook(&self, site: &str, instance: usize) -> FaultHook {
        self.faults
            .as_ref()
            .map_or_else(FaultHook::default, |plan| plan.hook(site, instance as u64))
    }

    /// The `sched` hook of one holder of `shard`'s owner, each on its own
    /// stream: I/O worker `i` is holder `i`, a replica puller
    /// `io_workers`, the SHUTDOWN orchestrator `io_workers + 1`.
    fn sched_hook(&self, holder: usize, shard: usize) -> FaultHook {
        self.fault_hook("sched", holder * self.shards + shard)
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            shards: 4,
            queue_depth: 1024,
            pivot: PivotConfig::default(),
            checkpoint_dir: None,
            wal_dir: None,
            fsync: SyncPolicy::Always,
            checkpoint_every_bytes: 8 * 1024 * 1024,
            worker_delay: Duration::ZERO,
            io_workers: 2,
            max_pipeline: 64,
            idle_timeout: None,
            leader: None,
            deadline_ms: 0,
            faults: None,
        }
    }
}

/// Lock a mutex, riding through poisoning (no invariant here spans the
/// critical section).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// What one shard worker shares with the rest of the server: its owner
/// lock, its job queue, its published read snapshot, the service-time
/// estimate behind retry hints, and the counters I/O workers bump for
/// it.
pub(crate) struct ShardPort {
    /// The shard's worker — engine, WAL, snapshot table — behind the
    /// owner lock, installed by [`serve`] before any thread that takes
    /// it starts. Whoever holds it follows [`ShardPort::hold`]. `None`
    /// once a holder found it poisoned and retired the worker: every job
    /// and write is then answered "shard worker unavailable", and the
    /// puller ends.
    owner: Mutex<Option<ShardWorker>>,
    /// What I/O workers found the owner busy for (or never apply
    /// themselves), in arrival order: the shard's mailbox, popped only
    /// under the owner.
    queue: Bounded<Job>,
    /// The shard's published read snapshot; I/O workers answer
    /// QUERY_STORIES/GET_STORY from it without touching the queue.
    snapshot: SnapshotSlot,
    /// BUSY rejections, bumped by I/O workers at admission.
    busy: Counter,
    /// Snapshot reads that touched this shard, bumped by I/O workers.
    reads: Counter,
    /// Single-snippet ingests an I/O worker applied under the owner
    /// lock instead of queueing.
    inline_ingests: Counter,
    /// REMOVE_DOC parts an I/O worker applied under the owner lock
    /// instead of queueing.
    inline_removes: Counter,
    /// EWMA of single-snippet ingest service time in nanoseconds,
    /// maintained by the shard worker. BUSY and SHED multiply it by the
    /// queue depth to turn the flat retry-after hint into one
    /// proportional to the actual backlog drain time.
    service_ewma_ns: AtomicU64,
}

/// A shard's owner lock as `lock` or `try_lock` took it, poisoned or not.
type Owner<'a> = LockResult<MutexGuard<'a, Option<ShardWorker>>>;

impl ShardPort {
    /// Shard `shard`'s port; its counters are registered, labeled, in
    /// the server's registry.
    fn new(queue_depth: usize, registry: &Registry, shard: usize) -> ShardPort {
        let id = shard.to_string();
        let labels: &[(&str, &str)] = &[("shard", &id)];
        ShardPort {
            owner: Mutex::new(None),
            queue: Bounded::new(queue_depth),
            snapshot: SnapshotSlot::new(),
            busy: registry.counter_with(
                "storypivot_shard_busy_rejections_total",
                "Ingests rejected with BUSY because the shard's queue was full.",
                labels,
            ),
            reads: registry.counter_with(
                "storypivot_shard_reads_total",
                "Reads answered from the shard's snapshot: a GET_STORY counts on the \
                 story's shard, a QUERY_STORIES on every shard.",
                labels,
            ),
            inline_ingests: registry.counter_with(
                "storypivot_shard_inline_ingests_total",
                "Single-snippet ingests an I/O worker applied under the shard's owner \
                 lock, without a queue hand-off.",
                labels,
            ),
            inline_removes: registry.counter_with(
                "storypivot_shard_inline_removes_total",
                "REMOVE_DOC parts an I/O worker applied under the shard's owner lock, \
                 without a queue hand-off.",
                labels,
            ),
            service_ewma_ns: AtomicU64::new(0),
        }
    }

    /// Wait for the owner and [`ShardPort::hold`] it with `own` as the
    /// holder's work — for threads that may wait (replica pullers, the
    /// SHUTDOWN orchestrator), never an I/O worker.
    pub(crate) fn with_worker<R>(
        &self,
        sched: &mut FaultHook,
        own: impl FnOnce(&mut ShardWorker) -> R,
    ) -> Option<R> {
        self.hold(Some(self.owner.lock()), sched, own)
    }

    /// The owner, if `try_lock` gets it (poisoned or not).
    fn try_take(&self) -> Option<Owner<'_>> {
        match self.owner.try_lock() {
            Ok(owner) => Some(Ok(owner)),
            Err(TryLockError::Poisoned(poisoned)) => Some(Err(poisoned)),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// The holder's rule (module docs) from the owner just `taken`, if
    /// it was: the queued jobs, then `own`, release, the jobs' answers,
    /// and while the queue is not empty another `try_lock`. A poisoned
    /// owner retires the worker: the slot is emptied, each queued job is
    /// answered "shard worker unavailable" and `own` does not run
    /// (`None`). `sched` perturbs the schedule between the steps.
    fn hold<'a, R>(
        &'a self,
        mut taken: Option<Owner<'a>>,
        sched: &mut FaultHook,
        own: impl FnOnce(&mut ShardWorker) -> R,
    ) -> Option<R> {
        let (mut own, mut result, mut answers) = (Some(own), None, Vec::new());
        while let Some(owner) = taken {
            let mut owner = owner.unwrap_or_else(|poisoned| {
                let mut owner = poisoned.into_inner();
                owner.take();
                owner
            });
            for _ in 0..self.queue.len() {
                let answer = match owner.as_mut() {
                    Some(worker) => worker.handle_next(),
                    None => {
                        let failed = |job: Job| (job.into_reply(), Part::Response(unavailable()));
                        self.queue.try_pop().map(failed)
                    }
                };
                let Some(answer) = answer else { break };
                answers.push(answer);
            }
            if let Some(own) = own.take() {
                result = owner.as_mut().map(own);
            }
            sched.perturb();
            drop(owner);
            sched.perturb();
            for (reply, part) in answers.drain(..) {
                reply.send(part);
            }
            sched.perturb();
            if self.queue.is_empty() {
                return result;
            }
            taken = self.try_take();
        }
        sched.perturb();
        result
    }

    /// Queue-depth-proportional retry hint, in milliseconds: the
    /// estimated drain time of the jobs already queued (depth × EWMA of
    /// observed per-snippet service time). Floored at 10 ms — which is
    /// also the exact hint before the first ingest has seeded the EWMA —
    /// and capped at 10 s so a hostile queue depth can never park
    /// clients for minutes.
    fn retry_hint(&self) -> u32 {
        let ewma_ns = self.service_ewma_ns.load(Ordering::Relaxed);
        let est_ms = (self.queue.len() as u64).saturating_mul(ewma_ns) / 1_000_000;
        est_ms.clamp(10, 10_000) as u32
    }
}

/// State shared between the I/O workers, replica pullers and the
/// SHUTDOWN orchestrator.
pub(crate) struct Shared {
    /// The one copy of the configuration; `cfg.leader` being `Some`
    /// makes this server a read-only follower replica.
    cfg: Arc<ServerConfig>,
    pub(crate) shards: Vec<Arc<ShardPort>>,
    next_source: AtomicU32,
    shutting_down: AtomicBool,
    done: AtomicBool,
    inboxes: Vec<Arc<Inbox>>,
    /// The I/O layer's own registry, merged into METRICS expositions.
    registry: Registry,
    io_metrics: IoMetrics,
    /// Connections whose SHUTDOWN arrived while another connection's
    /// shutdown was already draining; each gets an ack when it's done.
    shutdown_waiters: Mutex<Vec<Dest>>,
}

impl Shared {
    fn shard_of_source(&self, source: SourceId) -> usize {
        source.raw() as usize % self.shards.len()
    }

    /// Close the shard queues and mark the server done: replica pullers
    /// exit, and every I/O worker is nudged into its post-shutdown lame
    /// duck.
    fn stop(&self) {
        for port in &self.shards {
            port.queue.close();
        }
        self.done.store(true, Ordering::SeqCst);
        self.wake_io_workers();
    }

    /// Nudge every I/O worker out of its poll to re-check its state.
    fn wake_io_workers(&self) {
        for inbox in &self.inboxes {
            inbox.waker.wake();
        }
    }

    /// Whether a SHUTDOWN has completed (replica pullers poll this to
    /// know when to stop tailing the leader).
    pub(crate) fn is_done(&self) -> bool {
        self.done.load(Ordering::SeqCst)
    }
}

/// A running server: its bound address plus the thread handles needed
/// to wait for a client-driven SHUTDOWN.
pub struct ServerHandle {
    addr: SocketAddr,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Block until the server shuts down (a client must send SHUTDOWN),
    /// then join every thread `serve` started: the I/O workers (the
    /// last of which closes the listener) and a follower's replica
    /// pullers.
    pub fn join(self) {
        for thread in self.threads {
            let _ = thread.join();
        }
    }
}

/// Start a named server thread.
fn spawn(name: String, body: impl FnOnce() + Send + 'static) -> Result<JoinHandle<()>> {
    let what = format!("spawn {name}");
    std::thread::Builder::new()
        .name(name)
        .spawn(body)
        .map_err(|e| Error::Io(format!("{what}: {e}")))
}

/// Bind and start serving. `addr` may use port 0 for an ephemeral port;
/// the bound address is available via [`ServerHandle::addr`].
///
/// Before any client is accepted, every shard recovers: newest valid
/// checkpoint generation, then WAL tail replay. Source-id allocation
/// resumes past the highest recovered source.
pub fn serve<A: ToSocketAddrs>(addr: A, cfg: ServerConfig) -> Result<ServerHandle> {
    if cfg.shards == 0 {
        return Err(Error::InvalidConfig("serve: shards must be >= 1".into()));
    }
    if cfg.queue_depth == 0 {
        return Err(Error::InvalidConfig("serve: queue_depth must be >= 1".into()));
    }
    if cfg.io_workers == 0 {
        return Err(Error::InvalidConfig("serve: io_workers must be >= 1".into()));
    }
    if cfg.max_pipeline == 0 {
        return Err(Error::InvalidConfig("serve: max_pipeline must be >= 1".into()));
    }
    if cfg.leader.is_some() && cfg.wal_dir.is_none() {
        return Err(Error::InvalidConfig(
            "serve: replica mode requires --wal-dir (the follower's WAL copy \
             is its durable replication cursor)"
                .into(),
        ));
    }
    cfg.pivot.validate()?;
    let cfg = Arc::new(cfg);
    let listener = TcpListener::bind(addr)?;
    net::raise_backlog(&listener, net::SOMAXCONN)?;
    let bound = listener.local_addr()?;
    listener.set_nonblocking(true)?;

    let registry = Registry::new();
    let shards: Vec<Arc<ShardPort>> = (0..cfg.shards)
        .map(|i| Arc::new(ShardPort::new(cfg.queue_depth, &registry, i)))
        .collect();

    // Recover every shard before serving: clients must never observe a
    // partially recovered partition. Each worker publishes its first
    // snapshot at the end of recovery, so the read path is live (and
    // consistent) before the listener accepts anyone.
    let mut shard_workers = Vec::with_capacity(cfg.shards);
    for (idx, port) in shards.iter().enumerate() {
        shard_workers.push(ShardWorker::recover(idx, &cfg, Arc::clone(port))?);
    }
    // Resume source-id allocation past everything the checkpoints and
    // WALs brought back.
    let next_source = shard_workers
        .iter()
        .flat_map(|w| w.engine.sources().into_iter().map(|s| s.id.raw()))
        .max()
        .map_or(0, |m| m + 1);

    let mut inboxes = Vec::with_capacity(cfg.io_workers);
    let mut wake_rxs = Vec::with_capacity(cfg.io_workers);
    for _ in 0..cfg.io_workers {
        let (waker, rx) =
            net::wake_pair().map_err(|e| Error::Io(format!("serve: wake channel: {e}")))?;
        inboxes.push(Arc::new(Inbox {
            events: Mutex::new(Vec::new()),
            waker,
        }));
        wake_rxs.push(rx);
    }

    // Every fallible step before a thread starts is behind us (an error
    // above dropped the recovered workers with their ports): install
    // each worker behind its owner lock, so every thread that takes it
    // finds it there.
    for (port, worker) in shards.iter().zip(shard_workers) {
        *lock(&port.owner) = Some(worker);
    }

    let io_metrics = IoMetrics::register(&registry, cfg.io_workers);
    let shared = Arc::new(Shared {
        cfg: Arc::clone(&cfg),
        shards,
        next_source: AtomicU32::new(next_source),
        shutting_down: AtomicBool::new(false),
        done: AtomicBool::new(false),
        inboxes,
        registry,
        io_metrics,
        shutdown_waiters: Mutex::new(Vec::new()),
    });

    // A follower's replica pullers, then the I/O workers, which poll
    // the listener and keep what they accept.
    let mut threads = Vec::with_capacity(cfg.shards + cfg.io_workers);
    let start = || -> Result<()> {
        // Follower replica: one puller thread per shard tails the leader's
        // WAL and applies it to the local worker under its owner lock.
        if let Some(leader) = &cfg.leader {
            for i in 0..cfg.shards {
                let sid = i.to_string();
                let labels: &[(&str, &str)] = &[("shard", &sid)];
                let ctx = replica::PullerCtx {
                    shard: i,
                    leader: leader.clone(),
                    shared: Arc::clone(&shared),
                    lag_ops: shared.registry.gauge_with(
                        "storypivot_replica_lag_ops",
                        "Ops the leader has applied that this replica shard has not.",
                        labels,
                    ),
                    lag_bytes: shared.registry.gauge_with(
                        "storypivot_replica_lag_bytes",
                        "Leader WAL bytes not yet replicated to this shard.",
                        labels,
                    ),
                    reconnects: shared.registry.counter_with(
                        "storypivot_replica_reconnects_total",
                        "Reconnect attempts to the leader by this shard's puller \
                         (the initial connection is not counted).",
                        labels,
                    ),
                    drop_fault: cfg.fault_hook("repl_drop", i),
                    sched: cfg.sched_hook(cfg.io_workers, i),
                };
                threads.push(spawn(format!("pivot-repl-{i}"), move || replica::run_puller(ctx))?);
            }
        }

        let listener = Arc::new(listener);
        for (i, wake_rx) in wake_rxs.into_iter().enumerate() {
            let worker = IoWorker::new(&shared, i, wake_rx, Arc::clone(&listener));
            threads.push(spawn(format!("pivot-io-{i}"), move || worker.run())?);
        }
        Ok(())
    };
    if let Err(e) = start() {
        // Whatever did start winds down on its own, and the last I/O
        // worker to exit closes the listener.
        shared.stop();
        return Err(e);
    }
    Ok(ServerHandle {
        addr: bound,
        threads,
    })
}

/// Drive a SHUTDOWN to completion on a dedicated thread (it waits for
/// each shard's owner lock, which an I/O worker never may): on each
/// shard in turn, an ordinary hold ([`ShardPort::with_worker`]) whose
/// own work is the last snapshot and checkpoint
/// ([`ShardWorker::shutdown`]); then close the queues, mark done, and
/// ack the initiator and every parked waiter.
fn run_shutdown(shared: Arc<Shared>, initiator: Dest) {
    let mut failure = None;
    for (i, port) in shared.shards.iter().enumerate() {
        let mut sched = shared.cfg.sched_hook(shared.cfg.io_workers + 1, i);
        match port.with_worker(&mut sched, ShardWorker::shutdown) {
            Some(Response::ShutdownAck) => {}
            Some(failed) => failure = Some(failed),
            None => failure = Some(unavailable()),
        }
    }
    shared.stop();
    initiator.deliver(failure.unwrap_or(Response::ShutdownAck), true);
    let waiters = std::mem::take(&mut *lock(&shared.shutdown_waiters));
    for w in waiters {
        w.deliver(Response::ShutdownAck, true);
    }
}

#[cfg(test)]
mod tests {
    use super::io::IoEvent;
    use super::job::Reply;
    use super::*;
    use storypivot_types::{Snippet, SnippetId, Source, SourceKind, Timestamp};

    /// A thread that panics while holding a shard's owner, outside
    /// `mutate`'s `catch_unwind`, poisons it. The next holder retires
    /// the worker: the job queued on the shard and the next write are
    /// both answered "shard worker unavailable", and the waiting hold a
    /// puller would take returns `None` instead of applying.
    #[test]
    fn a_holder_panicking_outside_catch_unwind_retires_the_shard() {
        let cfg = Arc::new(ServerConfig { shards: 1, ..ServerConfig::default() });
        let port = Arc::new(ShardPort::new(4, &Registry::new(), 0));
        *lock(&port.owner) = Some(ShardWorker::recover(0, &cfg, Arc::clone(&port)).unwrap());
        let (waker, _wake_rx) = net::wake_pair().unwrap();
        let inbox = Arc::new(Inbox { events: Mutex::new(Vec::new()), waker });
        let reply = |seq| Reply::whole(Dest { inbox: Arc::clone(&inbox), conn: 0, seq });
        let answered = |seq| {
            lock(&inbox.events).iter().any(|ev| {
                matches!(ev, IoEvent::Deliver { seq: s, resp: Response::Error { message, .. }, .. }
                    if *s == seq && message == "shard worker unavailable")
            })
        };

        let holder = Arc::clone(&port);
        let panicked = std::thread::spawn(move || {
            let _owner = holder.owner.lock();
            panic!("injected: a holder panics outside catch_unwind");
        })
        .join();
        assert!(panicked.is_err());
        let source = Source::new(SourceId::new(0), "wire", SourceKind::Wire);
        assert!(port.queue.try_push(Job::AddSource(source, reply(0))).is_ok());

        let mut sched = FaultHook::default();
        assert!(port.with_worker(&mut sched, |_| ()).is_none(), "the worker kept applying");
        assert!(answered(0), "the queued job was not failed");
        assert!(lock(&port.owner).is_none(), "the slot still holds the worker");

        // The next write: the I/O worker's own apply finds no worker, so
        // it is pushed, and the pusher's `try_lock` fails it.
        let snippet = Snippet::builder(SnippetId::new(0), SourceId::new(0), Timestamp::from_secs(0))
            .build();
        assert!(port.hold(port.try_take(), &mut sched, |w| w.ingest(snippet.clone())).is_none());
        let job = Job::Ingest(snippet, reply(1), std::time::Instant::now());
        assert!(port.queue.try_push(job).is_ok());
        port.hold(port.try_take(), &mut sched, |_| ());
        assert!(answered(1), "the next write was not failed");
        assert!(port.queue.is_empty());
    }
}
