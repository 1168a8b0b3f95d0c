//! The sharded, backpressured, crash-safe TCP server.
//!
//! Topology: one acceptor thread, a fixed pool of connection-
//! multiplexing *I/O worker* threads, and N *shard* worker threads.
//! Each shard owns a full [`StoryPivot`] engine holding a disjoint
//! subset of sources (`source id mod N`), so identification — which is
//! per-source by construction (paper §2.1) — is embarrassingly
//! parallel across shards. A shard identifies and nothing else:
//! alignment and refinement are across sources (§2.3), so no shard can
//! run them on what it holds, and no opcode serves their result yet.
//!
//! # The serving runtime
//!
//! Connections are nonblocking sockets owned by I/O workers; each
//! worker drives its set through a [`substrate::net`] `poll(2)` loop
//! and a per-connection state machine: accumulate bytes into a pooled
//! read buffer ([`substrate::pool`]), peel complete frames with
//! [`frame_ready`], decode them *in place* with
//! [`Request::decode_borrowed`] (zero heap allocations for small
//! frames), dispatch, and stream responses back through queued
//! vectored writes. Requests pipeline: a connection may have up to
//! `max_pipeline` requests in flight, and responses are re-sequenced
//! (a per-request `seq` plus a reorder map) so the wire order always
//! matches the request order, exactly as the one-thread-per-connection
//! runtime behaved. An optional `idle_timeout` reaps connections that
//! complete no frame for the configured window, which also bounds
//! slow-loris readers.
//!
//! I/O workers never block: every frame becomes a `Job` routed to
//! its shard through a bounded queue ([`substrate::queue::Bounded`]),
//! and the shard replies by posting a completion event back to the
//! owning worker's inbox (a wake-channel nudges the poller). When an
//! ingest hits a full queue the worker replies BUSY with a retry-after
//! hint instead of buffering — memory is bounded by
//! `shards × queue_depth` jobs no matter how fast clients push. Batch
//! ingests and control frames (query/stats/shutdown) want
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
//! (`catch_unwind`); the shard's engine is rebuilt from checkpoint +
//! WAL and the worker keeps draining its queue — other shards never
//! notice. An operation that panics the shard *again* during the
//! rebuild replay is quarantined: appended to the shard's dead-letter
//! file (`shard{i}.dead`), skipped by all future replays, and rejected
//! if resubmitted. STATS reports `restarts` and `quarantined` per
//! shard.
//!
//! SHUTDOWN drains: a dedicated orchestrator thread pushes a `Drain`
//! job behind all accepted work on every shard, each shard publishes
//! its last snapshot and writes a checkpoint generation (the engine is
//! left exactly as the last applied op left it, so a restart serves the
//! partition that was being served), the queues are closed, and only
//! then is the ack sent
//! (to the initiator and to every connection that sent a concurrent
//! SHUTDOWN).
//!
//! # Observability
//!
//! Each shard owns a private [`substrate::metrics::Registry`]; its
//! engine, WAL, and the per-shard serving gauges (queue depth,
//! restarts, quarantined ops, BUSY rejections — labeled `shard="N"`)
//! all record into it. The server additionally keeps one registry for
//! the I/O layer: open connections, pipeline depth, buffer-pool
//! checkouts and byte high-water, and transient accept failures. The
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
//! (`Shared`, one `ShardPort` per shard), [`serve`], the acceptor and
//! the SHUTDOWN orchestrator.
//! `job.rs`: `Job`, the reply callbacks with their drop-guards, `FanIn`.
//! `io.rs`: `IoWorker` and the connection state machine;
//! `io/dispatch.rs`: request decode and dispatch, push/park/retry.
//! `shard.rs`: `ShardWorker` — queue loop, journal + apply, publish, the
//! request handlers; `shard/recovery.rs`: recover, rebuild, checkpoints,
//! quarantine; `shard/repl.rs`: both shard-side ends of WAL shipping.
//!
//! [`StoryPivot`]: storypivot_core::StoryPivot
//! [`substrate::net`]: storypivot_substrate::net
//! [`substrate::pool`]: storypivot_substrate::pool
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

use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use storypivot_core::config::PivotConfig;
use storypivot_substrate::metrics::Registry;
use storypivot_substrate::net;
use storypivot_substrate::pool::BufferPool;
use storypivot_substrate::queue::Bounded;
use storypivot_substrate::rng::splitmix64;
use storypivot_substrate::wal::SyncPolicy;
use storypivot_types::{Error, Result, SourceId};

use self::io::{Inbox, IoEvent, IoMetrics, IoWorker};
use self::job::{unavailable, Dest, Reply};
pub(crate) use self::job::{Job, ReplAck, ReplCursor};
use self::shard::ShardWorker;
use crate::proto::Response;
use crate::replica;
use crate::snapshot::SnapshotSlot;

/// Ingesting a snippet with this exact headline makes the owning shard
/// worker panic — **in debug builds only** — providing a failure
/// injection hook for exercising the supervision path (engine restart,
/// two-strike dead-letter quarantine) from integration tests. Release
/// builds treat it as an ordinary headline.
pub const POISON_HEADLINE: &str = "__pivotd_poison_panic__";

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Number of shard worker threads (engines). Sources are routed by
    /// `source id mod shards`.
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
    /// The retry-after hint carried by BUSY replies, in milliseconds.
    pub retry_after_ms: u32,
    /// Artificial per-job delay in each shard worker. Zero in
    /// production; tests use it to hold a queue full deterministically.
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
    /// checkpoint writes, and replica-tail connections. `None` (and any
    /// release build) injects nothing; `pivotd` fills it from the
    /// `STORYPIVOT_FAULTS` environment variable.
    pub faults: Option<storypivot_substrate::fault::FaultPlan>,
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
            retry_after_ms: 10,
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

/// What one shard worker shares with the rest of the server: its job
/// queue, its published read snapshot, and the three counters that
/// cross the I/O-worker / shard-worker boundary.
pub(crate) struct ShardPort {
    pub(crate) queue: Bounded<Job>,
    /// The shard's published read snapshot; I/O workers answer
    /// QUERY_STORIES/GET_STORY from it without touching the queue.
    snapshot: SnapshotSlot,
    /// BUSY rejections, bumped by I/O workers at admission and reported
    /// by the shard (STATS, METRICS).
    busy: AtomicU64,
    /// Snapshot reads, bumped by I/O workers and folded into STATS by
    /// the shard.
    queries: AtomicU64,
    /// EWMA of single-snippet ingest service time in nanoseconds,
    /// maintained by the shard worker. BUSY and SHED multiply it by the
    /// queue depth to turn the flat retry-after hint into one
    /// proportional to the actual backlog drain time.
    service_ewma_ns: AtomicU64,
}

impl ShardPort {
    fn new(queue_depth: usize) -> ShardPort {
        ShardPort {
            queue: Bounded::new(queue_depth),
            snapshot: SnapshotSlot::new(),
            busy: AtomicU64::new(0),
            queries: AtomicU64::new(0),
            service_ewma_ns: AtomicU64::new(0),
        }
    }

    /// Queue-depth-proportional retry hint, in milliseconds: the
    /// estimated drain time of the jobs already queued (depth × EWMA of
    /// observed per-snippet service time). Floored at the configured
    /// flat `retry_after_ms` — which is also the exact hint before the
    /// first ingest has seeded the EWMA — and capped at
    /// `max(10 s, floor_ms)` so a hostile queue depth can never park
    /// clients for minutes.
    fn retry_hint(&self, floor_ms: u32) -> u32 {
        let ewma_ns = self.service_ewma_ns.load(Ordering::Relaxed);
        let est_ms = (self.queue.len() as u64).saturating_mul(ewma_ns) / 1_000_000;
        let cap = 10_000u64.max(floor_ms as u64);
        est_ms.max(floor_ms as u64).min(cap) as u32
    }
}

/// State shared between the acceptor, I/O workers, shard workers,
/// replica pullers, and [`ServerHandle`].
pub(crate) struct Shared {
    /// The one copy of the configuration; `cfg.leader` being `Some`
    /// makes this server a read-only follower replica.
    cfg: Arc<ServerConfig>,
    pub(crate) shards: Vec<Arc<ShardPort>>,
    next_source: AtomicU32,
    shutting_down: AtomicBool,
    done: AtomicBool,
    inboxes: Vec<Arc<Inbox>>,
    /// Frame buffers for reads and encoded responses.
    pool: BufferPool,
    /// The I/O layer's own registry, merged into METRICS expositions.
    registry: Registry,
    io_metrics: IoMetrics,
    connections: AtomicI64,
    /// Total requests dispatched whose responses have not yet been
    /// queued for write (the pipeline-depth gauge's source of truth).
    inflight: AtomicI64,
    conn_ids: AtomicU64,
    /// Connections whose SHUTDOWN arrived while another connection's
    /// shutdown was already draining; each gets an ack when it's done.
    shutdown_waiters: Mutex<Vec<Dest>>,
}

impl Shared {
    fn shard_of_source(&self, source: SourceId) -> usize {
        source.raw() as usize % self.shards.len()
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
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    io_workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether a SHUTDOWN has completed (queues closed, checkpoints
    /// written, acceptor stopping).
    pub fn is_done(&self) -> bool {
        self.shared.done.load(Ordering::SeqCst)
    }

    /// Block until the server shuts down (a client must send SHUTDOWN),
    /// then join every shard worker, the acceptor, and the I/O workers.
    pub fn join(mut self) {
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        for w in self.io_workers.drain(..) {
            let _ = w.join();
        }
    }
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
    let bound = listener.local_addr()?;
    listener.set_nonblocking(true)?;

    let shards: Vec<Arc<ShardPort>> =
        (0..cfg.shards).map(|_| Arc::new(ShardPort::new(cfg.queue_depth))).collect();

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
            load: AtomicI64::new(0),
        }));
        wake_rxs.push(rx);
    }

    let registry = Registry::new();
    let io_metrics = IoMetrics::register(&registry);
    let shared = Arc::new(Shared {
        cfg: Arc::clone(&cfg),
        shards,
        next_source: AtomicU32::new(next_source),
        shutting_down: AtomicBool::new(false),
        done: AtomicBool::new(false),
        inboxes,
        pool: BufferPool::new(8 * 1024, 1024),
        registry,
        io_metrics,
        connections: AtomicI64::new(0),
        inflight: AtomicI64::new(0),
        conn_ids: AtomicU64::new(0),
        shutdown_waiters: Mutex::new(Vec::new()),
    });

    let mut workers = Vec::with_capacity(cfg.shards);
    for shard in shard_workers {
        let idx = shard.idx;
        workers.push(
            std::thread::Builder::new()
                .name(format!("pivot-shard-{idx}"))
                .spawn(move || shard.run())
                .map_err(|e| Error::Io(format!("spawn shard worker: {e}")))?,
        );
    }

    let mut io_workers = Vec::with_capacity(cfg.io_workers);
    for (i, wake_rx) in wake_rxs.into_iter().enumerate() {
        let worker = IoWorker::new(&shared, i, wake_rx);
        io_workers.push(
            std::thread::Builder::new()
                .name(format!("pivot-io-{i}"))
                .spawn(move || worker.run())
                .map_err(|e| Error::Io(format!("spawn io worker: {e}")))?,
        );
    }

    let accept_shared = Arc::clone(&shared);
    let acceptor = std::thread::Builder::new()
        .name("pivot-accept".into())
        .spawn(move || accept_loop(listener, accept_shared))
        .map_err(|e| Error::Io(format!("spawn acceptor: {e}")))?;

    // Follower replica: one puller thread per shard tails the leader's
    // WAL and feeds ReplBootstrap/ReplApply jobs to the local worker.
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
                reconnects: shared.registry.gauge_with(
                    "storypivot_replica_reconnects",
                    "Reconnect attempts to the leader by this shard's puller \
                     (the initial connection is not counted).",
                    labels,
                ),
                drop_fault: cfg
                    .faults
                    .as_ref()
                    .map(|p| p.hook("repl_drop", i as u64))
                    .unwrap_or_else(storypivot_substrate::fault::FaultHook::inert),
            };
            workers.push(
                std::thread::Builder::new()
                    .name(format!("pivot-repl-{i}"))
                    .spawn(move || replica::run_puller(ctx))
                    .map_err(|e| Error::Io(format!("spawn replica puller: {e}")))?,
            );
        }
    }

    Ok(ServerHandle {
        addr: bound,
        shared,
        acceptor: Some(acceptor),
        workers,
        io_workers,
    })
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let mut backoff = Duration::from_millis(1);
    // Deterministic backoff jitter: persistent accept errors (EMFILE
    // across many servers on one host) must not march every acceptor in
    // lockstep.
    let mut jitter_state: u64 = 0x9e37_79b9_7f4a_7c15;
    loop {
        if shared.done.load(Ordering::SeqCst) {
            // Grace sweep: the kernel may have completed handshakes (or
            // have SYNs in flight) that dropping the listener would RST
            // mid-request. Serve them for a short window — post-done
            // dispatch acks SHUTDOWN immediately and rejects mutations
            // with a typed shutting-down error — so a client that
            // connected concurrently with shutdown gets a well-formed
            // reply instead of a connection reset.
            let grace = Instant::now() + Duration::from_millis(50);
            while Instant::now() < grace {
                match listener.accept() {
                    Ok((stream, _)) => hand_off(&shared, stream),
                    Err(_) => std::thread::sleep(Duration::from_millis(5)),
                }
            }
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                backoff = Duration::from_millis(1);
                hand_off(&shared, stream);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => {
                // Transient accept failure (EMFILE, ECONNABORTED, …):
                // back off exponentially with jitter instead of
                // hot-spinning the accept loop.
                shared.io_metrics.accept_errors.inc();
                let jitter = (splitmix64(&mut jitter_state) >> 56) as u32; // 0..=255
                std::thread::sleep(backoff + backoff * jitter / 512); // +0..50%
                backoff = (backoff * 2).min(Duration::from_millis(100));
            }
        }
    }
}

/// Assign a fresh connection to the least-loaded I/O worker.
fn hand_off(shared: &Arc<Shared>, stream: TcpStream) {
    let inbox = shared
        .inboxes
        .iter()
        .min_by_key(|ib| ib.load.load(Ordering::Relaxed))
        .expect("io_workers >= 1");
    inbox.load.fetch_add(1, Ordering::Relaxed);
    inbox.send(IoEvent::NewConn(stream));
}

/// Drive a SHUTDOWN to completion on a dedicated thread (it blocks on
/// full queues and on shard acks, which an I/O worker never may):
/// push a `Drain` behind all accepted work on every shard, await the
/// acks, close the queues, mark done, then ack the initiator and every
/// parked waiter.
fn run_shutdown(shared: Arc<Shared>, initiator: Dest) {
    let mut pending = Vec::with_capacity(shared.shards.len());
    for port in &shared.shards {
        let (tx, rx) = std::sync::mpsc::sync_channel::<Response>(1);
        let reply: Reply = Box::new(move |resp| {
            let _ = tx.send(resp);
        });
        // The Drain sits behind all previously accepted work: by the
        // time a shard replies, its queue prefix has been fully applied.
        if port.queue.push(Job::Drain(reply)).is_ok() {
            pending.push(rx);
        }
    }
    let mut failure = None;
    for rx in pending {
        match rx.recv() {
            Ok(Response::ShutdownAck) => {}
            Ok(other) => failure = Some(other),
            Err(_) => failure = Some(unavailable()),
        }
    }
    for port in &shared.shards {
        port.queue.close();
    }
    shared.done.store(true, Ordering::SeqCst);
    initiator.deliver(failure.unwrap_or(Response::ShutdownAck), true);
    let waiters = std::mem::take(&mut *lock(&shared.shutdown_waiters));
    for w in waiters {
        w.deliver(Response::ShutdownAck, true);
    }
    // Nudge every worker so it notices `done` promptly.
    for inbox in &shared.inboxes {
        inbox.waker.wake();
    }
}
