//! The I/O workers: each owns the connections it accepts, end to end.
//! One `poll(2)` loop per worker watches its inbox's wake channel, its
//! connections and, while it is near the least loaded, the shared
//! listener; a per-connection state machine reads, peels frames,
//! dispatches ([`dispatch`]), sums the parts of fanned-out requests,
//! re-sequences completions and writes.
//! Nothing here ever waits for a shard: an I/O worker takes a shard's
//! owner only with `try_lock`, and whatever it cannot apply under it is
//! queued.

mod dispatch;

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use storypivot_substrate::fault::FaultHook;
use storypivot_substrate::metrics::{Counter, Gauge, Registry, Snapshot};
use storypivot_substrate::net;
use storypivot_types::{DocId, Error};

use super::job::Job;
use super::shard::internal_shape_error;
use super::{lock, Shared};
use crate::client::{backoff_delay_ms, BackoffPolicy};
use crate::proto::{frame_onto, frame_ready, Response};

/// A completion posted to an I/O worker.
pub(super) enum IoEvent {
    /// A response for request `seq` on connection `conn` is ready;
    /// `close` ends the connection once the response is flushed.
    Deliver {
        conn: u64,
        seq: u64,
        resp: Response,
        close: bool,
    },
    /// One shard's part of the fanned-out request `seq` on `conn`.
    Part { conn: u64, seq: u64, part: Part },
}

/// What a shard answers for a queued job: a response, or its metrics
/// snapshot as one part of METRICS.
pub(super) enum Part {
    Response(Response),
    Metrics(Snapshot),
}

/// A fanned-out request's running sum, kept in its connection's state
/// until the last part lands.
pub(super) struct Fan {
    /// Parts not yet landed.
    pub(super) waiting: usize,
    sum: Sum,
}

pub(super) enum Sum {
    /// INGEST_BATCH: snippets ingested.
    Ingested(u32),
    /// REMOVE_DOC: snippets removed; 0 is the unknown-document error.
    Removed(DocId, u32),
    /// METRICS: the shard snapshots, merged with the server registry
    /// when the last part lands.
    Metrics(Snapshot),
    /// The first failed part's response; later parts are ignored.
    Failed(Response),
}

impl Fan {
    pub(super) fn new(sum: Sum) -> Fan {
        Fan { waiting: 0, sum }
    }

    /// Fold one part into the sum; the first failed part wins.
    pub(super) fn add(&mut self, part: Part) {
        match (&mut self.sum, part) {
            (Sum::Ingested(total), Part::Response(Response::BatchIngested(n)))
            | (Sum::Removed(_, total), Part::Response(Response::Removed(n))) => *total += n,
            (Sum::Metrics(merged), Part::Metrics(snap)) => merged.merge(&snap),
            (Sum::Failed(_), _) => {}
            (_, Part::Response(failed)) => self.sum = Sum::Failed(failed),
            (_, Part::Metrics(_)) => self.sum = Sum::Failed(internal_shape_error()),
        }
    }

    pub(super) fn answer(self, shared: &Shared) -> Response {
        match self.sum {
            Sum::Failed(failed) => failed,
            Sum::Ingested(total) => Response::BatchIngested(total),
            Sum::Removed(doc, 0) => Response::from_error(&Error::UnknownDocument(doc)),
            Sum::Removed(_, total) => Response::Removed(total),
            Sum::Metrics(shards) => {
                let mut merged = shared.registry.snapshot();
                merged.merge(&shards);
                Response::Metrics {
                    text: merged.render(),
                }
            }
        }
    }
}

/// An I/O worker's mailbox. `send` never blocks (lock, push, wake), so
/// shard workers can deliver completions without ever waiting on the
/// I/O layer — there is no lock cycle between the two.
pub(super) struct Inbox {
    pub(super) events: Mutex<Vec<IoEvent>>,
    pub(super) waker: net::Waker,
}

impl Inbox {
    pub(super) fn send(&self, ev: IoEvent) {
        lock(&self.events).push(ev);
        self.waker.wake();
    }

    fn take_into(&self, into: &mut Vec<IoEvent>) {
        std::mem::swap(&mut *lock(&self.events), into);
    }
}

/// Server-wide I/O-layer metric handles (one registry, unlabeled —
/// they describe the whole serving runtime, not one shard).
pub(super) struct IoMetrics {
    connections_open: Gauge,
    pipeline_depth: Gauge,
    pub(super) accept_errors: Counter,
    degraded_reads: Counter,
    /// Connections each I/O worker holds; only a worker near the least
    /// loaded polls the listener.
    worker_connections: Vec<Gauge>,
}

impl IoMetrics {
    pub(super) fn register(registry: &Registry, io_workers: usize) -> IoMetrics {
        IoMetrics {
            connections_open: registry.gauge(
                "storypivot_connections_open",
                "Open client connections across all I/O workers.",
            ),
            pipeline_depth: registry.gauge(
                "storypivot_pipeline_depth",
                "Requests dispatched whose responses are not yet queued for write.",
            ),
            accept_errors: registry.counter(
                "storypivot_accept_errors_total",
                "Transient accept(2) failures (e.g. EMFILE) that triggered backoff.",
            ),
            degraded_reads: registry.counter(
                "storypivot_degraded_reads_total",
                "Snapshot reads answered while the target shard's write queue was \
                 saturated (degraded-read mode).",
            ),
            worker_connections: (0..io_workers)
                .map(|i| {
                    registry.gauge_with(
                        "storypivot_io_worker_connections",
                        "Open client connections on one I/O worker.",
                        &[("worker", &i.to_string())],
                    )
                })
                .collect(),
        }
    }
}

impl Shared {
    /// Count a snapshot read that touched `shard`. One served while the
    /// shard's write queue is saturated would have stalled (or been
    /// rejected) if reads went through the queue; counting those too
    /// makes the degraded mode observable at METRICS.
    fn note_read(&self, shard: usize) {
        let port = &self.shards[shard];
        port.reads.inc();
        if port.queue.len() >= port.queue.capacity() {
            self.io_metrics.degraded_reads.inc();
        }
    }
}

/// Poller token reserved for the worker's wake channel.
const WAKE_TOKEN: usize = usize::MAX;
/// Poller token reserved for the listener.
const LISTEN_TOKEN: usize = usize::MAX - 1;
/// A worker may accept while it holds at most 1/`ACCEPT_SLACK` more
/// connections than the least loaded one: exact while few are open, and
/// with many it accepts a run before the listener changes hands (a hand-off
/// costs every worker a pass over its poll set).
const ACCEPT_SLACK: i64 = 16;
/// Sockets accepted per listener readiness, so a connect burst cannot
/// starve the open connections (as `read_conn` bounds a firehose peer).
const ACCEPTS_PER_WAKE: usize = 16;
/// Backoff after a failed accept (EMFILE, ECONNABORTED, …), during
/// which the listener stays out of the poll set.
const ACCEPT_BACKOFF: BackoffPolicy = BackoffPolicy { max_attempts: 0, base_ms: 1, cap_ms: 100 };

#[cfg(unix)]
fn raw_fd(s: &impl std::os::unix::io::AsRawFd) -> i32 {
    s.as_raw_fd()
}

#[cfg(not(unix))]
fn raw_fd<T>(_s: &T) -> i32 {
    -1
}

/// A framed response waiting for its pipeline turn, plus whether the
/// connection closes once it is flushed.
type ReadyFrame = (Vec<u8>, bool);

/// One multiplexed connection's state machine. It never leaves the I/O
/// worker that accepted it, so its buffers are its own: each is
/// released (`Vec::new()`) once drained, and an idle connection holds
/// no heap bytes.
struct Conn {
    stream: TcpStream,
    fd: i32,
    /// Accumulated unparsed bytes.
    rd: Vec<u8>,
    /// Framed responses for the socket, in wire order; `wr[..written]`
    /// is already written.
    wr: Vec<u8>,
    written: usize,
    /// Out-of-order completions, framed, parked until their sequence
    /// turn.
    ready: BTreeMap<u64, ReadyFrame>,
    /// Next sequence number to assign to a parsed request.
    next_seq: u64,
    /// Next sequence number to frame onto `wr`.
    next_write: u64,
    /// Parsing paused: a control push is waiting for queue space
    /// (preserves per-connection request order under backpressure).
    stalled: bool,
    /// A close-flagged response was framed onto `wr` (or the stream
    /// desynchronised); flush what's queued, then drop the connection.
    closing: bool,
    /// The peer half-closed its write side; parse what's buffered,
    /// flush the responses, then drop the connection.
    eof: bool,
    /// Last time a complete frame was parsed (idle/slow-loris clock —
    /// partial reads do not count as progress).
    last_progress: Instant,
    /// Fanned-out requests still waiting for parts, by `seq`.
    fans: HashMap<u64, Fan>,
}

impl Conn {
    fn inflight(&self) -> u64 {
        self.next_seq - self.next_write
    }

    /// Nothing framed is left to write.
    fn flushed(&self) -> bool {
        self.written == self.wr.len()
    }
}

struct PendingPush {
    conn: u64,
    pushes: VecDeque<(usize, Job)>,
}

/// A connection-multiplexing worker: one `poll(2)` loop over the
/// listener, the sockets it accepted and its inbox wake channel.
pub(super) struct IoWorker {
    shared: Arc<Shared>,
    /// This worker's index in the pool.
    idx: usize,
    inbox: Arc<Inbox>,
    wake_rx: net::WakeReceiver,
    /// Shared by every worker; the last one to exit closes it.
    listener: Arc<TcpListener>,
    /// Consecutive failed accepts, the backoff's jitter stream, and
    /// when the listener rejoins the poll set after one.
    accept_failures: u32,
    accept_jitter: u64,
    accept_paused_until: Instant,
    poller: net::Poller,
    /// This worker's connections by id (a poll token); ids are never
    /// reused.
    conns: HashMap<u64, Conn>,
    next_conn: u64,
    pending: Vec<PendingPush>,
    /// This worker's `sched` hook on each shard.
    sched: Vec<FaultHook>,
    /// Shards this tick pushed a job to, each owed one more `try_lock`.
    pushed: Vec<bool>,
    /// The last poll's ready fds, a buffer every tick reuses.
    ready_fds: Vec<net::Event>,
    events_buf: Vec<IoEvent>,
    scratch: Vec<u8>,
    last_reap: Instant,
    done_seen: Option<Instant>,
}

impl IoWorker {
    /// Worker `i` of the pool, not yet running: it will serve the
    /// connections it accepts from `listener`, and the completions
    /// posted to `shared.inboxes[i]`.
    pub(super) fn new(
        shared: &Arc<Shared>,
        i: usize,
        wake_rx: net::WakeReceiver,
        listener: Arc<TcpListener>,
    ) -> IoWorker {
        IoWorker {
            shared: Arc::clone(shared),
            idx: i,
            inbox: Arc::clone(&shared.inboxes[i]),
            wake_rx,
            listener,
            accept_failures: 0,
            // Distinct per worker, so persistent accept errors do not
            // march every worker's retries in lockstep.
            accept_jitter: 0x9e37_79b9_7f4a_7c15 ^ i as u64,
            accept_paused_until: Instant::now(),
            poller: net::Poller::new(),
            conns: HashMap::new(),
            next_conn: 0,
            pending: Vec::new(),
            sched: (0..shared.shards.len()).map(|s| shared.cfg.sched_hook(i, s)).collect(),
            pushed: vec![false; shared.shards.len()],
            ready_fds: Vec::new(),
            events_buf: Vec::new(),
            scratch: vec![0u8; 64 * 1024],
            last_reap: Instant::now(),
            done_seen: None,
        }
    }

    pub(super) fn run(mut self) {
        loop {
            if self.done_seen.is_none() && self.shared.done.load(Ordering::SeqCst) {
                self.done_seen = Some(Instant::now());
            }
            if let Some(t0) = self.done_seen {
                // Post-shutdown lame duck: keep accepting and answering
                // (dispatch now yields typed shutting-down errors) long
                // enough for late connections and in-flight deliveries,
                // then exit regardless. Parked pushes and inbox events
                // only ever belong to open connections.
                let now = Instant::now();
                let deadline = t0 + Duration::from_millis(500);
                let idle_ok = t0 + Duration::from_millis(120);
                if now >= deadline || (self.conns.is_empty() && now >= idle_ok) {
                    break;
                }
            }

            let mut timeout = Duration::from_millis(200);
            if let Some(idle) = self.shared.cfg.idle_timeout {
                timeout = timeout.min(std::cmp::max(idle / 4, Duration::from_millis(10)));
            }
            if !self.pending.is_empty() {
                timeout = Duration::from_millis(1);
            }
            if self.done_seen.is_some() {
                timeout = timeout.min(Duration::from_millis(20));
            }

            let max_pipeline = self.shared.cfg.max_pipeline as u64;
            self.poller.clear();
            self.poller.register(self.wake_rx.fd(), WAKE_TOKEN, net::READABLE);
            let now = Instant::now();
            if self.accept_paused_until > now {
                timeout = timeout.min(self.accept_paused_until - now);
            } else if self.may_accept() {
                self.poller.register(raw_fd(&*self.listener), LISTEN_TOKEN, net::READABLE);
            }
            for (&id, conn) in &self.conns {
                debug_assert!(
                    !conn.rd.is_empty() || conn.rd.capacity() == 0,
                    "a connection with no buffered input holds read capacity"
                );
                debug_assert!(
                    !conn.flushed() || conn.wr.capacity() == 0,
                    "a connection with nothing left to write holds write capacity"
                );
                let mut interest = 0u8;
                if !conn.closing && !conn.eof && !conn.stalled && conn.inflight() < max_pipeline {
                    interest |= net::READABLE;
                }
                if !conn.flushed() {
                    interest |= net::WRITABLE;
                }
                if interest != 0 {
                    self.poller.register(conn.fd, id as usize, interest);
                }
            }
            if self.poller.poll(Some(timeout)).is_err() {
                // poll(2) itself failing is unrecoverable spin fuel;
                // sleep the tick instead of burning the core.
                std::thread::sleep(timeout);
            }

            let mut ready_fds = std::mem::take(&mut self.ready_fds);
            ready_fds.clear();
            ready_fds.extend(self.poller.events());
            for &ev in &ready_fds {
                if ev.token == WAKE_TOKEN {
                    self.wake_rx.drain();
                    continue;
                }
                if ev.token == LISTEN_TOKEN {
                    self.accept_conns();
                    continue;
                }
                let id = ev.token as u64;
                if ev.readable {
                    self.read_conn(id);
                }
                if ev.writable {
                    self.flush_conn(id);
                }
            }
            self.ready_fds = ready_fds;

            let mut inbox_events = std::mem::take(&mut self.events_buf);
            self.inbox.take_into(&mut inbox_events);
            for ev in inbox_events.drain(..) {
                match ev {
                    IoEvent::Deliver {
                        conn,
                        seq,
                        resp,
                        close,
                    } => self.finish(conn, seq, resp, close),
                    IoEvent::Part { conn, seq, part } => self.take_part(conn, seq, part),
                }
            }
            self.events_buf = inbox_events;

            self.retry_pending();
            self.combine_pushed();
            self.maybe_reap();
        }
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            self.remove_conn(id);
        }
        // Never near the least loaded again: the workers still running
        // take the listener over.
        self.held().set(i64::MAX);
        self.shared.wake_io_workers();
    }

    /// Whether this worker holds at most 1/[`ACCEPT_SLACK`] more
    /// connections than the least loaded one. Only such a worker polls
    /// the listener, so connections spread evenly however few arrive.
    fn may_accept(&self) -> bool {
        let counts = self.shared.io_metrics.worker_connections.iter().map(Gauge::get);
        let least = counts.min().unwrap_or(0);
        self.conns.len() as i64 <= least + least / ACCEPT_SLACK
    }

    /// This worker's entry in `storypivot_io_worker_connections`.
    fn held(&self) -> &Gauge {
        &self.shared.io_metrics.worker_connections[self.idx]
    }

    /// Accept what the listener has queued, up to
    /// [`ACCEPTS_PER_WAKE`], while [`IoWorker::may_accept`] holds; the
    /// sockets stay on this worker. One that may no longer accept wakes
    /// every worker, so the least loaded takes the listener over. A
    /// failed accept is counted and takes the listener out of the poll
    /// set for a jittered, exponentially growing pause.
    fn accept_conns(&mut self) {
        for _ in 0..ACCEPTS_PER_WAKE {
            if !self.may_accept() {
                self.shared.wake_io_workers();
                return;
            }
            match self.listener.accept() {
                Ok((stream, _)) => {
                    self.accept_failures = 0;
                    self.add_conn(stream);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(_) => {
                    self.shared.io_metrics.accept_errors.inc();
                    self.accept_failures = self.accept_failures.saturating_add(1);
                    let ms = backoff_delay_ms(
                        ACCEPT_BACKOFF,
                        0,
                        self.accept_failures,
                        &mut self.accept_jitter,
                    );
                    self.accept_paused_until = Instant::now() + Duration::from_millis(ms);
                    return;
                }
            }
        }
    }

    fn add_conn(&mut self, stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let fd = raw_fd(&stream);
        if fd < 0 {
            return;
        }
        let id = self.next_conn;
        self.next_conn += 1;
        self.shared.io_metrics.connections_open.add(1);
        self.conns.insert(
            id,
            Conn {
                stream,
                fd,
                rd: Vec::new(),
                wr: Vec::new(),
                written: 0,
                ready: BTreeMap::new(),
                next_seq: 0,
                next_write: 0,
                stalled: false,
                closing: false,
                eof: false,
                last_progress: Instant::now(),
                fans: HashMap::new(),
            },
        );
        self.held().set(self.conns.len() as i64);
    }

    fn remove_conn(&mut self, id: u64) {
        if let Some(conn) = self.conns.remove(&id) {
            let m = &self.shared.io_metrics;
            m.pipeline_depth.add(-(conn.inflight() as i64));
            m.connections_open.add(-1);
            self.held().set(self.conns.len() as i64);
            // Parked pushes for this connection would only produce
            // replies to a dead peer; dropping them drops their
            // replies, whose deliveries no-op against the removed id.
            self.pending.retain(|p| p.conn != id);
        }
    }

    /// Drop the connection once everything owed to the peer is out.
    fn close_if_drained(&mut self, id: u64) {
        let drained = match self.conns.get(&id) {
            Some(c) => (c.closing || c.eof) && c.flushed() && c.inflight() == 0,
            None => false,
        };
        if drained {
            self.remove_conn(id);
        }
    }

    /// Pull bytes off the socket into the connection's read buffer, then
    /// parse. Bounded per event (4 × scratch) so one firehose client
    /// cannot starve the rest of the poll set.
    fn read_conn(&mut self, id: u64) {
        let mut broken = false;
        {
            let Some(conn) = self.conns.get_mut(&id) else { return };
            if conn.closing || conn.eof {
                return;
            }
            for _ in 0..4 {
                match (&conn.stream).read(&mut self.scratch) {
                    Ok(0) => {
                        conn.eof = true;
                        break;
                    }
                    Ok(n) => {
                        conn.rd.extend_from_slice(&self.scratch[..n]);
                        if n < self.scratch.len() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        broken = true;
                        break;
                    }
                }
            }
        }
        if broken {
            self.remove_conn(id);
            return;
        }
        self.parse_conn(id);
        self.close_if_drained(id);
    }

    /// Peel complete frames off the read buffer and dispatch them,
    /// until the buffer runs dry, the pipeline cap is hit, or a push
    /// stalls the connection.
    fn parse_conn(&mut self, id: u64) {
        let max_pipeline = self.shared.cfg.max_pipeline as u64;
        loop {
            let (seq, total, mut rd) = {
                let Some(conn) = self.conns.get_mut(&id) else { return };
                if conn.stalled || conn.closing || conn.inflight() >= max_pipeline {
                    return;
                }
                match frame_ready(&conn.rd) {
                    Ok(None) => return,
                    Ok(Some(total)) => {
                        let seq = conn.next_seq;
                        conn.next_seq += 1;
                        conn.last_progress = Instant::now();
                        (seq, total, std::mem::take(&mut conn.rd))
                    }
                    Err(e) => {
                        // Torn/oversized frame: the stream position is
                        // no longer trustworthy. Report once and close;
                        // buffered bytes are garbage now.
                        let seq = conn.next_seq;
                        conn.next_seq += 1;
                        conn.rd = Vec::new();
                        self.shared.io_metrics.pipeline_depth.add(1);
                        self.finish(id, seq, Response::from_error(&e), true);
                        return;
                    }
                }
            };
            self.shared.io_metrics.pipeline_depth.add(1);
            self.handle_request(id, seq, &rd[4..total]);
            if let Some(conn) = self.conns.get_mut(&id) {
                // A drained buffer is dropped here, released.
                if rd.len() > total {
                    rd.drain(..total);
                    conn.rd = rd;
                }
            }
        }
    }

    /// One shard's part of the fanned-out request `(conn, seq)` landed:
    /// fold it into the connection's running sum, and answer once the
    /// last part is in, so the answer comes after every part's effect.
    /// A part whose connection is gone is ignored.
    fn take_part(&mut self, id: u64, seq: u64, part: Part) {
        let Some(conn) = self.conns.get_mut(&id) else { return };
        let Some(fan) = conn.fans.get_mut(&seq) else { return };
        fan.waiting -= 1;
        fan.add(part);
        if fan.waiting == 0 {
            let resp = conn.fans.remove(&seq).expect("looked up above").answer(&self.shared);
            self.finish(id, seq, resp, false);
        }
    }

    /// A response landed for `(conn, seq)`: frame it onto the write
    /// buffer if it is next in order, with every parked frame whose turn
    /// that brings, and opportunistically flush; otherwise frame it into
    /// the reorder map.
    fn finish(&mut self, id: u64, seq: u64, resp: Response, close: bool) {
        self.finish_with(id, seq, close, |b| resp.encode(b));
    }

    /// [`IoWorker::finish`] for a response encoded from borrowed data.
    fn finish_with(&mut self, id: u64, seq: u64, mut close: bool, encode: impl FnOnce(&mut Vec<u8>)) {
        {
            let Some(conn) = self.conns.get_mut(&id) else { return };
            if seq < conn.next_write || conn.ready.contains_key(&seq) {
                return; // stale or duplicate completion
            }
            if seq > conn.next_write {
                let mut frame = Vec::new();
                frame_onto(&mut frame, encode);
                conn.ready.insert(seq, (frame, close));
                return;
            }
            // An in-order completion (every one, for a client that waits
            // for each reply) is framed straight onto the write buffer.
            frame_onto(&mut conn.wr, encode);
            loop {
                conn.next_write += 1;
                self.shared.io_metrics.pipeline_depth.add(-1);
                conn.closing |= close;
                let Some((frame, then_close)) = conn.ready.remove(&conn.next_write) else { break };
                conn.wr.extend_from_slice(&frame);
                close = then_close;
            }
        }
        self.flush_conn(id);
        // Pipeline slack may have returned: resume parsing buffered
        // frames (no-op while a parse is already on the stack — it
        // holds the read buffer).
        let resume = match self.conns.get(&id) {
            Some(c) => !c.stalled && !c.closing && !c.rd.is_empty(),
            None => false,
        };
        if resume {
            self.parse_conn(id);
        }
    }

    /// Write as much of the write buffer as the socket accepts, one
    /// `write` per call. A fully written buffer is released; one the
    /// socket keeps refusing sheds its written front once that is the
    /// larger part, so a peer that never quite catches up does not pin
    /// what it has already read.
    fn flush_conn(&mut self, id: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(&id) else { return };
            if conn.flushed() {
                break;
            }
            match (&conn.stream).write(&conn.wr[conn.written..]) {
                Ok(0) => {
                    self.remove_conn(id);
                    return;
                }
                Ok(n) => {
                    conn.written += n;
                    if conn.flushed() {
                        conn.wr = Vec::new();
                        conn.written = 0;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if conn.written > conn.wr.len() / 2 {
                        conn.wr.drain(..conn.written);
                        conn.written = 0;
                    }
                    break;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.remove_conn(id);
                    return;
                }
            }
        }
        self.close_if_drained(id);
    }

    /// Throttled idle sweep: connections with no completed frame inside
    /// the window, nothing in flight, and nothing left to write are
    /// reaped. A slow-loris client that trickles bytes without ever
    /// completing a frame never advances the progress clock, so it is
    /// reaped on the same schedule.
    fn maybe_reap(&mut self) {
        let Some(idle) = self.shared.cfg.idle_timeout else { return };
        let now = Instant::now();
        if now.duration_since(self.last_reap) < Duration::from_millis(100) {
            return;
        }
        self.last_reap = now;
        let victims: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| {
                !c.closing
                    && c.inflight() == 0
                    && c.flushed()
                    && now.duration_since(c.last_progress) > idle
            })
            .map(|(&id, _)| id)
            .collect();
        for id in victims {
            self.remove_conn(id);
        }
    }
}
