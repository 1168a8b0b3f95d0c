//! The I/O workers: each multiplexes its share of the connections
//! through one `poll(2)` loop and a per-connection state machine —
//! read, peel frames, dispatch ([`dispatch`]), re-sequence completions,
//! write. Nothing here ever waits for a shard: an uncontended
//! single-snippet INGEST is applied under the shard's owner lock, taken
//! with `try_lock`, and everything else is queued.

mod dispatch;

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use storypivot_substrate::metrics::{Counter, Gauge, Registry};
use storypivot_substrate::net;
use storypivot_substrate::pool::PooledBuf;

use super::job::Job;
use super::{lock, Shared};
use crate::proto::{frame_into, frame_ready, Response};

/// A completion or new-connection event posted to an I/O worker.
pub(super) enum IoEvent {
    /// The acceptor handed this worker a fresh connection.
    NewConn(TcpStream),
    /// A response for request `seq` on connection `conn` is ready;
    /// `close` ends the connection once the response is flushed.
    Deliver {
        conn: u64,
        seq: u64,
        resp: Response,
        close: bool,
    },
}

/// An I/O worker's mailbox. `send` never blocks (lock, push, wake), so
/// shard workers can deliver completions without ever waiting on the
/// I/O layer — there is no lock cycle between the two.
pub(super) struct Inbox {
    pub(super) events: Mutex<Vec<IoEvent>>,
    pub(super) waker: net::Waker,
    /// Connections currently assigned to this worker (acceptor
    /// load-balances on it).
    pub(super) load: AtomicI64,
}

impl Inbox {
    pub(super) fn send(&self, ev: IoEvent) {
        lock(&self.events).push(ev);
        self.waker.wake();
    }

    fn take_into(&self, into: &mut Vec<IoEvent>) {
        std::mem::swap(&mut *lock(&self.events), into);
    }

    fn is_empty(&self) -> bool {
        lock(&self.events).is_empty()
    }
}

/// Server-wide I/O-layer metric handles (one registry, unlabeled —
/// they describe the whole serving runtime, not one shard).
pub(super) struct IoMetrics {
    connections_open: Gauge,
    pipeline_depth: Gauge,
    pool_buffers_outstanding: Gauge,
    pool_bytes_highwater: Gauge,
    pub(super) accept_errors: Counter,
    degraded_reads: Counter,
}

impl IoMetrics {
    pub(super) fn register(registry: &Registry) -> IoMetrics {
        IoMetrics {
            connections_open: registry.gauge(
                "storypivot_connections_open",
                "Open client connections across all I/O workers.",
            ),
            pipeline_depth: registry.gauge(
                "storypivot_pipeline_depth",
                "Requests dispatched whose responses are not yet queued for write.",
            ),
            pool_buffers_outstanding: registry.gauge(
                "storypivot_pool_buffers_outstanding",
                "Frame buffers currently checked out of the serving buffer pool.",
            ),
            pool_bytes_highwater: registry.gauge(
                "storypivot_pool_bytes_highwater",
                "High-water mark of bytes charged to checked-out frame buffers.",
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

    /// Set the buffer-pool gauges, levels read at scrape time.
    fn sync_io_gauges(&self) {
        let m = &self.io_metrics;
        let ps = self.pool.stats();
        m.pool_buffers_outstanding.set(ps.outstanding as i64);
        m.pool_bytes_highwater.set(ps.bytes_highwater as i64);
    }
}

/// Poller token reserved for the worker's wake channel.
const WAKE_TOKEN: usize = usize::MAX;

#[cfg(unix)]
fn raw_fd(s: &TcpStream) -> i32 {
    use std::os::unix::io::AsRawFd;
    s.as_raw_fd()
}

#[cfg(not(unix))]
fn raw_fd(_s: &TcpStream) -> i32 {
    -1
}

/// An encoded response waiting for its pipeline turn, plus whether the
/// connection closes once it is flushed.
type ReadyFrame = (PooledBuf, bool);

/// One multiplexed connection's state machine.
struct Conn {
    stream: TcpStream,
    fd: i32,
    /// Accumulated unparsed bytes; `None` between frames, so idle
    /// connections hold no pool buffer.
    rd: Option<PooledBuf>,
    /// Encoded responses queued for the socket, in wire order.
    outbox: VecDeque<PooledBuf>,
    /// Bytes of `outbox.front()` already written.
    front_written: usize,
    /// Out-of-order completions parked until their sequence turn.
    ready: BTreeMap<u64, ReadyFrame>,
    /// Next sequence number to assign to a parsed request.
    next_seq: u64,
    /// Next sequence number to move into the outbox.
    next_write: u64,
    /// Parsing paused: a control push is waiting for queue space
    /// (preserves per-connection request order under backpressure).
    stalled: bool,
    /// A close-flagged response entered the outbox (or the stream
    /// desynchronised); flush what's queued, then drop the connection.
    closing: bool,
    /// The peer half-closed its write side; parse what's buffered,
    /// flush the responses, then drop the connection.
    eof: bool,
    /// Last time a complete frame was parsed (idle/slow-loris clock —
    /// partial reads do not count as progress).
    last_progress: Instant,
}

impl Conn {
    fn inflight(&self) -> u64 {
        self.next_seq - self.next_write
    }
}

struct PendingPush {
    conn: u64,
    pushes: VecDeque<(usize, Job)>,
}

/// A connection-multiplexing worker: one `poll(2)` loop over its
/// assigned sockets plus its inbox wake channel.
pub(super) struct IoWorker {
    shared: Arc<Shared>,
    inbox: Arc<Inbox>,
    wake_rx: net::WakeReceiver,
    poller: net::Poller,
    conns: HashMap<u64, Conn>,
    pending: Vec<PendingPush>,
    /// The last poll's ready fds, a buffer every tick reuses.
    ready_fds: Vec<net::Event>,
    events_buf: Vec<IoEvent>,
    scratch: Vec<u8>,
    last_reap: Instant,
    done_seen: Option<Instant>,
}

impl IoWorker {
    /// Worker `i` of the pool, not yet running: it will serve whatever
    /// the acceptor posts to `shared.inboxes[i]`.
    pub(super) fn new(shared: &Arc<Shared>, i: usize, wake_rx: net::WakeReceiver) -> IoWorker {
        IoWorker {
            shared: Arc::clone(shared),
            inbox: Arc::clone(&shared.inboxes[i]),
            wake_rx,
            poller: net::Poller::new(),
            conns: HashMap::new(),
            pending: Vec::new(),
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
                // Post-shutdown lame duck: keep answering (dispatch now
                // yields typed shutting-down errors) long enough for the
                // acceptor's grace sweep and in-flight deliveries, then
                // exit regardless.
                let now = Instant::now();
                let idle =
                    self.conns.is_empty() && self.pending.is_empty() && self.inbox.is_empty();
                let deadline = t0 + Duration::from_millis(500);
                let idle_ok = t0 + Duration::from_millis(120);
                if now >= deadline || (idle && now >= idle_ok) {
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
            for (&id, conn) in &self.conns {
                let mut interest = 0u8;
                if !conn.closing && !conn.eof && !conn.stalled && conn.inflight() < max_pipeline {
                    interest |= net::READABLE;
                }
                if !conn.outbox.is_empty() {
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
                    IoEvent::NewConn(stream) => self.add_conn(stream),
                    IoEvent::Deliver {
                        conn,
                        seq,
                        resp,
                        close,
                    } => self.finish(conn, seq, resp, close),
                }
            }
            self.events_buf = inbox_events;

            self.retry_pending();
            self.maybe_reap();
        }
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            self.remove_conn(id);
        }
    }

    fn add_conn(&mut self, stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            self.inbox.load.fetch_sub(1, Ordering::Relaxed);
            return;
        }
        let fd = raw_fd(&stream);
        if fd < 0 {
            self.inbox.load.fetch_sub(1, Ordering::Relaxed);
            return;
        }
        let id = self.shared.conn_ids.fetch_add(1, Ordering::Relaxed);
        self.shared.io_metrics.connections_open.add(1);
        self.conns.insert(
            id,
            Conn {
                stream,
                fd,
                rd: None,
                outbox: VecDeque::new(),
                front_written: 0,
                ready: BTreeMap::new(),
                next_seq: 0,
                next_write: 0,
                stalled: false,
                closing: false,
                eof: false,
                last_progress: Instant::now(),
            },
        );
    }

    fn remove_conn(&mut self, id: u64) {
        if let Some(conn) = self.conns.remove(&id) {
            let m = &self.shared.io_metrics;
            m.pipeline_depth.add(-(conn.inflight() as i64));
            m.connections_open.add(-1);
            self.inbox.load.fetch_sub(1, Ordering::Relaxed);
            // Parked pushes for this connection would only produce
            // replies to a dead peer; dropping them fires the guards,
            // whose deliveries no-op against the removed id.
            self.pending.retain(|p| p.conn != id);
        }
    }

    /// Drop the connection once everything owed to the peer is out.
    fn close_if_drained(&mut self, id: u64) {
        let drained = match self.conns.get(&id) {
            Some(c) => (c.closing || c.eof) && c.outbox.is_empty() && c.inflight() == 0,
            None => false,
        };
        if drained {
            self.remove_conn(id);
        }
    }

    /// Pull bytes off the socket into the pooled read buffer, then
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
                        let rd = match conn.rd.as_mut() {
                            Some(rd) => rd,
                            None => conn.rd.insert(self.shared.pool.checkout()),
                        };
                        rd.extend_from_slice(&self.scratch[..n]);
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
                let Some(buf) = conn.rd.as_ref() else { return };
                match frame_ready(buf) {
                    Ok(None) => return,
                    Ok(Some(total)) => {
                        let seq = conn.next_seq;
                        conn.next_seq += 1;
                        conn.last_progress = Instant::now();
                        let rd = conn.rd.take().expect("checked above");
                        (seq, total, rd)
                    }
                    Err(e) => {
                        // Torn/oversized frame: the stream position is
                        // no longer trustworthy. Report once and close;
                        // buffered bytes are garbage now.
                        let seq = conn.next_seq;
                        conn.next_seq += 1;
                        conn.rd = None;
                        self.shared.io_metrics.pipeline_depth.add(1);
                        self.finish(id, seq, Response::from_error(&e), true);
                        return;
                    }
                }
            };
            self.shared.io_metrics.pipeline_depth.add(1);
            self.handle_request(id, seq, &rd[4..total]);
            let leftover = rd.len() - total;
            if leftover > 0 {
                rd.drain(..total);
            }
            if let Some(conn) = self.conns.get_mut(&id) {
                if leftover > 0 {
                    conn.rd = Some(rd);
                }
                // leftover == 0: dropping `rd` checks it back into the
                // pool — idle connections pin no buffer.
            }
        }
    }

    /// A response landed for `(conn, seq)`: encode it into a pooled
    /// buffer, park it in the reorder map, move every in-order entry to
    /// the outbox, and opportunistically flush.
    fn finish(&mut self, id: u64, seq: u64, resp: Response, close: bool) {
        self.finish_with(id, seq, close, |b| resp.encode(b));
    }

    /// [`IoWorker::finish`] for a response encoded from borrowed data.
    fn finish_with(&mut self, id: u64, seq: u64, close: bool, encode: impl FnOnce(&mut Vec<u8>)) {
        {
            let Some(conn) = self.conns.get_mut(&id) else { return };
            if seq < conn.next_write || conn.ready.contains_key(&seq) {
                return; // stale or duplicate completion
            }
            let mut buf = self.shared.pool.checkout();
            frame_into(buf.as_mut_vec(), encode);
            // An in-order completion (every one, for a client that waits
            // for each reply) goes straight to the outbox.
            let mut in_order = None;
            if seq == conn.next_write {
                in_order = Some((buf, close));
            } else {
                conn.ready.insert(seq, (buf, close));
            }
            while let Some((buf, close)) =
                in_order.take().or_else(|| conn.ready.remove(&conn.next_write))
            {
                conn.outbox.push_back(buf);
                conn.next_write += 1;
                self.shared.io_metrics.pipeline_depth.add(-1);
                if close {
                    conn.closing = true;
                }
            }
        }
        self.flush_conn(id);
        // Pipeline slack may have returned: resume parsing buffered
        // frames (no-op while a parse is already on the stack — it
        // holds the read buffer).
        let resume = match self.conns.get(&id) {
            Some(c) => !c.stalled && !c.closing && c.rd.is_some(),
            None => false,
        };
        if resume {
            self.parse_conn(id);
        }
    }

    /// Write as much of the outbox as the socket accepts, gathering up
    /// to 16 frames per `write_vectored` call.
    fn flush_conn(&mut self, id: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(&id) else { return };
            if conn.outbox.is_empty() {
                break;
            }
            let result = {
                let mut iov = [IoSlice::new(&[]); 16];
                let n = conn.outbox.len().min(iov.len());
                for (i, (slot, buf)) in iov.iter_mut().zip(&conn.outbox).enumerate() {
                    let start = if i == 0 { conn.front_written } else { 0 };
                    *slot = IoSlice::new(&buf[start..]);
                }
                (&conn.stream).write_vectored(&iov[..n])
            };
            match result {
                Ok(0) => {
                    self.remove_conn(id);
                    return;
                }
                Ok(n) => {
                    let mut n = n + conn.front_written;
                    while let Some(front) = conn.outbox.front() {
                        if n >= front.len() {
                            n -= front.len();
                            conn.outbox.pop_front();
                        } else {
                            break;
                        }
                    }
                    conn.front_written = n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
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
                    && c.outbox.is_empty()
                    && now.duration_since(c.last_progress) > idle
            })
            .map(|(&id, _)| id)
            .collect();
        for id in victims {
            self.remove_conn(id);
        }
    }
}
