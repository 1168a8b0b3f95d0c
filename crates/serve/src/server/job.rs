//! What travels between the I/O workers and the shard workers: the
//! [`Job`] a request becomes, the reply callbacks that carry its answer
//! back to the right pipeline slot of the right connection, and the
//! fan-in that merges one answer out of several shards' parts. Every
//! reply path has a drop-guard, so a job that dies with its worker still
//! produces an error response instead of a hung client.

use std::sync::mpsc::SyncSender;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use storypivot_substrate::metrics::Snapshot;
use storypivot_types::{DocId, Error, Result, Snippet, Source};

use super::io::{Inbox, IoEvent};
use super::lock;
use crate::proto::Response;

/// The reply half of a shard job: a one-shot callback the shard worker
/// invokes with the response. Replies built from a connection carry a
/// drop-guard, so a job that dies with its worker still produces an
/// error response instead of a hung client.
pub(crate) type Reply = Box<dyn FnOnce(Response) + Send>;

/// Reply callback for metrics snapshots (merged by the I/O layer).
pub(crate) type SnapReply = Box<dyn FnOnce(Snapshot) + Send>;

/// A replica shard's durable replication position: the checkpoint
/// generation it bootstrapped from plus the byte length of its local
/// WAL copy. Because the follower appends the leader's record payloads
/// through the same deterministic framing, its WAL is byte-identical
/// to the leader's — so "my WAL length" *is* "the leader offset I have
/// everything before", and a restart recovers the cursor for free.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ReplCursor {
    /// Checkpoint generation the WAL tail applies on top of.
    pub(crate) generation: u64,
    /// Local WAL length == leader WAL offset fully replicated.
    pub(crate) wal_len: u64,
    /// Ops applied since the generation (drives the lag-in-ops gauge).
    pub(crate) ops: u64,
}

/// Acknowledgement channel for replication jobs: the puller thread
/// blocks on the paired receiver until the shard worker reports the
/// cursor it reached (or why it couldn't).
pub(crate) type ReplAck = SyncSender<Result<ReplCursor>>;

/// Work routed to one shard.
pub(crate) enum Job {
    AddSource(Source, Reply),
    /// A single-snippet ingest; the `Instant` is when the job was
    /// enqueued, so the shard worker can shed it once its deadline
    /// budget (`ServerConfig::deadline_ms`) has already elapsed.
    Ingest(Snippet, Reply, Instant),
    IngestMany(Vec<Snippet>, Reply),
    RemoveDoc(DocId, Reply),
    Stats(Reply),
    /// Snapshot the shard's metrics registry (merged by the I/O layer).
    Metrics(SnapReply),
    /// Flush + checkpoint; the shard replies once its state is durable.
    Drain(Reply),
    /// Leader side of REPL_SUBSCRIBE: ship WAL records from
    /// `wal_offset` (or a checkpoint if the follower's generation is
    /// stale).
    Repl {
        /// Generation the follower believes it is on.
        generation: u64,
        /// Leader-WAL byte offset the follower has replicated through.
        wal_offset: u64,
        /// Where the REPL_FRAME / REPL_CHECKPOINT response goes.
        reply: Reply,
    },
    /// Follower side: install the leader's checkpoint bytes verbatim
    /// and reset the local WAL.
    ReplBootstrap {
        /// The leader's checkpoint generation.
        generation: u64,
        /// Raw checkpoint bytes (empty = start from a fresh engine).
        checkpoint: Vec<u8>,
        /// Cursor acknowledgement back to the puller.
        ack: ReplAck,
    },
    /// Follower side: append + apply a batch of leader WAL records
    /// (an empty batch is a cursor probe).
    ReplApply {
        /// Concatenated whole WAL records, leader framing intact.
        records: Vec<u8>,
        /// Cursor acknowledgement back to the puller.
        ack: ReplAck,
    },
}

/// The address of one in-flight request: which worker, which
/// connection, which pipeline slot.
#[derive(Clone)]
pub(super) struct Dest {
    pub(super) inbox: Arc<Inbox>,
    pub(super) conn: u64,
    pub(super) seq: u64,
}

impl Dest {
    pub(super) fn deliver(&self, resp: Response, close: bool) {
        self.inbox.send(IoEvent::Deliver {
            conn: self.conn,
            seq: self.seq,
            resp,
            close,
        });
    }
}

pub(super) fn unavailable() -> Response {
    Response::Error {
        code: 7,
        message: "shard worker unavailable".into(),
    }
}

/// Wrap a [`Dest`] as a [`Reply`]. If the shard drops the job without
/// invoking it (worker died, queue destroyed), the guard delivers an
/// error so the client never hangs — the callback equivalent of the
/// old `await_reply` fallback.
pub(super) fn direct_reply(dest: Dest) -> Reply {
    let mut guard = DestGuard(Some(dest));
    Box::new(move |resp| {
        if let Some(d) = guard.0.take() {
            d.deliver(resp, false);
        }
    })
}

struct DestGuard(Option<Dest>);

impl Drop for DestGuard {
    fn drop(&mut self) {
        if let Some(d) = self.0.take() {
            d.deliver(unavailable(), false);
        }
    }
}

/// A fan-out/fan-in completion: N shard parts merge into one response
/// once the last part lands. Parts complete in any order; the merge
/// sees them indexed by shard position. `fail` short-circuits once
/// (first failure wins, later parts are ignored).
pub(super) struct FanIn<T> {
    state: Mutex<FanState<T>>,
    dest: Dest,
}

pub(super) type MergeFn<T> = Box<dyn FnOnce(Vec<T>) -> Response + Send>;

struct FanState<T> {
    parts: Vec<Option<T>>,
    remaining: usize,
    merge: Option<MergeFn<T>>,
}

impl<T> FanIn<T> {
    pub(super) fn new(dest: Dest, n: usize, merge: MergeFn<T>) -> Arc<FanIn<T>> {
        Arc::new(FanIn {
            state: Mutex::new(FanState {
                parts: (0..n).map(|_| None).collect(),
                remaining: n,
                merge: Some(merge),
            }),
            dest,
        })
    }

    fn part(&self, idx: usize, value: T) {
        let done = {
            let mut st = lock(&self.state);
            if st.merge.is_none() || st.parts[idx].is_some() {
                None
            } else {
                st.parts[idx] = Some(value);
                st.remaining -= 1;
                if st.remaining == 0 {
                    let merge = st.merge.take().expect("checked above");
                    let parts = st.parts.iter_mut().map(|p| p.take().expect("all landed")).collect();
                    Some((merge, parts))
                } else {
                    None
                }
            }
        };
        if let Some((merge, parts)) = done {
            self.dest.deliver(merge(parts), false);
        }
    }

    fn fail(&self, resp: Response) {
        let failed = lock(&self.state).merge.take().is_some();
        if failed {
            self.dest.deliver(resp, false);
        }
    }
}

/// Wrap one fan-in slot as a reply callback; the drop-guard fails the
/// whole fan if the shard drops the job uninvoked.
pub(super) fn part_reply<T: Send + 'static>(fan: Arc<FanIn<T>>, idx: usize) -> Box<dyn FnOnce(T) + Send> {
    let mut guard = FanGuard { fan: Some(fan), idx };
    Box::new(move |value| {
        if let Some(f) = guard.fan.take() {
            f.part(guard.idx, value);
        }
    })
}

struct FanGuard<T> {
    fan: Option<Arc<FanIn<T>>>,
    #[allow(dead_code)]
    idx: usize,
}

impl<T> Drop for FanGuard<T> {
    fn drop(&mut self) {
        if let Some(f) = self.fan.take() {
            f.fail(unavailable());
        }
    }
}

/// Invoke a job's reply with `resp` (defusing its drop-guard); a
/// metrics job carries a snapshot-typed reply and is simply dropped,
/// which fails its fan through the guard. Replication acks get a
/// typed error so the puller backs off instead of hanging.
pub(super) fn fail_job(job: Job, resp: Response) {
    match job {
        Job::AddSource(_, r)
        | Job::Ingest(_, r, _)
        | Job::IngestMany(_, r)
        | Job::RemoveDoc(_, r)
        | Job::Stats(r)
        | Job::Drain(r)
        | Job::Repl { reply: r, .. } => r(resp),
        Job::Metrics(_) => {}
        Job::ReplBootstrap { ack, .. } | Job::ReplApply { ack, .. } => {
            let _ = ack.send(Err(Error::Io(
                "shard queue rejected the replication job".into(),
            )));
        }
    }
}

pub(super) fn fail_job_closed(job: Job) {
    fail_job(
        job,
        Response::Error {
            code: 7,
            message: "server is shutting down".into(),
        },
    );
}
