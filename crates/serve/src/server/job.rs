//! What waits in a shard's mailbox: the [`Job`] a request becomes when
//! the I/O worker cannot apply it itself, and the [`Reply`] that
//! carries its answer, from whichever thread next holds the shard's
//! owner, back to the right pipeline slot of the right connection, as
//! an event in the owning I/O worker's inbox. A reply to a fanned-out
//! request (INGEST_BATCH, REMOVE_DOC, METRICS) carries one shard's
//! part; the I/O worker sums the parts in the connection's own state.
//! A reply dropped unsent still delivers an error, so no client hangs.

use std::sync::Arc;
use std::time::Instant;

use storypivot_types::{DocId, Snippet, Source};

use super::io::{Inbox, IoEvent, Part};
use crate::proto::Response;

/// Work an I/O worker routed to one shard's queue: what found the owner
/// busy, or what it never applies itself. The next thread to hold the
/// owner pops and applies it.
pub(crate) enum Job {
    AddSource(Source, Reply),
    /// A single-snippet ingest; the `Instant` is when the job was
    /// enqueued, so the shard worker can shed it once its deadline
    /// budget (`ServerConfig::deadline_ms`) has already elapsed.
    Ingest(Snippet, Reply, Instant),
    IngestMany(Vec<Snippet>, Reply),
    RemoveDoc(DocId, Reply),
    /// Snapshot the shard's metrics registry (one part of METRICS).
    Metrics(Reply),
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

/// Where a queued job's answer goes: the request's [`Dest`], and
/// whether the answer is one shard's part of a fanned-out request
/// rather than the whole response. Dropped unsent, it delivers
/// "shard worker unavailable" in its place.
pub(crate) struct Reply {
    dest: Option<Dest>,
    part: bool,
}

impl Reply {
    /// The whole response to the request at `dest`.
    pub(super) fn whole(dest: Dest) -> Reply {
        Reply { dest: Some(dest), part: false }
    }

    /// One shard's part of the fanned-out request at `dest`.
    pub(super) fn part(dest: Dest) -> Reply {
        Reply { dest: Some(dest), part: true }
    }

    /// Post the answer to the request's I/O worker.
    pub(super) fn send(mut self, part: Part) {
        self.post(part);
    }

    fn post(&mut self, part: Part) {
        let Some(dest) = self.dest.take() else { return };
        match part {
            Part::Response(resp) if !self.part => dest.deliver(resp, false),
            part => dest.inbox.send(IoEvent::Part {
                conn: dest.conn,
                seq: dest.seq,
                part,
            }),
        }
    }
}

impl Drop for Reply {
    fn drop(&mut self) {
        self.post(Part::Response(unavailable()));
    }
}

pub(super) fn unavailable() -> Response {
    Response::Error {
        code: 7,
        message: "shard worker unavailable".into(),
    }
}

impl Job {
    /// Where the job's answer goes.
    pub(super) fn into_reply(self) -> Reply {
        let (Job::AddSource(_, reply)
        | Job::Ingest(_, reply, _)
        | Job::IngestMany(_, reply)
        | Job::RemoveDoc(_, reply)
        | Job::Metrics(reply)
        | Job::Repl { reply, .. }) = self;
        reply
    }
}

/// Answer a job with `resp` without applying it.
pub(super) fn fail_job(job: Job, resp: Response) {
    job.into_reply().send(Part::Response(resp));
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
