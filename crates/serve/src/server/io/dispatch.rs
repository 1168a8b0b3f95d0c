//! Request dispatch: decode one frame in place and turn it into shard
//! jobs (or answer it on the spot — reads from the published snapshots,
//! redirects on a replica), with the non-blocking push/park/retry that
//! gives control frames backpressure and single ingests BUSY.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use storypivot_core::refine::story_source;
use storypivot_substrate::metrics::Snapshot;
use storypivot_substrate::queue::PushError;
use storypivot_types::{Error, Snippet, Source, SourceId};

use super::{IoWorker, PendingPush};
use crate::proto::{encode_stories, encode_story, Request, RequestRef, Response, StorySummary};
use crate::server::job::{
    direct_reply, fail_job, fail_job_closed, part_reply, Dest, FanIn, Job, MergeFn, Reply,
};
use crate::server::{lock, run_shutdown};
use crate::stats::{ServeStats, ShardStats};

/// The maximum number of sources the story-id partitioning scheme
/// supports (see `core::identify::STORY_ID_STRIDE`).
const MAX_SOURCES: u32 = 256;

impl IoWorker {
    /// Decode one frame in place and dispatch it. Every request gets a
    /// pipeline slot (`seq`); responses are delivered through `finish`,
    /// directly for local errors or via the shard reply path.
    pub(super) fn handle_request(&mut self, id: u64, seq: u64, payload: &[u8]) {
        let dest = Dest {
            inbox: Arc::clone(&self.inbox),
            conn: id,
            seq,
        };
        let req = match Request::decode_borrowed(payload) {
            Ok(req) => req,
            // Garbage opcode / truncated body: reply, then close.
            Err(e) => {
                self.finish(id, seq, Response::from_error(&e), true);
                return;
            }
        };
        // A follower replica serves reads only: every mutation (and a
        // replication subscribe — replicas don't chain) is answered
        // with a redirect to the leader, without touching the queues.
        if let Some(leader) = &self.shared.cfg.leader {
            if matches!(
                req,
                RequestRef::AddSource { .. }
                    | RequestRef::IngestSnippet(_)
                    | RequestRef::IngestBatch(_)
                    | RequestRef::RemoveDoc(_)
                    | RequestRef::ReplSubscribe { .. }
            ) {
                let leader = leader.clone();
                self.finish(id, seq, Response::NotLeader { leader }, false);
                return;
            }
        }
        match req {
            RequestRef::AddSource { name, kind, lag } => {
                let sid = self.shared.next_source.fetch_add(1, Ordering::SeqCst);
                if sid >= MAX_SOURCES {
                    let e = Error::InvalidConfig(format!(
                        "source limit reached ({MAX_SOURCES}): story-id partitioning supports \
                         at most {MAX_SOURCES} sources"
                    ));
                    self.finish(id, seq, Response::from_error(&e), false);
                    return;
                }
                let source = Source::new(SourceId::new(sid), name.to_string(), kind).with_lag(lag);
                let shard = self.shared.shard_of_source(source.id);
                self.push_one(id, shard, Job::AddSource(source, direct_reply(dest)));
            }
            RequestRef::IngestSnippet(sref) => {
                // The BUSY fast path: one snippet, one `try_push`. A
                // full shard queue is the client's problem (retry after
                // the hint), never the server's memory.
                let shard = self.shared.shard_of_source(sref.source);
                let job = Job::Ingest(sref.to_owned(), direct_reply(dest), Instant::now());
                let port = &self.shared.shards[shard];
                match port.queue.try_push(job) {
                    Ok(()) => {}
                    Err(PushError::Full(job)) => {
                        port.busy.fetch_add(1, Ordering::Relaxed);
                        let retry_after_ms = port.retry_hint(self.shared.cfg.retry_after_ms);
                        fail_job(job, Response::Busy { retry_after_ms });
                    }
                    Err(PushError::Closed(job)) => fail_job_closed(job),
                }
            }
            RequestRef::IngestBatch(batch) => {
                // Split by shard (preserving order within each shard);
                // the fan-in sums the per-shard counts.
                let n_shards = self.shared.shards.len();
                let mut by_shard: Vec<Vec<Snippet>> = vec![Vec::new(); n_shards];
                for sref in batch.iter() {
                    by_shard[self.shared.shard_of_source(sref.source)].push(sref.to_owned());
                }
                let participating: Vec<usize> =
                    (0..n_shards).filter(|&i| !by_shard[i].is_empty()).collect();
                if participating.is_empty() {
                    self.finish(id, seq, Response::BatchIngested(0), false);
                    return;
                }
                let fan = FanIn::new(
                    dest,
                    participating.len(),
                    Box::new(|parts: Vec<Response>| {
                        let mut total = 0u32;
                        for r in parts {
                            match r {
                                Response::BatchIngested(n) => total += n,
                                other => return other,
                            }
                        }
                        Response::BatchIngested(total)
                    }),
                );
                let mut jobs = VecDeque::with_capacity(participating.len());
                for (k, &shard) in participating.iter().enumerate() {
                    jobs.push_back((
                        shard,
                        Job::IngestMany(
                            std::mem::take(&mut by_shard[shard]),
                            part_reply(Arc::clone(&fan), k),
                        ),
                    ));
                }
                self.push_jobs(id, jobs);
            }
            // Reads never touch the shard queues: they merge the
            // published snapshots right here on the I/O worker, so a
            // query flash-crowd cannot starve (or be starved by)
            // ingest. `dest` is unused — the response is finished
            // synchronously in this call.
            RequestRef::QueryStories => {
                let snaps: Vec<_> =
                    self.shared.shards.iter().map(|port| port.snapshot.load()).collect();
                for (shard, port) in self.shared.shards.iter().enumerate() {
                    port.queries.fetch_add(1, Ordering::Relaxed);
                    self.shared.note_degraded_read(shard);
                }
                // Encoded straight from the loaded snapshots: nothing
                // is copied but the references being sorted.
                let mut stories: Vec<&StorySummary> = snaps
                    .iter()
                    .flat_map(|snap| snap.stories.iter().map(|s| &**s))
                    .collect();
                stories.sort_unstable_by_key(|s| s.id);
                self.finish_with(id, seq, false, |b| encode_stories(b, stories));
            }
            RequestRef::GetStory(story) => {
                let shard = self.shared.shard_of_source(story_source(story));
                self.shared.shards[shard].queries.fetch_add(1, Ordering::Relaxed);
                self.shared.note_degraded_read(shard);
                let snap = self.shared.shards[shard].snapshot.load();
                match snap.get(story) {
                    Some(summary) => self.finish_with(id, seq, false, |b| encode_story(b, summary)),
                    None => {
                        let e = Error::UnknownStory(story);
                        self.finish(id, seq, Response::from_error(&e), false);
                    }
                }
            }
            RequestRef::ReplSubscribe {
                shard,
                generation,
                wal_offset,
            } => {
                let n = self.shared.shards.len();
                if shard as usize >= n {
                    let e = Error::InvalidConfig(format!(
                        "REPL_SUBSCRIBE for shard {shard}, but the leader has {n} shards"
                    ));
                    self.finish(id, seq, Response::from_error(&e), false);
                    return;
                }
                self.push_one(
                    id,
                    shard as usize,
                    Job::Repl {
                        generation,
                        wal_offset,
                        reply: direct_reply(dest),
                    },
                );
            }
            RequestRef::RemoveDoc(doc) => self.broadcast(
                id,
                dest,
                move |r| Job::RemoveDoc(doc, r),
                Box::new(move |parts| {
                    let mut total = 0u32;
                    for r in parts {
                        match r {
                            Response::Removed(n) => total += n,
                            other => return other,
                        }
                    }
                    if total == 0 {
                        Response::from_error(&Error::UnknownDocument(doc))
                    } else {
                        Response::Removed(total)
                    }
                }),
            ),
            RequestRef::Stats => self.broadcast(
                id,
                dest,
                Job::Stats,
                Box::new(|parts| {
                    let mut shards = Vec::new();
                    for r in parts {
                        match r {
                            Response::Stats(s) => shards.extend(s.shards),
                            other => return other,
                        }
                    }
                    shards.sort_unstable_by_key(|s: &ShardStats| s.shard);
                    Response::Stats(ServeStats { shards })
                }),
            ),
            RequestRef::Shutdown => self.handle_shutdown(dest),
            RequestRef::Metrics => {
                // Snapshot every shard's registry plus the I/O layer's
                // own, merge, and render one exposition.
                let n = self.shared.shards.len();
                let shared = Arc::clone(&self.shared);
                let fan = FanIn::new(
                    dest,
                    n,
                    Box::new(move |snaps: Vec<Snapshot>| {
                        shared.sync_io_gauges();
                        let mut merged = shared.registry.snapshot();
                        for s in &snaps {
                            merged.merge(s);
                        }
                        Response::Metrics {
                            text: merged.render(),
                        }
                    }),
                );
                let mut jobs = VecDeque::with_capacity(n);
                for shard in 0..n {
                    jobs.push_back((shard, Job::Metrics(part_reply(Arc::clone(&fan), shard))));
                }
                self.push_jobs(id, jobs);
            }
        }
    }

    /// Fan one job out to every shard and merge the replies.
    fn broadcast(
        &mut self,
        conn_id: u64,
        dest: Dest,
        make_job: impl Fn(Reply) -> Job,
        merge: MergeFn<Response>,
    ) {
        let n = self.shared.shards.len();
        let fan = FanIn::new(dest, n, merge);
        let mut jobs = VecDeque::with_capacity(n);
        for shard in 0..n {
            jobs.push_back((shard, make_job(part_reply(Arc::clone(&fan), shard))));
        }
        self.push_jobs(conn_id, jobs);
    }

    fn push_one(&mut self, conn_id: u64, shard: usize, job: Job) {
        let mut jobs = VecDeque::with_capacity(1);
        jobs.push_back((shard, job));
        self.push_jobs(conn_id, jobs);
    }

    /// Push control-plane jobs to their shard queues without blocking:
    /// a full queue parks the remainder in the pending list and stalls
    /// the connection's parser (backpressure with order preserved); a
    /// closed queue fails every remaining job with the shutting-down
    /// error.
    fn push_jobs(&mut self, conn_id: u64, mut jobs: VecDeque<(usize, Job)>) {
        while let Some((shard, job)) = jobs.pop_front() {
            match self.shared.shards[shard].queue.try_push(job) {
                Ok(()) => {}
                Err(PushError::Full(job)) => {
                    jobs.push_front((shard, job));
                    if let Some(conn) = self.conns.get_mut(&conn_id) {
                        conn.stalled = true;
                    }
                    self.pending.push(PendingPush {
                        conn: conn_id,
                        pushes: jobs,
                    });
                    return;
                }
                Err(PushError::Closed(job)) => {
                    fail_job_closed(job);
                    for (_, j) in jobs.drain(..) {
                        fail_job_closed(j);
                    }
                    break;
                }
            }
        }
        // Everything pushed (or failed-closed): release the parser if a
        // previous attempt had stalled it.
        let unstalled = match self.conns.get_mut(&conn_id) {
            Some(conn) if conn.stalled => {
                conn.stalled = false;
                true
            }
            _ => false,
        };
        if unstalled {
            self.parse_conn(conn_id);
        }
    }

    /// Re-attempt parked pushes (shard workers may have drained queue
    /// space since last tick).
    pub(super) fn retry_pending(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let pending = std::mem::take(&mut self.pending);
        for p in pending {
            self.push_jobs(p.conn, p.pushes);
        }
    }

    /// SHUTDOWN: idempotent across connections. The first caller
    /// spawns the orchestrator; concurrent callers park as waiters and
    /// are acked when the drain completes; post-done callers ack
    /// immediately.
    fn handle_shutdown(&mut self, dest: Dest) {
        if self.shared.done.load(Ordering::SeqCst) {
            dest.deliver(Response::ShutdownAck, true);
            return;
        }
        if self.shared.shutting_down.swap(true, Ordering::SeqCst) {
            let mut waiters = lock(&self.shared.shutdown_waiters);
            // Re-check under the waiters lock: the orchestrator flushes
            // waiters after setting `done` while holding it, so either
            // we see done here or it will see us there.
            if self.shared.done.load(Ordering::SeqCst) {
                drop(waiters);
                dest.deliver(Response::ShutdownAck, true);
            } else {
                waiters.push(dest);
            }
            return;
        }
        let shared = Arc::clone(&self.shared);
        if let Err(e) = std::thread::Builder::new()
            .name("pivot-shutdown".into())
            .spawn(move || run_shutdown(shared, dest))
        {
            eprintln!("pivotd: failed to spawn shutdown thread: {e}");
        }
    }
}
