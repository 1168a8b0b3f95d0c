//! Request dispatch: decode one frame in place and turn it into shard
//! jobs (or answer it on the spot — reads from the published snapshots,
//! redirects on a replica, uncontended writes under the owner lock),
//! with the non-blocking push/park/retry that gives control frames
//! backpressure and single ingests BUSY, and the pusher's `try_lock`.
//! A request that spans shards opens a [`Fan`] in its connection's
//! state, which sums the parts.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use storypivot_core::identify::MAX_SOURCES;
use storypivot_core::refine::story_source;
use storypivot_substrate::metrics::Snapshot;
use storypivot_substrate::queue::PushError;
use storypivot_types::{Error, Snippet, Source, SourceId};

use super::{Fan, IoWorker, Part, PendingPush, Sum};
use crate::proto::{encode_stories, encode_story, stories_len, Request, RequestRef, Response};
use crate::server::job::{fail_job, fail_job_closed, Dest, Job, Reply};
use crate::server::shard::ShardWorker;
use crate::server::{lock, run_shutdown, spawn};
use crate::snapshot::merge_by_id;

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
                self.push_one(id, shard, Job::AddSource(source, Reply::whole(dest)));
            }
            RequestRef::IngestSnippet(sref) => {
                // An uncontended shard applies the write right here,
                // under its owner lock, after any queued jobs: no job,
                // no reply, no inbox event.
                let shard = self.shared.shard_of_source(sref.source);
                let ingest = |worker: &mut ShardWorker| worker.ingest(sref.to_owned());
                if let Some(resp) = self.apply_inline(shard, ingest) {
                    self.shared.shards[shard].inline_ingests.inc();
                    self.finish(id, seq, resp, false);
                    return;
                }
                // The BUSY fast path: one snippet, one `try_push`. A
                // full shard queue is the client's problem (retry after
                // the hint), never the server's memory.
                let job = Job::Ingest(sref.to_owned(), Reply::whole(dest), Instant::now());
                let port = &self.shared.shards[shard];
                match port.queue.try_push(job) {
                    Ok(()) => self.pushed[shard] = true,
                    Err(PushError::Full(job)) => {
                        port.busy.inc();
                        fail_job(job, Response::Busy { retry_after_ms: port.retry_hint() });
                    }
                    Err(PushError::Closed(job)) => fail_job_closed(job),
                }
            }
            RequestRef::IngestBatch(batch) => {
                // Split by shard (preserving order within each shard);
                // the fan sums the per-shard counts.
                let mut by_shard: Vec<Vec<Snippet>> = vec![Vec::new(); self.shared.shards.len()];
                for sref in batch.iter() {
                    by_shard[self.shared.shard_of_source(sref.source)].push(sref.to_owned());
                }
                let jobs = by_shard
                    .into_iter()
                    .enumerate()
                    .filter(|(_, part)| !part.is_empty())
                    .map(|(shard, part)| (shard, Job::IngestMany(part, Reply::part(dest.clone()))))
                    .collect();
                self.fan_out(id, seq, Fan::new(Sum::Ingested(0)), jobs);
            }
            // Reads never touch the shard queues: they merge the
            // published snapshots right here on the I/O worker, so a
            // query flash-crowd cannot starve (or be starved by)
            // ingest.
            RequestRef::QueryStories => {
                let snaps: Vec<_> =
                    self.shared.shards.iter().map(|port| port.snapshot.load()).collect();
                for shard in 0..snaps.len() {
                    self.shared.note_read(shard);
                }
                // Encoded straight from the loaded snapshots, merging
                // the shards' id-sorted runs into a frame reserved at
                // its exact size: nothing is copied, sorted or regrown.
                let count = snaps.iter().map(|snap| snap.len()).sum();
                let bytes = stories_len(snaps.iter().flat_map(|snap| snap.stories()));
                self.finish_with(id, seq, false, |b| {
                    b.reserve(bytes);
                    encode_stories(b, count, merge_by_id(snaps.iter().map(|snap| snap.stories())));
                });
            }
            RequestRef::GetStory(story) => {
                let shard = self.shared.shard_of_source(story_source(story));
                self.shared.note_read(shard);
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
                        reply: Reply::whole(dest),
                    },
                );
            }
            RequestRef::RemoveDoc(doc) => {
                // Each shard's part is applied right here when its
                // owner is free, like a single INGEST; a busy shard's
                // part is queued, and the fan sums both kinds. An
                // all-inline removal is answered on the spot.
                let mut fan = Fan::new(Sum::Removed(doc, 0));
                let mut jobs = VecDeque::new();
                let remove = |worker: &mut ShardWorker| worker.remove_doc(doc);
                for shard in 0..self.shared.shards.len() {
                    if let Some(resp) = self.apply_inline(shard, remove) {
                        self.shared.shards[shard].inline_removes.inc();
                        fan.add(Part::Response(resp));
                    } else {
                        jobs.push_back((shard, Job::RemoveDoc(doc, Reply::part(dest.clone()))));
                    }
                }
                self.fan_out(id, seq, fan, jobs);
            }
            RequestRef::Shutdown => self.handle_shutdown(dest),
            RequestRef::Metrics => {
                // Snapshot every shard's registry; the fan merges them
                // with the I/O layer's own and renders one exposition.
                let jobs = (0..self.shared.shards.len())
                    .map(|shard| (shard, Job::Metrics(Reply::part(dest.clone()))))
                    .collect();
                self.fan_out(id, seq, Fan::new(Sum::Metrics(Snapshot::default())), jobs);
            }
        }
    }

    /// Apply a write as this I/O worker's own work under `shard`'s owner,
    /// or `None` to queue it: the owner is busy (`try_lock`), the worker
    /// retired, the queue closed, or `worker_delay` set. Never BUSY or shed.
    fn apply_inline(
        &mut self,
        shard: usize,
        write: impl FnOnce(&mut ShardWorker) -> Response,
    ) -> Option<Response> {
        let port = &self.shared.shards[shard];
        if !self.shared.cfg.worker_delay.is_zero() || port.queue.is_closed() {
            return None;
        }
        port.hold(port.try_take(), &mut self.sched[shard], write)
    }

    /// Send one part of request `seq` to each of `jobs`' shards, and
    /// keep `fan` (holding any parts already folded in) in the
    /// connection's state until they land. A fan with no part left to
    /// wait for (an all-inline REMOVE_DOC) is answered now.
    fn fan_out(&mut self, conn_id: u64, seq: u64, mut fan: Fan, jobs: VecDeque<(usize, Job)>) {
        fan.waiting = jobs.len();
        if fan.waiting == 0 {
            let resp = fan.answer(&self.shared);
            self.finish(conn_id, seq, resp, false);
        } else if let Some(conn) = self.conns.get_mut(&conn_id) {
            conn.fans.insert(seq, fan);
        }
        self.push_jobs(conn_id, jobs);
    }

    fn push_one(&mut self, conn_id: u64, shard: usize, job: Job) {
        self.push_jobs(conn_id, VecDeque::from([(shard, job)]));
    }

    /// Push control-plane jobs to their shard queues without blocking:
    /// a full queue parks the remainder in the pending list and stalls
    /// the connection's parser (backpressure with order preserved); a
    /// closed queue fails every remaining job with the shutting-down
    /// error.
    fn push_jobs(&mut self, conn_id: u64, mut jobs: VecDeque<(usize, Job)>) {
        while let Some((shard, job)) = jobs.pop_front() {
            match self.shared.shards[shard].queue.try_push(job) {
                Ok(()) => self.pushed[shard] = true,
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

    /// The pusher's rule, once per tick for each shard pushed to: one
    /// more `try_lock`, holding the owner if it succeeds. After the
    /// tick's last frame, so a pipelined burst fills the queue (and
    /// meets BUSY) as it would behind a busy holder.
    pub(super) fn combine_pushed(&mut self) {
        for (shard, pushed) in self.pushed.iter_mut().enumerate() {
            if std::mem::take(pushed) {
                let (port, sched) = (&self.shared.shards[shard], &mut self.sched[shard]);
                sched.perturb();
                port.hold(port.try_take(), sched, |_| ());
            }
        }
    }

    /// Re-attempt parked pushes (holders may have drained queue space
    /// since last tick).
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
        if let Err(e) = spawn("pivot-shutdown".into(), move || run_shutdown(shared, dest)) {
            eprintln!("pivotd: {e}");
        }
    }
}
