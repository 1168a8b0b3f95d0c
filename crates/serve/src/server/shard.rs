//! The shard worker: one engine behind its shard's owner lock, which
//! journals and applies each mutation under `catch_unwind` and
//! publishes a read snapshot before every reply. It has no thread of
//! its own: whoever holds the owner applies the queued jobs
//! ([`ShardWorker::handle_next`]) and then its own work — an I/O worker's
//! single-snippet ingest or REMOVE_DOC part, a replica puller's
//! records, the SHUTDOWN orchestrator's last publish and checkpoint
//! ([`ShardWorker::shutdown`]). Building the engine from durable state
//! — and rebuilding it after a panic — is in [`recovery`]; both ends of
//! WAL shipping are in [`repl`].

mod recovery;
mod repl;

use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use storypivot_core::metrics::{self, EngineMetrics};
use storypivot_core::oplog::{self, fingerprint_of, Applied, ReplayOp};
use storypivot_core::StoryPivot;
use storypivot_substrate::fault::FaultHook;
use storypivot_substrate::metrics::{Counter, Gauge, HistogramMetric, Registry, Snapshot};
use storypivot_substrate::trace::TraceRing;
use storypivot_substrate::wal::Wal;
use storypivot_types::{DocId, Error, Result, Snippet, Source, StoryId};

use super::io::Part;
use super::job::{Job, Reply};
use super::{ServerConfig, ShardPort, POISON_HEADLINE};
use crate::proto::Response;
use crate::snapshot::{self, StoryTable};

/// The `poison` fault site: panics on an ingest headlined
/// [`POISON_HEADLINE`] when the plan arms the site, and is inert
/// otherwise. It never draws from its stream, so the live apply and the
/// rebuild replay panic alike (which is what earns the op a second
/// strike and the quarantine).
fn poison_check(poison: &FaultHook, op: &ReplayOp) {
    if let ReplayOp::Ingest(snippet) = op {
        if poison.is_active() && snippet.content.headline == POISON_HEADLINE {
            panic!("injected fault: poison snippet");
        }
    }
}

/// Trace-ring label for a mutation.
fn op_label(op: &ReplayOp) -> &'static str {
    match op {
        ReplayOp::AddSource(_) => "add_source",
        ReplayOp::Ingest(_) => "ingest",
        ReplayOp::RemoveDoc(_) => "remove_doc",
    }
}

/// Per-shard serving-layer metric handles, labeled `shard="N"` so the
/// merged exposition keeps them distinguishable across shards. The
/// counters and histograms record at their event, `snapshot_epoch` is
/// set at each publish, and the gauges above `restarts` are levels
/// `sync_gauges` reads at scrape.
struct ShardServeMetrics {
    queue_depth: Gauge,
    queue_capacity: Gauge,
    sources: Gauge,
    stories: Gauge,
    snippets: Gauge,
    wal_bytes: Gauge,
    ops_since_checkpoint: Gauge,
    quarantined: Gauge,
    restarts: Counter,
    shed: Counter,
    ingest_latency: HistogramMetric,
    snapshot_epoch: Gauge,
    snapshot_publish_duration: HistogramMetric,
    snapshot_stories_patched: Counter,
    snapshot_entries_copied: Counter,
}

impl ShardServeMetrics {
    fn register(registry: &Registry, shard: usize) -> Self {
        let id = shard.to_string();
        let labels: &[(&str, &str)] = &[("shard", &id)];
        let gauge = |name, help| registry.gauge_with(name, help, labels);
        ShardServeMetrics {
            queue_depth: gauge(
                "storypivot_shard_queue_depth",
                "Jobs currently waiting in the shard's bounded queue.",
            ),
            queue_capacity: gauge(
                "storypivot_shard_queue_capacity",
                "Capacity of the shard's bounded queue.",
            ),
            sources: gauge("storypivot_shard_sources", "Sources registered on this shard."),
            stories: gauge("storypivot_shard_stories", "Per-source stories alive on this shard."),
            snippets: gauge("storypivot_shard_snippets", "Snippets stored on this shard."),
            wal_bytes: gauge(
                "storypivot_shard_wal_bytes",
                "Bytes in the shard's write-ahead log (0 without a WAL, and right after \
                 a checkpoint truncates it).",
            ),
            ops_since_checkpoint: gauge(
                "storypivot_shard_ops_since_checkpoint",
                "Mutations applied since the shard's last checkpoint: the replay debt a \
                 crash now would incur.",
            ),
            quarantined: gauge(
                "storypivot_shard_quarantined",
                "Operations dead-lettered on this shard.",
            ),
            restarts: registry.counter_with(
                "storypivot_shard_restarts_total",
                "Engine rebuilds after a panic on this shard.",
                labels,
            ),
            shed: registry.counter_with(
                "storypivot_shed_total",
                "Admitted ingests dropped unapplied because they waited in the \
                 queue past the per-request deadline (--deadline-ms).",
                labels,
            ),
            ingest_latency: registry.histogram_with(
                "storypivot_shard_ingest_latency_ns",
                "End-to-end shard-side ingest latency (journal + apply) in nanoseconds.",
                labels,
            ),
            snapshot_epoch: gauge(
                "storypivot_shard_snapshot_epoch",
                "Epoch of the shard's published read snapshot (one more per publish).",
            ),
            snapshot_publish_duration: registry.histogram_with(
                "storypivot_shard_snapshot_publish_duration_ns",
                "Duration of each read-snapshot publish (drain the change log, patch, \
                 list the chunks in a snapshot, swap) in nanoseconds.",
                labels,
            ),
            snapshot_stories_patched: registry.counter_with(
                "storypivot_shard_snapshot_stories_patched_total",
                "Story entries replaced, inserted or removed by read-snapshot publishes.",
                labels,
            ),
            snapshot_entries_copied: registry.counter_with(
                "storypivot_shard_snapshot_entries_copied_total",
                "Story entries read-snapshot publishes cloned to copy the chunks an \
                 earlier snapshot still shared.",
                labels,
            ),
        }
    }
}

pub(crate) struct ShardWorker {
    idx: usize,
    cfg: Arc<ServerConfig>,
    /// The queue its jobs come from, the slot it publishes into and the
    /// service-time estimate it keeps for the I/O workers.
    port: Arc<ShardPort>,
    pub(super) engine: StoryPivot,
    /// The `checkpoint` fault site, consulted before each checkpoint
    /// write; inert unless the plan names it.
    checkpoint_fault: FaultHook,
    /// The `poison` fault site, checked before every apply and replay.
    poison: FaultHook,
    /// The story table the next publish hands out, patched from the
    /// engine's change log.
    stories: StoryTable,
    /// The ids the last publish drained from the change log; kept so
    /// its capacity is reused.
    changed: Vec<StoryId>,
    snapshot_epoch: u64,
    /// The shard's private metrics registry; engine, WAL, and serving
    /// gauges all record here, and `METRICS` snapshots it.
    registry: Registry,
    /// Engine handles, re-attached to every rebuilt engine.
    engine_metrics: EngineMetrics,
    serve_metrics: ShardServeMetrics,
    /// Recent engine events, dumped when an apply panics.
    trace: TraceRing,
    /// Where the panic-time trace dump is written (next to the WAL or
    /// checkpoints); `None` keeps the dump on stderr only.
    trace_path: Option<PathBuf>,
    wal: Option<Wal>,
    wal_path: Option<PathBuf>,
    /// The op being applied, encoded once: fingerprinted, then
    /// journaled as the same bytes.
    op_buf: Vec<u8>,
    /// Dead-letter file for quarantined ops (next to the WAL, or the
    /// checkpoint dir when journaling is off).
    dead_path: Option<PathBuf>,
    dead: Option<Wal>,
    /// Newest checkpoint generation written or loaded so far.
    generation: u64,
    ops_since_checkpoint: u64,
    /// Panic count per op fingerprint; two strikes quarantine.
    strikes: HashMap<u64, u32>,
    /// Fingerprints of dead-lettered ops: skipped on replay, rejected
    /// on resubmission.
    quarantine: HashSet<u64>,
}

impl ShardWorker {
    /// Pop and apply the next queued job (`None` when there is none),
    /// after `worker_delay`, slept while the job still holds its queue
    /// slot; its answer is sent by the holder once the owner lock is
    /// released.
    pub(super) fn handle_next(&mut self) -> Option<(Reply, Part)> {
        if !self.cfg.worker_delay.is_zero() {
            std::thread::sleep(self.cfg.worker_delay);
        }
        let (reply, resp) = match self.port.queue.try_pop()? {
            Job::AddSource(source, reply) => (reply, self.add_source(source)),
            Job::Ingest(snippet, reply, enqueued) => {
                // Deadline shedding: work that waited past the
                // client's budget is answered with SHED *before*
                // the WAL or engine see it — under saturation the
                // worker spends its time on requests someone is
                // still waiting for. Only single-snippet ingests
                // carry a budget; batches and control ops park for
                // backpressure at admission instead.
                let deadline = Duration::from_millis(self.cfg.deadline_ms);
                if !deadline.is_zero() && enqueued.elapsed() > deadline {
                    (reply, self.shed(snippet))
                } else {
                    (reply, self.ingest(snippet))
                }
            }
            Job::IngestMany(batch, reply) => (reply, self.ingest_many(batch)),
            Job::RemoveDoc(doc, reply) => (reply, self.remove_doc(doc)),
            Job::Metrics(reply) => return Some((reply, Part::Metrics(self.metrics_snapshot()))),
            Job::Repl {
                generation,
                wal_offset,
                reply,
            } => (reply, self.repl(generation, wal_offset)),
        };
        Some((reply, Part::Response(resp)))
    }

    /// Journal, then hand the op to the engine under `catch_unwind`
    /// ([`oplog::apply`] behind the poison hook — replay runs the same
    /// two through `oplog::replay`). A panic rebuilds the engine from
    /// durable state and replies with an error instead of killing the
    /// worker; the op's strike count decides quarantine.
    fn mutate(&mut self, op: ReplayOp) -> Result<Applied> {
        self.op_buf.clear();
        op.encode(&mut self.op_buf);
        let fp = fingerprint_of(&self.op_buf);
        self.trace
            .push(op_label(&op), format_args!("fp={fp:#018x}"));
        if self.quarantine.contains(&fp) {
            return Err(Error::Invariant(format!(
                "operation {fp:#018x} is quarantined on shard {} \
                 (dead-lettered after repeated panics)",
                self.idx
            )));
        }
        if let Some(w) = &mut self.wal {
            w.append(&self.op_buf)
                .map_err(|e| Error::Io(format!("shard {} wal append: {e}", self.idx)))?;
        }
        let applied = catch_unwind(AssertUnwindSafe(|| {
            poison_check(&self.poison, &op);
            oplog::apply(&mut self.engine, op)
        }));
        match applied {
            Ok(result) => {
                // Sharding splits documents across engines: "unknown
                // here" just means zero local snippets; the router sums.
                let result = match result {
                    Err(Error::UnknownDocument(_)) => Ok(Applied::Removed(0)),
                    other => other,
                };
                if result.is_ok() {
                    self.ops_since_checkpoint += 1;
                    self.maybe_checkpoint();
                    self.publish_snapshot();
                }
                result
            }
            Err(_) => Err(self.restart(fp)),
        }
    }

    /// Supervise a panic applying the op with fingerprint `fp`, live or
    /// replicated: count the restart and the op's strike, dump the
    /// trace, rebuild the engine from durable state (which quarantines
    /// the op at its second strike) and return the error to reply with.
    fn restart(&mut self, fp: u64) -> Error {
        self.serve_metrics.restarts.inc();
        *self.strikes.entry(fp).or_insert(0) += 1;
        self.dump_trace(fp);
        self.rebuild();
        let quarantined_now = self.quarantine.contains(&fp);
        Error::Invariant(format!(
            "shard {} panicked applying the operation; engine rebuilt from \
             checkpoint + wal{}",
            self.idx,
            if quarantined_now {
                " and the operation was quarantined"
            } else {
                ""
            }
        ))
    }

    /// Read the levels into their gauges and snapshot the shard's
    /// registry.
    fn metrics_snapshot(&mut self) -> Snapshot {
        self.sync_gauges();
        metrics::record_memory(&self.registry, &self.engine.memory_account());
        self.registry.snapshot()
    }

    /// Set the gauges whose value is a level of state this worker
    /// already holds; nothing here is counted a second time.
    fn sync_gauges(&self) {
        let m = &self.serve_metrics;
        m.queue_depth.set(self.port.queue.len() as i64);
        m.queue_capacity.set(self.port.queue.capacity() as i64);
        m.sources.set(self.engine.sources().len() as i64);
        m.stories.set(self.engine.story_count() as i64);
        m.snippets.set(self.engine.store().len() as i64);
        m.wal_bytes.set(self.wal.as_ref().map_or(0, Wal::len) as i64);
        m.ops_since_checkpoint.set(self.ops_since_checkpoint as i64);
        m.quarantined.set(self.quarantine.len() as i64);
    }

    /// Patch the stories the engine reports changed since the last
    /// publish and swap the resulting id-sorted view into the shared
    /// slot. Runs under the owner lock, on whichever thread holds it,
    /// *before* the triggering op's reply is delivered, so acked writes
    /// are always visible to the next read.
    fn publish_snapshot(&mut self) {
        let timer = self.serve_metrics.snapshot_publish_duration.start();
        self.snapshot_epoch += 1;
        self.engine.drain_changes(&mut self.changed);
        let engine = &self.engine;
        let patched = self.stories.patch(&self.changed, |id| snapshot::summary_of(engine, id));
        let previous = self.port.snapshot.publish(self.stories.snapshot(self.snapshot_epoch));
        self.stories.recycle(previous);
        drop(timer);
        self.serve_metrics.snapshot_stories_patched.add(patched.stories as u64);
        self.serve_metrics.snapshot_entries_copied.add(patched.copied as u64);
        debug_assert!(
            self.stories.matches(&snapshot::summaries(engine)),
            "shard {}: patched snapshot differs from a rebuild (changed: {:?})",
            self.idx,
            self.changed
        );
        self.serve_metrics.snapshot_epoch.set(self.snapshot_epoch as i64);
    }

    fn add_source(&mut self, source: Source) -> Response {
        match self.mutate(ReplayOp::AddSource(source)) {
            Ok(Applied::Source(id)) => Response::SourceAdded(id),
            Ok(_) => internal_shape_error(),
            Err(e) => Response::from_error(&e),
        }
    }

    /// Drop an expired ingest and tell the client when the queue should
    /// have drained enough to be worth a fresh attempt.
    fn shed(&mut self, snippet: Snippet) -> Response {
        self.trace
            .push("shed", format_args!("doc={}", snippet.doc.raw()));
        self.serve_metrics.shed.inc();
        Response::Shed {
            retry_after_ms: self.port.retry_hint(),
        }
    }

    /// Fold one observed service time into the shared EWMA (α = 1/8).
    fn note_service(&self, elapsed_ns: u64) {
        let prev = self.port.service_ewma_ns.load(Ordering::Relaxed);
        let next = if prev == 0 {
            elapsed_ns
        } else {
            prev - prev / 8 + elapsed_ns / 8
        };
        self.port.service_ewma_ns.store(next, Ordering::Relaxed);
    }

    /// One single-snippet INGEST, on whichever thread holds the owner:
    /// as a queued job or as an I/O worker's own write.
    pub(super) fn ingest(&mut self, snippet: Snippet) -> Response {
        let t = Instant::now();
        match self.mutate(ReplayOp::Ingest(snippet)) {
            Ok(Applied::Story(story)) => {
                let elapsed = t.elapsed().as_nanos() as u64;
                self.serve_metrics.ingest_latency.record(elapsed);
                self.note_service(elapsed);
                Response::Ingested(story)
            }
            Ok(_) => internal_shape_error(),
            Err(e) => Response::from_error(&e),
        }
    }

    fn ingest_many(&mut self, batch: Vec<Snippet>) -> Response {
        let mut count = 0u32;
        for snippet in batch {
            match self.ingest(snippet) {
                Response::Ingested(_) => count += 1,
                Response::Error { code, message } => {
                    let message = format!("{message} (after {count} snippets of the batch)");
                    return Response::Error { code, message };
                }
                other => return other,
            }
        }
        Response::BatchIngested(count)
    }

    /// One shard's part of a REMOVE_DOC, on whichever thread holds the
    /// owner.
    pub(super) fn remove_doc(&mut self, doc: DocId) -> Response {
        match self.mutate(ReplayOp::RemoveDoc(doc)) {
            Ok(Applied::Removed(n)) => Response::Removed(n),
            Ok(_) => internal_shape_error(),
            Err(e) => Response::from_error(&e),
        }
    }

    /// SHUTDOWN's part on this shard, the orchestrator's own work under
    /// the owner once its hold has applied the jobs queued before it:
    /// publish the last snapshot and write a checkpoint generation.
    /// Returns the shard's ack.
    pub(super) fn shutdown(&mut self) -> Response {
        self.trace.push("drain", "");
        self.publish_snapshot();
        // A replica's durable state is already exactly the leader's
        // checkpoint + WAL copy; writing a local generation would
        // desync the replication cursor.
        if self.cfg.leader.is_none() && self.cfg.checkpoint_dir.is_some() {
            if let Err(e) = self.checkpoint_now() {
                return Response::Error {
                    code: 7,
                    message: format!("shard {} checkpoint failed: {e}", self.idx),
                };
            }
        }
        Response::ShutdownAck
    }
}

pub(super) fn internal_shape_error() -> Response {
    Response::Error {
        code: 6,
        message: "internal: mutation produced a mismatched result shape".into(),
    }
}
