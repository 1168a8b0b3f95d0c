//! The shard worker: one thread that owns one engine, drains the
//! shard's queue, journals and applies each mutation under
//! `catch_unwind`, and publishes a read snapshot before every reply.
//! Building the engine from durable state — and rebuilding it after a
//! panic — is in [`recovery`]; both ends of WAL shipping are in
//! [`repl`].

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
use storypivot_types::{DocId, Error, Result, Snippet, Source};

use super::job::Job;
use super::{ServerConfig, ShardPort, POISON_HEADLINE};
use crate::proto::Response;
use crate::snapshot::{self, StoryTable};
use crate::stats::{ServeStats, ShardStats};

/// The debug-only failure-injection hook: runs in both the live apply
/// path and the rebuild replay path, so an injected panic is
/// deterministic across restarts (which is what earns it a second
/// strike and the quarantine).
fn poison_check(op: &ReplayOp) {
    if cfg!(debug_assertions) {
        if let ReplayOp::Ingest(snippet) = op {
            if snippet.content.headline == POISON_HEADLINE {
                panic!("injected poison snippet (debug-only failure hook)");
            }
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
/// merged exposition keeps them distinguishable across shards.
struct ShardServeMetrics {
    queue_depth: Gauge,
    queue_capacity: Gauge,
    restarts: Gauge,
    quarantined: Gauge,
    busy_rejections: Gauge,
    shed: Counter,
    ingest_latency: HistogramMetric,
    snapshot_epoch: Gauge,
    snapshot_publish_duration: HistogramMetric,
    snapshot_stories_patched: Counter,
}

impl ShardServeMetrics {
    fn register(registry: &Registry, shard: usize) -> Self {
        let id = shard.to_string();
        let labels: &[(&str, &str)] = &[("shard", &id)];
        ShardServeMetrics {
            queue_depth: registry.gauge_with(
                "storypivot_shard_queue_depth",
                "Jobs currently waiting in the shard's bounded queue.",
                labels,
            ),
            queue_capacity: registry.gauge_with(
                "storypivot_shard_queue_capacity",
                "Capacity of the shard's bounded queue.",
                labels,
            ),
            restarts: registry.gauge_with(
                "storypivot_shard_restarts",
                "Engine rebuilds after a panic on this shard.",
                labels,
            ),
            quarantined: registry.gauge_with(
                "storypivot_shard_quarantined",
                "Operations dead-lettered on this shard.",
                labels,
            ),
            busy_rejections: registry.gauge_with(
                "storypivot_shard_busy_rejections",
                "Ingests rejected with BUSY because the queue was full.",
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
            snapshot_epoch: registry.gauge_with(
                "storypivot_shard_snapshot_epoch",
                "Publication count of the shard's lock-free read snapshot.",
                labels,
            ),
            snapshot_publish_duration: registry.histogram_with(
                "storypivot_shard_snapshot_publish_duration_ns",
                "Duration of each read-snapshot publish (drain the change log, patch, \
                 clone the story vector, swap) in nanoseconds.",
                labels,
            ),
            snapshot_stories_patched: registry.counter_with(
                "storypivot_shard_snapshot_stories_patched_total",
                "Story entries replaced, inserted or removed by read-snapshot publishes.",
                labels,
            ),
        }
    }
}

pub(super) struct ShardWorker {
    pub(super) idx: usize,
    cfg: Arc<ServerConfig>,
    /// The queue this worker drains, the slot it publishes into and the
    /// counters it shares with the I/O workers.
    port: Arc<ShardPort>,
    pub(super) engine: StoryPivot,
    ingested: u64,
    /// Debug/test-gated fault consulted before each checkpoint write.
    checkpoint_fault: FaultHook,
    /// The story vector the next publish hands out, patched from the
    /// engine's change log.
    stories: StoryTable,
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
    restarts: u64,
    quarantined: u64,
    /// Panic count per op fingerprint; two strikes quarantine.
    strikes: HashMap<u64, u32>,
    /// Fingerprints of dead-lettered ops: skipped on replay, rejected
    /// on resubmission.
    quarantine: HashSet<u64>,
}

impl ShardWorker {
    pub(super) fn run(mut self) {
        while let Some(job) = self.port.queue.pop() {
            if !self.cfg.worker_delay.is_zero() {
                std::thread::sleep(self.cfg.worker_delay);
            }
            match job {
                Job::AddSource(source, reply) => reply(self.add_source(source)),
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
                        reply(self.shed(snippet));
                    } else {
                        reply(self.ingest(snippet));
                    }
                }
                Job::IngestMany(batch, reply) => reply(self.ingest_many(batch)),
                Job::RemoveDoc(doc, reply) => reply(self.remove_doc(doc)),
                Job::Stats(reply) => reply(self.stats()),
                Job::Metrics(reply) => reply(self.metrics_snapshot()),
                Job::Drain(reply) => reply(self.drain()),
                Job::Repl {
                    generation,
                    wal_offset,
                    reply,
                } => reply(self.repl(generation, wal_offset)),
                Job::ReplBootstrap {
                    generation,
                    checkpoint,
                    ack,
                } => {
                    let _ = ack.send(self.repl_bootstrap(generation, checkpoint));
                }
                Job::ReplApply { records, ack } => {
                    let _ = ack.send(self.repl_apply(&records));
                }
            }
        }
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
        self.trace.push(op_label(&op), format!("fp={fp:#018x}"));
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
        let engine = &mut self.engine;
        let applied = catch_unwind(AssertUnwindSafe(|| {
            poison_check(&op);
            oplog::apply(engine, op)
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
            Err(_) => {
                self.restarts += 1;
                *self.strikes.entry(fp).or_insert(0) += 1;
                self.dump_trace(fp);
                self.rebuild();
                let quarantined_now = self.quarantine.contains(&fp);
                Err(Error::Invariant(format!(
                    "shard {} panicked applying the operation; engine rebuilt from \
                     checkpoint + wal{}",
                    self.idx,
                    if quarantined_now {
                        " and the operation was quarantined"
                    } else {
                        ""
                    }
                )))
            }
        }
    }

    /// Refresh the serving gauges and snapshot the shard's registry.
    fn metrics_snapshot(&mut self) -> Snapshot {
        self.sync_gauges();
        metrics::record_memory(&self.registry, &self.engine.memory_account());
        self.registry.snapshot()
    }

    fn sync_gauges(&self) {
        let m = &self.serve_metrics;
        m.queue_depth.set(self.port.queue.len() as i64);
        m.queue_capacity.set(self.port.queue.capacity() as i64);
        m.restarts.set(self.restarts as i64);
        m.quarantined.set(self.quarantined as i64);
        m.busy_rejections.set(self.port.busy.load(Ordering::Relaxed) as i64);
        m.snapshot_epoch.set(self.snapshot_epoch as i64);
    }

    /// Patch the stories the engine reports changed since the last
    /// publish and swap the resulting id-sorted view into the shared
    /// slot. Runs on the shard thread *before* the triggering op's reply
    /// is delivered, so acked writes are always visible to the next
    /// read.
    fn publish_snapshot(&mut self) {
        let timer = self.serve_metrics.snapshot_publish_duration.start();
        self.snapshot_epoch += 1;
        let changed = self.engine.drain_changes();
        let engine = &self.engine;
        let patched = self.stories.patch(&changed, |id| snapshot::summary_of(engine, id));
        self.port.snapshot.publish(Arc::new(self.stories.snapshot(self.snapshot_epoch)));
        drop(timer);
        self.serve_metrics.snapshot_stories_patched.add(patched as u64);
        debug_assert!(
            self.stories.matches(&snapshot::summaries(engine)),
            "shard {}: patched snapshot differs from a rebuild (changed: {changed:?})",
            self.idx
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
        self.trace.push("shed", format!("doc={}", snippet.doc.raw()));
        self.serve_metrics.shed.inc();
        Response::Shed {
            retry_after_ms: self.port.retry_hint(self.cfg.retry_after_ms),
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

    fn ingest(&mut self, snippet: Snippet) -> Response {
        let t = Instant::now();
        match self.mutate(ReplayOp::Ingest(snippet)) {
            Ok(Applied::Story(story)) => {
                let elapsed = t.elapsed().as_nanos() as u64;
                self.serve_metrics.ingest_latency.record(elapsed);
                self.note_service(elapsed);
                self.ingested += 1;
                Response::Ingested(story)
            }
            Ok(_) => internal_shape_error(),
            Err(e) => Response::from_error(&e),
        }
    }

    fn ingest_many(&mut self, batch: Vec<Snippet>) -> Response {
        let mut count = 0u32;
        for snippet in batch {
            let t = Instant::now();
            match self.mutate(ReplayOp::Ingest(snippet)) {
                Ok(Applied::Story(_)) => {
                    let elapsed = t.elapsed().as_nanos() as u64;
                    self.serve_metrics.ingest_latency.record(elapsed);
                    self.note_service(elapsed);
                    self.ingested += 1;
                    count += 1;
                }
                Ok(_) => return internal_shape_error(),
                Err(e) => {
                    return Response::Error {
                        code: crate::proto::error_code(&e),
                        message: format!("{e} (after {count} snippets of the batch)"),
                    }
                }
            }
        }
        Response::BatchIngested(count)
    }

    fn remove_doc(&mut self, doc: DocId) -> Response {
        match self.mutate(ReplayOp::RemoveDoc(doc)) {
            Ok(Applied::Removed(n)) => Response::Removed(n),
            Ok(_) => internal_shape_error(),
            Err(e) => Response::from_error(&e),
        }
    }

    fn stats(&mut self) -> Response {
        self.sync_gauges();
        Response::Stats(ServeStats {
            shards: vec![ShardStats {
                shard: self.idx as u32,
                sources: self.engine.sources().len() as u32,
                queue_depth: self.port.queue.len() as u32,
                queue_capacity: self.port.queue.capacity() as u32,
                stories: self.engine.story_count() as u64,
                snippets: self.engine.store().len() as u64,
                ingested: self.ingested,
                queries: self.port.queries.load(Ordering::Relaxed),
                busy_rejections: self.port.busy.load(Ordering::Relaxed),
                ingest_count: self.serve_metrics.ingest_latency.count(),
                ingest_p50_ns: self.serve_metrics.ingest_latency.percentile(0.50),
                ingest_p95_ns: self.serve_metrics.ingest_latency.percentile(0.95),
                ingest_p99_ns: self.serve_metrics.ingest_latency.percentile(0.99),
                wal_bytes: self.wal.as_ref().map_or(0, |w| w.len()),
                last_checkpoint_age_ops: self.ops_since_checkpoint,
                restarts: self.restarts,
                quarantined: self.quarantined,
            }],
        })
    }

    fn drain(&mut self) -> Response {
        self.trace.push("drain", String::new());
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

fn internal_shape_error() -> Response {
    Response::Error {
        code: 6,
        message: "internal: mutation produced a mismatched result shape".into(),
    }
}
