//! Where a shard's engine comes from: startup recovery (dead-letter
//! set, WAL open and tail repair, newest valid checkpoint, WAL replay),
//! the same rebuild after an apply panicked, the two-strike quarantine
//! that lets a rebuild terminate, and the checkpoints that bound it.

use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use storypivot_core::checkpoint;
use storypivot_core::metrics::EngineMetrics;
use storypivot_core::oplog::{self, ReplayOp};
use storypivot_core::StoryPivot;
use storypivot_substrate::fault::FaultHook;
use storypivot_substrate::metrics::Registry;
use storypivot_substrate::trace::TraceRing;
use storypivot_substrate::wal::{self, SyncPolicy, Wal, WalMetrics};
use storypivot_types::{Error, Result};

use super::{poison_check, ShardServeMetrics, ShardWorker};
use crate::server::{ServerConfig, ShardPort};
use crate::snapshot::{self, StoryTable};

impl ShardWorker {
    /// Build shard `idx` from durable state: load the dead-letter set,
    /// open (and tail-repair) the WAL, restore the newest valid
    /// checkpoint generation, and replay the WAL tail on top.
    pub(in crate::server) fn recover(
        idx: usize,
        cfg: &Arc<ServerConfig>,
        port: Arc<ShardPort>,
    ) -> Result<ShardWorker> {
        let state_dir = cfg.wal_dir.as_ref().or(cfg.checkpoint_dir.as_ref());
        let dead_path = state_dir.map(|d| d.join(format!("shard{idx}.dead")));
        let trace_path = state_dir.map(|d| d.join(format!("shard{idx}.trace")));

        let mut quarantine = HashSet::new();
        let mut quarantined = 0u64;
        if let Some(path) = &dead_path {
            match wal::scan(path) {
                Ok(scan) => {
                    for payload in &scan.records {
                        if let Ok(op) = ReplayOp::decode(payload) {
                            if quarantine.insert(op.fingerprint()) {
                                quarantined += 1;
                            }
                        }
                    }
                }
                Err(e) => eprintln!(
                    "pivotd: shard {idx}: dead-letter file {} unreadable: {e}",
                    path.display()
                ),
            }
        }

        let registry = Registry::new();
        let engine_metrics = EngineMetrics::register(&registry);
        let serve_metrics = ShardServeMetrics::register(&registry, idx);

        let mut worker = ShardWorker {
            idx,
            cfg: Arc::clone(cfg),
            port,
            engine: StoryPivot::new(cfg.pivot.clone()),
            ingested: 0,
            checkpoint_fault: cfg
                .faults
                .as_ref()
                .map(|p| p.hook("checkpoint", idx as u64))
                .unwrap_or_else(FaultHook::inert),
            stories: StoryTable::default(),
            snapshot_epoch: 0,
            registry,
            engine_metrics,
            serve_metrics,
            trace: TraceRing::new(256),
            trace_path,
            wal: None,
            wal_path: None,
            op_buf: Vec::with_capacity(256),
            dead_path,
            dead: None,
            generation: 0,
            ops_since_checkpoint: 0,
            restarts: 0,
            quarantined,
            strikes: HashMap::new(),
            quarantine,
        };

        if let Some(wal_dir) = &cfg.wal_dir {
            std::fs::create_dir_all(wal_dir)
                .map_err(|e| Error::Io(format!("create {}: {e}", wal_dir.display())))?;
            let path = wal_dir.join(format!("shard{idx}.wal"));
            let (mut wal, scan) = Wal::open(&path, cfg.fsync)
                .map_err(|e| Error::Io(format!("open wal {}: {e}", path.display())))?;
            let shard_label = idx.to_string();
            let labels: &[(&str, &str)] = &[("shard", &shard_label)];
            wal.set_metrics(WalMetrics {
                append_duration: worker.registry.histogram_with(
                    "storypivot_wal_append_duration_ns",
                    "Duration of each WAL append in nanoseconds.",
                    labels,
                ),
                sync_duration: worker.registry.histogram_with(
                    "storypivot_wal_sync_duration_ns",
                    "Duration of each WAL fsync in nanoseconds.",
                    labels,
                ),
                appended_bytes: worker.registry.counter_with(
                    "storypivot_wal_appended_bytes_total",
                    "Journal bytes appended, framing included.",
                    labels,
                ),
            });
            if scan.damaged() {
                eprintln!(
                    "pivotd: shard {idx}: wal {} had a torn tail; dropped {} trailing bytes",
                    path.display(),
                    scan.dropped_bytes
                );
            }
            if let Some(plan) = &cfg.faults {
                wal.set_faults(storypivot_substrate::wal::WalFaults {
                    enospc: plan.hook("wal_enospc", idx as u64),
                    short_write: plan.hook("wal_short", idx as u64),
                });
            }
            worker.wal_path = Some(path);
            worker.wal = Some(wal);
        }

        worker.rebuild();
        Ok(worker)
    }

    /// Reconstruct the engine from the newest valid checkpoint plus the
    /// WAL tail. An op that panics during replay earns a strike; at two
    /// strikes it is dead-lettered, and the replay restarts without it.
    /// Terminates: every restart either quarantines an op or arms its
    /// second strike.
    pub(super) fn rebuild(&mut self) {
        self.trace.push("rebuild", String::new());
        loop {
            let mut engine = self.engine_from_checkpoint();
            let records = match &self.wal_path {
                Some(path) => match wal::scan(path) {
                    Ok(scan) => scan.records,
                    Err(e) => {
                        eprintln!(
                            "pivotd: shard {}: wal scan failed during rebuild: {e}",
                            self.idx
                        );
                        Vec::new()
                    }
                },
                None => Vec::new(),
            };
            let mut repanicked = false;
            for payload in &records {
                let op = match ReplayOp::decode(payload) {
                    Ok(op) => op,
                    Err(e) => {
                        eprintln!("pivotd: shard {}: undecodable wal record skipped: {e}", self.idx);
                        continue;
                    }
                };
                let fp = op.fingerprint();
                if self.quarantine.contains(&fp) {
                    continue;
                }
                let replayed = catch_unwind(AssertUnwindSafe(|| {
                    poison_check(&op);
                    oplog::replay(&mut engine, &op)
                }));
                match replayed {
                    Ok(Ok(_)) => {}
                    Ok(Err(e)) => eprintln!(
                        "pivotd: shard {}: replay error (op skipped): {e}",
                        self.idx
                    ),
                    Err(_) => {
                        self.restarts += 1;
                        let strikes = self.strikes.entry(fp).or_insert(0);
                        *strikes += 1;
                        if *strikes >= 2 {
                            self.quarantine_op(&op);
                        }
                        repanicked = true;
                        break;
                    }
                }
            }
            if !repanicked {
                // Readers must see the rebuilt partition, not the
                // pre-panic (or pre-recovery empty) one.
                self.install_engine(engine);
                return;
            }
        }
    }

    /// Adopt a replacement engine object: point its detached metric
    /// handles at the shard's registry, start its change log, re-seed
    /// the story table from scratch (the old table described the old
    /// object) and publish.
    pub(super) fn install_engine(&mut self, engine: StoryPivot) {
        self.engine = engine;
        self.engine.set_metrics(self.engine_metrics.clone());
        self.engine.log_changes();
        self.stories.seed(snapshot::summaries(&self.engine));
        self.publish_snapshot();
    }

    /// Newest valid checkpoint generation, or a fresh engine.
    fn engine_from_checkpoint(&mut self) -> StoryPivot {
        if let Some(dir) = &self.cfg.checkpoint_dir {
            let timer = self.engine_metrics.checkpoint_load_duration.start();
            match checkpoint::load_newest(dir, self.idx, self.cfg.pivot.clone()) {
                Ok(Some((pivot, generation))) => {
                    drop(timer);
                    self.generation = self.generation.max(generation);
                    return pivot;
                }
                Ok(None) => timer.discard(),
                Err(e) => {
                    timer.discard();
                    eprintln!(
                        "pivotd: shard {}: checkpoint load failed ({e}); starting empty",
                        self.idx
                    );
                }
            }
        }
        StoryPivot::new(self.cfg.pivot.clone())
    }

    /// Dead-letter an op: remember its fingerprint and append its bytes
    /// to `shard{i}.dead` so the quarantine survives restarts.
    fn quarantine_op(&mut self, op: &ReplayOp) {
        let fp = op.fingerprint();
        if !self.quarantine.insert(fp) {
            return;
        }
        self.quarantined += 1;
        eprintln!(
            "pivotd: shard {}: quarantining operation {fp:#018x} after repeated panics",
            self.idx
        );
        if let Some(path) = &self.dead_path {
            let outcome = match self.dead.as_mut() {
                Some(d) => d.append(&op.to_bytes()).map(|_| ()),
                None => match Wal::open(path, SyncPolicy::Always) {
                    Ok((mut d, _)) => {
                        let r = d.append(&op.to_bytes()).map(|_| ());
                        self.dead = Some(d);
                        r
                    }
                    Err(e) => Err(e),
                },
            };
            if let Err(e) = outcome {
                eprintln!(
                    "pivotd: shard {}: dead-letter write to {} failed: {e}",
                    self.idx,
                    path.display()
                );
            }
        }
    }

    /// Size-triggered checkpoint: once the WAL is past the threshold,
    /// persist a generation and truncate the log.
    pub(super) fn maybe_checkpoint(&mut self) {
        // A replica never checkpoints on its own: its generation is
        // the leader's, and truncating the WAL would desync the
        // byte-identical copy that serves as the replication cursor.
        if self.cfg.leader.is_some() {
            return;
        }
        if self.cfg.checkpoint_every_bytes == 0 || self.cfg.checkpoint_dir.is_none() {
            return;
        }
        let due = self
            .wal
            .as_ref()
            .is_some_and(|w| w.len() >= self.cfg.checkpoint_every_bytes);
        if due {
            if let Err(e) = self.checkpoint_now() {
                eprintln!("pivotd: shard {}: periodic checkpoint failed: {e}", self.idx);
            }
        }
    }

    /// Write checkpoint generation N+1 (atomic temp-file + rename),
    /// then truncate the WAL. Crashing between the two is safe: replay
    /// of the stale tail is idempotent.
    pub(super) fn checkpoint_now(&mut self) -> Result<()> {
        let Some(dir) = self.cfg.checkpoint_dir.clone() else {
            return Ok(());
        };
        // Injected checkpoint failure: fails before the generation
        // advances, so the newest valid on-disk generation (plus the
        // intact WAL) still reconstructs the exact partition.
        if self.checkpoint_fault.fire() {
            self.trace.push("checkpoint", "injected fault");
            return Err(Error::Io(format!(
                "shard {}: injected fault: checkpoint write failed",
                self.idx
            )));
        }
        // The generation advances only once its file exists: a failed
        // write must leave the in-memory number equal to the newest one
        // on disk, or `repl()` would treat every follower as stale.
        let bytes = self.engine.save_checkpoint();
        let next = self.generation + 1;
        checkpoint::write_generation(&dir, self.idx, next, &bytes)?;
        self.generation = next;
        self.trace.push("checkpoint", format!("generation {next}"));
        if let Some(w) = &mut self.wal {
            w.reset()
                .map_err(|e| Error::Io(format!("shard {} wal reset: {e}", self.idx)))?;
        }
        self.ops_since_checkpoint = 0;
        Ok(())
    }

    /// Dump the shard's recent-event trace before the engine is torn
    /// down: stderr always, plus `shard{i}.trace` when a durable state
    /// directory exists. Best effort — a failed write never blocks the
    /// rebuild.
    pub(super) fn dump_trace(&mut self, fp: u64) {
        let dump = format!(
            "pivotd: shard {}: panic applying op {fp:#018x}; last {} events:\n{}",
            self.idx,
            self.trace.len(),
            self.trace.render()
        );
        eprintln!("{dump}");
        if let Some(path) = &self.trace_path {
            if let Err(e) = std::fs::write(path, &dump) {
                eprintln!(
                    "pivotd: shard {}: trace dump to {} failed: {e}",
                    self.idx,
                    path.display()
                );
            }
        }
    }
}
