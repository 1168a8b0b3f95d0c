//! Where a shard's engine comes from: startup recovery (dead-letter
//! set, WAL open and tail repair, newest valid checkpoint, WAL replay),
//! the same rebuild after an apply panicked, the per-record replay a
//! rebuild and a follower's apply share, the two-strike quarantine that
//! lets a rebuild terminate, and the checkpoints that bound it.

use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use storypivot_core::checkpoint;
use storypivot_core::metrics::EngineMetrics;
use storypivot_core::oplog::{self, ReplayOp};
use storypivot_core::StoryPivot;
use storypivot_substrate::metrics::Registry;
use storypivot_substrate::trace::TraceRing;
use storypivot_substrate::wal::{self, SyncPolicy, Wal, WalFaults, WalMetrics};
use storypivot_types::{Error, Result};

use super::{poison_check, ShardServeMetrics, ShardWorker};
use crate::server::{ServerConfig, ShardPort};
use crate::snapshot::{self, StoryTable};

/// What replaying one journaled record did.
pub(super) enum Replayed {
    /// Applied, or rejected by the engine and skipped: it counts among
    /// the ops since the checkpoint.
    Counted,
    /// Undecodable or quarantined: skipped, and not counted.
    Skipped,
    /// The apply panicked; carries the record's fingerprint.
    Panicked(u64),
}

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
        if let Some(path) = &dead_path {
            match wal::scan(path) {
                Ok(scan) => {
                    for payload in &scan.records {
                        if let Ok(op) = ReplayOp::decode(payload) {
                            quarantine.insert(op.fingerprint());
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
            checkpoint_fault: cfg.fault_hook("checkpoint", idx),
            poison: cfg.fault_hook("poison", idx),
            stories: StoryTable::default(),
            changed: Vec::new(),
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
            wal.set_faults(WalFaults {
                enospc: cfg.fault_hook("wal_enospc", idx),
                short_write: cfg.fault_hook("wal_short", idx),
            });
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
    /// second strike. The records replayed are the ops since the
    /// checkpoint, as a follower's applied records are.
    pub(super) fn rebuild(&mut self) {
        self.trace.push("rebuild", "");
        'replay: loop {
            self.engine = self.engine_from_checkpoint();
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
            let mut replayed = 0u64;
            for payload in &records {
                match self.replay_record(payload) {
                    Replayed::Counted => replayed += 1,
                    Replayed::Skipped => {}
                    Replayed::Panicked(fp) => {
                        self.serve_metrics.restarts.inc();
                        let strikes = self.strikes.entry(fp).or_insert(0);
                        *strikes += 1;
                        if *strikes >= 2 {
                            self.quarantine_op(fp, payload);
                        }
                        continue 'replay;
                    }
                }
            }
            // Readers must see the rebuilt partition, not the
            // pre-panic (or pre-recovery empty) one.
            self.ops_since_checkpoint = replayed;
            self.install_engine();
            return;
        }
    }

    /// Replay one journaled record onto the engine — a WAL record during
    /// a rebuild, a shipped one on a follower: decode it, skip it when
    /// it is quarantined, then [`oplog::replay`] it behind the poison
    /// hook under `catch_unwind`. An op the engine rejects is logged and
    /// skipped, not fatal: it was answered when it was first applied.
    pub(super) fn replay_record(&mut self, payload: &[u8]) -> Replayed {
        let op = match ReplayOp::decode(payload) {
            Ok(op) => op,
            Err(e) => {
                eprintln!("pivotd: shard {}: undecodable wal record skipped: {e}", self.idx);
                return Replayed::Skipped;
            }
        };
        let fp = oplog::fingerprint_of(payload);
        if self.quarantine.contains(&fp) {
            return Replayed::Skipped;
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            poison_check(&self.poison, &op);
            oplog::replay(&mut self.engine, op)
        }));
        match outcome {
            Ok(Ok(_)) => Replayed::Counted,
            Ok(Err(e)) => {
                eprintln!("pivotd: shard {}: replay error (op skipped): {e}", self.idx);
                Replayed::Counted
            }
            Err(_) => Replayed::Panicked(fp),
        }
    }

    /// Adopt the engine object `self.engine` now holds (recovered,
    /// rebuilt or bootstrapped): point its detached metric handles at
    /// the shard's registry, start its change log, re-seed the story
    /// table from scratch (the old table described the old object) and
    /// publish.
    pub(super) fn install_engine(&mut self) {
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

    /// Dead-letter the op journaled as `payload`, whose fingerprint is
    /// `fp`: remember the fingerprint and append the bytes to
    /// `shard{i}.dead` so the quarantine survives restarts.
    fn quarantine_op(&mut self, fp: u64, payload: &[u8]) {
        if !self.quarantine.insert(fp) {
            return;
        }
        eprintln!(
            "pivotd: shard {}: quarantining operation {fp:#018x} after repeated panics",
            self.idx
        );
        let Some(path) = &self.dead_path else { return };
        let written = match &mut self.dead {
            Some(dead) => dead.append(payload),
            None => Wal::open(path, SyncPolicy::Always)
                .and_then(|(dead, _)| self.dead.insert(dead).append(payload)),
        };
        if let Err(e) = written {
            eprintln!(
                "pivotd: shard {}: dead-letter write to {} failed: {e}",
                self.idx,
                path.display()
            );
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
        self.trace
            .push("checkpoint", format_args!("generation {next}"));
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
