//! The shard-worker half of WAL shipping (the puller threads and the
//! protocol's description are in [`crate::replica`]): the leader's
//! answer to one REPL_SUBSCRIBE poll, and the follower's cursor,
//! bootstrap and apply, which its puller calls under the owner lock.

use storypivot_core::checkpoint;
use storypivot_core::StoryPivot;
use storypivot_substrate::wal::{self, Wal};
use storypivot_types::{Error, Result};

use super::recovery::Replayed;
use super::ShardWorker;
use crate::proto::Response;

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

/// Upper bound on WAL bytes shipped per REPL_FRAME. Whole records
/// only — the read is trimmed to the last record boundary — and well
/// under `MAX_FRAME_LEN` with response framing around it.
const REPL_BATCH_BYTES: usize = 1 << 20;

impl ShardWorker {
    /// Leader side of one replication poll. The handler runs under the
    /// owner lock, so `generation`, `ops_since_checkpoint`, and the WAL
    /// length are mutually consistent — there is no race with a
    /// concurrent checkpoint.
    pub(super) fn repl(&mut self, generation: u64, wal_offset: u64) -> Response {
        let Some(wal) = self.wal.as_ref() else {
            return Response::from_error(&Error::InvalidConfig(format!(
                "shard {}: replication requires the leader to run with --wal-dir",
                self.idx
            )));
        };
        let wal_len = wal.len();
        if generation == self.generation && wal_offset <= wal_len {
            let path = self.wal_path.as_ref().expect("wal implies wal_path");
            match wal::read_records_range(path, wal_offset, REPL_BATCH_BYTES) {
                Ok(records) => Response::ReplFrame {
                    generation: self.generation,
                    next_offset: wal_offset + records.len() as u64,
                    leader_wal_len: wal_len,
                    leader_ops: self.ops_since_checkpoint,
                    records,
                },
                Err(e) => Response::from_error(&Error::Io(format!(
                    "shard {}: replication read at offset {wal_offset}: {e}",
                    self.idx
                ))),
            }
        } else {
            // The follower is on an older generation (or a diverged
            // offset): re-bootstrap it from the newest checkpoint,
            // shipped verbatim so both sides agree on the bytes.
            match self
                .cfg
                .checkpoint_dir
                .as_deref()
                .map(|d| checkpoint::newest_generation_bytes(d, self.idx))
            {
                Some(Ok(Some((gen, bytes)))) => Response::ReplCheckpoint {
                    generation: gen,
                    checkpoint: bytes,
                },
                // No checkpoint on disk: the follower starts from an
                // empty engine at the leader's generation and tails
                // the WAL from offset 0.
                Some(Ok(None)) | None => Response::ReplCheckpoint {
                    generation: self.generation,
                    checkpoint: Vec::new(),
                },
                Some(Err(e)) => Response::from_error(&e),
            }
        }
    }

    /// Follower side: install the leader's checkpoint bytes verbatim
    /// (persisting the same generation locally), reset the WAL copy,
    /// and publish the bootstrapped partition.
    pub(crate) fn repl_bootstrap(&mut self, generation: u64, bytes: Vec<u8>) -> Result<ReplCursor> {
        let engine = if bytes.is_empty() {
            StoryPivot::new(self.cfg.pivot.clone())
        } else {
            StoryPivot::load_checkpoint(self.cfg.pivot.clone(), &bytes)?
        };
        if let Some(dir) = &self.cfg.checkpoint_dir {
            if !bytes.is_empty() {
                checkpoint::write_generation(dir, self.idx, generation, &bytes)?;
            }
        }
        if let Some(w) = &mut self.wal {
            w.reset()
                .map_err(|e| Error::Io(format!("shard {} wal reset: {e}", self.idx)))?;
        }
        self.generation = generation;
        self.ops_since_checkpoint = 0;
        self.trace
            .push("repl_bootstrap", format_args!("generation {generation}"));
        self.engine = engine;
        self.install_engine();
        Ok(self.repl_cursor())
    }

    /// Follower side: append each shipped record to the local WAL
    /// (reproducing the leader's bytes exactly), then replay it as a
    /// rebuild replays the WAL (`ShardWorker::replay_record`) — a
    /// duplicate from a resubscribe overlap is a no-op, same as WAL-tail
    /// replay after a crash — and publish once for the batch. A panic is
    /// supervised as a live apply's is, and the puller re-probes the
    /// cursor.
    pub(crate) fn repl_apply(&mut self, records: &[u8]) -> Result<ReplCursor> {
        let (payloads, consumed) = wal::split_records(records);
        if consumed != records.len() {
            return Err(Error::Codec(format!(
                "shard {}: replication frame carried {} undecodable trailing bytes",
                self.idx,
                records.len() - consumed
            )));
        }
        for payload in payloads {
            if let Some(w) = &mut self.wal {
                w.append(payload)
                    .map_err(|e| Error::Io(format!("shard {} wal append: {e}", self.idx)))?;
            }
            match self.replay_record(payload) {
                Replayed::Counted => self.ops_since_checkpoint += 1,
                Replayed::Skipped => {}
                Replayed::Panicked(fp) => return Err(self.restart(fp)),
            }
        }
        self.publish_snapshot();
        Ok(self.repl_cursor())
    }

    /// Where the follower's durable copy ends.
    pub(crate) fn repl_cursor(&self) -> ReplCursor {
        ReplCursor {
            generation: self.generation,
            wal_len: self.wal.as_ref().map_or(0, Wal::len),
            ops: self.ops_since_checkpoint,
        }
    }
}
