//! Crash-equivalence: slices of the differential driver (`lockstep`)
//! through a real `pivotd` process that the script SIGKILLs mid-stream
//! and restarts on the same directories. After every step the served
//! partition equals the uninterrupted oracle engine's, which exercises
//! the whole durability stack — WAL append/fsync, torn-tail repair,
//! checkpoint generations, startup replay — through the public binary.
//! Beside them: the journal's own op codec, as the driver's
//! `oplog::apply` target; and in process, a checkpoint write that fails
//! must not move the generation the leader tells its followers about.

#[path = "../../../tests/lockstep/mod.rs"]
mod lockstep;

use std::path::PathBuf;
use std::process::Command;

use lockstep::served::{journal_len, Scratch};
use lockstep::{Deployment, Lifecycle, Via};
use storypivot_gen::{CorpusBuilder, GenConfig};
use storypivot_serve::client::Client;
use storypivot_serve::proto::Response;
use storypivot_serve::server::{serve, ServerConfig};
use storypivot_substrate::wal::SyncPolicy;

/// A two-shard `pivotd` leader the script kills now and then.
fn killed(fsync: &'static str, checkpoint_every_bytes: u64) -> Via {
    Via::Served(Deployment {
        shards: 2,
        leader: Some(env!("CARGO_BIN_EXE_pivotd")),
        fsync,
        checkpoint_every_bytes,
        lifecycle: &[Lifecycle::Kill],
        ..Deployment::default()
    })
}

/// The snapshot-freshness flags are gone, not silently accepted.
#[test]
fn removed_snapshot_flags_are_usage_errors() {
    for flag in ["--snapshot-every-ops", "--snapshot-max-age-ms"] {
        let out = Command::new(env!("CARGO_BIN_EXE_pivotd")).args([flag, "1"]).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{flag}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage: pivotd"), "{flag}");
    }
}

#[test]
fn sigkill_mid_stream_recovers_the_exact_partition() {
    let via = killed("always", Deployment::default().checkpoint_every_bytes);
    let Some(tally) = lockstep::slice_via(via, "sigkill", 1, |c| c.sources >= 2) else { return };
    let served = &tally.served;
    // The newcomer registers after a crash: recovered engines keep
    // allocating past recovered source ids.
    assert!(served.crashes[0] > 0 && served.sources_after_crash > 0, "{tally:?}");
}

/// A checkpoint every 4 KiB of journal: recovery replays checkpoint + a
/// short tail, and no journal grows near the whole stream.
#[test]
fn sigkill_with_periodic_checkpoints_recovers_and_truncates() {
    let Some(tally) = lockstep::slice_via(killed("every:8", 4096), "periodic", 1, |_| true) else { return };
    assert!(tally.served.crashes[1] > 0, "a kill must land after a checkpoint: {tally:?}");
}

/// Every wire op round-trips through `ReplayOp::encode`/`decode` and
/// reaches the engine through `oplog::apply`, as the journal's replay
/// and a follower's tail deliver it.
#[test]
fn journaled_ops_match_the_oracle_after_every_op() {
    let Some(tally) = lockstep::slice_via(Via::Journal, "journal ops", 1, |c| c.sources >= 2) else { return };
    assert!(tally.docs_removed > 0 && tally.onboarded > 0 && tally.reloads[0] > 0, "{tally:?}");
}

/// A checkpoint write that fails (ENOSPC — here: a directory squatting
/// on the temp-file name) must not advance the generation. If it did,
/// the leader would hold N+1 in memory with N newest on disk, see every
/// follower's `(N, offset)` cursor as stale, and answer each poll with
/// the whole generation-N checkpoint instead of the WAL records the
/// follower is missing.
#[test]
fn failed_checkpoint_write_does_not_advance_the_generation() {
    const EVERY_BYTES: u64 = 4096;
    let (wal, ckpt) = (Scratch::new("wal-ckptfail"), Scratch::new("ckpt-ckptfail"));
    let cfg = ServerConfig {
        shards: 1,
        wal_dir: Some(wal.to_path_buf()),
        checkpoint_dir: Some(ckpt.to_path_buf()),
        fsync: SyncPolicy::Never,
        checkpoint_every_bytes: EVERY_BYTES,
        ..ServerConfig::default()
    };
    let handle = serve("127.0.0.1:0", cfg).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let corpus = CorpusBuilder::new(
        GenConfig::default().with_seed(5).with_sources(1).with_target_snippets(300),
    )
    .build();
    let source = &corpus.sources[0];
    client.add_source(&source.name, source.kind, source.typical_lag).unwrap();
    let mut stream = corpus.snippets.iter();
    let mut ingest_one = |client: &mut Client| {
        let snippet = stream.next().expect("corpus outlasts the test");
        client.ingest_backoff(snippet, Default::default()).expect("acked ingest");
    };
    let generation_path = |g: u64| ckpt.join(format!("shard0.g{g:010}.spvc"));

    // Until the first size-triggered generation exists; a follower that
    // has nothing learns its number from the checkpoint it is offered.
    while std::fs::read_dir(&*ckpt).unwrap().count() == 0 {
        ingest_one(&mut client);
    }
    let n = match client.repl_subscribe(0, u64::MAX, 0).unwrap() {
        Response::ReplCheckpoint { generation, checkpoint } => {
            assert!(!checkpoint.is_empty());
            generation
        }
        other => panic!("a stale cursor must be offered a checkpoint, got {other:?}"),
    };
    assert!(generation_path(n).exists());

    // Make every write of generations N+1.. fail: `File::create` on a
    // directory errors for root too (unlike a read-only mode bit).
    let blockers: Vec<PathBuf> =
        (1..=64).map(|k| generation_path(n + k).with_extension("spvc.tmp")).collect();
    for b in &blockers {
        std::fs::create_dir(b).unwrap();
    }
    // The journal stops resetting while checkpoints fail.
    while journal_len(&wal, 0) < EVERY_BYTES * 3 / 2 {
        ingest_one(&mut client);
    }

    // A follower on generation N is still current: it gets records.
    match client.repl_subscribe(0, n, 0).unwrap() {
        Response::ReplFrame { generation, records, .. } => {
            assert_eq!(generation, n);
            assert!(!records.is_empty());
        }
        other => panic!("follower on the newest on-disk generation {n} was offered {other:?}"),
    }

    // Disk healthy again: the very next op writes N+1, not N+13.
    for b in &blockers {
        std::fs::remove_dir(b).unwrap();
    }
    ingest_one(&mut client);
    assert!(generation_path(n + 1).exists(), "generation numbers must not skip");
    assert!(journal_len(&wal, 0) < EVERY_BYTES);

    client.shutdown().unwrap();
    handle.join();
}
