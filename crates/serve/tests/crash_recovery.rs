//! Crash-equivalence: SIGKILL a real `pivotd` process mid-stream and
//! prove the restarted daemon serves exactly the partition an
//! uninterrupted in-process run produces. Exercises the whole
//! durability stack — WAL append/fsync, torn-tail repair, checkpoint
//! generations, startup replay — through the public binary. One case
//! runs in process instead: a checkpoint write that fails must not move
//! the generation the leader tells its followers about.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use storypivot_core::config::PivotConfig;
use storypivot_core::StoryPivot;
use storypivot_gen::{Corpus, CorpusBuilder, GenConfig};
use storypivot_serve::client::{Client, ReplDelivery};
use storypivot_serve::proto::StorySummary;
use storypivot_serve::server::{serve, ServerConfig};
use storypivot_substrate::wal::SyncPolicy;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("storypivot-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Spawn the real pivotd binary and wait for its port file. The caller
/// owns reaping (each test kills or shuts the daemon down and waits);
/// on the timeout path below the child is killed and reaped here.
#[allow(clippy::zombie_processes)]
fn spawn_pivotd(extra: &[&str], port_file: &Path) -> (Child, SocketAddr) {
    let _ = std::fs::remove_file(port_file);
    let mut child = Command::new(env!("CARGO_BIN_EXE_pivotd"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--port-file",
            port_file.to_str().unwrap(),
        ])
        .args(extra)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn pivotd");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(raw) = std::fs::read_to_string(port_file) {
            if let Ok(port) = raw.trim().parse::<u16>() {
                return (child, SocketAddr::from(([127, 0, 0, 1], port)));
            }
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("pivotd did not write its port file");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Partition as story id → sorted member ids; exact, since
/// identification alone determines it.
fn partition_of_summaries(stories: &[StorySummary]) -> BTreeMap<u32, Vec<u32>> {
    stories
        .iter()
        .map(|s| {
            let mut members: Vec<u32> = s.members.iter().map(|m| m.raw()).collect();
            members.sort_unstable();
            (s.id.raw(), members)
        })
        .collect()
}

fn partition_of_engine(engine: &StoryPivot) -> BTreeMap<u32, Vec<u32>> {
    engine
        .story_partition()
        .into_iter()
        .map(|(id, members)| {
            let mut members: Vec<u32> = members.iter().map(|m| m.raw()).collect();
            members.sort_unstable();
            (id.raw(), members)
        })
        .collect()
}

fn corpus(seed: u64, events: usize) -> Corpus {
    CorpusBuilder::new(
        GenConfig::default()
            .with_seed(seed)
            .with_sources(4)
            .with_target_snippets(events),
    )
    .build()
}

/// The uninterrupted twin: one engine, same stream.
fn twin_of(corpus: &Corpus) -> StoryPivot {
    let mut twin = StoryPivot::new(PivotConfig::default());
    for source in &corpus.sources {
        twin.add_source_registered(source.clone()).unwrap();
    }
    for snippet in &corpus.snippets {
        twin.ingest(snippet.clone()).unwrap();
    }
    twin
}

fn ingest_all(client: &mut Client, corpus: &Corpus) {
    for source in &corpus.sources {
        let got = client
            .add_source(&source.name, source.kind, source.typical_lag)
            .unwrap();
        assert_eq!(got, source.id, "fresh server must allocate corpus ids");
    }
    for snippet in &corpus.snippets {
        client
            .ingest_backoff(snippet, Default::default())
            .expect("acked ingest");
    }
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
    let wal = scratch("wal-basic");
    let ckpt = scratch("ckpt-basic");
    let port_file = wal.join("port");
    let flags = [
        "--shards",
        "2",
        "--fsync",
        "always",
        "--wal-dir",
    ];
    let mut args: Vec<&str> = flags.to_vec();
    let wal_s = wal.to_str().unwrap().to_string();
    let ckpt_s = ckpt.to_str().unwrap().to_string();
    args.push(&wal_s);
    args.push("--checkpoint-dir");
    args.push(&ckpt_s);

    let corpus = corpus(7, 240);
    let (mut child, addr) = spawn_pivotd(&args, &port_file);
    let mut client = Client::connect(addr).unwrap();
    ingest_all(&mut client, &corpus);
    // Every snippet above was acknowledged under --fsync always; the
    // partition served *before* the crash is the reference.
    let before = partition_of_summaries(&client.query_stories().unwrap());
    drop(client);

    // SIGKILL: no drain, no checkpoint, no flush — only the WAL.
    child.kill().unwrap();
    let _ = child.wait();

    let (mut child2, addr2) = spawn_pivotd(&args, &port_file);
    let mut client = Client::connect(addr2).unwrap();
    let after = partition_of_summaries(&client.query_stories().unwrap());
    assert_eq!(after, before, "restart must reconstruct the acked partition");
    // And both equal the uninterrupted in-process run.
    assert_eq!(after, partition_of_engine(&twin_of(&corpus)));

    // Recovered engines keep allocating past recovered source ids.
    let extra = client.add_source("post-crash", corpus.sources[0].kind, 0).unwrap();
    assert_eq!(extra.raw(), corpus.sources.len() as u32);

    client.shutdown().unwrap();
    let status = child2.wait().unwrap();
    assert!(status.success());
    let _ = std::fs::remove_dir_all(&wal);
    let _ = std::fs::remove_dir_all(&ckpt);
}

#[test]
fn sigkill_with_periodic_checkpoints_recovers_and_truncates() {
    let wal = scratch("wal-periodic");
    let ckpt = scratch("ckpt-periodic");
    let port_file = wal.join("port");
    let wal_s = wal.to_str().unwrap().to_string();
    let ckpt_s = ckpt.to_str().unwrap().to_string();
    // A checkpoint every 4 KiB of journal: the 240-event stream crosses
    // the threshold many times, so recovery replays checkpoint + a
    // short tail rather than the whole history.
    let args = [
        "--shards",
        "2",
        "--fsync",
        "every:8",
        "--checkpoint-every-bytes",
        "4096",
        "--wal-dir",
        &wal_s,
        "--checkpoint-dir",
        &ckpt_s,
    ];

    let corpus = corpus(11, 240);
    let (mut child, addr) = spawn_pivotd(&args, &port_file);
    let mut client = Client::connect(addr).unwrap();
    ingest_all(&mut client, &corpus);
    let before = partition_of_summaries(&client.query_stories().unwrap());
    let stats = client.stats().unwrap();
    drop(client);
    // Size-triggered checkpoints must have fired and truncated: no
    // shard's journal holds anywhere near the whole stream.
    for s in &stats.shards {
        assert!(
            s.wal_bytes < 64 * 1024,
            "shard {} wal grew to {} bytes despite periodic checkpoints",
            s.shard,
            s.wal_bytes
        );
    }
    let generations = std::fs::read_dir(&ckpt)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".spvc"))
        .count();
    assert!(generations >= 1, "periodic checkpoints must leave generation files");

    child.kill().unwrap();
    let _ = child.wait();

    // Under fsync every:8, up to 7 acked appends per shard may be lost
    // by the kill — but this test's writes all hit the OS page cache
    // and the process (not the machine) died, so the journal is whole.
    let (mut child2, addr2) = spawn_pivotd(&args, &port_file);
    let mut client = Client::connect(addr2).unwrap();
    let after = partition_of_summaries(&client.query_stories().unwrap());
    assert_eq!(after, before, "checkpoint + wal tail must rebuild the partition");
    client.shutdown().unwrap();
    let status = child2.wait().unwrap();
    assert!(status.success());
    let _ = std::fs::remove_dir_all(&wal);
    let _ = std::fs::remove_dir_all(&ckpt);
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
    let wal = scratch("wal-ckptfail");
    let ckpt = scratch("ckpt-ckptfail");
    let cfg = ServerConfig {
        shards: 1,
        wal_dir: Some(wal.clone()),
        checkpoint_dir: Some(ckpt.clone()),
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
    while std::fs::read_dir(&ckpt).unwrap().count() == 0 {
        ingest_one(&mut client);
    }
    let n = match client.repl_subscribe(0, u64::MAX, 0).unwrap() {
        ReplDelivery::Checkpoint { generation, checkpoint } => {
            assert!(!checkpoint.is_empty());
            generation
        }
        ReplDelivery::Frame { .. } => panic!("a stale cursor must be offered a checkpoint"),
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
    while client.stats().unwrap().shards[0].wal_bytes < EVERY_BYTES * 3 / 2 {
        ingest_one(&mut client);
    }

    // A follower on generation N is still current: it gets records.
    match client.repl_subscribe(0, n, 0).unwrap() {
        ReplDelivery::Frame { generation, records, .. } => {
            assert_eq!(generation, n);
            assert!(!records.is_empty());
        }
        ReplDelivery::Checkpoint { generation, .. } => panic!(
            "follower on the newest on-disk generation {n} was offered checkpoint {generation}"
        ),
    }

    // Disk healthy again: the very next op writes N+1, not N+13.
    for b in &blockers {
        std::fs::remove_dir(b).unwrap();
    }
    ingest_one(&mut client);
    assert!(generation_path(n + 1).exists(), "generation numbers must not skip");
    assert!(client.stats().unwrap().shards[0].wal_bytes < EVERY_BYTES);

    client.shutdown().unwrap();
    handle.join();
    let _ = std::fs::remove_dir_all(&wal);
    let _ = std::fs::remove_dir_all(&ckpt);
}
