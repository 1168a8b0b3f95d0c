//! End-to-end replication: a `pivotd --leader` follower must bootstrap
//! from an in-process leader, tail its WAL to the exact same story
//! partition, redirect writes with NOT_LEADER, expose replication lag,
//! and — after `kill -9` mid-tail — converge again on restart.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use storypivot_gen::{Corpus, CorpusBuilder, GenConfig};
use storypivot_serve::client::Client;
use storypivot_serve::proto::StorySummary;
use storypivot_serve::server::{serve, ServerConfig, ServerHandle};
use storypivot_types::Error;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("storypivot-repl-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Spawn the real pivotd binary as a follower of `leader` and wait for
/// its port file. The caller owns reaping.
#[allow(clippy::zombie_processes)]
fn spawn_replica(leader: SocketAddr, dirs: &Path, shards: &str) -> (Child, SocketAddr) {
    let port_file = dirs.join("port");
    let _ = std::fs::remove_file(&port_file);
    let wal = dirs.join("wal");
    let ckpt = dirs.join("ckpt");
    std::fs::create_dir_all(&wal).unwrap();
    std::fs::create_dir_all(&ckpt).unwrap();
    let mut child = Command::new(env!("CARGO_BIN_EXE_pivotd"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--port-file",
            port_file.to_str().unwrap(),
            "--leader",
            &leader.to_string(),
            "--shards",
            shards,
            "--wal-dir",
            wal.to_str().unwrap(),
            "--checkpoint-dir",
            ckpt.to_str().unwrap(),
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn replica pivotd");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(raw) = std::fs::read_to_string(&port_file) {
            if let Ok(port) = raw.trim().parse::<u16>() {
                return (child, SocketAddr::from(([127, 0, 0, 1], port)));
            }
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("replica pivotd did not write its port file");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// An in-process leader with WAL + checkpoints in `dirs`.
fn spawn_leader(dirs: &Path, shards: usize) -> ServerHandle {
    let wal = dirs.join("wal");
    let ckpt = dirs.join("ckpt");
    std::fs::create_dir_all(&wal).unwrap();
    std::fs::create_dir_all(&ckpt).unwrap();
    serve(
        "127.0.0.1:0",
        ServerConfig {
            shards,
            wal_dir: Some(wal),
            checkpoint_dir: Some(ckpt),
            ..ServerConfig::default()
        },
    )
    .unwrap()
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

fn ingest_slice(client: &mut Client, corpus: &Corpus, range: std::ops::Range<usize>) {
    for snippet in &corpus.snippets[range] {
        client
            .ingest_backoff(snippet, Default::default())
            .expect("acked ingest");
    }
}

fn register_sources(client: &mut Client, corpus: &Corpus) {
    for source in &corpus.sources {
        let got = client
            .add_source(&source.name, source.kind, source.typical_lag)
            .unwrap();
        assert_eq!(got, source.id, "fresh leader must allocate corpus ids");
    }
}

/// Poll the follower until its QUERY_STORIES answer equals the
/// leader's `want` — ids, sources, lifespans and member lists. The
/// follower's snapshot is seeded at bootstrap and patched per tailed
/// batch; the leader's is patched per op.
fn await_convergence(addr: SocketAddr, want: &[StorySummary]) {
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut client = Client::connect(addr).unwrap();
    loop {
        let got = client.query_stories().unwrap();
        if got == want {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "replica never converged: {} stories served, want {}",
            got.len(),
            want.len()
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

#[test]
fn replica_converges_redirects_writes_and_reports_lag() {
    let ldir = scratch("live-leader");
    let rdir = scratch("live-replica");
    let corpus = corpus(21, 300);

    let leader = spawn_leader(&ldir, 2);
    let leader_addr = leader.addr();
    let mut lc = Client::connect(leader_addr).unwrap();
    register_sources(&mut lc, &corpus);
    let half = corpus.snippets.len() / 2;
    ingest_slice(&mut lc, &corpus, 0..half);

    // The follower bootstraps from a leader that already has state.
    let (mut child, replica_addr) = spawn_replica(leader_addr, &rdir, "2");
    let want = lc.query_stories().unwrap();
    await_convergence(replica_addr, &want);

    // Keep ingesting while the follower tails live; a replicated
    // removal shrinks (or drops) stories on the follower too.
    ingest_slice(&mut lc, &corpus, half..corpus.snippets.len());
    assert!(lc.remove_doc(corpus.snippets[0].doc).unwrap() > 0);
    let want = lc.query_stories().unwrap();
    await_convergence(replica_addr, &want);

    // Writes are redirected, and the redirect names the leader.
    let mut rc = Client::connect(replica_addr).unwrap();
    match rc.ingest(&corpus.snippets[0]) {
        Err(Error::NotLeader { leader_addr: got }) => {
            assert_eq!(got, leader_addr.to_string(), "redirect must name the leader")
        }
        other => panic!("replica must redirect writes, got {other:?}"),
    }
    match rc.add_source("late", corpus.sources[0].kind, 0) {
        Err(Error::NotLeader { .. }) => {}
        other => panic!("replica must redirect ADD_SOURCE, got {other:?}"),
    }

    // Replication lag is exported per shard; after convergence it reads
    // zero ops behind on both shards.
    let text = rc.metrics().unwrap();
    for shard in 0..2 {
        let needle = format!("storypivot_replica_lag_ops{{shard=\"{shard}\"}}");
        let line = text
            .lines()
            .find(|l| l.starts_with(&needle))
            .unwrap_or_else(|| panic!("missing {needle} in exposition:\n{text}"));
        assert!(line.ends_with(" 0"), "converged replica must report zero lag: {line}");
    }

    rc.shutdown().unwrap();
    let status = child.wait().unwrap();
    assert!(status.success(), "replica shutdown must exit 0");
    lc.shutdown().unwrap();
    leader.join();
    let _ = std::fs::remove_dir_all(&ldir);
    let _ = std::fs::remove_dir_all(&rdir);
}

#[test]
fn replica_killed_mid_tail_converges_after_restart() {
    let ldir = scratch("kill-leader");
    let rdir = scratch("kill-replica");
    let corpus = corpus(23, 300);

    let leader = spawn_leader(&ldir, 2);
    let leader_addr = leader.addr();
    let mut lc = Client::connect(leader_addr).unwrap();
    register_sources(&mut lc, &corpus);
    let third = corpus.snippets.len() / 3;
    ingest_slice(&mut lc, &corpus, 0..third);

    // Start the follower and let it reach the first third, so the kill
    // lands after bootstrap with real tailing state on disk.
    let (mut child, replica_addr) = spawn_replica(leader_addr, &rdir, "2");
    let want = lc.query_stories().unwrap();
    await_convergence(replica_addr, &want);

    // SIGKILL the follower while the leader keeps moving: no drain, no
    // checkpoint — its next life starts from local WAL repair.
    child.kill().unwrap();
    let _ = child.wait();
    ingest_slice(&mut lc, &corpus, third..corpus.snippets.len());

    let (mut child2, replica_addr2) = spawn_replica(leader_addr, &rdir, "2");
    let want = lc.query_stories().unwrap();
    await_convergence(replica_addr2, &want);

    let mut rc = Client::connect(replica_addr2).unwrap();
    rc.shutdown().unwrap();
    let status = child2.wait().unwrap();
    assert!(status.success());
    lc.shutdown().unwrap();
    leader.join();
    let _ = std::fs::remove_dir_all(&ldir);
    let _ = std::fs::remove_dir_all(&rdir);
}
