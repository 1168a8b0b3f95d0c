//! Crash-equivalence under deterministic disk-fault injection: with a
//! `substrate::fault` plan tearing WAL appends and failing checkpoint
//! writes, every *acknowledged* mutation must still survive SIGKILL
//! byte-for-byte, and every *rejected* mutation must have left no trace
//! (so a straight retry converges on the uninterrupted twin).
//!
//! Fault hooks only fire in debug builds (`cargo test` default); under
//! `--release` the plans are inert and these tests degrade to the plain
//! crash-equivalence they extend.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use storypivot_core::config::PivotConfig;
use storypivot_core::StoryPivot;
use storypivot_gen::{Corpus, CorpusBuilder, GenConfig};
use storypivot_serve::client::Client;
use storypivot_serve::proto::StorySummary;
use storypivot_serve::server::{serve, ServerConfig};
use storypivot_substrate::fault::FaultPlan;
use storypivot_substrate::wal::SyncPolicy;
use storypivot_types::{Snippet, Source};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("storypivot-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Spawn the real pivotd binary (optionally with a `STORYPIVOT_FAULTS`
/// plan in its environment) and wait for its port file.
#[allow(clippy::zombie_processes)]
fn spawn_pivotd(extra: &[&str], port_file: &Path, faults: Option<&str>) -> (Child, SocketAddr) {
    let _ = std::fs::remove_file(port_file);
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_pivotd"));
    cmd.args(["--addr", "127.0.0.1:0", "--port-file", port_file.to_str().unwrap()])
        .args(extra)
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    match faults {
        Some(plan) => cmd.env("STORYPIVOT_FAULTS", plan),
        None => cmd.env_remove("STORYPIVOT_FAULTS"),
    };
    let mut child = cmd.spawn().expect("spawn pivotd");
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

/// Register the corpus sources against a possibly-faulting server,
/// retrying rejected registrations. A rejected ADD_SOURCE still burns a
/// source id (the id is allocated at admission, before the journal
/// append that the fault fails), so the ids the server grants can drift
/// from the corpus ids — the returned stream is the corpus re-keyed to
/// the *granted* ids, plus how many attempts a fault rejected.
fn remapped_stream(client: &mut Client, corpus: &Corpus) -> (Vec<Source>, Vec<Snippet>, u64) {
    let mut rejected = 0u64;
    let mut sample_err = String::new();
    let mut sources = Vec::with_capacity(corpus.sources.len());
    let mut map: BTreeMap<u32, u32> = BTreeMap::new();
    for source in &corpus.sources {
        let granted = loop {
            match client.add_source(&source.name, source.kind, source.typical_lag) {
                Ok(id) => break id,
                Err(e) => {
                    sample_err = e.to_string();
                    rejected += 1;
                    assert!(rejected < 10_000, "add_source never landed: {sample_err}");
                }
            }
        };
        map.insert(source.id.raw(), granted.raw());
        sources.push(Source { id: granted, ..source.clone() });
    }
    if rejected > 0 {
        assert!(
            sample_err.contains("injected fault"),
            "only injected faults should reject registrations, got: {sample_err}"
        );
    }
    let snippets = corpus
        .snippets
        .iter()
        .map(|s| {
            let mut s = s.clone();
            s.source = storypivot_types::SourceId::new(map[&s.source.raw()]);
            s
        })
        .collect();
    (sources, snippets, rejected)
}

/// Ingest every snippet, retrying the ones an injected fault rejects;
/// returns how many attempts were rejected. `ingest_backoff` already
/// absorbs BUSY/SHED internally, so every `Err` here is a typed server
/// error riding a still-healthy connection.
fn ingest_with_retry(client: &mut Client, snippets: &[Snippet]) -> u64 {
    let mut rejected = 0u64;
    for snippet in snippets {
        loop {
            match client.ingest_backoff(snippet, Default::default()) {
                Ok(_) => break,
                Err(e) => {
                    let msg = e.to_string();
                    assert!(
                        msg.contains("injected fault"),
                        "unexpected ingest failure: {msg}"
                    );
                    rejected += 1;
                    assert!(rejected < 10_000, "ingest never landed");
                }
            }
        }
    }
    rejected
}

/// The uninterrupted in-process twin of the granted-id stream.
fn twin_of(sources: &[Source], snippets: &[Snippet]) -> StoryPivot {
    let mut twin = StoryPivot::new(PivotConfig::default());
    for source in sources {
        twin.add_source_registered(source.clone()).unwrap();
    }
    for snippet in snippets {
        twin.ingest(snippet.clone()).unwrap();
    }
    twin
}

/// In-process server with an aggressive WAL fault plan: rejected writes
/// must leave no trace (append-before-apply), so blind retries converge
/// on exactly the partition of the uninterrupted twin.
#[test]
fn injected_wal_faults_reject_cleanly_and_retries_converge() {
    let wal = scratch("inproc-wal");
    let ckpt = scratch("inproc-ckpt");
    let cfg = ServerConfig {
        shards: 2,
        wal_dir: Some(wal.clone()),
        checkpoint_dir: Some(ckpt.clone()),
        fsync: SyncPolicy::Always,
        faults: Some(FaultPlan::parse("seed=5,wal_enospc=120,wal_short=80").unwrap()),
        ..ServerConfig::default()
    };
    let handle = serve("127.0.0.1:0", cfg).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let corpus = corpus(13, 240);
    let (sources, snippets, rejected_sources) = remapped_stream(&mut client, &corpus);
    let rejected_ingests = ingest_with_retry(&mut client, &snippets);
    if cfg!(debug_assertions) {
        // permille 120+80 over ~240 appends per shard: statistically
        // certain to fire, and deterministic for this seed.
        assert!(
            rejected_sources + rejected_ingests > 0,
            "the fault plan never fired in a debug build"
        );
    }

    let served = partition_of_summaries(&client.query_stories().unwrap());
    assert_eq!(
        served,
        partition_of_engine(&twin_of(&sources, &snippets)),
        "faulted-and-retried stream must reach the uninterrupted twin's partition"
    );

    client.shutdown().unwrap();
    handle.join();
    let _ = std::fs::remove_dir_all(&wal);
    let _ = std::fs::remove_dir_all(&ckpt);
}

/// The ISSUE's acceptance bar: SIGKILL a pivotd that ran its whole load
/// under an active disk-fault plan (torn WAL appends, failed periodic
/// checkpoints) and prove a clean restart serves the byte-identical
/// partition the loaded daemon acknowledged.
#[test]
fn sigkill_under_fault_plan_recovers_the_exact_partition() {
    let wal = scratch("kill-wal");
    let ckpt = scratch("kill-ckpt");
    let port_file = wal.join("port");
    let wal_s = wal.to_str().unwrap().to_string();
    let ckpt_s = ckpt.to_str().unwrap().to_string();
    // Small checkpoint threshold so the run crosses it repeatedly —
    // some of those checkpoints fail by injection and are skipped; the
    // WAL they would have truncated must still replay correctly.
    let args = [
        "--shards",
        "2",
        "--fsync",
        "always",
        "--checkpoint-every-bytes",
        "4096",
        "--wal-dir",
        &wal_s,
        "--checkpoint-dir",
        &ckpt_s,
    ];

    let corpus = corpus(17, 240);
    let (mut child, addr) =
        spawn_pivotd(&args, &port_file, Some("seed=9,wal_enospc=60,wal_short=60,checkpoint=250"));
    let mut client = Client::connect(addr).unwrap();
    let (sources, snippets, _) = remapped_stream(&mut client, &corpus);
    let _ = ingest_with_retry(&mut client, &snippets);
    // Everything above was acknowledged under --fsync always *despite*
    // the fault plan; this partition is the durability contract.
    let before = partition_of_summaries(&client.query_stories().unwrap());
    drop(client);

    child.kill().unwrap();
    let _ = child.wait();

    // Clean restart, no fault plan: replay must see a whole journal
    // (torn appends were repaired in place, failed appends left nothing).
    let (mut child2, addr2) = spawn_pivotd(&args, &port_file, None);
    let mut client = Client::connect(addr2).unwrap();
    let after = partition_of_summaries(&client.query_stories().unwrap());
    assert_eq!(after, before, "restart must reconstruct the acked partition");
    assert_eq!(
        after,
        partition_of_engine(&twin_of(&sources, &snippets)),
        "recovered partition must equal the uninterrupted twin"
    );

    client.shutdown().unwrap();
    let status = child2.wait().unwrap();
    assert!(status.success());
    let _ = std::fs::remove_dir_all(&wal);
    let _ = std::fs::remove_dir_all(&ckpt);
}
