//! End-to-end replication: slices of the differential driver
//! (`lockstep`) through an in-process leader and a `pivotd --leader`
//! follower. The follower bootstraps from a leader that already has
//! state, tails its WAL and, once caught up, serves exactly the oracle
//! engine's partition, reports zero replication lag on every shard, and
//! redirects INGEST and ADD_SOURCE with a NOT_LEADER naming the leader —
//! also after a `kill -9` mid-tail and a restart on its directories.
//! A follower whose shards are slow still catches up at once, and
//! last, the read fan-out behind `loadgen --replicas` reaches a leader
//! and its follower.

#[path = "../../../tests/lockstep/mod.rs"]
mod lockstep;

use std::time::{Duration, Instant};

use lockstep::served::Scratch;
use lockstep::{Deployment, Lifecycle, Via};
use storypivot_gen::{CorpusBuilder, GenConfig};
use storypivot_serve::client::Client;
use storypivot_serve::load::{query_fanout, replay, LoadOptions, QueryOptions};
use storypivot_serve::server::{serve, ServerConfig};
use storypivot_substrate::wal::SyncPolicy;

fn followed(lifecycle: &'static [Lifecycle]) -> Via {
    Via::Served(Deployment {
        shards: 2,
        follower: Some(env!("CARGO_BIN_EXE_pivotd")),
        lifecycle,
        ..Deployment::default()
    })
}

#[test]
fn replica_converges_redirects_writes_and_reports_lag() {
    let via = followed(&[Lifecycle::Follow]);
    let Some(tally) = lockstep::slice_via(via, "followed", 1, |_| true) else { return };
    // A replicated removal shrinks (or drops) stories on the follower too.
    assert!(tally.served.follower_syncs > 2 && tally.docs_removed > 0, "{tally:?}");
}

#[test]
fn replica_killed_mid_tail_converges_after_restart() {
    let via = followed(&[Lifecycle::Follow, Lifecycle::KillFollower]);
    let Some(tally) = lockstep::slice_via(via, "follower kill", 1, |_| true) else { return };
    assert!(tally.served.follower_kills > 0, "the follower must be killed mid-tail: {tally:?}");
}

/// A follower whose shards take seconds per queued job (`worker_delay`)
/// still reaches its leader's partition well inside one delay: its
/// pullers read the cursor, bootstrap and apply under each shard's owner
/// lock themselves, so no queued job stands between a shipped batch and
/// the follower's read snapshot.
#[test]
fn a_follower_with_slow_shards_catches_up_inside_one_delay() {
    let dir = Scratch::new("slow-follower");
    let delay = Duration::from_secs(4);
    let config = |wal: &str, leader: Option<String>, worker_delay| ServerConfig {
        shards: 2,
        wal_dir: Some(dir.join(wal)),
        fsync: SyncPolicy::Never,
        leader,
        worker_delay,
        ..ServerConfig::default()
    };
    let leader = serve("127.0.0.1:0", config("leader", None, Duration::ZERO)).unwrap();
    let corpus = CorpusBuilder::new(
        GenConfig::default().with_seed(16).with_sources(4).with_target_snippets(150),
    )
    .build();
    replay(leader.addr(), &corpus, &LoadOptions { connections: 2, ..LoadOptions::default() }).unwrap();
    let want = Client::connect(leader.addr()).unwrap().query_stories().unwrap();
    assert!(!want.is_empty());

    let started = Instant::now();
    let follower = serve("127.0.0.1:0", config("follower", Some(leader.addr().to_string()), delay)).unwrap();
    let mut reader = Client::connect(follower.addr()).unwrap();
    while reader.query_stories().unwrap() != want {
        assert!(
            started.elapsed() < delay / 2,
            "the follower has not reached its leader's partition after {:?}",
            started.elapsed()
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    for handle in [follower, leader] {
        Client::connect(handle.addr()).unwrap().shutdown().unwrap();
        handle.join();
    }
}

/// QUERY_STORIES round-robined over an in-process leader and its
/// follower: both answer, every answer is timed, and the per-target
/// counts sum to the requests sent. Both then drain on SHUTDOWN.
#[test]
fn query_fanout_reaches_the_leader_and_its_follower() {
    let dir = Scratch::new("fanout");
    let config = |wal: &str, leader: Option<String>| ServerConfig {
        shards: 2,
        wal_dir: Some(dir.join(wal)),
        fsync: SyncPolicy::Never,
        leader,
        ..ServerConfig::default()
    };
    let leader = serve("127.0.0.1:0", config("leader", None)).unwrap();
    let corpus = CorpusBuilder::new(
        GenConfig::default().with_seed(15).with_sources(4).with_target_snippets(200),
    )
    .build();
    replay(leader.addr(), &corpus, &LoadOptions { connections: 2, ..LoadOptions::default() }).unwrap();
    let follower = serve("127.0.0.1:0", config("follower", Some(leader.addr().to_string()))).unwrap();

    let targets = [leader.addr().to_string(), follower.addr().to_string()];
    let sent = 101;
    let report = query_fanout(&targets, &QueryOptions { requests: sent, threads: 3 }).unwrap();
    assert_eq!(report.requests, sent);
    assert_eq!(report.targets.iter().map(|t| t.requests).sum::<u64>(), sent);
    for (target, addr) in report.targets.iter().zip(&targets) {
        assert_eq!(&target.addr, addr);
        assert!(target.requests > 0, "{addr} answered no query: {}", report.summary());
        assert_eq!(target.latency.count(), target.requests);
    }

    for handle in [follower, leader] {
        Client::connect(handle.addr()).unwrap().shutdown().unwrap();
        handle.join();
    }
}
