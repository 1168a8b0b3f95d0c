use std::time::{Duration, Instant};

use storypivot_eval::Table;
use storypivot_gen::{CorpusBuilder, GenConfig};
use storypivot_substrate::wal::SyncPolicy;

use super::{Experiment, Scale};

pub(super) const EXPERIMENT: Experiment = Experiment {
    name: "replica",
    alias: Some("e15"),
    title: "E15 — follower read fan-out",
    run: e15_replica,
};

/// E15 — replication: aggregate QUERY_STORIES throughput as follower
/// replicas join the read path (`BENCH_replica.json`, long format).
fn e15_replica(scale: &Scale, seed: u64) -> Table {
    use storypivot_serve::client::Client;
    use storypivot_serve::load::{query_fanout, replay, LoadOptions, QueryOptions};
    use storypivot_serve::server::{serve, ServerConfig};

    let mut table = Table::new(["phase", "config", "metric"]).clocks(["value"]);
    let base = std::env::temp_dir().join(format!("storypivot-e15-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).expect("e15 scratch dir");
    let shards = 2usize;
    let corpus = CorpusBuilder::new(
        GenConfig::default()
            .with_seed(seed ^ 0xE15)
            .with_sources(6)
            .with_target_snippets(scale.mid),
    )
    .build();
    let server_cfg = |dir: std::path::PathBuf, leader: Option<String>| {
        std::fs::create_dir_all(&dir).expect("e15 wal dir");
        ServerConfig {
            shards,
            wal_dir: Some(dir),
            fsync: SyncPolicy::Never,
            leader,
            ..ServerConfig::default()
        }
    };

    // Canonical partition shape, for convergence polling.
    let partition = |client: &mut Client| -> Vec<(u32, Vec<u32>)> {
        let mut p: Vec<(u32, Vec<u32>)> = client
            .query_stories()
            .expect("query partition")
            .iter()
            .map(|s| {
                let mut members: Vec<u32> = s.members.iter().map(|m| m.raw()).collect();
                members.sort_unstable();
                (s.id.raw(), members)
            })
            .collect();
        p.sort();
        p
    };

    // ---- phase 1: read throughput vs replica count -------------------
    let leader = serve("127.0.0.1:0", server_cfg(base.join("leader"), None))
        .expect("start e15 leader");
    let leader_addr = leader.addr();
    replay(
        leader_addr,
        &corpus,
        &LoadOptions { connections: shards, ..LoadOptions::default() },
    )
    .expect("preload leader");
    let mut lc = Client::connect(leader_addr).expect("leader client");
    let want = partition(&mut lc);

    let opts = QueryOptions { requests: 2 * scale.mid as u64, threads: 4 };
    let mut targets = vec![leader_addr.to_string()];
    let mut replicas = Vec::new();
    // Warm up caches and allocators so the leader-alone baseline isn't
    // penalized for going first.
    query_fanout(&targets, &QueryOptions { requests: opts.requests / 4, ..opts.clone() })
        .expect("warmup fan-out");
    for extra in 0..=2usize {
        if extra > 0 {
            let handle = serve(
                "127.0.0.1:0",
                server_cfg(
                    base.join(format!("replica-{extra}")),
                    Some(leader_addr.to_string()),
                ),
            )
            .expect("start e15 replica");
            let mut rc = Client::connect(handle.addr()).expect("replica client");
            let deadline = Instant::now() + Duration::from_secs(60);
            while partition(&mut rc) != want {
                assert!(Instant::now() < deadline, "e15 replica never converged");
                std::thread::sleep(Duration::from_millis(25));
            }
            targets.push(handle.addr().to_string());
            replicas.push(handle);
        }
        let config = format!("leader+{extra}r");
        // Two load shapes: a fixed client pool (aggregate capacity at
        // constant offered load) and one reader per target (each
        // follower brings its own client population, the shape real
        // read fan-outs have).
        for (phase, threads) in
            [("fanout_fixed", opts.threads), ("fanout_scaled", targets.len())]
        {
            let report = query_fanout(
                &targets,
                &QueryOptions { threads, ..opts.clone() },
            )
            .expect("query fan-out");
            let mut rtt = storypivot_substrate::timing::Histogram::new();
            for t in &report.targets {
                rtt.merge(&t.latency);
            }
            println!(
                "  {phase} {config}: {}",
                report.summary().lines().next().unwrap_or("")
            );
            table.row([
                phase.into(), config.clone(), "qps".into(), format!("{:.1}", report.qps()),
            ]);
            table.row([
                phase.into(), config.clone(), "rtt_p50_us".into(),
                format!("{:.1}", rtt.percentile(0.50) as f64 / 1e3),
            ]);
            table.row([
                phase.into(), config.clone(), "rtt_p95_us".into(),
                format!("{:.1}", rtt.percentile(0.95) as f64 / 1e3),
            ]);
        }
    }
    for handle in replicas {
        let mut rc = Client::connect(handle.addr()).expect("replica shutdown client");
        rc.shutdown().expect("replica shutdown");
        handle.join();
    }
    lc.shutdown().expect("leader shutdown");
    leader.join();

    let _ = std::fs::remove_dir_all(&base);
    table
}
