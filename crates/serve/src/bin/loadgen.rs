//! loadgen — replay a generated corpus against a pivotd server.
//!
//! ```text
//! loadgen --addr 127.0.0.1:7411 --events 5000 --conns 4 --rate 2000
//! loadgen --addr 127.0.0.1:7411 --quick --shutdown   # CI smoke
//! ```
//!
//! Prints achieved throughput and round-trip p50/p95/p99; `--json PATH`
//! additionally writes the report as a JSON artifact, `--metrics`
//! prints the server's merged Prometheus-style exposition, and
//! `--shutdown` sends SHUTDOWN (drain + checkpoint) after the replay.
//!
//! `--partition-file PATH` writes the server's story partition (one
//! canonical line per story) after the replay; with `--query-only` the
//! replay is skipped entirely, so two partition files — one from the
//! loaded server, one from a restarted server — can prove crash
//! recovery byte-for-byte.
//!
//! `--query-only --replicas HOST:PORT,HOST:PORT` instead runs the read
//! fan-out bench: `--queries N` QUERY_STORIES round trips are
//! round-robined across the leader (`--addr`) and every replica, and
//! the report breaks round-trip latency down per target.
//!
//! `--scenario NAME` replays a builtin chaos scenario (flash_crowd,
//! duplicate_flood, source_churn, retraction_storm, resurgence)
//! instead of a plain corpus: phase-structured load with mid-stream
//! source registration, duplicate floods, and retractions.

use std::path::PathBuf;

use storypivot_gen::{scenario, CorpusBuilder, GenConfig};
use storypivot_serve::client::Client;
use storypivot_serve::load::{
    conn_storm, query_fanout, replay, replay_script, LoadOptions, QueryOptions, StormOptions,
};

fn usage() -> ! {
    eprintln!(
        "usage: loadgen --addr HOST:PORT [--events N] [--sources N] [--conns N] \
         [--rate EV_PER_S] [--seed N] [--scenario NAME] [--json PATH] [--quick] \
         [--metrics] [--shutdown] [--partition-file PATH] [--query-only] \
         [--replicas HOST:PORT,HOST:PORT] [--queries N]\n\
         scenarios: {}\n\
         storm mode: loadgen --addr HOST:PORT --storm [--conns N] [--drivers N] \
         [--rounds N] [--interval-ms N] [--json PATH]",
        scenario::BUILTIN.join(", ")
    );
    std::process::exit(2);
}

/// Canonical text rendering of the story partition: one sorted line per
/// story, identical for identical partitions.
fn render_partition(stories: &[storypivot_serve::StorySummary]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for s in stories {
        let mut members: Vec<u32> = s.members.iter().map(|m| m.raw()).collect();
        members.sort_unstable();
        let _ = write!(out, "story {} source {} members", s.id.raw(), s.source.raw());
        for m in members {
            let _ = write!(out, " {m}");
        }
        out.push('\n');
    }
    out
}

fn parse<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> T {
    let raw = args.next().unwrap_or_else(|| {
        eprintln!("{flag} needs a value");
        usage();
    });
    raw.parse().unwrap_or_else(|_| {
        eprintln!("invalid value {raw:?} for {flag}");
        usage();
    })
}

fn main() {
    let mut addr: Option<String> = None;
    let mut events: usize = 5_000;
    let mut sources: u32 = 8;
    let mut seed: u64 = 0;
    let mut json: Option<PathBuf> = None;
    let mut want_metrics = false;
    let mut want_shutdown = false;
    let mut query_only = false;
    let mut replicas: Vec<String> = Vec::new();
    let mut query_opts = QueryOptions::default();
    let mut partition_file: Option<PathBuf> = None;
    let mut opts = LoadOptions::default();
    let mut storm = false;
    let mut storm_opts = StormOptions::default();
    let mut scenario_name: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--addr" => addr = Some(parse(&mut args, "--addr")),
            "--events" => events = parse(&mut args, "--events"),
            "--sources" => sources = parse(&mut args, "--sources"),
            "--conns" => {
                let n: usize = parse(&mut args, "--conns");
                opts.connections = n;
                storm_opts.connections = n;
            }
            "--storm" => storm = true,
            "--drivers" => storm_opts.drivers = parse(&mut args, "--drivers"),
            "--rounds" => storm_opts.rounds = parse(&mut args, "--rounds"),
            "--interval-ms" => {
                storm_opts.interval =
                    std::time::Duration::from_millis(parse(&mut args, "--interval-ms"))
            }
            "--rate" => opts.rate = parse(&mut args, "--rate"),
            "--seed" => seed = parse(&mut args, "--seed"),
            "--scenario" => scenario_name = Some(parse::<String>(&mut args, "--scenario")),
            "--json" => json = Some(parse::<PathBuf>(&mut args, "--json")),
            "--quick" => {
                events = 600;
                sources = 4;
                opts.connections = 2;
            }
            "--metrics" => want_metrics = true,
            "--shutdown" => want_shutdown = true,
            "--query-only" => query_only = true,
            "--replicas" => {
                let list: String = parse(&mut args, "--replicas");
                replicas = list
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(String::from)
                    .collect();
            }
            "--queries" => query_opts.requests = parse(&mut args, "--queries"),
            "--partition-file" => {
                partition_file = Some(parse::<PathBuf>(&mut args, "--partition-file"))
            }
            _ => usage(),
        }
    }
    let Some(addr) = addr else {
        eprintln!("--addr is required");
        usage();
    };

    if storm {
        eprintln!(
            "storming {} connections ({} drivers, {} rounds, {:?} interval)",
            storm_opts.connections, storm_opts.drivers, storm_opts.rounds, storm_opts.interval
        );
        let report = match conn_storm(addr.as_str(), &storm_opts) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("loadgen: storm failed: {e}");
                std::process::exit(1);
            }
        };
        println!("{}", report.summary());
        if let Some(path) = &json {
            if let Err(e) = std::fs::write(path, report.to_json()) {
                eprintln!("loadgen: cannot write {}: {e}", path.display());
                std::process::exit(1);
            }
            eprintln!("wrote {}", path.display());
        }
    } else if let Some(name) = &scenario_name {
        let Some(script) = scenario::by_name(name, events, seed) else {
            eprintln!(
                "loadgen: unknown scenario {name:?} (builtins: {})",
                scenario::BUILTIN.join(", ")
            );
            std::process::exit(2);
        };
        eprintln!(
            "replaying scenario {}: {} snippets, {} retractions, {} segments, \
             {} connections",
            script.name,
            script.events(),
            script.removed_docs(),
            script.segments.len(),
            opts.connections,
        );
        let report = match replay_script(addr.as_str(), &script, &opts) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("loadgen: scenario replay failed: {e}");
                std::process::exit(1);
            }
        };
        println!("{}", report.summary());
        if let Some(path) = &json {
            if let Err(e) = std::fs::write(path, report.to_json()) {
                eprintln!("loadgen: cannot write {}: {e}", path.display());
                std::process::exit(1);
            }
            eprintln!("wrote {}", path.display());
        }
    } else if !query_only {
        eprintln!("generating corpus: ~{events} events over {sources} sources (seed {seed})");
        let corpus = CorpusBuilder::new(
            GenConfig::default()
                .with_seed(seed)
                .with_sources(sources)
                .with_target_snippets(events),
        )
        .build();
        eprintln!(
            "replaying {} snippets over {} connections (rate: {})",
            corpus.len(),
            opts.connections,
            if opts.rate == 0 { "unlimited".to_string() } else { format!("{} ev/s", opts.rate) }
        );

        let report = match replay(addr.as_str(), &corpus, &opts) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("loadgen: {e}");
                std::process::exit(1);
            }
        };
        println!("{}", report.summary());
        if let Some(path) = &json {
            if let Err(e) = std::fs::write(path, report.to_json()) {
                eprintln!("loadgen: cannot write {}: {e}", path.display());
                std::process::exit(1);
            }
            eprintln!("wrote {}", path.display());
        }
    }

    if query_only && !replicas.is_empty() {
        // Read fan-out: round-robin QUERY_STORIES across the leader and
        // every replica, reporting per-target round-trip latency.
        let mut targets = vec![addr.clone()];
        targets.extend(replicas.iter().cloned());
        eprintln!(
            "fanning {} queries over {} targets ({} reader threads)",
            query_opts.requests,
            targets.len(),
            query_opts.threads
        );
        let report = match query_fanout(&targets, &query_opts) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("loadgen: query fan-out failed: {e}");
                std::process::exit(1);
            }
        };
        println!("{}", report.summary());
        if let Some(path) = &json {
            if let Err(e) = std::fs::write(path, report.to_json()) {
                eprintln!("loadgen: cannot write {}: {e}", path.display());
                std::process::exit(1);
            }
            eprintln!("wrote {}", path.display());
        }
    }

    if let Some(path) = &partition_file {
        let mut client = match Client::connect(addr.as_str()) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("loadgen: connect for partition query failed: {e}");
                std::process::exit(1);
            }
        };
        let stories = match client.query_stories() {
            Ok(s) => s,
            Err(e) => {
                eprintln!("loadgen: partition query failed: {e}");
                std::process::exit(1);
            }
        };
        if let Err(e) = std::fs::write(path, render_partition(&stories)) {
            eprintln!("loadgen: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!("wrote partition ({} stories) to {}", stories.len(), path.display());
    }

    if want_metrics || want_shutdown {
        let mut client = match Client::connect(addr.as_str()) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("loadgen: reconnect failed: {e}");
                std::process::exit(1);
            }
        };
        if want_metrics {
            match client.metrics() {
                Ok(text) => print!("{text}"),
                Err(e) => {
                    eprintln!("loadgen: metrics failed: {e}");
                    std::process::exit(1);
                }
            }
        }
        if want_shutdown {
            match client.shutdown() {
                Ok(()) => eprintln!("server drained and checkpointed"),
                Err(e) => {
                    eprintln!("loadgen: shutdown failed: {e}");
                    std::process::exit(1);
                }
            }
        }
    }
}
