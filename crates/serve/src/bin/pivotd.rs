//! pivotd — the StoryPivot serving daemon.
//!
//! ```text
//! pivotd --addr 127.0.0.1:7411 --shards 4 --checkpoint-dir ./ckpt
//! pivotd --addr 127.0.0.1:0 --port-file /tmp/pivotd.port   # ephemeral
//! pivotd --wal-dir ./wal --checkpoint-dir ./ckpt --fsync every:64
//! ```
//!
//! With `--wal-dir` every mutation is journaled before it is applied
//! and startup replays the journal on top of the newest checkpoint —
//! `kill -9` loses nothing that was acknowledged under `--fsync always`.
//! Runs until a client sends SHUTDOWN; the daemon then drains every
//! shard queue, writes one checkpoint per shard, and exits 0.
//!
//! ```text
//! pivotd --leader 127.0.0.1:7411 --wal-dir ./rwal \
//!        --checkpoint-dir ./rckpt --addr 127.0.0.1:7412
//! ```
//!
//! `--leader <addr>` starts a read-only follower: it
//! bootstraps each shard from the leader's newest checkpoint, tails
//! the leader's WAL, serves QUERY_STORIES/GET_STORY from local read
//! snapshots, and redirects writes with NOT_LEADER. `--wal-dir` is
//! required in this mode (the byte-identical WAL copy is the durable
//! replication cursor). Leaders and replicas alike publish a fresh read
//! snapshot after every applied op, before its reply.
//!
//! `--deadline-ms N` turns on deadline shedding: a single-snippet
//! ingest that waited in its shard queue longer than N milliseconds is
//! answered with SHED (plus a retry hint) instead of being applied.
//! `STORYPIVOT_FAULTS` (e.g. `seed=7,wal_enospc=20,checkpoint=50,poison=1000`,
//! rates in permille) arms deterministic fault injection in any build;
//! each site is inert unless the plan names it.

use std::path::PathBuf;

use storypivot_serve::server::{serve, ServerConfig};
use storypivot_substrate::fault::FaultPlan;
use storypivot_substrate::wal::SyncPolicy;

fn usage() -> ! {
    eprintln!(
        "usage: pivotd [--addr HOST:PORT] [--shards N] [--queue-depth N] \
         [--deadline-ms N] [--io-workers N] \
         [--max-pipeline N] [--idle-timeout-ms N] [--checkpoint-dir DIR] \
         [--wal-dir DIR] [--fsync always|never|every:N] \
         [--checkpoint-every-bytes N] [--port-file PATH] \
         [--leader HOST:PORT]"
    );
    std::process::exit(2);
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
    let mut addr = "127.0.0.1:7411".to_string();
    let mut cfg = ServerConfig::default();
    let mut port_file: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--addr" => addr = parse(&mut args, "--addr"),
            "--shards" => cfg.shards = parse(&mut args, "--shards"),
            "--queue-depth" => cfg.queue_depth = parse(&mut args, "--queue-depth"),
            "--deadline-ms" => cfg.deadline_ms = parse(&mut args, "--deadline-ms"),
            "--io-workers" => cfg.io_workers = parse(&mut args, "--io-workers"),
            "--max-pipeline" => cfg.max_pipeline = parse(&mut args, "--max-pipeline"),
            "--idle-timeout-ms" => {
                cfg.idle_timeout = Some(std::time::Duration::from_millis(parse(
                    &mut args,
                    "--idle-timeout-ms",
                )))
            }
            "--checkpoint-dir" => cfg.checkpoint_dir = Some(parse::<PathBuf>(&mut args, "--checkpoint-dir")),
            "--wal-dir" => cfg.wal_dir = Some(parse::<PathBuf>(&mut args, "--wal-dir")),
            "--fsync" => cfg.fsync = parse::<SyncPolicy>(&mut args, "--fsync"),
            "--checkpoint-every-bytes" => {
                cfg.checkpoint_every_bytes = parse(&mut args, "--checkpoint-every-bytes")
            }
            "--port-file" => port_file = Some(parse::<PathBuf>(&mut args, "--port-file")),
            "--leader" => cfg.leader = Some(parse(&mut args, "--leader")),
            _ => usage(),
        }
    }
    cfg.faults = FaultPlan::from_env();
    if let Some(plan) = &cfg.faults {
        eprintln!("pivotd: fault plan active: {plan:?}");
    }

    let handle = match serve(addr.as_str(), cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("pivotd: {e}");
            std::process::exit(1);
        }
    };
    let bound = handle.addr();
    println!("pivotd listening on {bound}");
    if let Some(path) = port_file {
        // Written atomically-enough for the CI poll loop: the content is
        // only a few bytes and appears in one write.
        if let Err(e) = std::fs::write(&path, format!("{}\n", bound.port())) {
            eprintln!("pivotd: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    handle.join();
    println!("pivotd: shutdown complete");
}
