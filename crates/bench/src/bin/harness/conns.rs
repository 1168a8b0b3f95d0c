use std::time::Duration;

use storypivot_eval::Table;

use super::{Experiment, Scale};

pub(super) const EXPERIMENT: Experiment = Experiment {
    name: "conns",
    alias: Some("e14"),
    title: "E14 — many-connection serving: memory per connection and rtt tails",
    run: e14_conns,
};

/// Resident-set size of this process in KiB, from `/proc/self/status`.
fn vm_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmRSS:") {
            return rest.split_whitespace().next().and_then(|v| v.parse().ok()).unwrap_or(0);
        }
    }
    0
}

/// Soft file-descriptor limit, from `/proc/self/limits` ("unlimited"
/// and unreadable both map to `u64::MAX` — i.e. never skip).
fn fd_soft_limit() -> u64 {
    let limits = std::fs::read_to_string("/proc/self/limits").unwrap_or_default();
    for line in limits.lines() {
        if line.starts_with("Max open files") {
            return line
                .split_whitespace()
                .nth(3)
                .and_then(|v| v.parse().ok())
                .unwrap_or(u64::MAX);
        }
    }
    u64::MAX
}

/// E14 — serving runtime under a connection storm: hold N mostly-idle
/// connections against an in-process pivotd and trickle one tiny
/// request per connection per interval. Reports peak resident-set
/// growth per connection and round-trip tail latency. Client and
/// server share the process, so ΔRSS/conn is an *upper bound* on the
/// server-side cost (the client side is a raw unbuffered socket).
/// Tiers that would exceed the fd ulimit (two descriptors per
/// connection in-process) are skipped, not failed.
fn e14_conns(scale: &Scale, _seed: u64) -> Table {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;

    use storypivot_serve::client::Client;
    use storypivot_serve::server::{serve, ServerConfig};
    use storypivot_serve::{conn_storm, StormOptions};

    let handle = serve(
        "127.0.0.1:0",
        ServerConfig { shards: 2, io_workers: 2, ..ServerConfig::default() },
    )
    .expect("start in-process pivotd");
    let addr = handle.addr();
    let fd_limit = fd_soft_limit();

    let mut table = Table::new(["connections", "requests"]).clocks([
        "connect s",
        "storm s",
        "peak ΔRSS KiB",
        "KiB/conn",
        "p50 µs",
        "p95 µs",
        "p99 µs",
    ]);
    for &conns in &scale.conn_tiers {
        // In-process storm: every connection is two descriptors (client
        // end + accepted end), plus server/runtime overhead.
        let need = 2 * conns as u64 + 128;
        if need > fd_limit {
            println!("  skipping {conns} connections: needs ~{need} fds, ulimit -n is {fd_limit}");
            table.row([
                conns.to_string(),
                format!("skipped: fd ulimit {fd_limit}"),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]);
            continue;
        }
        let before = vm_rss_kib();
        let stop = Arc::new(AtomicBool::new(false));
        let peak = Arc::new(AtomicU64::new(before));
        let sampler = {
            let stop = Arc::clone(&stop);
            let peak = Arc::clone(&peak);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    peak.fetch_max(vm_rss_kib(), Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(10));
                }
            })
        };
        let report = conn_storm(
            addr,
            &StormOptions {
                connections: conns,
                drivers: 8,
                rounds: 5,
                interval: Duration::from_millis(50),
            },
        )
        .expect("connection storm");
        stop.store(true, Ordering::Relaxed);
        sampler.join().expect("rss sampler");
        let delta = peak.load(Ordering::Relaxed).saturating_sub(before);
        table.row([
            report.connections.to_string(),
            report.requests.to_string(),
            format!("{:.2}", report.connect_wall.as_secs_f64()),
            format!("{:.2}", report.wall.as_secs_f64()),
            delta.to_string(),
            format!("{:.2}", delta as f64 / report.connections as f64),
            format!("{:.1}", report.latency.percentile(0.50) as f64 / 1e3),
            format!("{:.1}", report.latency.percentile(0.95) as f64 / 1e3),
            format!("{:.1}", report.latency.percentile(0.99) as f64 / 1e3),
        ]);
    }
    let mut client = Client::connect(addr).expect("shutdown client");
    client.shutdown().expect("graceful shutdown");
    handle.join();
    table
}
