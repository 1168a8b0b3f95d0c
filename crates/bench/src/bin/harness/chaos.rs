use storypivot_eval::metrics::{pairwise_counts, Clustering, PairCounts};
use storypivot_eval::Table;
use storypivot_gen::scenario;
use storypivot_serve::client::Client;
use storypivot_serve::load::{replay_script, LoadOptions};
use storypivot_serve::server::{serve, ServerConfig};

use super::{f3, Experiment, Scale};

pub(super) const EXPERIMENT: Experiment = Experiment {
    name: "chaos",
    alias: Some("e16"),
    title: "E16 — ground-truth F-measure under adversarial load",
    run: e16_chaos,
};

/// E16 — adversarial scenario engine: each builtin chaos script (flash
/// crowd, duplicate flood, source churn, retraction storm, dormant
/// resurgence) is replayed against a live sharded server under
/// backpressure and deadline shedding, and the served partition is
/// scored against the script's ground truth — F-measure *under load*,
/// not in a quiet in-process loop.
fn e16_chaos(scale: &Scale, seed: u64) -> Table {
    // BUSY and shed retries depend on scheduling, so they are clocks.
    let mut table = Table::new(["scenario", "events", "removed", "segments"])
        .clocks(["busy", "shed", "events_per_s"])
        .counts(["pair F1", "precision", "recall"]);
    // Each script paces itself against its own server and barely uses a
    // core, so the five run side by side.
    let rows = std::thread::scope(|scope| {
        let runs = scenario::BUILTIN.map(|name| scope.spawn(move || run_scenario(name, scale.mid, seed)));
        runs.map(|run| run.join().expect("e16 scenario"))
    });
    for row in rows {
        table.row(row);
    }
    table
}

/// Replay one builtin scenario against a fresh server and score what it
/// serves: the scenario's table row.
fn run_scenario(name: &str, events: usize, seed: u64) -> [String; 10] {
    let script = scenario::by_name(name, events, seed ^ 0xE16).expect("builtin scenario");
    let handle = serve(
        "127.0.0.1:0",
        ServerConfig {
            shards: 2,
            deadline_ms: 250,
            ..ServerConfig::default()
        },
    )
    .expect("start e16 server");
    let report = replay_script(
        handle.addr(),
        &script,
        &LoadOptions { connections: 4, ..LoadOptions::default() },
    )
    .expect("replay scenario");

    let mut client = Client::connect(handle.addr()).expect("e16 client");
    let stories = client.query_stories().expect("e16 partition");
    // Micro-averaged per-source identification quality, mirroring
    // identification_scores but reading the partition off the wire:
    // story ids are partitioned by source, so grouping members under
    // their story's source reproduces the per-source restriction.
    let mut per_source: std::collections::BTreeMap<u32, (Clustering, Clustering)> =
        std::collections::BTreeMap::new();
    for story in &stories {
        for member in &story.members {
            let Some(label) = script.truth.label_of(*member) else { continue };
            let (pred, truth) = per_source.entry(story.source.raw()).or_default();
            pred.assign(member.raw() as u64, story.id.raw() as u64);
            truth.assign(member.raw() as u64, label as u64);
        }
    }
    let mut total = PairCounts::default();
    for (pred, truth) in per_source.values() {
        total.add(pairwise_counts(pred, truth));
    }
    let scores = total.scores();
    client.shutdown().expect("e16 shutdown");
    handle.join();
    [
        name.to_string(),
        report.events.to_string(),
        script.removed_docs().to_string(),
        script.segments.len().to_string(),
        report.busy_retries.to_string(),
        report.shed_retries.to_string(),
        format!("{:.0}", report.throughput()),
        f3(scores.f1),
        f3(scores.precision),
        f3(scores.recall),
    ]
}
