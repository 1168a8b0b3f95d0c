use std::collections::HashSet;
use std::time::Instant;

use storypivot_bench::corpus_fixed_period;
use storypivot_eval::Table;
use storypivot_serve::client::Client;
use storypivot_serve::server::{serve, ServerConfig};
use storypivot_serve::IngestReply;
use storypivot_substrate::net;
use storypivot_substrate::rng::splitmix64;
use storypivot_substrate::wal::SyncPolicy;

use super::{f3, Experiment, Scale};

pub(super) const EXPERIMENT: Experiment = Experiment {
    name: "costs",
    alias: Some("e22"),
    title: "E22 — thread hand-offs per served op (serving runtime)",
    run: e22_costs,
};

/// Ceiling on context switches per served op. One sequential client
/// whose writes the I/O worker applies itself blocks twice per op: the
/// client waiting for its reply, the I/O worker waiting for the next
/// frame. A write queued behind a busy owner, applied by another holder
/// and answered through the inbox, adds two more.
const SWITCHES_PER_OP_MAX: f64 = 2.5;
/// Floor on the share of single-snippet ingests applied inline.
const INLINE_SHARE_MIN: f64 = 0.9;
/// Ceiling on the story entries a read-snapshot publish clones. A
/// publish copies the chunks it patches (at most `2 × CHUNK` = 32
/// entries each, ≈ 1 story patched per publish); copying the whole
/// story vector, as a flat one does, costs ≈ 300.
const COPIED_PER_PUBLISH_MAX: f64 = 48.0;

/// E22 — what a served op costs in thread hand-offs: one sequential
/// client drives a server shaped like `spbench`'s `serve_mixed` (two
/// shards, WAL and checkpoints on, fsync off) with an INGEST per
/// snippet, a GET_STORY per 8, a QUERY_STORIES per 64 and a REMOVE_DOC
/// per 100, and `getrusage` counts the process's context switches
/// around the op loop. The op count and the served partition's hash are
/// exact; switches per op and the inline share are held to a ceiling
/// and a floor, since the scheduler decides their last digits, and the
/// entries a snapshot publish copies to a ceiling.
fn e22_costs(scale: &Scale, seed: u64) -> Table {
    let corpus = corpus_fixed_period(scale.mid / 2, 6, seed ^ 0xE22);
    let dir = std::env::temp_dir().join(format!("storypivot-harness-costs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let handle = serve(
        "127.0.0.1:0",
        ServerConfig {
            shards: 2,
            wal_dir: Some(dir.join("wal")),
            checkpoint_dir: Some(dir.join("ckpt")),
            fsync: SyncPolicy::Never,
            ..ServerConfig::default()
        },
    )
    .expect("start e22 server");
    let mut client = Client::connect(handle.addr()).expect("e22 client");
    for s in &corpus.sources {
        let id = client.add_source(&s.name, s.kind, s.typical_lag).expect("e22 source");
        assert_eq!(id, s.id, "a fresh server numbers sources like the corpus");
    }

    let mut ops = 0u64;
    let mut removed = HashSet::new();
    let switches0 = net::context_switches().expect("getrusage");
    let t = Instant::now();
    for (i, snippet) in corpus.snippets.iter().enumerate() {
        let story = match client.ingest(snippet).expect("e22 ingest") {
            IngestReply::Assigned(story) => story,
            other => panic!("one sequential client is never pushed back: {other:?}"),
        };
        ops += 1;
        let n = i + 1;
        if n % 8 == 0 {
            client.get_story(story).expect("e22 get_story");
            ops += 1;
        }
        if n % 64 == 0 {
            client.query_stories().expect("e22 query_stories");
            ops += 1;
        }
        // Retract an earlier document that is still there.
        if n % 100 == 0 {
            let doc = corpus.snippets[i - 50].doc;
            if removed.insert(doc) {
                client.remove_doc(doc).expect("e22 remove_doc");
                ops += 1;
            }
        }
    }
    let nanos = t.elapsed().as_nanos() as f64;
    let switches = net::context_switches().expect("getrusage") - switches0;

    let exposition = client.metrics().expect("e22 metrics");
    let inline = exposition_sum(&exposition, "storypivot_shard_inline_ingests_total");
    let copied = exposition_sum(&exposition, "storypivot_shard_snapshot_entries_copied_total");
    let publishes =
        exposition_sum(&exposition, "storypivot_shard_snapshot_publish_duration_ns_count");
    let mut stories = client.query_stories().expect("e22 partition");
    stories.sort_unstable_by_key(|s| s.id);
    let mut hash = 0u64;
    let mut mix = |word: u64| {
        let mut state = hash ^ word;
        hash = splitmix64(&mut state);
    };
    for story in &stories {
        mix(story.id.raw() as u64);
        mix(story.members.len() as u64);
        story.members.iter().for_each(|m| mix(m.raw() as u64));
    }
    client.shutdown().expect("e22 shutdown");
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);

    let per_op = switches as f64 / ops as f64;
    let share = inline as f64 / corpus.len() as f64;
    let copied_per_publish = copied as f64 / publishes as f64;
    let mut table = Table::new(["ops", "ingests", "partition hash"])
        .counts([
            format!("switches/op <= {SWITCHES_PER_OP_MAX}"),
            format!("inline share >= {INLINE_SHARE_MIN}"),
            format!("entries copied/publish <= {COPIED_PER_PUBLISH_MAX}"),
        ])
        .clocks(["switches/op", "inline share", "entries copied/publish", "us/op"]);
    table.row([
        ops.to_string(),
        corpus.len().to_string(),
        format!("{hash:016x}"),
        (per_op <= SWITCHES_PER_OP_MAX).to_string(),
        (share >= INLINE_SHARE_MIN).to_string(),
        (copied_per_publish <= COPIED_PER_PUBLISH_MAX).to_string(),
        format!("{per_op:.2}"),
        f3(share),
        format!("{copied_per_publish:.1}"),
        format!("{:.1}", nanos / 1e3 / ops as f64),
    ]);
    table
}

/// Sum of every series of `name` in a METRICS exposition.
fn exposition_sum(text: &str, name: &str) -> u64 {
    text.lines()
        .filter_map(|line| {
            let (series, value) = line.rsplit_once(' ')?;
            (series.split('{').next() == Some(name)).then(|| value.parse::<u64>().ok())?
        })
        .sum()
}
