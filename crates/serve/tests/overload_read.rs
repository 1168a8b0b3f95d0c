//! Overload behavior of the read and write paths: an acked write is
//! visible to the next read on any connection, concurrent degraded
//! reads never observe a torn snapshot, and deadline-expired writes are
//! shed before the WAL or engine see them.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use storypivot_gen::{Corpus, CorpusBuilder, GenConfig};
use storypivot_serve::client::{BackoffPolicy, Client};
use storypivot_serve::server::{serve, ServerConfig};
use storypivot_serve::IngestReply;

fn corpus(seed: u64, events: usize) -> Corpus {
    corpus_of(seed, 1, events)
}

fn corpus_of(seed: u64, sources: u32, events: usize) -> Corpus {
    CorpusBuilder::new(
        GenConfig::default()
            .with_seed(seed)
            .with_sources(sources)
            .with_target_snippets(events),
    )
    .build()
}

fn register_all(client: &mut Client, corpus: &Corpus) {
    for source in &corpus.sources {
        let got = client.add_source(&source.name, source.kind, source.typical_lag).unwrap();
        assert_eq!(got, source.id);
    }
}

/// Sum every sample of a (possibly shard-labeled) counter in a
/// Prometheus-style exposition.
fn metric_total(exposition: &str, name: &str) -> u64 {
    exposition
        .lines()
        .filter(|l| l.starts_with(name) && !l.starts_with('#'))
        .filter_map(|l| l.rsplit(' ').next())
        .filter_map(|v| v.parse::<f64>().ok())
        .map(|v| v as u64)
        .sum()
}

/// Every snippet id visible through the served partition.
fn visible_ids(client: &mut Client) -> BTreeSet<u32> {
    let stories = client.query_stories().unwrap();
    stories.iter().flat_map(|s| s.members.iter().map(|m| m.raw())).collect()
}

/// A publish follows every applied op and precedes its reply: whatever
/// connection A saw acked — a single ingest, each snippet of a batch
/// spanning both shards, a document removal — connection B's very next
/// read shows, with no clock involved (an idle gap changes nothing).
/// One publish per applied op, plus the post-recovery one, is exactly
/// what the epoch gauge counts; there is no "ops since publish" series.
#[test]
fn acked_writes_are_visible_to_the_next_read_on_any_connection() {
    let cfg = ServerConfig { shards: 2, ..ServerConfig::default() };
    let handle = serve("127.0.0.1:0", cfg).unwrap();
    let mut a = Client::connect(handle.addr()).unwrap();
    let mut b = Client::connect(handle.addr()).unwrap();

    let corpus = corpus_of(29, 2, 40);
    register_all(&mut a, &corpus);
    let shard_of = |source: u32| source as usize % 2;
    let mut applied = [0u64; 2];
    for source in &corpus.sources {
        applied[shard_of(source.id.raw())] += 1;
    }

    let (singles, batch) = corpus.snippets.split_at(corpus.snippets.len() / 2);
    let mut expected = BTreeSet::new();
    for (i, snippet) in singles.iter().enumerate() {
        let (story, _) = a.ingest_backoff(snippet, Default::default()).unwrap();
        applied[shard_of(snippet.source.raw())] += 1;
        expected.insert(snippet.id.raw());
        if i == singles.len() / 2 {
            std::thread::sleep(Duration::from_millis(80));
        }
        let seen = b.get_story(story).unwrap();
        assert!(seen.members.contains(&snippet.id), "GET_STORY misses acked snippet {}", snippet.id);
        assert_eq!(visible_ids(&mut b), expected, "QUERY_STORIES after ack {i}");
    }

    for snippet in batch {
        applied[shard_of(snippet.source.raw())] += 1;
        expected.insert(snippet.id.raw());
    }
    let per_shard: BTreeSet<usize> = batch.iter().map(|s| shard_of(s.source.raw())).collect();
    assert_eq!(per_shard.len(), 2, "the batch must span both shards");
    assert_eq!(a.ingest_batch(batch.to_vec()).unwrap() as usize, batch.len());
    assert_eq!(visible_ids(&mut b), expected, "QUERY_STORIES after the batch ack");

    // REMOVE_DOC is broadcast: one applied op on every shard, whether or
    // not the shard holds any of the document.
    let doc = singles[0].doc;
    let gone: Vec<u32> =
        corpus.snippets.iter().filter(|s| s.doc == doc).map(|s| s.id.raw()).collect();
    assert_eq!(a.remove_doc(doc).unwrap() as usize, gone.len());
    for id in &gone {
        expected.remove(id);
    }
    applied.iter_mut().for_each(|n| *n += 1);
    assert_eq!(visible_ids(&mut b), expected, "QUERY_STORIES after the removal ack");

    let exposition = b.metrics().unwrap();
    for (shard, ops) in applied.iter().enumerate() {
        let series = format!("storypivot_shard_snapshot_epoch{{shard=\"{shard}\"}} ");
        assert_eq!(
            metric_total(&exposition, &series),
            ops + 1,
            "shard {shard}: one publish per applied op plus the post-recovery one"
        );
    }
    assert!(!exposition.contains("storypivot_shard_snapshot_age_ops"));

    a.shutdown().unwrap();
    handle.join();
}

/// Readers hammer QUERY_STORIES while writers saturate a depth-1 queue:
/// every response must be an internally consistent snapshot (no member
/// in two stories, visible history never shrinks), and the reads taken
/// while the queue was full must show up in
/// `storypivot_degraded_reads_total`.
#[test]
fn degraded_reads_never_observe_a_torn_snapshot() {
    let cfg = ServerConfig {
        shards: 1,
        queue_depth: 1,
        worker_delay: Duration::from_millis(10),
        ..ServerConfig::default()
    };
    let handle = serve("127.0.0.1:0", cfg).unwrap();
    let addr = handle.addr();
    let mut setup = Client::connect(addr).unwrap();

    let corpus = corpus(31, 45);
    register_all(&mut setup, &corpus);

    let done = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = corpus
        .snippets
        .chunks(corpus.snippets.len() / 3)
        .map(|chunk| {
            let chunk = chunk.to_vec();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let policy = BackoffPolicy { max_attempts: 1_000, ..BackoffPolicy::default() };
                for snippet in &chunk {
                    client.ingest_backoff(snippet, policy).unwrap();
                }
            })
        })
        .collect();

    let reader = {
        let done = done.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            let mut floor = 0usize;
            let mut reads = 0u64;
            while !done.load(Ordering::Relaxed) {
                let stories = client.query_stories().unwrap();
                let mut seen = BTreeSet::new();
                for story in &stories {
                    for m in &story.members {
                        assert!(seen.insert(m.raw()), "snippet {m} appears in two stories");
                    }
                }
                assert!(
                    seen.len() >= floor,
                    "visible history shrank from {floor} to {} members",
                    seen.len()
                );
                floor = seen.len();
                reads += 1;
                std::thread::sleep(Duration::from_millis(2));
            }
            reads
        })
    };

    for w in writers {
        w.join().unwrap();
    }
    done.store(true, Ordering::Relaxed);
    let reads = reader.join().unwrap();
    assert!(reads > 10, "the reader must have raced the writers");

    // With three writers against a depth-1 queue, some reads landed
    // while the queue sat full — the degraded-read counter saw them.
    let exposition = setup.metrics().unwrap();
    assert!(
        metric_total(&exposition, "storypivot_degraded_reads_total") > 0,
        "saturated-queue reads must be counted as degraded"
    );

    setup.shutdown().unwrap();
    handle.join();
}

/// With a 1 ms budget against a 25 ms worker delay every single-snippet
/// ingest expires in queue: the reply is SHED with a retry hint, the
/// engine never sees the snippet, and the shed counter records it.
#[test]
fn expired_work_is_shed_before_it_touches_the_engine() {
    let cfg = ServerConfig {
        shards: 1,
        worker_delay: Duration::from_millis(25),
        deadline_ms: 1,
        ..ServerConfig::default()
    };
    let handle = serve("127.0.0.1:0", cfg).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let corpus = corpus(37, 4);
    register_all(&mut client, &corpus);

    let mut shed = 0u32;
    for snippet in &corpus.snippets {
        match client.ingest(snippet).unwrap() {
            IngestReply::Shed { retry_after_ms } => {
                assert!(retry_after_ms >= 1, "shed replies must carry a retry hint");
                shed += 1;
            }
            other => panic!("expected SHED under an expired budget, got {other:?}"),
        }
    }
    assert_eq!(shed, corpus.snippets.len() as u32);

    // Shed before the engine: nothing was applied, only counted.
    assert!(visible_ids(&mut client).is_empty(), "shed writes must not reach the engine");
    let exposition = client.metrics().unwrap();
    assert_eq!(metric_total(&exposition, "storypivot_shed_total"), shed as u64);

    client.shutdown().unwrap();
    handle.join();
}
