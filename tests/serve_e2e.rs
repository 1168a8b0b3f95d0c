//! End-to-end serving tests. Three are slices of the differential
//! driver (`lockstep`) through an in-process server: after every step
//! QUERY_STORIES equals the oracle engine's partition, at 1 and 3
//! shards, across graceful restarts. The rest are what no lockstep
//! oracle states: BUSY backpressure engages (and recovers) under a tiny
//! queue, the exposition matches its witnesses, reads bypass the write
//! queue, pipelined replies keep their order, SHUTDOWN is idempotent, an
//! uncontended INGEST is applied by the I/O worker (and a slow shard's
//! never is), inline and queued writes racing from five connections
//! keep each connection's order in every shard's WAL (unperturbed and
//! under eight `sched` seeds), and connections spread evenly over the
//! I/O workers.

mod lockstep;

use lockstep::served::{exposition_value, partition_of_summaries, Scratch};
use lockstep::{Deployment, Via};
use storypivot::core::config::PivotConfig;
use storypivot::core::pivot::StoryPivot;
use storypivot::gen::{CorpusBuilder, GenConfig};
use storypivot::serve::client::{BackoffPolicy, Client};
use storypivot::serve::load::{replay, LoadOptions};
use storypivot::serve::server::{serve, ServerConfig};
use storypivot::serve::IngestReply;
use storypivot::types::{EntityId, Snippet, SnippetId, SourceKind, TermId, Timestamp};

fn sharded(shards: usize) -> ServerConfig {
    ServerConfig { shards, ..ServerConfig::default() }
}

/// One shard on the drawn config, WAL and checkpoints on; a graceful
/// restart's shutdown checkpoint restores the oracle's partition, and
/// METRICS counts every acked ingest.
#[test]
fn served_partition_matches_in_process_and_checkpoint_restores() {
    let served = Via::Served(Deployment::default());
    let Some(tally) = lockstep::slice_via(served, "served", 1, |_| true) else { return };
    assert!(tally.served.restarts > 0, "a restart must come back from its checkpoint: {tally:?}");
}

/// Three shards, one unsharded oracle: per-source identification is
/// shard-invariant.
#[test]
fn sharded_server_matches_sharded_in_process_replica() {
    let served = Via::Served(Deployment { shards: 3, ..Deployment::default() });
    let Some(tally) = lockstep::slice_via(served, "sharded", 1, |c| c.sources >= 4) else { return };
    assert!(tally.served.restarts > 0 && tally.served.batches > 0, "{tally:?}");
}

/// The read snapshot is patched from the engine's change log, not
/// rebuilt: merges, maintenance splits, document removals and
/// INGEST_BATCHes must all reach it, a story that left the partition
/// must be gone from GET_STORY, and a graceful restart serves what was
/// being served. (Debug builds also assert patched == rebuilt on every
/// publish.) At 1 and at 3 shards every shard is held to about one story
/// patched per publish, so the cases are long and have a source for
/// each of three shards. The two shard counts run side by side: much of
/// a case is spent waiting on SHUTDOWN.
#[test]
fn snapshot_patching_follows_merges_splits_removals_batches() {
    let tallies = std::thread::scope(|scope| {
        let runs = [1, 3].map(|shards| {
            scope.spawn(move || {
                let served = Via::Served(Deployment { shards, ..Deployment::default() });
                let focus = |c: &lockstep::Case| c.splitting && c.sources >= 3 && c.snippets >= 250;
                let tally = lockstep::slice_via(served, &format!("patching {shards} ops"), 1, focus)?;
                let s = &tally.served;
                assert!(s.banded >= shards && s.batches > 0, "{shards} shards: {tally:?}");
                Some(tally)
            })
        });
        runs.into_iter().map(|run| run.join().unwrap()).collect::<Option<Vec<_>>>()
    });
    let Some(tallies) = tallies else { return };
    let sum = |count: fn(&lockstep::Tally) -> usize| tallies.iter().map(count).sum::<usize>();
    assert!(sum(|t| t.merges) > 0 && sum(|t| t.splits as usize) > 0, "{tallies:?}");
    assert!(sum(|t| t.docs_removed) > 0 && sum(|t| t.served.vanished) > 0, "{tallies:?}");
    assert!(sum(|t| t.served.restarts) > 0, "{tallies:?}");
}

#[test]
fn tiny_queue_pushes_back_with_busy_and_recovers() {
    let cfg = ServerConfig {
        shards: 1,
        queue_depth: 1,
        worker_delay: std::time::Duration::from_millis(10),
        ..ServerConfig::default()
    };
    let handle = serve("127.0.0.1:0", cfg).unwrap();
    let addr = handle.addr();

    let mut setup = Client::connect(addr).unwrap();
    setup.add_source("slow", SourceKind::Wire, 0).unwrap();

    // Three producers hammer a 1-deep queue served at 10 ms/job: pushes
    // must bounce with BUSY, and retrying must land every snippet.
    let producers = 3u32;
    let per_producer = 5u32;
    let mut threads = Vec::new();
    for p in 0..producers {
        threads.push(std::thread::spawn(move || -> (u64, u32) {
            let mut client = Client::connect(addr).unwrap();
            let mut busy = 0u64;
            for i in 0..per_producer {
                let id = p * per_producer + i;
                let snippet = Snippet::builder(
                    SnippetId::new(id),
                    storypivot::types::SourceId::new(0),
                    Timestamp::from_secs(i as i64 * 3_600),
                )
                .entity(EntityId::new(id % 3), 1.0)
                .term(TermId::new(id % 3), 1.0)
                .build();
                // First a raw attempt so BUSY is observable, then retry
                // until the snippet lands.
                match client.ingest(&snippet).unwrap() {
                    IngestReply::Assigned(_) => {}
                    IngestReply::Busy { retry_after_ms }
                    | IngestReply::Shed { retry_after_ms } => {
                        busy += 1;
                        assert!(retry_after_ms > 0, "BUSY must carry a retry hint");
                        std::thread::sleep(std::time::Duration::from_millis(retry_after_ms as u64));
                        let policy = BackoffPolicy { max_attempts: 1_001, ..Default::default() };
                        client.ingest_backoff(&snippet, policy).unwrap();
                    }
                }
            }
            (busy, per_producer)
        }));
    }
    let mut busy_total = 0u64;
    let mut sent = 0u32;
    for t in threads {
        let (busy, n) = t.join().unwrap();
        busy_total += busy;
        sent += n;
    }
    assert_eq!(sent, producers * per_producer);
    assert!(
        busy_total > 0,
        "three producers on a 1-deep, 10ms-per-job queue must see BUSY at least once"
    );

    // Every snippet eventually landed, and the server counted the
    // rejections it issued.
    let text = setup.metrics().unwrap();
    assert_eq!(
        exposition_value(&text, "storypivot_shard_ingest_latency_ns_count{shard=\"0\"}"),
        Some((producers * per_producer) as u64)
    );
    let busy = exposition_value(&text, "storypivot_shard_busy_rejections_total{shard=\"0\"}");
    assert!(busy.unwrap() >= busy_total);

    setup.shutdown().unwrap();
    handle.join();
}

#[test]
fn metrics_exposition_matches_in_process_engine() {
    let corpus = CorpusBuilder::new(
        GenConfig::default().with_seed(44).with_sources(3).with_target_snippets(250),
    )
    .build();

    // One shard so the served engine sees the exact same ingest
    // sequence as the in-process twin.
    let handle = serve("127.0.0.1:0", sharded(1)).unwrap();
    let addr = handle.addr();
    let report = replay(addr, &corpus, &LoadOptions { connections: 1, ..LoadOptions::default() })
        .unwrap();
    assert_eq!(report.events as usize, corpus.len());

    // Twin with its own live registry, fed identically.
    let mut twin = lockstep::twin_of(&PivotConfig::default());
    for source in &corpus.sources {
        twin.add_source_registered(source.clone()).unwrap();
    }
    for snippet in &corpus.snippets {
        twin.ingest(snippet.clone()).unwrap();
    }
    let twin_metrics = twin.metrics().clone();

    let mut client = Client::connect(addr).unwrap();
    let text = client.metrics().unwrap();

    // Counter values in the exposition must equal engine-side truth.
    assert_eq!(exposition_value(&text, "storypivot_ingest_total"), Some(corpus.len() as u64));
    assert_eq!(
        exposition_value(&text, "storypivot_identify_assigned_total"),
        Some(twin_metrics.identify_assigned_total.get()),
    );
    assert_eq!(
        exposition_value(&text, "storypivot_identify_new_story_total"),
        Some(twin_metrics.identify_new_story_total.get()),
    );
    assert_eq!(
        exposition_value(&text, "storypivot_identify_compared_total"),
        Some(twin_metrics.identify_compared_total.get()),
    );
    // The per-stage duration histogram saw one observation per snippet.
    assert_eq!(
        exposition_value(&text, "storypivot_identify_duration_ns_count"),
        Some(corpus.len() as u64),
    );
    // Exposition structure: HELP/TYPE headers and the shard-labeled
    // serving series are present.
    assert!(text.contains("# HELP storypivot_ingest_total"));
    assert!(text.contains("# TYPE storypivot_ingest_total counter"));
    assert!(text.contains("storypivot_shard_queue_capacity{shard=\"0\"}"));
    // Registered and exported whatever their values: the serving
    // runtime's gauges, the story folds', maintenance's and refinement's
    // work counters (zero on a server, which does not refine), and the
    // memory account.
    let required = [
        "storypivot_connections_open",
        "storypivot_pipeline_depth",
        "storypivot_story_cache_hits_total",
        "storypivot_story_cache_misses_total",
        "storypivot_maintenance_runs_total",
        "storypivot_maintenance_stories_checked_total",
        "storypivot_maintenance_pairs_scored_total",
        "storypivot_refine_moves_total",
        "storypivot_refine_rounds_total",
        "storypivot_refine_pairs_scored_total",
        "storypivot_refine_cohesion_cache_hits_total",
        "storypivot_refine_cohesion_cache_misses_total",
        "storypivot_refine_cohesion_extended_total",
        "storypivot_refine_settled_total",
        "storypivot_mem_bytes{structure=\"store.arena\"}",
        "storypivot_mem_bytes{structure=\"identify.stories\"}",
        "storypivot_mem_bytes{structure=\"identify.assignment\"}",
    ];
    for name in required {
        assert!(text.lines().any(|line| line.starts_with(&format!("{name} "))), "no {name} in:\n{text}");
    }
    // The shard's ingest clock saw every served ingest.
    assert_eq!(
        exposition_value(&text, "storypivot_shard_ingest_latency_ns_count{shard=\"0\"}"),
        Some(corpus.len() as u64),
    );
    // No journal without a WAL directory.
    assert_eq!(exposition_value(&text, "storypivot_shard_wal_bytes{shard=\"0\"}"), Some(0));

    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn metrics_merge_across_shards_sums_counters() {
    let corpus = CorpusBuilder::new(
        GenConfig::default().with_seed(45).with_sources(6).with_target_snippets(300),
    )
    .build();
    let shards = 3;
    let handle = serve("127.0.0.1:0", sharded(shards)).unwrap();
    let addr = handle.addr();
    replay(addr, &corpus, &LoadOptions { connections: shards, ..LoadOptions::default() }).unwrap();

    let mut client = Client::connect(addr).unwrap();
    let text = client.metrics().unwrap();
    // Engine counters are shard-invariant: the merged total equals the
    // full corpus no matter how sources were partitioned.
    assert_eq!(exposition_value(&text, "storypivot_ingest_total"), Some(corpus.len() as u64));
    assert_eq!(
        exposition_value(&text, "storypivot_identify_duration_ns_count"),
        Some(corpus.len() as u64),
    );
    // Every shard's labeled serving series survives the merge.
    for shard in 0..shards {
        assert!(
            text.contains(&format!("storypivot_shard_queue_capacity{{shard=\"{shard}\"}}")),
            "missing shard {shard} series in:\n{text}"
        );
    }

    client.shutdown().unwrap();
    handle.join();
}

/// Everything the server reports about a shard is a series of the one
/// exposition, and each is held here to a witness outside the registry:
/// in-process engines fed each shard's sources, the journal files, the
/// replies this client saw and the requests it sent.
#[test]
fn exposition_reports_every_shard_number_against_its_witness() {
    use storypivot::serve::{Request, Response};
    use storypivot::substrate::fault::FaultPlan;
    use storypivot::substrate::wal;
    use storypivot::types::SourceId;

    let corpus = CorpusBuilder::new(
        GenConfig::default().with_seed(47).with_sources(4).with_target_snippets(240),
    )
    .build();
    let shards = 2;
    let dir = Scratch::new("numbers");
    let cfg = ServerConfig {
        queue_depth: 2,
        worker_delay: std::time::Duration::from_millis(1),
        checkpoint_dir: Some(dir.join("ckpt")),
        wal_dir: Some(dir.join("wal")),
        fsync: wal::SyncPolicy::Never,
        checkpoint_every_bytes: 4096,
        faults: Some(FaultPlan::parse("poison=1000").unwrap()),
        ..sharded(shards)
    };
    let handle = serve("127.0.0.1:0", cfg).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let shard_of = |source: SourceId| source.raw() as usize % shards;
    let mut twins: Vec<StoryPivot> =
        (0..shards).map(|_| StoryPivot::new(PivotConfig::default())).collect();
    for source in &corpus.sources {
        let id = client.add_source(&source.name, source.kind, source.typical_lag).unwrap();
        assert_eq!(id, source.id);
        twins[shard_of(id)].add_source_registered(source.clone()).unwrap();
    }

    // One pipelined burst against 2-deep queues drained at 1 ms a job:
    // most ingests bounce with BUSY and are retried one at a time. Each
    // shard applies what it accepted in request order, then the retries.
    let burst: Vec<Request> = corpus.snippets.iter().cloned().map(Request::IngestSnippet).collect();
    let mut busy = vec![0u64; shards];
    let mut bounced = Vec::new();
    for (snippet, reply) in corpus.snippets.iter().zip(client.pipelined(&burst).unwrap()) {
        let shard = shard_of(snippet.source);
        match reply {
            Response::Ingested(_) => {
                twins[shard].ingest(snippet.clone()).unwrap();
            }
            Response::Busy { .. } => {
                busy[shard] += 1;
                bounced.push(snippet);
            }
            other => panic!("expected Ingested or Busy, got {other:?}"),
        }
    }
    assert!(!bounced.is_empty(), "a 2-deep queue must bounce part of a pipelined burst");
    let patient = BackoffPolicy { max_attempts: 1_000, ..Default::default() };
    for snippet in bounced {
        let (_, retries) = client.ingest_backoff(snippet, patient).unwrap();
        busy[shard_of(snippet.source)] += retries.busy as u64;
        twins[shard_of(snippet.source)].ingest(snippet.clone()).unwrap();
    }

    // Reads: every story by id, and the whole partition three times.
    let mut gets = vec![0u64; shards];
    for story in client.query_stories().unwrap() {
        client.get_story(story.id).unwrap();
        gets[shard_of(story.source)] += 1;
    }
    let queries = 3;
    for _ in 1..queries {
        client.query_stories().unwrap();
    }

    let text = client.metrics().unwrap();
    for (shard, twin) in twins.iter().enumerate() {
        let series = |name: &str| {
            exposition_value(&text, &format!("{name}{{shard=\"{shard}\"}}"))
                .unwrap_or_else(|| panic!("missing {name} for shard {shard}"))
        };
        assert_eq!(series("storypivot_shard_sources"), twin.sources().len() as u64);
        assert_eq!(series("storypivot_shard_stories"), twin.story_count() as u64);
        assert_eq!(series("storypivot_shard_snippets"), twin.store().len() as u64);
        assert_eq!(series("storypivot_shard_queue_depth"), 0);
        assert_eq!(series("storypivot_shard_queue_capacity"), 2);
        assert_eq!(series("storypivot_shard_busy_rejections_total"), busy[shard]);
        assert_eq!(series("storypivot_shard_reads_total"), gets[shard] + queries);
        let ingested = corpus.snippets.iter().filter(|s| shard_of(s.source) == shard).count();
        assert_eq!(series("storypivot_shard_ingest_latency_ns_count"), ingested as u64);
        let quantile = |q: &str| {
            let name = format!(
                "storypivot_shard_ingest_latency_ns{{shard=\"{shard}\",quantile=\"{q}\"}}"
            );
            exposition_value(&text, &name).unwrap_or_else(|| panic!("missing {name}"))
        };
        let (p50, p95, p99) = (quantile("0.5"), quantile("0.95"), quantile("0.99"));
        assert!(0 < p50 && p50 <= p95 && p95 <= p99, "{p50} / {p95} / {p99}");
        // The journal on disk is the WAL gauge, and holds one record per
        // op since the last checkpoint, which the writes above crossed.
        let journal = dir.join("wal").join(format!("shard{shard}.wal"));
        let journal_bytes = std::fs::metadata(&journal).unwrap().len();
        assert_eq!(series("storypivot_shard_wal_bytes"), journal_bytes);
        let pending = wal::scan(&journal).unwrap().records.len() as u64;
        assert_eq!(series("storypivot_shard_ops_since_checkpoint"), pending);
        assert!(pending < (ingested + twin.sources().len()) as u64, "no checkpoint was taken");
        assert_eq!(series("storypivot_shard_restarts_total"), 0);
        assert_eq!(series("storypivot_shard_quarantined"), 0);
    }

    // The armed poison site: a live panic plus its replay panic restart
    // the owning shard twice and quarantine the op.
    let poison = Snippet::builder(SnippetId::new(1 << 30), SourceId::new(0), Timestamp::EPOCH)
        .entity(EntityId::new(1), 1.0)
        .headline(storypivot::serve::POISON_HEADLINE)
        .build();
    client.ingest(&poison).expect_err("the poison op must fail");
    let text = client.metrics().unwrap();
    let series = |name: &str, shard: usize| {
        exposition_value(&text, &format!("{name}{{shard=\"{shard}\"}}")).unwrap()
    };
    assert!(series("storypivot_shard_restarts_total", 0) >= 2);
    assert_eq!(series("storypivot_shard_quarantined", 0), 1);
    assert_eq!(series("storypivot_shard_restarts_total", 1), 0);
    assert_eq!(series("storypivot_shard_quarantined", 1), 0);

    client.shutdown().unwrap();
    handle.join();
}

/// Story ids hold 255 sources: the next ADD_SOURCE is refused where ids
/// are allocated, before any shard journals it.
#[test]
fn the_source_limit_is_refused_before_the_journal() {
    let dir = Scratch::new("limit");
    let cfg = ServerConfig {
        wal_dir: Some(dir.to_path_buf()),
        fsync: storypivot::substrate::wal::SyncPolicy::Never,
        ..sharded(2)
    };
    let handle = serve("127.0.0.1:0", cfg).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    for i in 0..storypivot::core::identify::MAX_SOURCES {
        client.add_source(&format!("source {i}"), SourceKind::Wire, 0).unwrap();
    }
    let journals = || -> Vec<u64> {
        (0..2)
            .map(|i| std::fs::metadata(dir.join(format!("shard{i}.wal"))).unwrap().len())
            .collect()
    };
    let before = journals();
    let err = client.add_source("one too many", SourceKind::Wire, 0).unwrap_err();
    assert!(err.to_string().contains("source limit reached (255)"), "{err}");
    assert_eq!(journals(), before, "a refused source must not be journaled");

    client.shutdown().unwrap();
    handle.join();
}

/// A snippet id at the engine's bound gets an error reply from its
/// shard, which neither grows nor restarts and serves the next ingest.
#[test]
fn an_out_of_range_snippet_id_is_refused_and_its_shard_keeps_serving() {
    use storypivot::core::identify::MAX_SNIPPET_ID;
    use storypivot::types::Error;

    let handle = serve("127.0.0.1:0", sharded(2)).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let source = client.add_source("a", SourceKind::Wire, 0).unwrap();
    let snippet = |id: u32| {
        Snippet::builder(SnippetId::new(id), source, Timestamp::EPOCH)
            .entity(EntityId::new(1), 1.0)
            .build()
    };
    match client.ingest(&snippet(MAX_SNIPPET_ID)) {
        Err(Error::Invariant(message)) => assert!(message.contains("snippet-id limit"), "{message}"),
        other => panic!("an id at the bound must be refused, answered {other:?}"),
    }
    assert!(matches!(client.ingest(&snippet(0)).unwrap(), IngestReply::Assigned(_)));
    let stories = client.query_stories().unwrap();
    assert_eq!(stories.len(), 1);
    assert_eq!(stories[0].members, vec![SnippetId::new(0)]);

    let text = client.metrics().unwrap();
    let shard = format!("{{shard=\"{}\"}}", source.raw() % 2);
    assert_eq!(exposition_value(&text, &format!("storypivot_shard_snippets{shard}")), Some(1));
    assert_eq!(exposition_value(&text, &format!("storypivot_shard_restarts_total{shard}")), Some(0));

    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn shutdown_is_idempotent_and_drains_pending_work() {
    let cfg = ServerConfig {
        shards: 2,
        worker_delay: std::time::Duration::from_millis(2),
        ..ServerConfig::default()
    };
    let handle = serve("127.0.0.1:0", cfg).unwrap();
    let addr = handle.addr();

    let mut client = Client::connect(addr).unwrap();
    client.add_source("a", SourceKind::Wire, 0).unwrap();
    client.add_source("b", SourceKind::Blog, 0).unwrap();
    let batch: Vec<Snippet> = (0..40u32)
        .map(|i| {
            Snippet::builder(
                SnippetId::new(i),
                storypivot::types::SourceId::new(i % 2),
                Timestamp::from_secs(i as i64 * 3_600),
            )
            .entity(EntityId::new(i % 5), 1.0)
            .build()
        })
        .collect();
    assert_eq!(client.ingest_batch(batch).unwrap(), 40);

    // Two concurrent SHUTDOWNs: both must ack, neither may hang.
    let second = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.shutdown()
    });
    client.shutdown().unwrap();
    second.join().unwrap().unwrap();
    handle.join();
}

#[test]
fn query_storm_bypasses_the_shard_write_queue() {
    // A 1-deep queue drained at 100 ms/job: if reads still enqueued,
    // a 100-query storm would need ≥ 10 s and trip BUSY constantly.
    // Served from the published snapshots they finish in milliseconds
    // and the write queue stays empty throughout.
    let cfg = ServerConfig {
        shards: 1,
        queue_depth: 1,
        worker_delay: std::time::Duration::from_millis(100),
        ..ServerConfig::default()
    };
    let handle = serve("127.0.0.1:0", cfg).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.add_source("s", SourceKind::Wire, 0).unwrap();
    let snippet = Snippet::builder(
        SnippetId::new(0),
        storypivot::types::SourceId::new(0),
        Timestamp::from_secs(0),
    )
    .entity(EntityId::new(1), 1.0)
    .build();
    let story = match client.ingest(&snippet).unwrap() {
        IngestReply::Assigned(id) => id,
        other => panic!("expected assignment, got {other:?}"),
    };

    let storm = 100u64;
    let start = std::time::Instant::now();
    for _ in 0..storm / 2 {
        let stories = client.query_stories().unwrap();
        assert_eq!(stories.len(), 1, "snapshot must already hold the acked ingest");
        let got = client.get_story(story).unwrap();
        assert_eq!(got.id, story);
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < std::time::Duration::from_secs(5),
        "query storm took {elapsed:?} — reads are riding the write queue again"
    );

    // Every snapshot-served read was counted, and the queue was empty
    // when the worker measured it (the metrics job is the only rider).
    let text = client.metrics().unwrap();
    assert_eq!(exposition_value(&text, "storypivot_shard_reads_total{shard=\"0\"}"), Some(storm));
    assert_eq!(
        exposition_value(&text, "storypivot_shard_queue_depth{shard=\"0\"}"),
        Some(0),
        "reads must not occupy the write queue"
    );

    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn pipelined_requests_return_in_order_past_the_pipeline_cap() {
    // Write a burst of requests without reading a single response, then
    // collect them all: replies must arrive in request order even
    // though shards complete out of order, and the burst is larger than
    // max_pipeline so the server must stall reads and resume without
    // losing a frame.
    let handle = serve(
        "127.0.0.1:0",
        ServerConfig {
            shards: 4,
                max_pipeline: 8,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.add_source("pipelined", SourceKind::Wire, 0).unwrap();

    let reqs: Vec<storypivot::serve::Request> = (0..64u32)
        .map(|i| {
            storypivot::serve::Request::IngestSnippet(
                Snippet::builder(
                    SnippetId::new(i),
                    storypivot::types::SourceId::new(0),
                    Timestamp::from_secs(i as i64 * 3_600),
                )
                .entity(EntityId::new(777), 1.0)
                .build(),
            )
        })
        .collect();
    let responses = client.pipelined(&reqs).unwrap();
    assert_eq!(responses.len(), 64);
    for (i, resp) in responses.iter().enumerate() {
        match resp {
            storypivot::serve::Response::Ingested(_) => {}
            other => panic!("request {i}: expected Ingested, got {other:?}"),
        }
    }

    // Interleave kinds: the reply *types* prove ordering (a swap would
    // pair a query with an ingest slot).
    let mixed = vec![
        storypivot::serve::Request::QueryStories,
        storypivot::serve::Request::Metrics,
        storypivot::serve::Request::QueryStories,
    ];
    let replies = client.pipelined(&mixed).unwrap();
    assert!(matches!(replies[0], storypivot::serve::Response::Stories(_)));
    assert!(matches!(replies[1], storypivot::serve::Response::Metrics { .. }));
    assert!(matches!(replies[2], storypivot::serve::Response::Stories(_)));
    match &replies[0] {
        storypivot::serve::Response::Stories(stories) => {
            assert_eq!(stories.iter().map(|s| s.members.len()).sum::<usize>(), 64)
        }
        _ => unreachable!(),
    }

    client.shutdown().unwrap();
    handle.join();
}

/// The sum of a per-shard series over every shard.
fn shard_sum(text: &str, name: &str, shards: usize) -> u64 {
    (0..shards)
        .map(|shard| exposition_value(text, &format!("{name}{{shard=\"{shard}\"}}")).unwrap())
        .sum()
}

/// One sequential client on the default config: every single-snippet
/// INGEST finds its shard's owner free and its queue empty, so the I/O
/// worker applies it itself and no write waits in a queue.
#[test]
fn a_sequential_client_writes_inline() {
    let cfg = ServerConfig::default();
    let shards = cfg.shards;
    let handle = serve("127.0.0.1:0", cfg).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let sources: Vec<_> =
        (0..3).map(|i| client.add_source(&format!("s{i}"), SourceKind::Wire, 0).unwrap()).collect();
    let ingests = 90u32;
    for i in 0..ingests {
        let snippet = Snippet::builder(
            SnippetId::new(i),
            sources[i as usize % sources.len()],
            Timestamp::from_secs(i as i64 * 3_600),
        )
        .entity(EntityId::new(i % 4), 1.0)
        .term(TermId::new(i % 5), 1.0)
        .build();
        assert!(matches!(client.ingest(&snippet).unwrap(), IngestReply::Assigned(_)));
        if i % 10 == 0 {
            client.query_stories().unwrap();
        }
    }

    let text = client.metrics().unwrap();
    assert_eq!(shard_sum(&text, "storypivot_shard_ingest_latency_ns_count", shards), ingests as u64);
    assert_eq!(shard_sum(&text, "storypivot_shard_inline_ingests_total", shards), ingests as u64);
    assert_eq!(shard_sum(&text, "storypivot_shard_queue_depth", shards), 0);
    assert_eq!(shard_sum(&text, "storypivot_shard_busy_rejections_total", shards), 0);

    client.shutdown().unwrap();
    handle.join();
}

/// One sequential client's REMOVE_DOC finds every shard's owner free
/// and its queue empty, so the I/O worker applies each shard's part
/// itself and puts no job on either queue; the reply sums the parts,
/// and a document no shard holds is still UNKNOWN_DOCUMENT.
#[test]
fn a_sequential_clients_remove_doc_queues_no_job() {
    use storypivot::types::DocId;

    let shards = 2;
    let handle = serve("127.0.0.1:0", sharded(shards)).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let sources = [
        client.add_source("a", SourceKind::Wire, 0).unwrap(),
        client.add_source("b", SourceKind::Blog, 0).unwrap(),
    ];
    // Document d holds snippets 2d and 2d + 1, one from each source,
    // so each removal takes a part from both shards.
    let docs = 6u32;
    for i in 0..2 * docs {
        let snippet = Snippet::builder(
            SnippetId::new(i),
            sources[i as usize % 2],
            Timestamp::from_secs(i as i64 * 3_600),
        )
        .doc(DocId::new(i / 2))
        .entity(EntityId::new(i % 3), 1.0)
        .build();
        assert!(matches!(client.ingest(&snippet).unwrap(), IngestReply::Assigned(_)));
    }
    for d in 0..docs {
        assert_eq!(client.remove_doc(DocId::new(d)).unwrap(), 2, "document {d}");
    }
    assert!(client.remove_doc(DocId::new(docs)).is_err(), "no shard holds it");

    let text = client.metrics().unwrap();
    for shard in 0..shards {
        let series = |name: &str| {
            exposition_value(&text, &format!("{name}{{shard=\"{shard}\"}}")).unwrap()
        };
        assert_eq!(series("storypivot_shard_inline_removes_total"), docs as u64 + 1);
        assert_eq!(series("storypivot_shard_inline_ingests_total"), docs as u64);
        assert_eq!(series("storypivot_shard_snippets"), 0);
    }
    assert_eq!(client.query_stories().unwrap(), Vec::new());

    client.shutdown().unwrap();
    handle.join();
}

/// A non-zero `worker_delay` (a slow shard) sends every write through
/// the queue, which is what the BUSY, SHED and storm tests exercise.
#[test]
fn a_slow_shard_takes_every_write_through_its_queue() {
    let cfg = ServerConfig {
        shards: 2,
        worker_delay: std::time::Duration::from_millis(1),
        ..ServerConfig::default()
    };
    let handle = serve("127.0.0.1:0", cfg).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let sources = [
        client.add_source("a", SourceKind::Wire, 0).unwrap(),
        client.add_source("b", SourceKind::Blog, 0).unwrap(),
    ];
    let ingests = 20u32;
    for i in 0..ingests {
        let snippet = Snippet::builder(
            SnippetId::new(i),
            sources[i as usize % 2],
            Timestamp::from_secs(i as i64 * 3_600),
        )
        .entity(EntityId::new(i % 3), 1.0)
        .build();
        assert!(matches!(client.ingest(&snippet).unwrap(), IngestReply::Assigned(_)));
    }

    let text = client.metrics().unwrap();
    assert_eq!(shard_sum(&text, "storypivot_shard_ingest_latency_ns_count", 2), ingests as u64);
    assert_eq!(shard_sum(&text, "storypivot_shard_inline_ingests_total", 2), 0);

    client.shutdown().unwrap();
    handle.join();
}

/// Inline and queued writes race: four connections pipeline single
/// INGESTs across both shards while a fifth pipelines INGEST_BATCHes and
/// REMOVE_DOCs. Each connection's ops must reach each shard's WAL in the
/// order it sent them, every snippet must be journaled once, and the
/// served partition must equal a replay of the WALs. (A holder that
/// popped a job before taking the owner would let a connection's next
/// write overtake it.) Unperturbed.
#[test]
fn racing_inline_and_queued_writes_keep_each_connections_order() {
    race_inline_and_queued_writes(None);
}

/// The same race under eight `sched` seeds: every thread that takes,
/// holds or releases a shard's owner yields or sleeps a few seeded µs at
/// the protocol's named points, so each seed drives the owner hand-offs
/// through schedules the unperturbed run rarely meets. A job stranded in
/// a queue fails the clients' I/O timeout instead of hanging the test.
#[test]
fn racing_writes_keep_each_connections_order_under_sched_seeds() {
    use storypivot::substrate::fault::FaultPlan;
    for seed in 1..=8 {
        let plan = FaultPlan::parse(&format!("seed={seed},sched=250")).unwrap();
        race_inline_and_queued_writes(Some(plan));
    }
}

fn race_inline_and_queued_writes(faults: Option<storypivot::substrate::fault::FaultPlan>) {
    use std::collections::hash_map::{Entry, HashMap};
    use storypivot::core::oplog::{self, ReplayOp};
    use storypivot::serve::Request;
    use storypivot::substrate::wal;

    let timeout = Some(std::time::Duration::from_secs(60));

    const SINGLES: usize = 4;
    const BATCH: usize = 12;
    // Short pipelined windows keep the queues emptying and refilling,
    // so inline writes and queued jobs keep trading the owner.
    const WINDOW: usize = 4;
    const PHASES: usize = 48;
    let corpus = CorpusBuilder::new(
        GenConfig::default().with_seed(53).with_sources(4).with_target_snippets(4_000),
    )
    .build();
    let dir = Scratch::new("race");
    let shards = 2;
    let cfg = ServerConfig {
        wal_dir: Some(dir.to_path_buf()),
        fsync: wal::SyncPolicy::Never,
        faults,
        ..sharded(shards)
    };
    let handle = serve("127.0.0.1:0", cfg).unwrap();
    let addr = handle.addr();
    let mut setup = Client::connect(addr).unwrap();
    setup.set_io_timeout(timeout).unwrap();
    for source in &corpus.sources {
        let id = setup.add_source(&source.name, source.kind, source.typical_lag).unwrap();
        assert_eq!(id, source.id);
    }

    // Snippet i goes to connection i % 5; the fifth batches its share
    // and retracts, after each batch, the document of the batch's first
    // snippet (once per document). `sent[c]` is connection c's request
    // stream, and `pos` maps every snippet id and retracted document to
    // (connection, its place in that connection's send order).
    let key = |op: &ReplayOp| match op {
        ReplayOp::Ingest(snippet) => Some((0, snippet.id.raw() as u64)),
        ReplayOp::RemoveDoc(doc) => Some((1, doc.raw() as u64)),
        ReplayOp::AddSource(_) => None,
    };
    let mut sent: Vec<Vec<Request>> = vec![Vec::new(); SINGLES + 1];
    let mut pos: HashMap<(u8, u64), (usize, usize)> = HashMap::new();
    let mut order = vec![0usize; SINGLES + 1];
    let mut batch = Vec::new();
    for (i, snippet) in corpus.snippets.iter().enumerate() {
        let c = i % (SINGLES + 1);
        pos.insert((0, snippet.id.raw() as u64), (c, order[c]));
        order[c] += 1;
        if c < SINGLES {
            sent[c].push(Request::IngestSnippet(snippet.clone()));
            continue;
        }
        batch.push(snippet.clone());
        if batch.len() == BATCH {
            let doc = batch[0].doc;
            sent[c].push(Request::IngestBatch(std::mem::take(&mut batch)));
            if let Entry::Vacant(slot) = pos.entry((1, doc.raw() as u64)) {
                sent[c].push(Request::RemoveDoc(doc));
                slot.insert((c, order[c]));
                order[c] += 1;
            }
        }
    }
    if !batch.is_empty() {
        sent[SINGLES].push(Request::IngestBatch(batch));
    }
    assert!(sent[..SINGLES].iter().all(|reqs| reqs.len() >= 200), "{order:?}");

    // The connections start each of PHASES slices of their streams
    // together, so the race goes quiet PHASES times: a job left in a
    // queue with no holder to look at it then has no later write to
    // rescue it, and its client times out. A client that failed keeps
    // meeting the barrier, so the others are not left waiting.
    let phase = std::sync::Arc::new(std::sync::Barrier::new(SINGLES + 1));
    let runs: Vec<_> = sent
        .into_iter()
        .map(|reqs| {
            let phase = std::sync::Arc::clone(&phase);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                client.set_io_timeout(timeout).unwrap();
                let mut replies = Ok(Vec::new());
                for p in 0..PHASES {
                    phase.wait();
                    let slice = &reqs[p * reqs.len() / PHASES..(p + 1) * reqs.len() / PHASES];
                    for window in slice.chunks(WINDOW) {
                        if let Ok(got) = &mut replies {
                            match client.pipelined(window) {
                                Ok(more) => got.extend(more),
                                Err(e) => replies = Err(e),
                            }
                        }
                    }
                }
                replies
            })
        })
        .collect();
    for run in runs {
        for reply in run.join().unwrap().expect("a client's window failed") {
            use storypivot::serve::Response;
            match reply {
                Response::Ingested(_) | Response::BatchIngested(_) | Response::Removed(_) => {}
                other => panic!("unexpected reply {other:?}"),
            }
        }
    }

    let served = partition_of_summaries(&setup.query_stories().unwrap());
    let text = setup.metrics().unwrap();
    let inline = shard_sum(&text, "storypivot_shard_inline_ingests_total", shards);
    let mut replayed = Vec::new();
    let mut journaled = 0;
    for shard in 0..shards {
        let mut engine = StoryPivot::new(PivotConfig::default());
        let mut last: Vec<Option<usize>> = vec![None; SINGLES + 1];
        for record in wal::scan(&dir.join(format!("shard{shard}.wal"))).unwrap().records {
            let op = ReplayOp::decode(&record).unwrap();
            if let Some(&(c, at)) = key(&op).and_then(|k| pos.get(&k)) {
                assert!(
                    last[c].is_none_or(|prev| prev < at),
                    "shard {shard}: connection {c}'s op #{at} journaled after its op #{}",
                    last[c].unwrap()
                );
                last[c] = Some(at);
                journaled += matches!(op, ReplayOp::Ingest(_)) as usize;
            }
            oplog::replay(&mut engine, op).unwrap();
        }
        replayed.extend(engine.story_partition());
    }
    replayed.sort();
    assert_eq!(journaled, corpus.snippets.len(), "every snippet is journaled once");
    assert_eq!(served, replayed, "the served partition is the WALs' replay");
    assert!(inline > 0, "no single INGEST was applied inline");

    setup.shutdown().unwrap();
    handle.join();
}

/// A burst of connections spreads evenly over the I/O workers: only a
/// worker that holds no more connections than any other accepts, so
/// the first worker to wake cannot take the whole burst.
#[test]
fn connections_spread_evenly_over_the_io_workers() {
    let cfg = ServerConfig { shards: 1, io_workers: 2, ..ServerConfig::default() };
    let handle = serve("127.0.0.1:0", cfg).unwrap();
    let mut clients: Vec<Client> =
        (0..5).map(|_| Client::connect(handle.addr()).unwrap()).collect();
    // Served, so accepted.
    for client in &mut clients {
        client.query_stories().unwrap();
    }
    let text = clients[0].metrics().unwrap();
    let per_worker: Vec<u64> = (0..2)
        .map(|w| {
            let name = format!("storypivot_io_worker_connections{{worker=\"{w}\"}}");
            exposition_value(&text, &name).unwrap()
        })
        .collect();
    assert_eq!(per_worker.iter().sum::<u64>(), 5, "{per_worker:?}");
    assert!(per_worker.iter().all(|&n| n == 2 || n == 3), "uneven split: {per_worker:?}");
    clients.truncate(1);
    clients[0].shutdown().unwrap();
    handle.join();
}
