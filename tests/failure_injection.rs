//! Failure injection: the engine must degrade gracefully, not panic, on
//! hostile inputs — duplicates, vacuous content, unknown references,
//! clock-skewed sources, and mid-stream mutations.

use storypivot::core::config::PivotConfig;
use storypivot::prelude::*;

fn pivot_with_sources(n: u32) -> (StoryPivot, Vec<SourceId>) {
    let mut pivot = StoryPivot::new(PivotConfig::default());
    let ids = (0..n)
        .map(|i| pivot.add_source(format!("s{i}"), SourceKind::Newspaper))
        .collect();
    (pivot, ids)
}

fn snip(id: u32, source: SourceId, t: Timestamp) -> Snippet {
    Snippet::builder(SnippetId::new(id), source, t)
        .entity(EntityId::new(id % 7), 1.0)
        .term(TermId::new(id % 11), 1.0)
        .build()
}

#[test]
fn duplicate_snippet_ids_are_rejected_not_corrupting() {
    let (mut pivot, src) = pivot_with_sources(1);
    let s = snip(0, src[0], Timestamp::EPOCH);
    pivot.ingest(s.clone()).unwrap();
    assert!(pivot.ingest(s).is_err());
    assert_eq!(pivot.store().len(), 1);
    assert_eq!(pivot.story_count(), 1);
}

#[test]
fn vacuous_snippets_form_singleton_stories() {
    let (mut pivot, src) = pivot_with_sources(1);
    for i in 0..3 {
        let empty = Snippet::builder(SnippetId::new(i), src[0], Timestamp::from_secs(i as i64))
            .headline("nothing extracted")
            .build();
        pivot.ingest(empty).unwrap();
    }
    // No shared content → no similarity → three separate stories.
    assert_eq!(pivot.story_count(), 3);
    pivot.align();
    assert_eq!(pivot.global_stories().len(), 3);
}

#[test]
fn unknown_references_error_cleanly() {
    let (mut pivot, src) = pivot_with_sources(1);
    assert!(pivot.remove_snippet(SnippetId::new(9)).is_err());
    assert!(pivot.remove_document(DocId::new(9)).is_err());
    assert!(pivot.remove_source(SourceId::new(42)).is_err());
    assert!(pivot.reassign_snippet(SnippetId::new(9), StoryId::new(0)).is_err());
    // The engine still works afterwards.
    pivot.ingest(snip(0, src[0], Timestamp::EPOCH)).unwrap();
    pivot.align();
    assert_eq!(pivot.global_stories().len(), 1);
}

#[test]
fn extreme_timestamps_do_not_break_windows_or_alignment() {
    let (mut pivot, src) = pivot_with_sources(2);
    pivot.ingest(snip(0, src[0], Timestamp::MAX - 10)).unwrap();
    pivot.ingest(snip(1, src[1], Timestamp::MIN + 10)).unwrap();
    pivot.ingest(snip(2, src[0], Timestamp::EPOCH)).unwrap();
    pivot.align();
    assert_eq!(pivot.store().len(), 3);
    assert!(!pivot.global_stories().is_empty());
}

#[test]
fn clock_skewed_source_still_aligns_within_tolerance() {
    let mut cfg = PivotConfig::default();
    cfg.align.max_lag_buckets = 3;
    let mut pivot = StoryPivot::new(cfg);
    let a = pivot.add_source("punctual", SourceKind::Wire);
    let b = pivot.add_source("skewed", SourceKind::Magazine);
    let day = |d: i64| Timestamp::from_secs(d * DAY);
    let mut id = 0u32;
    for d in 0..5 {
        for (source, skew) in [(a, 0i64), (b, 2)] {
            let s = Snippet::builder(SnippetId::new(id), source, day(d + skew))
                .entity(EntityId::new(1), 1.0)
                .entity(EntityId::new(2), 1.0)
                .term(TermId::new(1), 1.0)
                .build();
            pivot.ingest(s).unwrap();
            id += 1;
        }
    }
    pivot.align();
    let cross = pivot.alignment().unwrap().cross_source_stories().count();
    assert_eq!(cross, 1, "2-day skew must be absorbed by lag tolerance");
}

#[test]
fn mutating_while_streaming_never_panics() {
    let (mut pivot, src) = pivot_with_sources(2);
    for i in 0..50u32 {
        pivot
            .ingest(snip(i, src[(i % 2) as usize], Timestamp::from_secs(i as i64 * 3_600)))
            .unwrap();
        match i % 10 {
            3 => {
                pivot.remove_snippet(SnippetId::new(i)).unwrap();
            }
            5 => {
                pivot.align_incremental();
            }
            7 => {
                pivot.refine();
            }
            _ => {}
        }
    }
    pivot.align();
    pivot.refine();
    // 5 of 50 snippets were removed (i % 10 == 3).
    assert_eq!(pivot.store().len(), 45);
    let covered: usize = pivot.global_stories().iter().map(|g| g.len()).sum();
    assert_eq!(covered, 45);
}

#[test]
fn removing_everything_leaves_a_clean_engine() {
    let (mut pivot, src) = pivot_with_sources(1);
    for i in 0..10u32 {
        pivot
            .ingest(snip(i, src[0], Timestamp::from_secs(i as i64)))
            .unwrap();
    }
    pivot.align();
    for i in 0..10u32 {
        pivot.remove_snippet(SnippetId::new(i)).unwrap();
    }
    pivot.align_incremental();
    assert_eq!(pivot.store().len(), 0);
    assert_eq!(pivot.story_count(), 0);
    assert!(pivot.global_stories().is_empty());
    // And it can start over.
    pivot.ingest(snip(100, src[0], Timestamp::EPOCH)).unwrap();
    pivot.align_incremental();
    assert_eq!(pivot.global_stories().len(), 1);
}

#[test]
fn same_document_snippets_share_doc_removal() {
    let (mut pivot, src) = pivot_with_sources(1);
    let doc = DocId::new(7);
    for i in 0..3u32 {
        let s = Snippet::builder(SnippetId::new(i), src[0], Timestamp::from_secs(i as i64))
            .doc(doc)
            .entity(EntityId::new(1), 1.0)
            .term(TermId::new(1), 1.0)
            .build();
        pivot.ingest(s).unwrap();
    }
    assert_eq!(pivot.remove_document(doc).unwrap(), 3);
    assert!(pivot.store().is_empty());
}

// ---- wire-protocol faults against a live server ----------------------
//
// The serving layer faces the network, so its failure injection runs
// against a real loopback pivotd: torn frames, oversized length
// prefixes, garbage opcodes, and mid-frame disconnects must produce
// clean protocol errors (or a clean close) — never a panic, a wedged
// acceptor, or a leaked shard thread. Each scenario ends by proving the
// server still serves and shuts down gracefully.

mod wire_faults {
    use std::io::{Read, Write};
    use std::net::TcpStream;

    use storypivot::serve::client::{BackoffPolicy, Client};
    use storypivot::serve::proto::{frame, read_frame, Request, Response, MAX_FRAME_LEN};
    use storypivot::serve::server::{serve, ServerConfig, ServerHandle};
    use storypivot::types::{EntityId, Snippet, SnippetId, SourceId, SourceKind, Timestamp};

    fn tiny_server() -> ServerHandle {
        serve(
            "127.0.0.1:0",
            ServerConfig { shards: 2, ..ServerConfig::default() },
        )
        .unwrap()
    }

    /// The liveness probe every scenario ends with: a fresh client can
    /// register, ingest, query, and gracefully stop the server — and
    /// `join` returns, i.e. no shard or acceptor thread leaked.
    fn assert_alive_and_shutdown(handle: ServerHandle) {
        let mut client = Client::connect(handle.addr()).unwrap();
        client.add_source("probe", SourceKind::Wire, 0).unwrap();
        let snippet = Snippet::builder(SnippetId::new(0), SourceId::new(0), Timestamp::EPOCH)
            .entity(EntityId::new(1), 1.0)
            .build();
        let policy = BackoffPolicy { max_attempts: 101, ..Default::default() };
        client.ingest_backoff(&snippet, policy).unwrap();
        assert_eq!(client.query_stories().unwrap().len(), 1);
        client.shutdown().unwrap();
        handle.join();
    }

    fn read_error_response(stream: &mut TcpStream) -> Response {
        let payload = read_frame(stream).unwrap().expect("server must reply before closing");
        Response::decode(&payload).unwrap()
    }

    #[test]
    fn torn_length_prefix_is_a_clean_close() {
        let handle = tiny_server();
        {
            let mut raw = TcpStream::connect(handle.addr()).unwrap();
            raw.write_all(&[0x07, 0x00]).unwrap(); // 2 of 4 length bytes
            // Dropping the stream tears the frame mid-prefix.
        }
        assert_alive_and_shutdown(handle);
    }

    #[test]
    fn mid_frame_disconnect_does_not_wedge_the_server() {
        let handle = tiny_server();
        {
            let mut raw = TcpStream::connect(handle.addr()).unwrap();
            raw.write_all(&100u32.to_le_bytes()).unwrap();
            raw.write_all(&[0x04; 10]).unwrap(); // 10 of the promised 100 bytes
        }
        assert_alive_and_shutdown(handle);
    }

    #[test]
    fn oversized_length_prefix_is_rejected_with_an_error_frame() {
        let handle = tiny_server();
        {
            let mut raw = TcpStream::connect(handle.addr()).unwrap();
            raw.write_all(&u32::MAX.to_le_bytes()).unwrap();
            match read_error_response(&mut raw) {
                Response::Error { code, message } => {
                    assert_eq!(code, 4, "oversized frame is a codec error: {message}");
                    assert!(message.contains(&MAX_FRAME_LEN.to_string()));
                }
                other => panic!("expected an error response, got {other:?}"),
            }
            // The server closes the desynchronised stream afterwards.
            let mut rest = Vec::new();
            raw.read_to_end(&mut rest).unwrap();
            assert!(rest.is_empty());
        }
        assert_alive_and_shutdown(handle);
    }

    #[test]
    fn garbage_opcode_gets_an_error_response() {
        let handle = tiny_server();
        {
            let mut raw = TcpStream::connect(handle.addr()).unwrap();
            raw.write_all(&1u32.to_le_bytes()).unwrap();
            raw.write_all(&[0x7F]).unwrap(); // no such opcode
            match read_error_response(&mut raw) {
                Response::Error { code, .. } => assert_eq!(code, 4),
                other => panic!("expected an error response, got {other:?}"),
            }
        }
        assert_alive_and_shutdown(handle);
    }

    #[test]
    fn truncated_request_body_gets_an_error_response() {
        let handle = tiny_server();
        {
            let mut raw = TcpStream::connect(handle.addr()).unwrap();
            // A valid GET_STORY frame is 5 bytes (opcode + u32); promise
            // and deliver only the opcode plus two body bytes.
            raw.write_all(&3u32.to_le_bytes()).unwrap();
            raw.write_all(&[0x05, 0x01, 0x02]).unwrap();
            match read_error_response(&mut raw) {
                Response::Error { code, .. } => assert_eq!(code, 4),
                other => panic!("expected an error response, got {other:?}"),
            }
        }
        assert_alive_and_shutdown(handle);
    }

    #[test]
    fn metrics_opcode_survives_torn_and_oversized_frames() {
        let handle = tiny_server();
        {
            // METRICS carries an empty body; a trailing byte is a codec
            // error, not a panic.
            let mut raw = TcpStream::connect(handle.addr()).unwrap();
            raw.write_all(&2u32.to_le_bytes()).unwrap();
            raw.write_all(&[0x09, 0xEE]).unwrap();
            match read_error_response(&mut raw) {
                Response::Error { code, .. } => assert_eq!(code, 4),
                other => panic!("expected an error response, got {other:?}"),
            }
        }
        {
            // Torn frame: promise a 1-byte METRICS request, deliver
            // nothing, drop the connection.
            let mut raw = TcpStream::connect(handle.addr()).unwrap();
            raw.write_all(&1u32.to_le_bytes()).unwrap();
        }
        {
            // Oversized length prefix in front of the metrics opcode.
            let mut raw = TcpStream::connect(handle.addr()).unwrap();
            raw.write_all(&(MAX_FRAME_LEN + 9).to_le_bytes()).unwrap();
            raw.write_all(&[0x09]).unwrap();
            match read_error_response(&mut raw) {
                Response::Error { code, .. } => assert_eq!(code, 4),
                other => panic!("expected an error response, got {other:?}"),
            }
        }
        {
            // After the barrage a clean raw METRICS round trip works.
            let mut raw = TcpStream::connect(handle.addr()).unwrap();
            raw.write_all(&frame(|b| Request::Metrics.encode(b))).unwrap();
            let payload = read_frame(&mut raw).unwrap().unwrap();
            match Response::decode(&payload).unwrap() {
                Response::Metrics { text } => {
                    assert!(text.contains("storypivot_ingest_total"), "exposition:\n{text}");
                    assert!(text.contains("storypivot_shard_queue_capacity"));
                }
                other => panic!("expected a Metrics response, got {other:?}"),
            }
        }
        assert_alive_and_shutdown(handle);
    }

    #[test]
    fn fault_barrage_then_normal_traffic() {
        // Many hostile connections in a row, mixed shapes, then the
        // liveness probe — the acceptor must survive all of it.
        let handle = tiny_server();
        for i in 0..20u32 {
            let mut raw = TcpStream::connect(handle.addr()).unwrap();
            match i % 4 {
                0 => raw.write_all(&[0xFF]).unwrap(),
                1 => {
                    raw.write_all(&((MAX_FRAME_LEN) + 1 + i).to_le_bytes()).unwrap();
                }
                2 => {
                    raw.write_all(&8u32.to_le_bytes()).unwrap();
                    raw.write_all(&[0xAA; 3]).unwrap();
                }
                _ => {
                    // A syntactically valid frame whose body is noise.
                    let junk = frame(|b| {
                        Request::GetStory(storypivot::types::StoryId::new(i)).encode(b);
                        b.extend_from_slice(&[0xEE; 5]); // trailing bytes
                    });
                    raw.write_all(&junk).unwrap();
                }
            }
            // Connections drop immediately; the server may or may not
            // manage to reply — either way it must not wedge.
        }
        assert_alive_and_shutdown(handle);
    }
}

/// Shard supervision under injected panics. The poison hook only exists
/// in debug builds ([`storypivot::serve::server::POISON_HEADLINE`]), so
/// this module is compiled out of release test runs.
#[cfg(debug_assertions)]
mod shard_supervision {
    use std::path::{Path, PathBuf};

    use storypivot::core::config::PivotConfig;
    use storypivot::core::pivot::StoryPivot;
    use storypivot::serve::client::{BackoffPolicy, Client};
    use storypivot::serve::server::{serve, ServerConfig, POISON_HEADLINE};
    use storypivot::substrate::wal::SyncPolicy;
    use storypivot::types::{
        EntityId, Snippet, SnippetId, SourceId, SourceKind, StoryId, Timestamp,
    };

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("storypivot-poison-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn durable_config(wal: &Path, ckpt: &Path) -> ServerConfig {
        ServerConfig {
            shards: 2,
            wal_dir: Some(wal.to_path_buf()),
            checkpoint_dir: Some(ckpt.to_path_buf()),
            fsync: SyncPolicy::Always,
            ..ServerConfig::default()
        }
    }

    fn snippet(id: u32, source: u32, headline: &str) -> Snippet {
        Snippet::builder(SnippetId::new(id), SourceId::new(source), Timestamp::EPOCH)
            .entity(EntityId::new(1), 1.0)
            .headline(headline)
            .build()
    }

    fn ten_retries() -> BackoffPolicy {
        BackoffPolicy { max_attempts: 11, ..Default::default() }
    }

    #[test]
    fn poisoned_shard_restarts_quarantines_and_keeps_siblings_serving() {
        let wal = scratch("wal");
        let ckpt = scratch("ckpt");
        let handle = serve("127.0.0.1:0", durable_config(&wal, &ckpt)).unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();

        // Source 0 → shard 0, source 1 → shard 1.
        client.add_source("victim", SourceKind::Wire, 0).unwrap();
        client.add_source("bystander", SourceKind::Wire, 0).unwrap();
        client.ingest_backoff(&snippet(0, 0, "fine"), ten_retries()).unwrap();
        client.ingest_backoff(&snippet(1, 1, "fine too"), ten_retries()).unwrap();

        // The in-process twin sees the good snippets only. Per-source
        // partitions do not depend on the sharding.
        let mut twin = StoryPivot::new(PivotConfig::default());
        twin.add_source("victim", SourceKind::Wire);
        twin.add_source("bystander", SourceKind::Wire);
        twin.ingest(snippet(0, 0, "fine")).unwrap();
        twin.ingest(snippet(1, 1, "fine too")).unwrap();
        let served = |client: &mut Client| -> Vec<(StoryId, Vec<SnippetId>)> {
            let stories = client.query_stories().unwrap();
            stories.into_iter().map(|s| (s.id, s.members)).collect()
        };

        // Strike 1: the live apply panics. Strike 2: the op re-panics
        // out of the WAL during the rebuild replay. One submission is
        // therefore enough to dead-letter it.
        let poison = snippet(2, 0, POISON_HEADLINE);
        let err = client.ingest(&poison).expect_err("poison must surface as an error");
        let msg = err.to_string();
        assert!(msg.contains("panicked"), "unexpected error: {msg}");

        // The rebuilt engine's read snapshot was seeded from scratch...
        assert_eq!(served(&mut client), twin.story_partition());
        // The poisoned shard restarted and keeps serving its queue...
        let (story, _) = client.ingest_backoff(&snippet(3, 0, "still alive"), ten_retries()).unwrap();
        // ...and that snapshot is patched, not stale: the next read
        // sees the write.
        twin.ingest(snippet(3, 0, "still alive")).unwrap();
        assert!(client.get_story(story).unwrap().members.contains(&SnippetId::new(3)));
        assert_eq!(served(&mut client), twin.story_partition());
        // ...and the sibling shard never noticed.
        client.ingest_backoff(&snippet(4, 1, "unaffected"), ten_retries()).unwrap();

        let stats = client.stats().unwrap();
        assert_eq!(stats.shards.len(), 2);
        assert!(
            stats.shards[0].restarts >= 2,
            "live panic + replay panic, got {}",
            stats.shards[0].restarts
        );
        assert_eq!(stats.shards[0].quarantined, 1);
        assert_eq!(stats.shards[1].restarts, 0);
        assert_eq!(stats.shards[1].quarantined, 0);
        assert!(wal.join("shard0.dead").exists(), "quarantine must be dead-lettered");

        // Resubmitting the identical op is rejected *before* the engine
        // (no new panic, no new restart).
        let err = client.ingest(&poison).expect_err("quarantined op must be rejected");
        assert!(err.to_string().contains("quarantined"), "got: {err}");
        let stats2 = client.stats().unwrap();
        assert_eq!(stats2.shards[0].restarts, stats.shards[0].restarts);

        // The partition holds exactly the four good snippets.
        let stories = client.query_stories().unwrap();
        let members: usize = stories.iter().map(|s| s.members.len()).sum();
        assert_eq!(members, 4);

        client.shutdown().unwrap();
        handle.join();
        let _ = std::fs::remove_dir_all(&wal);
        let _ = std::fs::remove_dir_all(&ckpt);
    }

    #[test]
    fn quarantine_survives_a_clean_restart() {
        let wal = scratch("wal-persist");
        let ckpt = scratch("ckpt-persist");
        {
            let handle = serve("127.0.0.1:0", durable_config(&wal, &ckpt)).unwrap();
            let mut client = Client::connect(handle.addr()).unwrap();
            client.add_source("victim", SourceKind::Wire, 0).unwrap();
            client.ingest_backoff(&snippet(0, 0, "good"), ten_retries()).unwrap();
            client.ingest(&snippet(1, 0, POISON_HEADLINE)).expect_err("poison");
            client.shutdown().unwrap();
            handle.join();
        }
        // Same durable state, fresh process (in-process stand-in): the
        // dead-letter file re-arms the quarantine before any replay.
        let handle = serve("127.0.0.1:0", durable_config(&wal, &ckpt)).unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();
        let stats = client.stats().unwrap();
        assert_eq!(stats.shards[0].quarantined, 1);
        assert_eq!(stats.shards[0].restarts, 0, "no replay panic: the op is skipped");
        let err = client.ingest(&snippet(1, 0, POISON_HEADLINE)).expect_err("still dead");
        assert!(err.to_string().contains("quarantined"), "got: {err}");
        // Recovered data intact, engine fully serviceable.
        let stories = client.query_stories().unwrap();
        assert_eq!(stories.iter().map(|s| s.members.len()).sum::<usize>(), 1);
        client.ingest_backoff(&snippet(2, 0, "fresh"), ten_retries()).unwrap();
        client.shutdown().unwrap();
        handle.join();
        let _ = std::fs::remove_dir_all(&wal);
        let _ = std::fs::remove_dir_all(&ckpt);
    }
}

// ---- slow-loris / idle reaping ---------------------------------------
//
// The multiplexed runtime holds per-connection buffers; a client that
// opens a socket and then dribbles (or stops entirely) must not pin
// them forever. With `idle_timeout` set, the server reaps connections
// whose last *completed* frame is older than the deadline — partial
// bytes do not count as progress, so a byte-at-a-minute client cannot
// hold its buffer hostage.

mod slow_loris {
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::time::{Duration, Instant};

    use storypivot::serve::client::Client;
    use storypivot::serve::server::{serve, ServerConfig, ServerHandle};
    use storypivot::types::SourceKind;

    fn reaping_server() -> ServerHandle {
        serve(
            "127.0.0.1:0",
            ServerConfig {
                shards: 2,
                idle_timeout: Some(Duration::from_millis(250)),
                ..ServerConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn stalled_half_frame_client_is_reaped_while_healthy_traffic_flows() {
        let handle = reaping_server();

        // The loris: promise a frame, deliver one length byte, stall.
        let mut loris = TcpStream::connect(handle.addr()).unwrap();
        loris.write_all(&[0x09]).unwrap();
        loris.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

        // While it stalls, a healthy client on the same workers is
        // entirely unaffected.
        let mut client = Client::connect(handle.addr()).unwrap();
        client.add_source("healthy", SourceKind::Wire, 0).unwrap();
        assert!(client.query_stories().unwrap().is_empty());

        // The server reaps the loris: EOF arrives within a few idle
        // periods (the 10s read timeout above is the failure mode).
        let start = Instant::now();
        let mut sink = Vec::new();
        loris.read_to_end(&mut sink).expect("reap closes the socket cleanly");
        assert!(sink.is_empty(), "no reply is owed to half a frame");
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "reap took {:?}, idle timeout is 250ms",
            start.elapsed()
        );

        // The "healthy" client has now been idle past the deadline too
        // and was reaped along the way — deliberately: the deadline is
        // about idleness, not byte rate. A fresh connection stops the
        // server.
        drop(client);
        let mut fresh = Client::connect(handle.addr()).unwrap();
        fresh.shutdown().unwrap();
        handle.join();
    }

    #[test]
    fn dripping_bytes_does_not_reset_the_deadline() {
        let handle = reaping_server();

        // Promise a 64-byte frame and drip filler far too slowly to
        // ever finish it. Only completed frames count as progress, so
        // the trickle must not keep the connection alive.
        let mut loris = TcpStream::connect(handle.addr()).unwrap();
        loris.write_all(&64u32.to_le_bytes()).unwrap();
        let start = Instant::now();
        let mut reaped = false;
        while start.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_millis(50));
            if loris.write_all(&[0x00]).and_then(|()| loris.flush()).is_err() {
                reaped = true;
                break;
            }
        }
        assert!(reaped, "drip-feeding one byte per 50ms held the connection open for 10s");

        let mut client = Client::connect(handle.addr()).unwrap();
        client.add_source("after", SourceKind::Wire, 0).unwrap();
        client.shutdown().unwrap();
        handle.join();
    }

    #[test]
    fn without_idle_timeout_idle_connections_are_left_alone() {
        // Reaping is opt-in: the default config must keep quiet
        // connections open indefinitely (kill -9 recovery tests and
        // long-lived monitoring clients depend on it).
        let handle = serve(
            "127.0.0.1:0",
            ServerConfig { shards: 2, ..ServerConfig::default() },
        )
        .unwrap();
        let mut idle = Client::connect(handle.addr()).unwrap();
        std::thread::sleep(Duration::from_millis(600));
        // Still serviceable after sitting idle well past the reaping
        // test's deadline.
        idle.add_source("patient", SourceKind::Wire, 0).unwrap();
        idle.shutdown().unwrap();
        handle.join();
    }
}
