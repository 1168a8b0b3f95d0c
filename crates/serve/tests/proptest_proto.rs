//! Property tests: every wire-protocol frame round-trips through
//! encode → frame → read_frame → decode for randomized contents, the
//! request decoder accepts nothing shorter or longer than what the
//! encoder wrote and never hands the server a snippet it cannot
//! materialise, and the frame reader never panics on arbitrary byte
//! soup. Each direction has one decoder; the encoder is its reference.

use storypivot_serve::proto::{
    frame, frame_ready, read_frame, Request, RequestRef, Response, StorySummary, MAX_FRAME_LEN,
    OP_INGEST_BATCH, OP_INGEST_SNIPPET,
};
use storypivot_serve::stats::{ServeStats, ShardStats};
use storypivot_substrate::prop;
use storypivot_substrate::rng::{RngExt, StdRng};
use storypivot_types::{
    DocId, EntityId, EventType, Snippet, SnippetId, SourceId, SourceKind, StoryId, TermId,
    TimeRange, Timestamp,
};

fn random_weight(rng: &mut StdRng) -> f32 {
    // Sixteenths are exactly representable, so equality after the
    // bit-level round-trip is exact equality of the original value.
    rng.random_range(1..2000u32) as f32 / 16.0
}

fn random_snippet(rng: &mut StdRng) -> Snippet {
    let mut b = Snippet::builder(
        SnippetId::new(rng.random()),
        SourceId::new(rng.random_range(0..256u32)),
        Timestamp::from_secs(rng.random_range(-4_000_000_000i64..4_000_000_000)),
    )
    .doc(DocId::new(rng.random()))
    .event_type(EventType::ALL[rng.random_range(0..EventType::ALL.len())])
    .headline(prop::unicode_string(rng, 0, 40));
    for _ in 0..rng.random_range(0..6usize) {
        b = b.entity(EntityId::new(rng.random_range(0..10_000u32)), random_weight(rng));
    }
    for _ in 0..rng.random_range(0..6usize) {
        b = b.term(TermId::new(rng.random_range(0..10_000u32)), random_weight(rng));
    }
    b.build()
}

fn random_summary(rng: &mut StdRng) -> StorySummary {
    StorySummary {
        id: StoryId::new(rng.random()),
        source: SourceId::new(rng.random_range(0..256u32)),
        lifespan: TimeRange::new(
            Timestamp::from_secs(rng.random_range(-1_000_000i64..1_000_000)),
            Timestamp::from_secs(rng.random_range(-1_000_000i64..1_000_000)),
        ),
        members: prop::vec_with(rng, 0, 12, |r| SnippetId::new(r.random())),
    }
}

fn random_shard_stats(rng: &mut StdRng) -> ShardStats {
    ShardStats {
        shard: rng.random_range(0..64u32),
        sources: rng.random_range(0..256u32),
        queue_depth: rng.random(),
        queue_capacity: rng.random(),
        stories: rng.random_range(0..1u64 << 32),
        snippets: rng.random(),
        ingested: rng.random(),
        queries: rng.random(),
        busy_rejections: rng.random(),
        ingest_count: rng.random(),
        ingest_p50_ns: rng.random(),
        ingest_p95_ns: rng.random(),
        ingest_p99_ns: rng.random(),
        wal_bytes: rng.random(),
        last_checkpoint_age_ops: rng.random(),
        restarts: rng.random(),
        quarantined: rng.random(),
    }
}

fn random_request(rng: &mut StdRng) -> Request {
    match rng.random_range(0..9u32) {
        0 => Request::AddSource {
            name: prop::unicode_string(rng, 0, 30),
            kind: SourceKind::ALL[rng.random_range(0..SourceKind::ALL.len())],
            lag: rng.random_range(-1_000_000i64..1_000_000),
        },
        1 => Request::IngestSnippet(random_snippet(rng)),
        2 => Request::IngestBatch(prop::vec_with(rng, 0, 8, random_snippet)),
        3 => Request::QueryStories,
        4 => Request::GetStory(StoryId::new(rng.random())),
        5 => Request::RemoveDoc(DocId::new(rng.random())),
        6 => Request::Stats,
        7 => Request::ReplSubscribe {
            shard: rng.random_range(0..64u32),
            generation: rng.random(),
            wal_offset: rng.random(),
        },
        _ => Request::Shutdown,
    }
}

fn random_response(rng: &mut StdRng) -> Response {
    match rng.random_range(0..14u32) {
        0 => Response::SourceAdded(SourceId::new(rng.random_range(0..256u32))),
        1 => Response::Ingested(StoryId::new(rng.random())),
        2 => Response::BatchIngested(rng.random()),
        3 => Response::Stories(prop::vec_with(rng, 0, 6, random_summary)),
        4 => Response::Story(random_summary(rng)),
        5 => Response::Removed(rng.random()),
        6 => Response::Stats(ServeStats {
            shards: prop::vec_with(rng, 0, 8, random_shard_stats),
        }),
        7 => Response::ShutdownAck,
        8 => Response::Busy {
            retry_after_ms: rng.random(),
        },
        9 => Response::NotLeader {
            leader: prop::unicode_string(rng, 0, 40),
        },
        10 => Response::ReplFrame {
            generation: rng.random(),
            next_offset: rng.random(),
            leader_wal_len: rng.random(),
            leader_ops: rng.random(),
            records: prop::vec_with(rng, 0, 64, |r| r.random()),
        },
        11 => Response::ReplCheckpoint {
            generation: rng.random(),
            checkpoint: prop::vec_with(rng, 0, 64, |r| r.random()),
        },
        12 => Response::Shed {
            retry_after_ms: rng.random(),
        },
        _ => Response::Error {
            code: rng.random(),
            message: prop::unicode_string(rng, 0, 60),
        },
    }
}

#[test]
fn prop_requests_round_trip() {
    prop::run(256, |rng| {
        let req = random_request(rng);
        let bytes = frame(|b| req.encode(b));
        let mut r: &[u8] = &bytes;
        let payload = read_frame(&mut r).expect("well-formed frame").expect("non-empty");
        // `Request::decode` is `decode_borrowed(..).to_owned()`: the
        // server's decoder, materialised.
        assert_eq!(Request::decode(&payload).expect("decodes"), req);
        assert!(r.is_empty(), "no bytes left after one frame");
    });
}

#[test]
fn prop_responses_round_trip() {
    prop::run(256, |rng| {
        let resp = random_response(rng);
        let bytes = frame(|b| resp.encode(b));
        let mut r: &[u8] = &bytes;
        let payload = read_frame(&mut r).expect("well-formed frame").expect("non-empty");
        assert_eq!(Response::decode(&payload).expect("decodes"), resp);
    });
}

#[test]
fn prop_back_to_back_frames_stream_cleanly() {
    prop::run(64, |rng| {
        let reqs = prop::vec_with(rng, 1, 5, random_request);
        let mut wire = Vec::new();
        for req in &reqs {
            wire.extend_from_slice(&frame(|b| req.encode(b)));
        }
        let mut r: &[u8] = &wire;
        for req in &reqs {
            let payload = read_frame(&mut r).unwrap().unwrap();
            assert_eq!(&Request::decode(&payload).unwrap(), req);
        }
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF at the end");
    });
}

#[test]
fn prop_strict_prefixes_and_trailing_bytes_are_rejected() {
    // The encoder is the reference: no strict prefix of what it wrote
    // is a request, and neither is what it wrote plus one byte.
    prop::run(256, |rng| {
        let req = random_request(rng);
        let valid = frame(|b| req.encode(b));
        let payload = &valid[4..];
        for cut in 0..payload.len() {
            assert!(
                Request::decode_borrowed(&payload[..cut]).is_err(),
                "prefix {cut} of {req:?} accepted"
            );
        }
        let mut longer = payload.to_vec();
        longer.push(rng.random());
        assert!(Request::decode_borrowed(&longer).is_err(), "{req:?} + 1 byte accepted");
    });
}

/// Materialise an accepted request every way the server does and check
/// it against itself: `to_owned` must not panic (`SnippetRef::to_owned`
/// `expect`s that what `skip_snippet` validated `decode_snippet` takes),
/// the routing header must be the materialised snippet's, and the
/// encoder must reproduce the value. (Not the bytes: `decode_snippet`
/// canonicalises sparse vectors — sorts, merges duplicate keys, drops
/// non-positive weights — so a corrupt-but-accepted payload re-encodes
/// to its canonical form.)
fn check_accepted(r: RequestRef<'_>) {
    let owned = r.to_owned();
    match (r, &owned) {
        (RequestRef::IngestSnippet(sref), Request::IngestSnippet(s)) => {
            assert_eq!((sref.id, sref.source), (s.id, s.source));
        }
        (RequestRef::IngestBatch(b), Request::IngestBatch(batch)) => {
            assert_eq!(b.iter().count(), b.len());
            let each: Vec<Snippet> = b.iter().map(|s| s.to_owned()).collect();
            assert_eq!(&each, batch);
            for (r, s) in b.iter().zip(batch) {
                assert_eq!((r.id, r.source), (s.id, s.source));
            }
        }
        _ => {}
    }
    let again = frame(|b| owned.encode(b));
    assert_eq!(Request::decode(&again[4..]).expect("re-encoding decodes"), owned);
}

#[test]
fn prop_accepted_corrupt_ingest_payloads_materialise_without_panicking() {
    let mut accepted = 0u32;
    prop::run(256, |rng| {
        // Single-byte mutations of valid INGEST / INGEST_BATCH payloads.
        let req = if rng.random() {
            Request::IngestSnippet(random_snippet(rng))
        } else {
            Request::IngestBatch(prop::vec_with(rng, 1, 4, random_snippet))
        };
        let valid = frame(|b| req.encode(b));
        for _ in 0..16 {
            let mut bad = valid[4..].to_vec();
            let at = rng.random_range(0..bad.len());
            bad[at] ^= rng.random_range(1..=255u8);
            if let Ok(r) = Request::decode_borrowed(&bad) {
                accepted += 1;
                check_accepted(r);
            }
        }
        // Byte soup behind an ingest opcode.
        let mut soup: Vec<u8> = prop::vec_with(rng, 1, 96, |r| r.random());
        soup[0] = if rng.random() { OP_INGEST_SNIPPET } else { OP_INGEST_BATCH };
        if let Ok(r) = Request::decode_borrowed(&soup) {
            check_accepted(r);
        }
    });
    assert!(accepted > 1000, "most single-byte mutations still decode ({accepted})");
}

#[test]
fn oversized_length_prefix_rejected_before_any_payload_arrives() {
    // frame_ready sees only the 4-byte header of an oversized frame and
    // must reject it there — before the server reserves a buffer for a
    // body that may be gigabytes of hostile air.
    for len in [MAX_FRAME_LEN + 1, u32::MAX / 2, u32::MAX] {
        let head = len.to_le_bytes();
        assert!(frame_ready(&head).is_err(), "len {len} must be rejected from header alone");
    }
    // Zero-length frames carry no opcode and are equally malformed.
    assert!(frame_ready(&0u32.to_le_bytes()).is_err());
    // A maximal *legal* prefix is not an error — just not ready yet.
    assert_eq!(frame_ready(&MAX_FRAME_LEN.to_le_bytes()).unwrap(), None);
}

#[test]
fn prop_decoder_never_panics_on_byte_soup() {
    prop::run(256, |rng| {
        // Truncations of a valid frame plus pure garbage: decode and
        // read_frame may reject, but must never panic.
        let req = random_request(rng);
        let valid = frame(|b| req.encode(b));
        let cut = rng.random_range(0..=valid.len());
        let mut torn: &[u8] = &valid[..cut];
        let _ = read_frame(&mut torn);
        let garbage: Vec<u8> = prop::vec_with(rng, 0, 64, |r| r.random());
        if let Ok(r) = Request::decode_borrowed(&garbage) {
            check_accepted(r);
        }
        let _ = Response::decode(&garbage);
        let mut soup: &[u8] = &garbage;
        let _ = read_frame(&mut soup);
    });
}
