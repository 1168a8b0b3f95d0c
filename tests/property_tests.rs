//! Property-based tests over the core data structures and invariants.

use storypivot::sketch::{HashFamily, MinHash};
use storypivot::store::codec::{decode_snippet, decode_store, encode_snippet, encode_store};
use storypivot::store::EventStore;
use storypivot::substrate::prop;
use storypivot::substrate::rng::{RngExt, StdRng};
use storypivot::types::sparse::SparseVec;
use storypivot::types::{
    EntityId, EventType, Snippet, SnippetId, Source, SourceId, SourceKind, TermId, TimeRange,
    Timestamp,
};

// ---- generators ------------------------------------------------------

fn arb_timestamp(rng: &mut StdRng) -> Timestamp {
    // A generous but non-degenerate range (years ~1900..2100).
    Timestamp::from_secs(rng.random_range(-2_208_988_800i64..4_102_444_800))
}

fn arb_snippet(rng: &mut StdRng, max_id: u32) -> Snippet {
    let id = rng.random_range(0..max_id);
    let source = rng.random_range(0..4u32);
    let doc = rng.random_range(0..1000u32);
    let t = arb_timestamp(rng);
    let ents = prop::vec_with(rng, 0, 7, |r| {
        (r.random_range(0..500u32), r.random_range(0.01f32..10.0))
    });
    let terms = prop::vec_with(rng, 0, 11, |r| {
        (r.random_range(0..2000u32), r.random_range(0.01f32..10.0))
    });
    let ty = rng.random_range(0..EventType::COUNT as u8);
    let headline = prop::ascii_string(rng, 0, 40);

    let mut b = Snippet::builder(SnippetId::new(id), SourceId::new(source), t)
        .doc(storypivot::types::DocId::new(doc))
        .event_type(EventType::from_code(ty).unwrap())
        .headline(headline);
    for (e, w) in ents {
        b = b.entity(EntityId::new(e), w);
    }
    for (t, w) in terms {
        b = b.term(TermId::new(t), w);
    }
    b.build()
}

// ---- codec ------------------------------------------------------------

#[test]
fn snippet_codec_round_trips() {
    prop::run(256, |rng| {
        let snippet = arb_snippet(rng, 10_000);
        let mut buf = Vec::new();
        encode_snippet(&mut buf, &snippet);
        let decoded = decode_snippet(&mut &buf[..]).unwrap();
        assert_eq!(decoded, snippet);
    });
}

#[test]
fn store_codec_round_trips() {
    prop::run(128, |rng| {
        let snippets = prop::vec_with(rng, 0, 39, |r| arb_snippet(r, 100_000));
        let mut store = EventStore::new();
        for i in 0..4u32 {
            store
                .register_source(Source::new(SourceId::new(i), format!("s{i}"), SourceKind::Blog))
                .unwrap();
        }
        let mut inserted = 0;
        for s in snippets {
            if store.insert(s).is_ok() {
                inserted += 1;
            }
        }
        let decoded = decode_store(&encode_store(&store)).unwrap();
        assert_eq!(decoded.len(), inserted);
        assert_eq!(decoded.stats(), store.stats());
        for s in store.iter() {
            assert_eq!(decoded.get(s.id), Some(s));
        }
    });
}

#[test]
fn codec_never_panics_on_corrupt_input() {
    prop::run(256, |rng| {
        let bytes = prop::vec_with(rng, 0, 255, |r| r.random::<u8>());
        // Any byte soup must produce Ok or Err — never a panic.
        let _ = decode_store(&bytes);
        let _ = decode_snippet(&mut &bytes[..]);
    });
}

// ---- window index vs naive scan ------------------------------------------

#[test]
fn store_window_equals_naive_filter() {
    prop::run(256, |rng| {
        let mut store = EventStore::new();
        for i in 0..2 {
            store
                .register_source(Source::new(SourceId::new(i), format!("s{i}"), SourceKind::Blog))
                .unwrap();
        }
        // The model: every stored snippet, in no particular order.
        let mut model: Vec<Snippet> = Vec::new();
        for _ in 0..rng.random_range(0..80usize) {
            if model.is_empty() || rng.random_bool(0.75) {
                // Out-of-order inserts over a narrow clock, so timestamps
                // collide and ids break ties; an id already stored is a
                // duplicate the store must refuse without a trace.
                let mut s = arb_snippet(rng, 60);
                s.source = SourceId::new(rng.random_range(0..2u32));
                s.timestamp = Timestamp::from_secs(rng.random_range(-50i64..50));
                let dup = model.iter().any(|m| m.id == s.id);
                assert_eq!(store.insert(s.clone()).is_err(), dup);
                if !dup {
                    model.push(s);
                }
            } else {
                let at = rng.random_range(0..model.len());
                let gone = model.swap_remove(at);
                assert_eq!(store.remove(gone.id).unwrap(), gone);
            }
        }
        store.check_windows().unwrap();

        for source in [SourceId::new(0), SourceId::new(1)] {
            let t = Timestamp::from_secs(rng.random_range(-60i64..60));
            let omega = rng.random_range(0i64..40);
            let got: Vec<(Timestamp, SnippetId)> =
                store.window(source, t, omega).iter().map(|e| (e.timestamp, e.id)).collect();
            let mut expected: Vec<(Timestamp, SnippetId)> = model
                .iter()
                .filter(|m| m.source == source && TimeRange::window(t, omega).contains(m.timestamp))
                .map(|m| (m.timestamp, m.id))
                .collect();
            expected.sort_unstable();
            assert_eq!(got, expected);
            // Each entry resolves to its snippet.
            for e in store.window(source, t, omega) {
                assert_eq!(store.resolve(e).id, e.id);
            }
        }
    });
}

// ---- minhash vs exact jaccard ------------------------------------------

#[test]
fn minhash_estimate_tracks_exact_jaccard() {
    prop::run(64, |rng| {
        let a = prop::set_with(rng, 1, 79, |r| r.random_range(0u64..400));
        let b = prop::set_with(rng, 1, 79, |r| r.random_range(0u64..400));
        let family = HashFamily::new(99, 256);
        let ma = MinHash::from_items(&family, a.iter().copied());
        let mb = MinHash::from_items(&family, b.iter().copied());
        let est = ma.estimate_jaccard(&mb);
        let inter = a.intersection(&b).count() as f64;
        let union = a.union(&b).count() as f64;
        let exact = inter / union;
        // k = 256 → σ ≈ 0.031; 6σ tolerance keeps flakes out.
        assert!((est - exact).abs() < 0.20, "est {est} exact {exact}");
    });
}

#[test]
fn minhash_merge_is_union() {
    prop::run(128, |rng| {
        let a = prop::set_with(rng, 0, 39, |r| r.random_range(0u64..300));
        let b = prop::set_with(rng, 0, 39, |r| r.random_range(0u64..300));
        let family = HashFamily::new(7, 64);
        let mut ma = MinHash::from_items(&family, a.iter().copied());
        let mb = MinHash::from_items(&family, b.iter().copied());
        ma.merge(&mb);
        let union = MinHash::from_items(&family, a.union(&b).copied());
        assert_eq!(ma, union);
    });
}

// ---- sparse vector algebra -------------------------------------------------

#[test]
fn sparse_similarities_are_bounded_and_symmetric() {
    prop::run(256, |rng| {
        let a = prop::vec_with(rng, 0, 19, |r| {
            (r.random_range(0u32..60), r.random_range(0.01f32..5.0))
        });
        let b = prop::vec_with(rng, 0, 19, |r| {
            (r.random_range(0u32..60), r.random_range(0.01f32..5.0))
        });
        let va = SparseVec::from_pairs(a);
        let vb = SparseVec::from_pairs(b);
        for (x, y) in [
            (va.cosine(&vb), vb.cosine(&va)),
            (va.jaccard(&vb), vb.jaccard(&va)),
            (va.weighted_jaccard(&vb), vb.weighted_jaccard(&va)),
        ] {
            assert!((0.0..=1.0 + 1e-9).contains(&x), "similarity out of range: {x}");
            assert!((x - y).abs() < 1e-9, "asymmetric: {x} vs {y}");
        }
    });
}

// ---- store insert/remove inverses ---------------------------------------------

#[test]
fn store_insert_remove_is_identity() {
    prop::run(64, |rng| {
        let snippets = prop::vec_with(rng, 1, 29, |r| arb_snippet(r, 1_000));
        let mut store = EventStore::new();
        for i in 0..4u32 {
            store
                .register_source(Source::new(SourceId::new(i), format!("s{i}"), SourceKind::Wire))
                .unwrap();
        }
        let mut ok: Vec<SnippetId> = Vec::new();
        for s in &snippets {
            if store.insert(s.clone()).is_ok() {
                ok.push(s.id);
            }
        }
        for id in &ok {
            store.remove(*id).unwrap();
        }
        assert!(store.is_empty());
        let stats = store.stats();
        assert_eq!(stats.entity_count, 0);
        assert_eq!(stats.document_count, 0);
        assert!(stats.coverage.is_empty());
    });
}

// ---- identification invariants -------------------------------------------------

#[test]
fn identification_always_yields_a_valid_partition() {
    use storypivot::core::config::PivotConfig;
    use storypivot::prelude::StoryPivot;

    prop::run(24, |rng| {
        let snippets = prop::vec_with(rng, 1, 59, |r| arb_snippet(r, 5_000));
        let mut pivot = StoryPivot::new(PivotConfig::default());
        for _ in 0..4u32 {
            pivot.add_source("s", SourceKind::Blog);
        }
        let mut inserted: Vec<SnippetId> = Vec::new();
        for s in snippets {
            if pivot.ingest(s.clone()).is_ok() {
                inserted.push(s.id);
            }
        }
        // Every ingested snippet has exactly one story; every story
        // member is a live snippet of the story's source.
        for &id in &inserted {
            assert!(pivot.story_of(id).is_some(), "{id} unassigned");
        }
        let mut seen = std::collections::HashSet::new();
        for src in 0..4u32 {
            for st in pivot.stories_of_source(SourceId::new(src)) {
                assert!(!st.is_empty(), "empty story {} survived", st.id());
                assert!(!st.lifespan().is_empty());
                for &m in &st.story.members {
                    assert!(seen.insert(m), "{m} in two stories");
                    let sn = pivot.store().get(m).unwrap();
                    assert_eq!(sn.source, st.source());
                    assert!(st.lifespan().contains(sn.timestamp));
                }
            }
        }
        assert_eq!(seen.len(), inserted.len());

        // Alignment covers everything exactly once.
        pivot.align();
        let covered: usize = pivot.global_stories().iter().map(|g| g.len()).sum();
        assert_eq!(covered, inserted.len());
    });
}

// ---- metrics properties ---------------------------------------------------------

#[test]
fn metrics_are_bounded_and_perfect_on_self() {
    use storypivot::eval::{nmi, pairwise, Clustering};

    prop::run(128, |rng| {
        let pairs = prop::vec_with(rng, 1, 79, |r| {
            (r.random_range(0u64..50), r.random_range(0u64..8))
        });
        let c = Clustering::from_pairs(pairs.iter().copied());
        let relabeled = Clustering::from_pairs(c.iter().map(|(i, cl)| (i, cl + 1000)));

        let s = pairwise(&relabeled, &c);
        assert!((s.f1 - 1.0).abs() < 1e-12);
        assert!((nmi(&relabeled, &c) - 1.0).abs() < 1e-9);

        // Against an arbitrary second clustering: bounded.
        let other = Clustering::from_pairs(pairs.iter().map(|&(i, cl)| (i, cl % 3)));
        let s = pairwise(&other, &c);
        assert!((0.0..=1.0).contains(&s.precision));
        assert!((0.0..=1.0).contains(&s.recall));
        assert!((0.0..=1.0).contains(&s.f1));
        assert!((0.0..=1.0).contains(&nmi(&other, &c)));
    });
}
