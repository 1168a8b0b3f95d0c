//! Property tests for the sketch layer.

use storypivot_sketch::{HashFamily, MinHash, TemporalSignature};
use storypivot_substrate::prop;
use storypivot_substrate::rng::RngExt;
use storypivot_types::{Timestamp, DAY};

// ---- minhash ------------------------------------------------------

#[test]
fn minhash_subset_estimate_reflects_containment() {
    prop::run(128, |rng| {
        let base = prop::set_with(rng, 10, 59, |r| r.random_range(0u64..300));
        // A set vs itself minus half its elements: jaccard = |half|/|base|.
        let family = HashFamily::new(3, 256);
        let half: std::collections::HashSet<u64> =
            base.iter().copied().take(base.len() / 2).collect();
        let mb = MinHash::from_items(&family, base.iter().copied());
        let mh = MinHash::from_items(&family, half.iter().copied());
        let exact = half.len() as f64 / base.len() as f64;
        let est = mb.estimate_jaccard(&mh);
        assert!((est - exact).abs() < 0.25, "est {est} exact {exact}");
    });
}

// ---- temporal signature ----------------------------------------------

#[test]
fn temporal_add_remove_round_trips() {
    prop::run(256, |rng| {
        let adds = prop::vec_with(rng, 0, 39, |r| {
            (r.random_range(-100i64..100), r.random_range(1u32..5))
        });
        let mut sig = TemporalSignature::new(DAY);
        for &(d, w) in &adds {
            sig.add(Timestamp::from_secs(d * DAY + 7), w as f32);
        }
        let total: f64 = adds.iter().map(|&(_, w)| w as f64).sum();
        assert!((sig.total() - total).abs() < 1e-3);
        for &(d, w) in &adds {
            sig.remove(Timestamp::from_secs(d * DAY + 7), w as f32);
        }
        assert!(sig.total() < 1e-3, "residual {}", sig.total());
    });
}

#[test]
fn similarities_are_bounded_and_self_is_maximal() {
    prop::run(128, |rng| {
        let a = prop::vec_with(rng, 1, 29, |r| {
            (r.random_range(-50i64..50), r.random_range(1u32..4))
        });
        let b = prop::vec_with(rng, 1, 29, |r| {
            (r.random_range(-50i64..50), r.random_range(1u32..4))
        });
        let lag = rng.random_range(0i64..5);
        let mut sa = TemporalSignature::new(DAY);
        for &(d, w) in &a {
            sa.add(Timestamp::from_secs(d * DAY), w as f32);
        }
        let mut sb = TemporalSignature::new(DAY);
        for &(d, w) in &b {
            sb.add(Timestamp::from_secs(d * DAY), w as f32);
        }
        for f in [
            TemporalSignature::evolution_similarity,
            TemporalSignature::containment_similarity,
        ] {
            let ab = f(&sa, &sb, lag);
            assert!((0.0..=1.0).contains(&ab), "out of range: {ab}");
            let self_sim = f(&sa, &sa, lag);
            assert!((self_sim - 1.0).abs() < 1e-9, "self sim {self_sim}");
        }
        // Containment is symmetric (min-normalized); check directly.
        assert!(
            (sa.containment_similarity(&sb, lag) - sb.containment_similarity(&sa, lag)).abs()
                < 1e-9
        );
    });
}

#[test]
fn merge_total_is_sum_of_totals() {
    prop::run(256, |rng| {
        let a = prop::vec_with(rng, 0, 19, |r| {
            (r.random_range(-30i64..30), r.random_range(1u32..4))
        });
        let b = prop::vec_with(rng, 0, 19, |r| {
            (r.random_range(-30i64..30), r.random_range(1u32..4))
        });
        let mut sa = TemporalSignature::new(DAY);
        for &(d, w) in &a {
            sa.add(Timestamp::from_secs(d * DAY), w as f32);
        }
        let mut sb = TemporalSignature::new(DAY);
        for &(d, w) in &b {
            sb.add(Timestamp::from_secs(d * DAY), w as f32);
        }
        let expected = sa.total() + sb.total();
        sa.merge(&sb);
        assert!((sa.total() - expected).abs() < 1e-3);
    });
}
