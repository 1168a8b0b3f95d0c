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
        let ab = sa.containment_similarity(&sb, lag);
        assert!((0.0..=1.0).contains(&ab), "out of range: {ab}");
        let self_sim = sa.containment_similarity(&sa, lag);
        assert!((self_sim - 1.0).abs() < 1e-9, "self sim {self_sim}");
        // Containment is symmetric (min-normalized); check directly.
        assert!(
            (sa.containment_similarity(&sb, lag) - sb.containment_similarity(&sa, lag)).abs()
                < 1e-9
        );
    });
}
