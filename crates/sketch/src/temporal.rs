//! Temporal activity signatures.
//!
//! Story alignment must compare how stories *evolve*: "two stories are
//! likely to refer to the same real-world story if their evolution is
//! similar" and "it is highly unlikely that two stories c₁ and c₂ are
//! similar if c₁ ends at tᵢ and c₂ starts at tⱼ with tᵢ ≪ tⱼ"
//! (paper §2.3). A [`TemporalSignature`] buckets a story's snippet
//! activity into fixed-width epochs; its lag-tolerant containment
//! similarity scores evolution overlap while forgiving per-source
//! reporting delay.

use storypivot_types::Timestamp;

/// A bucketed activity histogram along the time axis.
#[derive(Debug, Clone, PartialEq)]
pub struct TemporalSignature {
    bucket_width: i64,
    /// Global index of the first bucket in `counts` (timestamp / width).
    origin: i64,
    counts: Vec<f32>,
}

impl TemporalSignature {
    /// An empty signature with the given bucket width in seconds
    /// (e.g. [`storypivot_types::DAY`]).
    pub fn new(bucket_width: i64) -> Self {
        assert!(bucket_width > 0, "bucket width must be positive");
        TemporalSignature {
            bucket_width,
            origin: 0,
            counts: Vec::new(),
        }
    }

    /// Whether no activity has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Total recorded activity.
    pub fn total(&self) -> f64 {
        self.counts.iter().map(|&c| c as f64).sum()
    }

    fn bucket_of(&self, t: Timestamp) -> i64 {
        t.secs().div_euclid(self.bucket_width)
    }

    /// Record `weight` units of activity at instant `t`.
    pub fn add(&mut self, t: Timestamp, weight: f32) {
        let b = self.bucket_of(t);
        if self.counts.is_empty() {
            self.origin = b;
            self.counts.push(weight);
            return;
        }
        if b < self.origin {
            let grow = (self.origin - b) as usize;
            let mut new_counts = vec![0.0; grow];
            new_counts.extend_from_slice(&self.counts);
            self.counts = new_counts;
            self.origin = b;
        } else if (b - self.origin) as usize >= self.counts.len() {
            self.counts.resize((b - self.origin) as usize + 1, 0.0);
        }
        self.counts[(b - self.origin) as usize] += weight;
    }

    /// Heap bytes of the bucket array (the memory account).
    pub fn heap_bytes(&self) -> usize {
        self.counts.capacity() * std::mem::size_of::<f32>()
    }

    /// Overlapping activity mass when `other` is shifted by `shift`
    /// buckets: `Σᵢ min(aᵢ, b₍ᵢ₋shift₎)`, over the buckets `i` where both
    /// curves are defined, in ascending `i`; 0 when there are none.
    fn shifted_min_mass(&self, other: &TemporalSignature, shift: i64) -> f64 {
        // Bucket `i` of `self` meets bucket `i - offset` of `other`.
        let offset = other.origin + shift - self.origin;
        let lo = offset.max(0);
        let hi = (offset + other.counts.len() as i64).min(self.counts.len() as i64);
        if lo >= hi {
            return 0.0;
        }
        let (lo, hi) = (lo as usize, hi as usize);
        let theirs = &other.counts[(lo as i64 - offset) as usize..];
        let mut acc = 0f64;
        for (&a, &b) in self.counts[lo..hi].iter().zip(theirs) {
            acc += a.min(b) as f64;
        }
        acc
    }

    /// Lag-tolerant evolution **containment**: the best over shifts of
    /// `Σ min(a,b) / min(Σa, Σb)`, discounted by shift magnitude.
    ///
    /// Unlike a cosine of the two curves, containment does not penalize
    /// span mismatch: a one-event story whose event falls inside a long
    /// story's active period scores 1.0. Story alignment uses this as
    /// its temporal compatibility gate — a short story reported by a
    /// sparse source must still be able to align with the full story of
    /// a prolific source (paper §2.3), while temporally disjoint stories
    /// still score 0.
    pub fn containment_similarity(&self, other: &TemporalSignature, max_lag_buckets: i64) -> f64 {
        assert_eq!(self.bucket_width, other.bucket_width, "bucket width mismatch");
        if self.is_empty() || other.is_empty() {
            return 0.0;
        }
        let denom = self.total().min(other.total());
        if denom == 0.0 {
            return 0.0;
        }
        let mut best = 0.0f64;
        for shift in -max_lag_buckets..=max_lag_buckets {
            let discount = 1.0 - shift.abs() as f64 / (max_lag_buckets as f64 + 1.0);
            let s = (self.shifted_min_mass(other, shift) / denom).min(1.0) * discount;
            if s > best {
                best = s;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use storypivot_types::DAY;

    fn ts(day: i64) -> Timestamp {
        Timestamp::from_secs(day * DAY)
    }

    /// `(origin, counts)`: the first bucket and the curve from it.
    fn curve(s: &TemporalSignature) -> (i64, Vec<f32>) {
        (s.origin, s.counts.clone())
    }

    #[test]
    fn add_buckets_activity() {
        let mut s = TemporalSignature::new(DAY);
        assert!(s.is_empty());
        s.add(ts(10), 1.0);
        s.add(ts(10) + 3600, 1.0); // same day, later hour
        s.add(ts(12), 2.0);
        assert_eq!(curve(&s), (10, vec![2.0, 0.0, 2.0]));
        assert_eq!(s.total(), 4.0);
    }

    #[test]
    fn add_grows_backwards() {
        let mut s = TemporalSignature::new(DAY);
        s.add(ts(10), 1.0);
        s.add(ts(5), 1.0);
        assert_eq!(curve(&s), (5, vec![1.0, 0.0, 0.0, 0.0, 0.0, 1.0]));
    }

    #[test]
    fn negative_timestamps_bucket_correctly() {
        let mut s = TemporalSignature::new(DAY);
        s.add(Timestamp::from_secs(-1), 1.0); // belongs to day -1
        s.add(ts(0), 1.0);
        assert_eq!(curve(&s), (-1, vec![1.0, 1.0]));
    }

    #[test]
    fn the_width_sets_the_buckets() {
        let mut s = TemporalSignature::new(4 * DAY);
        for d in [0, 3, 4, 9] {
            s.add(ts(d), 1.0);
        }
        assert_eq!(curve(&s), (0, vec![2.0, 1.0, 1.0]));
    }

    #[test]
    #[should_panic(expected = "bucket width mismatch")]
    fn mismatched_widths_panic() {
        let a = TemporalSignature::new(DAY);
        let b = TemporalSignature::new(3600);
        a.containment_similarity(&b, 1);
    }
}

#[cfg(test)]
mod containment_tests {
    use super::*;
    use storypivot_types::{Timestamp, DAY};

    fn ts(day: i64) -> Timestamp {
        Timestamp::from_secs(day * DAY)
    }

    #[test]
    fn short_story_inside_long_story_scores_one() {
        let mut long = TemporalSignature::new(DAY);
        for d in 0..10 {
            long.add(ts(d), 1.0);
        }
        let mut short = TemporalSignature::new(DAY);
        short.add(ts(4), 1.0);
        assert_eq!(short.containment_similarity(&long, 0), 1.0);
        assert_eq!(long.containment_similarity(&short, 0), 1.0);
    }

    #[test]
    fn disjoint_stories_contain_nothing() {
        let mut a = TemporalSignature::new(DAY);
        a.add(ts(0), 1.0);
        let mut b = TemporalSignature::new(DAY);
        b.add(ts(50), 1.0);
        assert_eq!(a.containment_similarity(&b, 3), 0.0);
    }

    #[test]
    fn lag_shift_recovers_containment_with_discount() {
        let mut a = TemporalSignature::new(DAY);
        a.add(ts(0), 1.0);
        let mut b = TemporalSignature::new(DAY);
        b.add(ts(2), 1.0);
        assert_eq!(a.containment_similarity(&b, 0), 0.0);
        let s = a.containment_similarity(&b, 3);
        assert!(s > 0.0 && s < 1.0, "shifted containment discounted: {s}");
    }

    #[test]
    fn identical_signatures_score_one() {
        let mut a = TemporalSignature::new(DAY);
        for d in [0, 2, 5] {
            a.add(ts(d), 2.0);
        }
        assert_eq!(a.containment_similarity(&a, 2), 1.0);
    }

    #[test]
    fn empty_scores_zero() {
        let e = TemporalSignature::new(DAY);
        let mut a = TemporalSignature::new(DAY);
        a.add(ts(0), 1.0);
        assert_eq!(e.containment_similarity(&a, 1), 0.0);
    }

    /// The kernel as first written: every bucket of `a`, each tested
    /// against `b`'s bounds.
    fn shifted_min_mass_reference(a: &TemporalSignature, b: &TemporalSignature, shift: i64) -> f64 {
        let mut acc = 0f64;
        for (i, &x) in a.counts.iter().enumerate() {
            let j = a.origin + i as i64 - b.origin - shift;
            if j >= 0 && (j as usize) < b.counts.len() {
                acc += x.min(b.counts[j as usize]) as f64;
            }
        }
        acc
    }

    /// The overlap walk adds what the per-bucket loop adds, in the same
    /// order, so the two agree to the bit: on random curves of 0 to 40
    /// buckets with origins on both sides of 0 (disjoint pairs among
    /// them), at every shift from well past one end to well past the
    /// other.
    #[test]
    fn the_overlap_walk_matches_the_per_bucket_loop() {
        use storypivot_substrate::prop;
        use storypivot_substrate::rng::RngExt;
        prop::run(64, |rng| {
            let mut curve = || TemporalSignature {
                bucket_width: DAY,
                origin: rng.random_range(-60i64..60),
                counts: (0..rng.random_range(0usize..41))
                    .map(|_| if rng.random_bool(0.3) { 0.0 } else { rng.random_range(0.0f32..5.0) })
                    .collect(),
            };
            let (a, b) = (curve(), curve());
            let reach = (a.origin - b.origin).abs() + (a.counts.len() + b.counts.len()) as i64 + 3;
            for shift in -reach..=reach {
                for (x, y) in [(&a, &b), (&b, &a)] {
                    let (got, want) = (x.shifted_min_mass(y, shift), shifted_min_mass_reference(x, y, shift));
                    assert_eq!(got.to_bits(), want.to_bits(), "{x:?} {y:?} shift {shift}");
                }
            }
        });
    }
}
