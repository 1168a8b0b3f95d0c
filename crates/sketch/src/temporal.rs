//! Temporal activity signatures.
//!
//! Story alignment must compare how stories *evolve*: "two stories are
//! likely to refer to the same real-world story if their evolution is
//! similar" and "it is highly unlikely that two stories c₁ and c₂ are
//! similar if c₁ ends at tᵢ and c₂ starts at tⱼ with tᵢ ≪ tⱼ"
//! (paper §2.3). A [`TemporalSignature`] buckets a story's snippet
//! activity into fixed-width epochs; its lag-tolerant cosine similarity
//! scores evolution overlap while forgiving per-source reporting delay.

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

    /// Bucket width in seconds.
    pub fn bucket_width(&self) -> i64 {
        self.bucket_width
    }

    /// Number of buckets spanned (0 when empty).
    pub fn span(&self) -> usize {
        self.counts.len()
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

    /// Remove `weight` units of activity previously added at `t`
    /// (floors at zero; supports document removal).
    pub fn remove(&mut self, t: Timestamp, weight: f32) {
        let b = self.bucket_of(t);
        if self.counts.is_empty() || b < self.origin {
            return;
        }
        let i = (b - self.origin) as usize;
        if i < self.counts.len() {
            self.counts[i] = (self.counts[i] - weight).max(0.0);
        }
    }

    /// Merge another signature (same bucket width) into this one.
    ///
    /// # Panics
    /// Panics on bucket-width mismatch.
    pub fn merge(&mut self, other: &TemporalSignature) {
        assert_eq!(self.bucket_width, other.bucket_width, "bucket width mismatch");
        for (i, &c) in other.counts.iter().enumerate() {
            if c > 0.0 {
                let t = Timestamp::from_secs((other.origin + i as i64) * other.bucket_width);
                self.add(t, c);
            }
        }
    }

    /// Heap bytes of the bucket array (the memory account).
    pub fn heap_bytes(&self) -> usize {
        self.counts.capacity() * std::mem::size_of::<f32>()
    }

    /// Activity in the bucket containing `t`.
    pub fn activity_at(&self, t: Timestamp) -> f32 {
        let b = self.bucket_of(t);
        if b < self.origin {
            return 0.0;
        }
        let i = (b - self.origin) as usize;
        self.counts.get(i).copied().unwrap_or(0.0)
    }

    /// Cosine similarity of the two activity curves when `other` is
    /// shifted by `shift` buckets.
    fn shifted_cosine(&self, other: &TemporalSignature, shift: i64) -> f64 {
        let (mut dot, mut na, mut nb) = (0f64, 0f64, 0f64);
        for (i, &a) in self.counts.iter().enumerate() {
            na += (a as f64) * (a as f64);
            // Global bucket of a: origin + i. In other (shifted): that
            // bucket corresponds to other index origin + i - other.origin - shift.
            let j = self.origin + i as i64 - other.origin - shift;
            if j >= 0 && (j as usize) < other.counts.len() {
                dot += a as f64 * other.counts[j as usize] as f64;
            }
        }
        for &b in &other.counts {
            nb += (b as f64) * (b as f64);
        }
        let denom = na.sqrt() * nb.sqrt();
        if denom == 0.0 {
            0.0
        } else {
            (dot / denom).clamp(0.0, 1.0)
        }
    }

    /// Lag-tolerant evolution similarity: the best cosine over shifts of
    /// `other` by up to ±`max_lag_buckets`, linearly discounted by the
    /// shift magnitude so that perfectly synchronous evolution scores
    /// highest.
    pub fn evolution_similarity(&self, other: &TemporalSignature, max_lag_buckets: i64) -> f64 {
        assert_eq!(self.bucket_width, other.bucket_width, "bucket width mismatch");
        if self.is_empty() || other.is_empty() {
            return 0.0;
        }
        let mut best = 0.0f64;
        for shift in -max_lag_buckets..=max_lag_buckets {
            let discount = 1.0 - shift.abs() as f64 / (max_lag_buckets as f64 + 1.0);
            let s = self.shifted_cosine(other, shift) * discount;
            if s > best {
                best = s;
            }
        }
        best
    }

    /// Overlapping activity mass when `other` is shifted by `shift`
    /// buckets: `Σᵢ min(aᵢ, b₍ᵢ₋shift₎)`.
    fn shifted_min_mass(&self, other: &TemporalSignature, shift: i64) -> f64 {
        let mut acc = 0f64;
        for (i, &a) in self.counts.iter().enumerate() {
            let j = self.origin + i as i64 - other.origin - shift;
            if j >= 0 && (j as usize) < other.counts.len() {
                acc += a.min(other.counts[j as usize]) as f64;
            }
        }
        acc
    }

    /// Lag-tolerant evolution **containment**: the best over shifts of
    /// `Σ min(a,b) / min(Σa, Σb)`, discounted by shift magnitude.
    ///
    /// Unlike [`TemporalSignature::evolution_similarity`], containment
    /// does not penalize span mismatch: a one-event story whose event
    /// falls inside a long story's active period scores 1.0. Story
    /// alignment uses this as its temporal compatibility gate — a short
    /// story reported by a sparse source must still be able to align
    /// with the full story of a prolific source (paper §2.3), while
    /// temporally disjoint stories still score 0.
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

    #[test]
    fn add_buckets_activity() {
        let mut s = TemporalSignature::new(DAY);
        s.add(ts(10), 1.0);
        s.add(ts(10) + 3600, 1.0); // same day, later hour
        s.add(ts(12), 2.0);
        assert_eq!(s.activity_at(ts(10)), 2.0);
        assert_eq!(s.activity_at(ts(11)), 0.0);
        assert_eq!(s.activity_at(ts(12)), 2.0);
        assert_eq!(s.span(), 3);
        assert_eq!(s.total(), 4.0);
    }

    #[test]
    fn add_grows_backwards() {
        let mut s = TemporalSignature::new(DAY);
        s.add(ts(10), 1.0);
        s.add(ts(5), 1.0);
        assert_eq!(s.span(), 6);
        assert_eq!(s.activity_at(ts(5)), 1.0);
        assert_eq!(s.activity_at(ts(10)), 1.0);
        assert_eq!(s.activity_at(ts(7)), 0.0);
    }

    #[test]
    fn negative_timestamps_bucket_correctly() {
        let mut s = TemporalSignature::new(DAY);
        s.add(Timestamp::from_secs(-1), 1.0); // belongs to day -1
        s.add(ts(0), 1.0);
        assert_eq!(s.activity_at(Timestamp::from_secs(-10)), 1.0);
        assert_eq!(s.activity_at(ts(0)), 1.0);
        assert_eq!(s.span(), 2);
    }

    #[test]
    fn identical_evolution_scores_one() {
        let mut a = TemporalSignature::new(DAY);
        let mut b = TemporalSignature::new(DAY);
        for d in [0, 1, 2, 5, 9] {
            a.add(ts(d), 1.0);
            b.add(ts(d), 1.0);
        }
        assert!((a.evolution_similarity(&b, 2) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn disjoint_evolution_scores_zero() {
        let mut a = TemporalSignature::new(DAY);
        let mut b = TemporalSignature::new(DAY);
        a.add(ts(0), 1.0);
        b.add(ts(100), 1.0);
        assert_eq!(a.evolution_similarity(&b, 3), 0.0);
    }

    #[test]
    fn lag_tolerance_recovers_shifted_story() {
        // b reports the same activity curve one day late.
        let mut a = TemporalSignature::new(DAY);
        let mut b = TemporalSignature::new(DAY);
        for d in [0, 1, 3, 4] {
            a.add(ts(d), 1.0);
            b.add(ts(d + 1), 1.0);
        }
        let strict = a.evolution_similarity(&b, 0);
        let tolerant = a.evolution_similarity(&b, 2);
        assert!(tolerant > strict, "lag tolerance must help: {tolerant} vs {strict}");
        assert!(tolerant > 0.5);
    }

    #[test]
    fn closer_lag_scores_higher_via_discount() {
        let mut a = TemporalSignature::new(DAY);
        a.add(ts(0), 1.0);
        let mut near = TemporalSignature::new(DAY);
        near.add(ts(1), 1.0);
        let mut far = TemporalSignature::new(DAY);
        far.add(ts(3), 1.0);
        let s_near = a.evolution_similarity(&near, 3);
        let s_far = a.evolution_similarity(&far, 3);
        assert!(s_near > s_far, "{s_near} vs {s_far}");
    }

    #[test]
    fn merge_combines_curves() {
        let mut a = TemporalSignature::new(DAY);
        a.add(ts(0), 1.0);
        let mut b = TemporalSignature::new(DAY);
        b.add(ts(0), 2.0);
        b.add(ts(5), 1.0);
        a.merge(&b);
        assert_eq!(a.activity_at(ts(0)), 3.0);
        assert_eq!(a.activity_at(ts(5)), 1.0);
        assert_eq!(a.total(), 4.0);
    }

    #[test]
    fn remove_floors_at_zero() {
        let mut a = TemporalSignature::new(DAY);
        a.add(ts(1), 1.0);
        a.remove(ts(1), 5.0);
        assert_eq!(a.activity_at(ts(1)), 0.0);
        a.remove(ts(99), 1.0); // out of range: no-op
        a.remove(ts(-5), 1.0);
    }

    #[test]
    fn empty_signatures_score_zero() {
        let a = TemporalSignature::new(DAY);
        let mut b = TemporalSignature::new(DAY);
        b.add(ts(0), 1.0);
        assert_eq!(a.evolution_similarity(&b, 2), 0.0);
        assert_eq!(b.evolution_similarity(&a, 2), 0.0);
    }

    #[test]
    #[should_panic(expected = "bucket width mismatch")]
    fn mismatched_widths_panic() {
        let a = TemporalSignature::new(DAY);
        let b = TemporalSignature::new(3600);
        a.evolution_similarity(&b, 1);
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
        // Cosine, by contrast, punishes the span mismatch.
        assert!(long.evolution_similarity(&short, 0) < 0.5);
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
}
