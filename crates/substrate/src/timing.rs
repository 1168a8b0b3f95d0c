//! A latency histogram — and nothing else.
//!
//! [`Histogram`] is a fixed-size log-bucketed recorder; it backs the
//! metrics registry's histogram families and the serving layer's
//! p50/p95/p99 reporting. There is deliberately no micro-benchmark
//! timer here: end-to-end and per-layer clocks are `benchmark/`'s job
//! (`BENCHMARK.json`), and the experiment harness gates on counts.

/// Sub-bucket resolution bits: 16 sub-buckets per power of two, i.e.
/// recorded values are resolved to within ~6%.
const HIST_SUB_BITS: u32 = 4;
const HIST_LINEAR_MAX: u64 = 1 << (HIST_SUB_BITS + 1); // 0..32 exact
const HIST_BUCKETS: usize =
    HIST_LINEAR_MAX as usize + ((64 - HIST_SUB_BITS as usize) << HIST_SUB_BITS);

/// A fixed-size log-bucketed histogram for latency recording on hot
/// paths: [`Histogram::record`] is a couple of shifts plus one counter
/// increment, memory is constant (~8 KiB), and percentile queries walk
/// the buckets. Values are dimensionless `u64`s; the serving layer
/// records nanoseconds.
///
/// Values below 32 land in exact buckets; larger values are resolved to
/// 16 sub-buckets per power of two (≲6% relative error), the same
/// trade-off HdrHistogram makes at low precision.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("mean", &self.mean())
            .field("p50", &self.percentile(0.50))
            .field("p99", &self.percentile(0.99))
            .field("max", &self.max)
            .finish()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

fn hist_bucket(v: u64) -> usize {
    if v < HIST_LINEAR_MAX {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let shift = msb - HIST_SUB_BITS;
    let sub = ((v >> shift) & ((1 << HIST_SUB_BITS) - 1)) as usize;
    HIST_LINEAR_MAX as usize + ((((msb - HIST_SUB_BITS) as usize) << HIST_SUB_BITS) | sub)
}

/// Lower edge of a bucket (inverse of [`hist_bucket`]).
fn hist_bucket_low(idx: usize) -> u64 {
    if idx < HIST_LINEAR_MAX as usize {
        return idx as u64;
    }
    let rel = idx - HIST_LINEAR_MAX as usize;
    let msb = (rel >> HIST_SUB_BITS) as u32 + HIST_SUB_BITS;
    let sub = (rel & ((1 << HIST_SUB_BITS) - 1)) as u64;
    let shift = msb - HIST_SUB_BITS;
    ((1 << HIST_SUB_BITS) | sub) << shift
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Record one observation.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[hist_bucket(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the recorded observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest recorded observation (exact, not bucketed).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The value at quantile `q` in `[0, 1]` (bucket lower edge; 0 when
    /// empty). `q = 0.5` is the median, `q = 0.99` the p99.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return hist_bucket_low(idx).min(self.max);
            }
        }
        self.max
    }

    /// Fold another histogram into this one (for per-thread recorders).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod hist_tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_monotone() {
        let mut prev = 0usize;
        for v in [0u64, 1, 15, 31, 32, 33, 63, 64, 1000, 1 << 20, u64::MAX] {
            let b = hist_bucket(v);
            assert!(b >= prev, "bucket({v}) = {b} < {prev}");
            assert!(b < HIST_BUCKETS);
            assert!(hist_bucket_low(b) <= v, "low edge of {b} above {v}");
            prev = b;
        }
        // Every small value is exact.
        for v in 0..HIST_LINEAR_MAX {
            assert_eq!(hist_bucket_low(hist_bucket(v)), v);
        }
    }

    #[test]
    fn percentiles_order_and_bound_error() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 10_000);
        let p50 = h.percentile(0.50);
        let p95 = h.percentile(0.95);
        let p99 = h.percentile(0.99);
        assert!(p50 <= p95 && p95 <= p99 && p99 <= h.max());
        // ≲6.25% relative bucket error plus the lower-edge convention.
        assert!((4400..=5000).contains(&p50), "p50 {p50}");
        assert!((8800..=9500).contains(&p95), "p95 {p95}");
    }

    #[test]
    fn merge_equals_combined_stream() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut c = Histogram::new();
        for v in 0..1000u64 {
            let h = if v % 2 == 0 { &mut a } else { &mut b };
            h.record(v * 17 % 4096);
            c.record(v * 17 % 4096);
        }
        a.merge(&b);
        assert_eq!(a.count(), c.count());
        assert_eq!(a.max(), c.max());
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(a.percentile(q), c.percentile(q));
        }
    }

    /// Satellite check for the serving layer's merged cross-shard
    /// percentiles: merging K randomized per-shard histograms must
    /// agree *exactly* with one histogram fed the combined stream —
    /// merge is a bucket-wise add, so quantiles, count, sum and max
    /// cannot drift, whatever the shard split or value distribution.
    #[test]
    fn merge_preserves_quantiles_for_random_shard_splits() {
        use crate::prop;
        use crate::rng::RngExt;
        prop::run(48, |rng| {
            let shards = rng.random_range(1..=6usize);
            let mut parts: Vec<Histogram> = (0..shards).map(|_| Histogram::new()).collect();
            let mut combined = Histogram::new();
            let n = rng.random_range(1..=800usize);
            for _ in 0..n {
                // Mixed magnitudes: exact linear range, mid buckets,
                // and huge values that stress the log buckets.
                let v = match rng.random_range(0..4u32) {
                    0 => rng.random_range(0..32u64),
                    1 => rng.random_range(0..10_000u64),
                    2 => rng.random_range(0..u32::MAX as u64),
                    _ => rng.random::<u64>() >> rng.random_range(0..16u32),
                };
                parts[rng.random_range(0..shards)].record(v);
                combined.record(v);
            }
            let mut merged = Histogram::new();
            for p in &parts {
                merged.merge(p);
            }
            assert_eq!(merged.count(), combined.count());
            assert_eq!(merged.max(), combined.max());
            assert_eq!(merged.mean(), combined.mean());
            for q in [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
                assert_eq!(
                    merged.percentile(q),
                    combined.percentile(q),
                    "quantile {q} drifted across a {shards}-way merge of {n} values"
                );
            }
        });
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.max(), 0);
    }
}
