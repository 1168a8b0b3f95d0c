//! Order statistics, best-pass selection and the FNV-1a hash used to
//! fingerprint op streams and partitions.

/// The `q`-quantile (0 < q ≤ 1) of `samples` by the nearest-rank rule:
/// the smallest sample with at least `q·n` samples at or below it.
/// Returns 0 for an empty slice.
pub fn percentile(samples: &[u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a list of floats (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<u64>() as f64 / samples.len() as f64
}

/// Index of the fastest pass: the smallest wall time, first one on a tie.
pub fn best_pass(walls_ns: &[u64]) -> usize {
    walls_ns
        .iter()
        .enumerate()
        .min_by_key(|&(i, &w)| (w, i))
        .map_or(0, |(i, _)| i)
}

/// How disturbed a run was: (median − best) ÷ best pass wall.
pub fn pass_spread_ratio(walls_ns: &[u64]) -> f64 {
    let best = walls_ns[best_pass(walls_ns)] as f64;
    let walls: Vec<f64> = walls_ns.iter().map(|&w| w as f64).collect();
    (median(&walls) - best) / best
}

/// Streaming FNV-1a (64 bit).
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Fold one integer in (little endian).
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The hash so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 0.50), 50);
        assert_eq!(percentile(&s, 0.99), 99);
        assert_eq!(percentile(&s, 1.0), 100);
        assert_eq!(percentile(&[7], 0.5), 7);
        assert_eq!(percentile(&[9, 1, 5], 0.5), 5);
        assert_eq!(percentile(&[9, 1, 5, 3], 0.5), 3);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[1, 2, 3, 6]), 3.0);
    }

    #[test]
    fn best_pass_is_smallest_wall_first_on_tie() {
        assert_eq!(best_pass(&[30, 10, 20]), 1);
        assert_eq!(best_pass(&[10, 10, 5, 5]), 2);
        assert_eq!(best_pass(&[42]), 0);
        assert!((pass_spread_ratio(&[100, 110, 130]) - 0.10).abs() < 1e-12);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        let mut h = Fnv::default();
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::default();
        h.bytes(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }
}
