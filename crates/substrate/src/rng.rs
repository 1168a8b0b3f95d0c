//! Deterministic pseudo-random numbers.
//!
//! [`StdRng`] is a xoshiro256\*\* generator seeded through SplitMix64,
//! the construction recommended by the xoshiro authors: a single `u64`
//! seed expands into a well-mixed 256-bit state, and distinct seeds give
//! statistically independent streams. It is *not* cryptographically
//! secure — it exists so corpora, property tests, and experiments are
//! exactly reproducible from a printed seed.
//!
//! The surface mirrors the parts of `rand` the workspace used:
//! [`RngExt::random`], [`RngExt::random_range`], [`RngExt::random_bool`],
//! and [`SliceRandom::shuffle`], plus the heavy-tailed [`Zipf`] sampler.

use std::ops::{Range, RangeInclusive};

/// One step of the SplitMix64 sequence: advances `state` and returns the
/// next output. Used for seeding and for deriving per-case seeds in the
/// property harness.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A source of uniformly distributed `u64`s.
pub trait RngCore {
    /// The next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;
}

/// The substrate's standard generator: xoshiro256\*\* with SplitMix64
/// seeding. Named `StdRng` so call sites read the same as they did under
/// `rand`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StdRng {
    s: [u64; 4],
}

impl StdRng {
    /// Deterministically seed from a single `u64`.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        StdRng { s }
    }
}

impl RngCore for StdRng {
    fn next_u64(&mut self) -> u64 {
        // xoshiro256** by Blackman & Vigna (public domain reference).
        let result = self.s[1]
            .wrapping_mul(5)
            .rotate_left(7)
            .wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

/// Uniform draw in `[0, n)` without modulo bias (Lemire's multiply-shift
/// with rejection).
fn uniform_u64<R: RngCore + ?Sized>(rng: &mut R, n: u64) -> u64 {
    debug_assert!(n > 0);
    loop {
        let x = rng.next_u64();
        let m = (x as u128) * (n as u128);
        let lo = m as u64;
        if lo < n {
            let threshold = n.wrapping_neg() % n;
            if lo < threshold {
                continue;
            }
        }
        return (m >> 64) as u64;
    }
}

/// Types drawable uniformly from their "natural" distribution via
/// [`RngExt::random`]: full range for integers, `[0, 1)` for floats,
/// fair coin for `bool`.
pub trait StandardSample: Sized {
    /// Draw one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardSample for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl StandardSample for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl StandardSample for u8 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 56) as u8
    }
}

impl StandardSample for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl StandardSample for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits → [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl StandardSample for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

/// A range that [`RngExt::random_range`] can sample uniformly.
pub trait SampleRange<T> {
    /// Draw one value from the range. Panics when the range is empty.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range in random_range");
                let span = self.end.wrapping_sub(self.start) as u64;
                self.start.wrapping_add(uniform_u64(rng, span) as $t)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range in random_range");
                let span = hi.wrapping_sub(lo) as u64;
                if span == u64::MAX {
                    return lo.wrapping_add(rng.next_u64() as $t);
                }
                lo.wrapping_add(uniform_u64(rng, span + 1) as $t)
            }
        }
    )*};
}

impl_int_range!(u64, usize, u32, u16, u8);

macro_rules! impl_signed_range {
    ($($t:ty => $u:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range in random_range");
                let span = self.end.wrapping_sub(self.start) as $u as u64;
                self.start.wrapping_add(uniform_u64(rng, span) as $t)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range in random_range");
                let span = hi.wrapping_sub(lo) as $u as u64;
                if span == u64::MAX {
                    return lo.wrapping_add(rng.next_u64() as $t);
                }
                lo.wrapping_add(uniform_u64(rng, span + 1) as $t)
            }
        }
    )*};
}

impl_signed_range!(i64 => u64, i32 => u32, isize => usize);

impl SampleRange<f64> for Range<f64> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty range in random_range");
        self.start + f64::sample(rng) * (self.end - self.start)
    }
}

impl SampleRange<f32> for Range<f32> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f32 {
        assert!(self.start < self.end, "empty range in random_range");
        self.start + f32::sample(rng) * (self.end - self.start)
    }
}

/// Convenience draws on top of any [`RngCore`]. The method set matches
/// what the workspace previously used from `rand`.
pub trait RngExt: RngCore {
    /// Draw from the type's natural distribution (see [`StandardSample`]).
    fn random<T: StandardSample>(&mut self) -> T {
        T::sample(self)
    }

    /// Uniform draw from a (half-open or inclusive) range.
    fn random_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    fn random_bool(&mut self, p: f64) -> bool {
        f64::sample(self) < p
    }
}

impl<R: RngCore + ?Sized> RngExt for R {}

/// In-place Fisher–Yates shuffling, as `slice.shuffle(&mut rng)`.
pub trait SliceRandom {
    /// Uniformly permute the slice.
    fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);
}

impl<T> SliceRandom for [T] {
    fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
        for i in (1..self.len()).rev() {
            let j = uniform_u64(rng, i as u64 + 1) as usize;
            self.swap(i, j);
        }
    }
}

/// A Zipf distribution over ranks `0..n` with exponent `s`:
/// `P(k) ∝ 1 / (k+1)^s`. Entity popularity in news follows a
/// heavy-tailed law — a few entities (major countries, leaders) appear
/// in a large share of events. The sampler precomputes the cumulative
/// distribution and draws in `O(log n)` via binary search.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build a sampler over `n` ranks with exponent `s ≥ 0` (0 =
    /// uniform).
    ///
    /// # Panics
    /// Panics when `n == 0` or `s` is negative/non-finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(s >= 0.0 && s.is_finite(), "exponent must be finite and >= 0");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the distribution is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draw one rank.
    pub fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> usize {
        let u = f64::sample(rng);
        match self.cdf.binary_search_by(|c| c.partial_cmp(&u).expect("finite cdf")) {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }

    /// Draw `k` *distinct* ranks (by rejection; `k` must not exceed the
    /// number of ranks).
    pub fn sample_distinct<R: RngCore + ?Sized>(&self, rng: &mut R, k: usize) -> Vec<usize> {
        assert!(k <= self.len(), "cannot draw {k} distinct from {}", self.len());
        let mut out = Vec::with_capacity(k);
        let mut guard = 0usize;
        while out.len() < k {
            let x = self.sample(rng);
            if !out.contains(&x) {
                out.push(x);
            }
            guard += 1;
            if guard > 64 * k + 1024 {
                // Pathological exponents: fall back to filling with the
                // smallest unused ranks to guarantee termination.
                for r in 0..self.len() {
                    if out.len() == k {
                        break;
                    }
                    if !out.contains(&r) {
                        out.push(r);
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_seeds_give_identical_streams() {
        let mut a = StdRng::seed_from_u64(0xFEED);
        let mut b = StdRng::seed_from_u64(0xFEED);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_give_different_streams() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let sa: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let sb: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn known_answer_is_stable_across_runs() {
        // Pins the generator's output so accidental algorithm changes
        // (which would silently invalidate every recorded experiment
        // table) fail loudly.
        let mut rng = StdRng::seed_from_u64(0);
        let got: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_eq!(
            got,
            vec![
                11091344671253066420,
                13793997310169335082,
                1900383378846508768,
                7684712102626143532,
            ]
        );
    }

    #[test]
    fn random_range_stays_in_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..2000 {
            let x: i64 = rng.random_range(-50..50);
            assert!((-50..50).contains(&x));
            let y: usize = rng.random_range(0..7);
            assert!(y < 7);
            let z: i64 = rng.random_range(3..=5);
            assert!((3..=5).contains(&z));
            let f: f64 = rng.random_range(0.25..0.75);
            assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn random_range_covers_every_value() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut seen = [false; 6];
        for _ in 0..1000 {
            seen[rng.random_range(0..6usize)] = true;
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
    }

    #[test]
    fn unit_floats_are_in_range_and_varied() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut sum = 0.0;
        for _ in 0..4000 {
            let f: f64 = rng.random();
            assert!((0.0..1.0).contains(&f));
            sum += f;
        }
        let mean = sum / 4000.0;
        assert!((0.45..0.55).contains(&mean), "mean {mean}");
    }

    #[test]
    fn random_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(6);
        let hits = (0..10_000).filter(|_| rng.random_bool(0.3)).count();
        assert!((2700..3300).contains(&hits), "{hits}");
        assert_eq!((0..100).filter(|_| rng.random_bool(0.0)).count(), 0);
        assert_eq!((0..100).filter(|_| rng.random_bool(1.0)).count(), 100);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut rng);
        assert_ne!(v, (0..50).collect::<Vec<u32>>());
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
    }

    #[test]
    fn zipf_skews_toward_low_ranks() {
        let z = Zipf::new(100, 1.2);
        let mut rng = StdRng::seed_from_u64(9);
        let n = 10_000;
        let head = (0..n).filter(|_| z.sample(&mut rng) < 10).count();
        assert!(head > n / 3, "head got {head} of {n}");
    }

    #[test]
    fn zipf_zero_exponent_is_roughly_uniform() {
        let z = Zipf::new(4, 0.0);
        let mut rng = StdRng::seed_from_u64(10);
        let mut counts = [0u32; 4];
        for _ in 0..8000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!((1600..=2400).contains(&c), "rank {i}: {c}");
        }
    }

    #[test]
    fn zipf_samples_stay_in_range() {
        let z = Zipf::new(10, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            assert!(z.sample(&mut rng) < 10);
        }
    }

    #[test]
    fn zipf_distinct_sampling_has_no_duplicates() {
        let z = Zipf::new(20, 1.0);
        let mut rng = StdRng::seed_from_u64(4);
        let got = z.sample_distinct(&mut rng, 10);
        assert_eq!(got.len(), 10);
        let set: std::collections::HashSet<usize> = got.iter().copied().collect();
        assert_eq!(set.len(), 10);
    }

    #[test]
    fn zipf_distinct_sampling_full_range() {
        let z = Zipf::new(5, 2.0);
        let mut rng = StdRng::seed_from_u64(5);
        let mut got = z.sample_distinct(&mut rng, 5);
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zipf_empty_rejected() {
        Zipf::new(0, 1.0);
    }

    #[test]
    fn zipf_deterministic_under_seed() {
        let z = Zipf::new(50, 1.1);
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        let sa: Vec<usize> = (0..100).map(|_| z.sample(&mut a)).collect();
        let sb: Vec<usize> = (0..100).map(|_| z.sample(&mut b)).collect();
        assert_eq!(sa, sb);
    }
}
