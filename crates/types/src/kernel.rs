//! Flat similarity kernels over contiguous `(key, weight)` slices.
//!
//! These are the hot-path primitives behind [`crate::SparseVec`]'s
//! similarity methods. They operate directly on the sorted entry slices
//! so callers that already hold raw slices (the identification scoring
//! loop, the alignment counterpart scan) can skip the wrapper entirely,
//! and so one probe can be scored against N candidates without
//! re-deriving anything probe-side per candidate ([`cosine_batch`]).
//!
//! The merge loops are branch-light: cursor advancement is computed
//! arithmetically from the key comparison instead of a three-way
//! `match`, which the optimizer turns into conditional moves. Each
//! kernel accumulates its `f64` sums in exactly the same term order as
//! the historical `SparseVec` implementations, so results are
//! bit-identical to the pre-kernel code — the cache-equivalence
//! guarantees in `storypivot-core` rely on that.
//!
//! One probe scored against many candidates need not merge at all: a
//! [`ProbeTable`] holds the probe's entries for lookup, and
//! [`dot_table`] / [`cosine_table`] walk the candidate alone, to the
//! same bits as [`dot`] / [`cosine`]. It also holds the probe's weight
//! and squared weight per signature bit, from which [`BoundProbe::bounds`]
//! bounds the weighted Jaccard and the cosine against any vector by its
//! signature alone.

use std::fmt::Debug;

/// Euclidean (L2) norm of an entry slice.
///
/// This is the *defining* computation for [`crate::SparseVec`]'s cached
/// norm: every mutation recomputes the cache with this exact function,
/// so equal entry lists always carry bit-equal norms.
#[inline]
pub fn norm<K>(entries: &[(K, f32)]) -> f64 {
    if entries.is_empty() {
        // The empty sum is `-0.0` (f64's Sum identity) and `sqrt(-0.0)`
        // is `-0.0`; canonicalize to `+0.0` so empty vectors always
        // carry bit-equal norms no matter how they were produced.
        return 0.0;
    }
    entries
        .iter()
        .map(|&(_, w)| (w as f64) * (w as f64))
        .sum::<f64>()
        .sqrt()
}

/// The multiplicative (Fibonacci) hash of a key's `u32` form. The
/// multiplier is odd, so the hash is a bijection on `u32`: two keys
/// share a hash iff they are equal.
#[inline]
pub fn key_hash<K: Into<u32>>(key: K) -> u32 {
    key.into().wrapping_mul(0x9E37_79B1)
}

/// The signature bit of one key: the top six bits of its
/// [`key_hash`], picking one of 64 positions.
#[inline]
pub fn key_bit<K: Into<u32>>(key: K) -> u64 {
    1 << (key_hash(key) >> 26)
}

/// Key signature of an entry slice: the OR of [`key_bit`] over its keys.
///
/// This is the *defining* computation for [`crate::SparseVec`]'s cached
/// signature, as [`norm`] is for its cached norm. A pure function of the
/// key set: two slices whose signatures share no bit share no key (the
/// converse does not hold — distinct keys may share a bit).
#[inline]
pub fn sig<K: Copy + Into<u32>>(entries: &[(K, f32)]) -> u64 {
    entries.iter().fold(0, |acc, &(k, _)| acc | key_bit(k))
}

/// Dot product of two sorted entry slices (linear merge).
#[inline]
pub fn dot<K: Copy + Ord>(a: &[(K, f32)], b: &[(K, f32)]) -> f64 {
    let (mut i, mut j, mut acc) = (0usize, 0usize, 0f64);
    while i < a.len() && j < b.len() {
        let (ka, wa) = a[i];
        let (kb, wb) = b[j];
        if ka == kb {
            acc += wa as f64 * wb as f64;
        }
        i += (ka <= kb) as usize;
        j += (kb <= ka) as usize;
    }
    acc
}

/// Cosine similarity in `[0,1]` given precomputed norms; 0 when either
/// norm is 0 — also against an overflowed (infinite) norm, where the
/// product is NaN rather than 0.
#[inline]
pub fn cosine<K: Copy + Ord>(a: &[(K, f32)], norm_a: f64, b: &[(K, f32)], norm_b: f64) -> f64 {
    let denom = norm_a * norm_b;
    if denom > 0.0 {
        (dot(a, b) / denom).clamp(0.0, 1.0)
    } else {
        0.0
    }
}

/// Set Jaccard over the key sets, ignoring weights. Both empty ⇒ 0.
#[inline]
pub fn jaccard<K: Copy + Ord>(a: &[(K, f32)], b: &[(K, f32)]) -> f64 {
    let (mut i, mut j, mut inter) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        let ka = a[i].0;
        let kb = b[j].0;
        inter += (ka == kb) as usize;
        i += (ka <= kb) as usize;
        j += (kb <= ka) as usize;
    }
    let union = a.len() + b.len() - inter;
    if union == 0 {
        0.0
    } else {
        inter as f64 / union as f64
    }
}

/// Weighted Jaccard: `Σ min(a,b) / Σ max(a,b)`. Both empty ⇒ 0.
#[inline]
pub fn weighted_jaccard<K: Copy + Ord>(a: &[(K, f32)], b: &[(K, f32)]) -> f64 {
    let (mut i, mut j) = (0usize, 0usize);
    let (mut num, mut den) = (0f64, 0f64);
    while i < a.len() && j < b.len() {
        let (ka, wa) = a[i];
        let (kb, wb) = b[j];
        let le = ka <= kb;
        let ge = kb <= ka;
        if le && ge {
            num += wa.min(wb) as f64;
            den += wa.max(wb) as f64;
        } else if le {
            den += wa as f64;
        } else {
            den += wb as f64;
        }
        i += le as usize;
        j += ge as usize;
    }
    den += a[i..].iter().map(|&(_, w)| w as f64).sum::<f64>();
    den += b[j..].iter().map(|&(_, w)| w as f64).sum::<f64>();
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

// ---- probe tables -----------------------------------------------------------

/// Fewest slots a [`ProbeTable`] holds once it has been bound.
const MIN_SLOTS: usize = 16;

/// Most slots a [`ProbeTable`] grows to. A probe that does not fit
/// under it — more than a quarter as many keys, or keys that still
/// share a slot at this size — is scored through the merge.
pub const MAX_SLOTS: usize = 4096;

/// What vacant slot `i` holds when a hash's slot is `hash >> shift`: a
/// hash whose top bits are the complement of `i`, so it names another
/// slot and no key — `u32::MAX` included — can match it.
#[inline]
fn vacant(i: usize, shift: u32) -> (u32, f32) {
    (!((i as u32) << shift), 0.0)
}

/// A caller-owned lookup table of one probe vector's entries, for
/// scoring that probe against many candidates by walking each candidate
/// alone instead of merging the two lists ([`ProbeTable::bind`],
/// [`dot_table`], [`cosine_table`]), and for bounding those scores from
/// a signature ([`BoundProbe::cosine_bound`]).
///
/// **Layout.** A direct-mapped power-of-two array of `(key hash, probe
/// weight)` slots, a key's slot being the top bits of its [`key_hash`]
/// (the hash [`key_bit`] takes its six bits from). A bind sizes the table
/// at ≥ 4 slots per probe key, at least 16, and doubles it until the
/// probe's keys sit in distinct slots; it never shrinks, so after a few
/// probes binds stop growing it. Past [`MAX_SLOTS`] the bind gives up
/// and the scoring functions merge instead. A lookup is one load, one
/// compare and one select. Memory is at most 8 B × [`MAX_SLOTS`] = 32
/// KiB per table, whatever the key values: keys are client-chosen ids,
/// so nothing is indexed by a raw key.
///
/// **Exactness.** [`dot`] adds `wa · wb` for each shared key in
/// ascending key order, and nothing else, to an accumulator that starts
/// at `+0.0`. [`dot_table`] walks the other side's entries in ascending
/// order and adds the product where the slot holds that key's hash and
/// `+0.0` where it does not: the same nonzero terms in the same order,
/// with the same operand order in each product. Adding `+0.0` leaves
/// the accumulator's bits unchanged, because it starts at `+0.0` and
/// never becomes `−0.0` (weights are positive). The *product* is
/// selected, not the weight: a miss against an infinite weight would
/// otherwise add `0 · ∞ = NaN`. [`cosine_table`] then divides by
/// `norm_probe · norm_other` under [`cosine`]'s `denom > 0.0` rule, so
/// the two cosines agree to the bit. Weighted Jaccard has no table
/// form: its denominator sums both sides' unmatched weights, interleaved
/// with the matches and then the two tails separately, which no walk of
/// one side reproduces.
///
/// **The bound.** Beside the slots, a bind records the probe's squared
/// weight per signature bit (`mass`, 64 `f64`, refilled by every bind
/// whether or not the entries fit the slots). Every key two vectors share
/// sets its [`key_bit`] in both signatures, so the mass on `sig(p) &
/// sig(c)` is at least `‖p_S‖²`, the probe's squared weight on the shared
/// keys `S`, however many other keys collide on those bits. By
/// Cauchy–Schwarz `dot(p, c) ≤ ‖p_S‖ · ‖c‖`, so `cosine(p, c) ≤ ‖p_S‖ /
/// ‖p‖` ([`BoundProbe::cosine_bound`]) — for every `c` with that
/// signature, whatever its weights.
///
/// The bind also records the probe's weight per signature bit (`l1`) and
/// its weight sum `Σ w_p`. [`weighted_jaccard`]'s numerator, `Σ min` over
/// the shared keys, is at most the probe's weight on them, hence at most
/// the `l1` on `sig(p) & sig(c)`; its denominator, `Σ max` over the key
/// union, is at least `Σ w_p`. So `weighted_jaccard(p, c) ≤ Σ l1[b] over
/// sig(p) & sig(c) / Σ w_p` ([`BoundProbe::bounds`]). Both sums are of
/// non-negative terms (`SparseVec` keeps only positive weights), so a
/// bound over a signature also holds for every vector whose signature is
/// a subset of it.
#[derive(Debug, Clone)]
pub struct ProbeTable {
    /// Slot `i` holds a probe entry iff its hash's top bits are `i`,
    /// and [`vacant`]'s marker otherwise.
    slots: Vec<(u32, f32)>,
    /// `32 − log2(slots.len())`: a hash's slot is `hash >> shift`.
    shift: u32,
    /// `mass[b]`: the bound probe's `Σ w²` over its keys on signature
    /// bit `b`.
    mass: [f64; 64],
    /// `l1[b]`: the bound probe's `Σ w` over its keys on signature bit `b`.
    l1: [f64; 64],
}

impl Default for ProbeTable {
    fn default() -> Self {
        ProbeTable {
            slots: Vec::new(),
            shift: 0,
            mass: [0.0; 64],
            l1: [0.0; 64],
        }
    }
}

impl ProbeTable {
    /// Enter `probe`'s entries (sorted, distinct keys) into the table
    /// and return the guard that scores against them and vacates their
    /// slots when dropped.
    pub fn bind<'t, K: Copy + Into<u32>>(&'t mut self, probe: &'t [(K, f32)]) -> BoundProbe<'t, K> {
        self.mass = [0.0; 64];
        self.l1 = [0.0; 64];
        let mut weight = 0f64;
        for &(k, w) in probe {
            let b = (key_hash(k) >> 26) as usize;
            self.mass[b] += w as f64 * w as f64;
            self.l1[b] += w as f64;
            weight += w as f64;
        }
        let in_table = self.fill(probe);
        BoundProbe {
            table: self,
            probe,
            sig: sig(probe),
            norm: norm(probe),
            weight,
            in_table,
        }
    }

    /// Place every entry of `probe`, doubling the table until no two
    /// share a slot. `false`, with the table left vacant, when that
    /// would take more than [`MAX_SLOTS`].
    fn fill<K: Copy + Into<u32>>(&mut self, probe: &[(K, f32)]) -> bool {
        let wanted = (4 * probe.len()).max(MIN_SLOTS).next_power_of_two();
        if wanted > MAX_SLOTS {
            return false;
        }
        if self.slots.len() < wanted {
            self.grow_to(wanted);
        }
        loop {
            let placed = self.place(probe);
            if placed == probe.len() {
                return true;
            }
            self.vacate(&probe[..placed]);
            if self.slots.len() == MAX_SLOTS {
                return false;
            }
            self.grow_to(2 * self.slots.len());
        }
    }

    /// Place `probe`'s entries in order up to the first whose slot is
    /// taken; returns how many were placed.
    fn place<K: Copy + Into<u32>>(&mut self, probe: &[(K, f32)]) -> usize {
        for (placed, &(k, w)) in probe.iter().enumerate() {
            let h = key_hash(k);
            let slot = &mut self.slots[(h >> self.shift) as usize];
            if slot.0 >> self.shift == h >> self.shift {
                return placed;
            }
            *slot = (h, w);
        }
        probe.len()
    }

    /// Mark the slots of `entries` — all placed — vacant again.
    fn vacate<K: Copy + Into<u32>>(&mut self, entries: &[(K, f32)]) {
        for &(k, _) in entries {
            let i = (key_hash(k) >> self.shift) as usize;
            self.slots[i] = vacant(i, self.shift);
        }
    }

    /// Resize a vacant table to `slots` (a power of two) vacant slots.
    fn grow_to(&mut self, slots: usize) {
        let shift = 32 - slots.trailing_zeros();
        self.shift = shift;
        self.slots.clear();
        self.slots.extend((0..slots).map(|i| vacant(i, shift)));
    }

    /// Number of slots (0 before the first bind).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Whether every slot is vacant — true between binds.
    pub fn is_vacant(&self) -> bool {
        let shift = self.shift;
        self.slots
            .iter()
            .enumerate()
            .all(|(i, s)| s.0 == vacant(i, shift).0)
    }

    /// Heap bytes of the slots (the memory account).
    pub fn heap_bytes(&self) -> usize {
        crate::mem::vec_bytes(&self.slots)
    }
}

/// One probe bound into a [`ProbeTable`] ([`ProbeTable::bind`]).
/// Dropping it vacates the probe's slots.
#[derive(Debug)]
pub struct BoundProbe<'t, K: Copy + Into<u32>> {
    table: &'t mut ProbeTable,
    probe: &'t [(K, f32)],
    /// The probe's [`sig`] and [`norm`] (what `SparseVec` caches).
    sig: u64,
    norm: f64,
    /// The probe's weight sum `Σ w`.
    weight: f64,
    /// Whether the entries are in the table; if not, scoring merges.
    in_table: bool,
}

impl<'t, K: Copy + Into<u32>> BoundProbe<'t, K> {
    /// The bound probe's entries.
    pub(crate) fn entries(&self) -> &'t [(K, f32)] {
        self.probe
    }

    /// Whether the probe fit in the table (`false`: its scores come
    /// from the merge).
    pub fn in_table(&self) -> bool {
        self.in_table
    }

    /// An upper bound on the probe's [`cosine`] against any vector whose
    /// key signature is `sig`: `sqrt(Σ mass[b] over b ∈ sig(p) & sig) /
    /// ‖p‖` ([`ProbeTable`] has the argument). It holds up to rounding,
    /// so a caller compares it with a slack. An empty probe gives NaN
    /// (`0 / 0`), and an infinite probe weight a bound over an overflowed
    /// norm: trust it only when it is finite and the probe's norm is
    /// finite and positive.
    #[inline]
    pub fn cosine_bound(&self, sig: u64) -> f64 {
        self.bounds(sig).0
    }

    /// [`BoundProbe::cosine_bound`] and an upper bound on the probe's
    /// [`weighted_jaccard`] against any vector whose key signature is
    /// `sig` — `Σ l1[b] over b ∈ sig(p) & sig / Σ w_p` ([`ProbeTable`]
    /// has the argument) — from one walk of the shared bits. The same
    /// caveats: compare with a slack, and trust the Jaccard bound only
    /// when it is finite (an empty probe gives `0 / 0`, an infinite
    /// weight on a shared bit `∞ / ∞`).
    #[inline]
    pub fn bounds(&self, sig: u64) -> (f64, f64) {
        let mut shared = self.sig & sig;
        let (mut mass, mut l1) = (0f64, 0f64);
        while shared != 0 {
            let b = shared.trailing_zeros() as usize;
            mass += self.table.mass[b];
            l1 += self.table.l1[b];
            shared &= shared - 1;
        }
        (mass.sqrt() / self.norm, l1 / self.weight)
    }
}

impl<K: Copy + Into<u32>> Drop for BoundProbe<'_, K> {
    fn drop(&mut self) {
        if self.in_table {
            self.table.vacate(self.probe);
        }
    }
}

/// [`dot`] of the bound probe and `other`, by one lookup per entry of
/// `other` — bit-identical to `dot(probe, other)` ([`ProbeTable`]).
#[inline]
pub fn dot_table<K: Copy + Ord + Into<u32>>(probe: &BoundProbe<'_, K>, other: &[(K, f32)]) -> f64 {
    if !probe.in_table {
        return dot(probe.probe, other);
    }
    let (slots, shift) = (&probe.table.slots[..], probe.table.shift);
    let mut acc = 0f64;
    for &(k, wb) in other {
        let h = key_hash(k);
        let (held, wa) = slots[(h >> shift) as usize];
        // The product or +0.0, never `0.0 · wb`: `wb` may be infinite.
        acc += if held == h {
            wa as f64 * wb as f64
        } else {
            0.0
        };
    }
    acc
}

/// [`cosine`] of the bound probe (norm `norm_probe`) and `other`,
/// through [`dot_table`] — bit-identical to `cosine(probe, norm_probe,
/// other, norm_other)`.
#[inline]
pub fn cosine_table<K: Copy + Ord + Into<u32>>(
    probe: &BoundProbe<'_, K>,
    norm_probe: f64,
    other: &[(K, f32)],
    norm_other: f64,
) -> f64 {
    let denom = norm_probe * norm_other;
    if denom > 0.0 {
        (dot_table(probe, other) / denom).clamp(0.0, 1.0)
    } else {
        0.0
    }
}

/// Batch entry point: cosine of one probe against N candidate slices.
///
/// The probe-side norm and empty check are hoisted out of the loop;
/// scores are appended to `out` in candidate order (one per candidate,
/// including zeros). `out` is cleared first so callers can reuse one
/// scratch buffer across probes.
///
/// Nothing in the engine calls this any more: identification scores
/// each story fold through [`crate::SparseVec::cosine_table`], which can
/// skip provably disjoint pairs, and slices carry no signature. It stays for
/// the repository benchmark's kernel micro-loop
/// (`types.kernel.cosine_batch_ns_per_nnz`), which times the unguarded
/// merge.
pub fn cosine_batch<'a, K, I>(probe: &[(K, f32)], probe_norm: f64, candidates: I, out: &mut Vec<f64>)
where
    K: Copy + Ord + Debug + 'a,
    I: IntoIterator<Item = (&'a [(K, f32)], f64)>,
{
    out.clear();
    if probe_norm == 0.0 {
        out.extend(candidates.into_iter().map(|_| 0.0));
        return;
    }
    for (cand, cand_norm) in candidates {
        out.push(cosine(probe, probe_norm, cand, cand_norm));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(pairs: &[(u32, f32)]) -> Vec<(u32, f32)> {
        pairs.to_vec()
    }

    #[test]
    fn dot_matches_dense() {
        let a = e(&[(1, 1.0), (2, 2.0), (5, 3.0)]);
        let b = e(&[(2, 4.0), (5, 1.0), (9, 7.0)]);
        assert!((dot(&a, &b) - 11.0).abs() < 1e-12);
        assert_eq!(dot(&a, &[]), 0.0);
    }

    #[test]
    fn norm_is_l2() {
        let a = e(&[(1, 3.0), (2, 4.0)]);
        assert!((norm(&a) - 5.0).abs() < 1e-12);
        assert_eq!(norm::<u32>(&[]).to_bits(), 0.0f64.to_bits(), "must be +0.0");
    }

    #[test]
    fn cosine_identity_orthogonal_empty() {
        let a = e(&[(1, 3.0), (2, 4.0)]);
        let na = norm(&a);
        assert!((cosine(&a, na, &a, na) - 1.0).abs() < 1e-12);
        let b = e(&[(7, 1.0)]);
        assert_eq!(cosine(&a, na, &b, norm(&b)), 0.0);
        assert_eq!(cosine(&a, na, &[], 0.0), 0.0);
    }

    #[test]
    fn jaccard_counts_keys() {
        let a = e(&[(1, 10.0), (2, 1.0)]);
        let b = e(&[(2, 99.0), (3, 1.0)]);
        assert!((jaccard(&a, &b) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(jaccard::<u32>(&[], &[]), 0.0);
    }

    #[test]
    fn weighted_jaccard_known_value() {
        let a = e(&[(1, 2.0), (2, 1.0)]);
        let b = e(&[(1, 1.0), (3, 1.0)]);
        assert!((weighted_jaccard(&a, &b) - 0.25).abs() < 1e-12);
        assert_eq!(weighted_jaccard::<u32>(&[], &[]), 0.0);
    }

    #[test]
    fn batch_scores_every_candidate_in_order() {
        let probe = e(&[(1, 1.0), (2, 1.0)]);
        let pn = norm(&probe);
        let c1 = e(&[(1, 1.0), (2, 1.0)]);
        let c2 = e(&[(9, 1.0)]);
        let mut out = vec![99.0];
        cosine_batch(
            &probe,
            pn,
            [(c1.as_slice(), norm(&c1)), (c2.as_slice(), norm(&c2))],
            &mut out,
        );
        assert_eq!(out.len(), 2);
        assert!((out[0] - 1.0).abs() < 1e-12);
        assert_eq!(out[1], 0.0);
    }

    #[test]
    fn batch_with_empty_probe_is_all_zero() {
        let c = e(&[(1, 1.0)]);
        let mut out = Vec::new();
        cosine_batch(&[], 0.0, [(c.as_slice(), norm(&c))], &mut out);
        assert_eq!(out, vec![0.0]);
    }
}
