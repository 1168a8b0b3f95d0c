//! Deterministic fault injection for chaos testing.
//!
//! A [`FaultPlan`] is a seeded table of per-site failure rates. Code on
//! the durability, replication and apply paths asks the plan for a
//! [`FaultHook`] at startup (one per site × instance, e.g. per shard)
//! and consults it at each fault point. Every hook owns an independent
//! splitmix64 stream derived from `seed ^ fnv(site) ^ instance`, so a
//! given plan injects *exactly* the same faults at the same operations
//! on every run — chaos tests replay bit-for-bit. The plan is the only
//! switch, in every build profile: a hook is inert unless the plan names
//! its site, so chaos runs exercise the binary that is benchmarked.
//!
//! Plan specs are comma-separated `key=value` pairs; rates are in
//! permille (so CI smoke rates like `wal_enospc=25` read as 2.5%):
//!
//! ```text
//! seed=7,wal_enospc=100,wal_short=50,checkpoint=200,repl_drop=100,poison=1000,sched=300
//! ```

use crate::rng::splitmix64;

/// Every fault site consulted in-tree; [`FaultPlan::parse`] rejects any
/// other key but `seed`, so a misspelled site cannot quietly inject
/// nothing. `wal_enospc`: an append fails before writing. `wal_short`:
/// an append tears mid-record, then repairs to the last whole-record
/// boundary like a crash-and-reopen. `checkpoint`: a generation write
/// fails. `repl_drop`: a follower drops its leader connection mid-tail.
/// `poison`: a shard panics applying an ingest headlined with the
/// serving layer's `POISON_HEADLINE`. `sched`: a thread taking or
/// releasing a shard's owner lock gives up its CPU ([`FaultHook::perturb`]).
pub const SITES: [&str; 6] =
    ["wal_enospc", "wal_short", "checkpoint", "repl_drop", "poison", "sched"];

/// Seeded per-site fault rates. Parsed from a spec string (see the
/// module docs) or built empty via `Default` — an empty plan hands out
/// inert hooks everywhere.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    rates: Vec<(String, u32)>,
}

/// FNV-1a, so each site name perturbs the seed differently.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl FaultPlan {
    /// Parse a plan spec: comma-separated `key=value` pairs where
    /// `seed=N` sets the stream seed and a key from [`SITES`] sets that
    /// site's failure rate in permille (0..=1000).
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec entry {part:?} is not key=value"))?;
            let (key, value) = (key.trim(), value.trim());
            if key == "seed" {
                plan.seed = value
                    .parse()
                    .map_err(|_| format!("fault seed {value:?} is not a u64"))?;
                continue;
            }
            if !SITES.contains(&key) {
                return Err(format!(
                    "unknown fault site {key:?}; the sites are {}",
                    SITES.join(", ")
                ));
            }
            let rate: u32 = value
                .parse()
                .map_err(|_| format!("fault rate {value:?} for {key:?} is not a u32"))?;
            if rate > 1000 {
                return Err(format!("fault rate {rate} for {key:?} exceeds 1000 permille"));
            }
            match plan.rates.iter_mut().find(|(k, _)| k == key) {
                Some(slot) => slot.1 = rate,
                None => plan.rates.push((key.to_string(), rate)),
            }
        }
        Ok(plan)
    }

    /// Read a plan from the `STORYPIVOT_FAULTS` environment variable.
    /// Absent/empty → `None`; a malformed spec panics (a chaos run with
    /// a typo'd plan silently testing nothing is worse than a crash).
    pub fn from_env() -> Option<FaultPlan> {
        let spec = std::env::var("STORYPIVOT_FAULTS").ok()?;
        if spec.trim().is_empty() {
            return None;
        }
        Some(FaultPlan::parse(&spec).expect("malformed STORYPIVOT_FAULTS"))
    }

    /// The rate configured for `site`, in permille.
    pub fn rate(&self, site: &str) -> u32 {
        self.rates
            .iter()
            .find(|(k, _)| k == site)
            .map(|&(_, r)| r)
            .unwrap_or(0)
    }

    /// A hook for one fault site. `instance` separates streams that
    /// share a site name (e.g. one per shard): two hooks with the same
    /// `(site, instance)` fire identically, different instances draw
    /// from unrelated streams.
    pub fn hook(&self, site: &str, instance: u64) -> FaultHook {
        FaultHook {
            rate_permille: self.rate(site),
            state: self.seed ^ fnv1a(site) ^ instance.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        }
    }
}

/// One fault site's injection state: a failure rate plus a private
/// deterministic stream. Obtain via [`FaultPlan::hook`]; a
/// default-constructed hook is inert (for code paths with no plan).
#[derive(Debug, Clone, Default)]
pub struct FaultHook {
    rate_permille: u32,
    state: u64,
}

impl FaultHook {
    /// Whether this hook can ever fire: the plan named its site with a
    /// nonzero rate.
    pub fn is_active(&self) -> bool {
        self.rate_permille > 0
    }

    /// Advance the stream one step and report whether the fault fires
    /// at this operation. An inactive hook returns `false` without
    /// advancing its stream.
    pub fn fire(&mut self) -> bool {
        self.is_active() && splitmix64(&mut self.state) % 1000 < self.rate_permille as u64
    }

    /// A schedule perturbation point: when the hook fires, yield or
    /// sleep 1–50 µs, drawn from its stream. Inactive: a load and a branch.
    #[inline]
    pub fn perturb(&mut self) {
        if self.rate_permille > 0 && self.fire() {
            match splitmix64(&mut self.state) % 51 {
                0 => std::thread::yield_now(),
                us => std::thread::sleep(std::time::Duration::from_micros(us)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_rates_and_seed() {
        let p = FaultPlan::parse("seed=7, wal_enospc=100, wal_short=50").unwrap();
        assert_eq!(p.rate("wal_enospc"), 100);
        assert_eq!(p.rate("wal_short"), 50);
        assert_eq!(p.rate("checkpoint"), 0);
        assert_eq!(p.seed, 7);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("wal_enospc").is_err());
        assert!(FaultPlan::parse("seed=x").is_err());
        assert!(FaultPlan::parse("wal_enospc=1001").is_err());
        assert!(FaultPlan::parse("wal_enospc=-3").is_err());
    }

    #[test]
    fn a_misspelled_site_is_an_error_naming_the_sites() {
        let err = FaultPlan::parse("seed=1,wal_enopsc=100").unwrap_err();
        assert!(err.contains("wal_enopsc"), "{err}");
        for site in SITES {
            assert!(err.contains(site), "{err}");
            assert!(FaultPlan::parse(&format!("{site}=1")).is_ok());
        }
    }

    #[test]
    fn empty_spec_is_the_empty_plan() {
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::default());
        assert_eq!(FaultPlan::parse(" , ,").unwrap(), FaultPlan::default());
    }

    #[test]
    fn duplicate_keys_keep_the_last_rate() {
        let p = FaultPlan::parse("checkpoint=10,checkpoint=900").unwrap();
        assert_eq!(p.rate("checkpoint"), 900);
    }

    #[test]
    fn streams_are_deterministic_and_instance_separated() {
        let plan = FaultPlan::parse("seed=42,wal_short=500").unwrap();
        let draws = |mut h: FaultHook| (0..64).map(|_| h.fire()).collect::<Vec<_>>();
        let a = draws(plan.hook("wal_short", 0));
        let b = draws(plan.hook("wal_short", 0));
        let c = draws(plan.hook("wal_short", 1));
        assert_eq!(a, b, "same (site, instance) must replay identically");
        assert_ne!(a, c, "different instances must draw different streams");
        assert!(a.iter().any(|&f| f), "a 50% hook must fire within 64 draws");
        assert!(a.iter().any(|&f| !f), "and must not fire every time");
    }

    #[test]
    fn fire_rate_tracks_the_configured_permille() {
        let plan = FaultPlan::parse("seed=1,checkpoint=100").unwrap();
        let mut h = plan.hook("checkpoint", 3);
        let rate = (0..10_000).filter(|_| h.fire()).count() as f64 / 10_000.0;
        assert!((0.07..0.13).contains(&rate), "got {rate}, wanted ≈0.10");
    }

    #[test]
    fn zero_rate_and_inert_hooks_never_fire() {
        let plan = FaultPlan::parse("seed=9,repl_drop=1000,wal_short=0").unwrap();
        let mut unmentioned = plan.hook("checkpoint", 0);
        let mut zero = plan.hook("wal_short", 0);
        let mut i = FaultHook::default();
        for _ in 0..256 {
            assert!(!unmentioned.fire());
            assert!(!zero.fire());
            assert!(!i.fire());
        }
        assert!(!unmentioned.is_active() && !zero.is_active());
        assert!(plan.hook("repl_drop", 0).is_active());
    }
}
