//! The differential driver (`lockstep`) on configs drawn freely, with
//! the coverage floors of the whole driver summed over its cases. The
//! files that pin one axis of the draw — `maintain_equivalence`,
//! `refine_equivalence`, `align_equivalence`, `alignment_invariants`,
//! `hotpath_equivalence` and the lockstep cases of
//! `incremental_consistency` — run further cases of the same driver.
//!
//! `STORYPIVOT_PROP_SEED=<seed> cargo test --test differential` replays
//! the case a failure names, whichever file it came from.

mod lockstep;

#[test]
fn engine_matches_the_oracle_after_every_op() {
    let Some(tally) = lockstep::run(24) else { return };
    assert!(tally.splits > 50, "maintenance must split: {tally:?}");
    assert!(tally.moves > 100, "refinement must move: {tally:?}");
    assert!(tally.merges > 0 && tally.late > 0 && tally.twins > 0, "{tally:?}");
    assert!(tally.near_duplicate_cases > 0, "some corpora must hold near-duplicates: {tally:?}");
    let refine = tally.refine();
    assert!(refine.iter().all(|r| r[1] > 0), "cohesions must be extended: {tally:?}");
    let settled = |r: &[u64; 3]| 0 < r[2] && r[2] < r[0];
    assert!(refine.iter().all(settled), "some snippets and not all must be settled: {tally:?}");
    let [maintained, swept] = tally.maintenance_pairs;
    assert!(maintained * 2 < swept, "maintenance must score under half the sweep: {tally:?}");
    let [bounded, every] = tally.identify_pairs;
    assert!(bounded < every, "the pair bound must skip pairs: {tally:?}");
    let [incremental, full] = tally.align_pairs;
    assert!(incremental < full, "incremental alignment must score fewer pairs: {tally:?}");
}
