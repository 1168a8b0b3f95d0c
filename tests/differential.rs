//! The differential driver (`lockstep`) on configs drawn freely, with
//! the coverage floors of the whole driver taken over its cases: summed,
//! except the refiner's carry-over share, taken in the median case. The
//! files that pin one axis of the draw — `maintain_equivalence`,
//! `refine_equivalence`, `align_equivalence`, `alignment_invariants`,
//! `hotpath_equivalence` and the lockstep cases of
//! `incremental_consistency` — run further cases of the same driver.
//!
//! `STORYPIVOT_PROP_SEED=<seed> cargo test --test differential` replays
//! the case a failure names, whichever file it came from.

mod lockstep;

use lockstep::CATALOGUES;

#[test]
fn engine_matches_the_oracle_after_every_op() {
    let Some(tally) = lockstep::run(24) else { return };
    assert!(tally.splits > 50, "maintenance must split: {tally:?}");
    assert!(tally.moves > 100, "refinement must move: {tally:?}");
    assert!(tally.merges > 0 && tally.late > 0 && tally.twins > 0, "{tally:?}");
    assert!(tally.near_duplicate_cases > 0, "some corpora must hold near-duplicates: {tally:?}");
    // Both kinds of refinement sweep occurred: ones that probe nearly
    // everything afresh and ones that carry many probes over. Only the
    // snippets that probed (judged less settled) could carry one over.
    // The share carried over is a catalogue's median case: a few large
    // cases dominate any sum over cases.
    let median_share = |catalogue: usize| {
        let mut shares: Vec<f64> = (tally.refine_cases.iter())
            .filter(|&&(c, [judged, _, _, settled])| c == catalogue && judged > settled)
            .map(|&(_, [judged, reused, _, settled])| reused as f64 / (judged - settled) as f64)
            .collect();
        assert!(!shares.is_empty(), "catalogue {catalogue}: no case probed a snippet: {tally:?}");
        shares.sort_unstable_by(f64::total_cmp);
        shares[shares.len() / 2]
    };
    let (hot, sparse) = (median_share(0), median_share(CATALOGUES.len() - 1));
    assert!(hot * 10.0 < 1.0, "hot entities leave few snippets clean: {hot} {tally:?}");
    assert!(sparse * 4.0 > 1.0, "sparse entities leave many clean: {sparse} {tally:?}");
    let refine = tally.refine();
    assert!(refine.iter().all(|r| r[2] > 0), "cohesions must be extended: {tally:?}");
    let settled = |r: &[u64; 4]| 0 < r[3] && r[3] < r[0];
    assert!(refine.iter().all(settled), "some snippets and not all must be settled: {tally:?}");
    let [maintained, swept] = tally.maintenance_pairs;
    assert!(maintained * 2 < swept, "maintenance must score under half the sweep: {tally:?}");
    let [bounded, every] = tally.identify_pairs;
    assert!(bounded < every, "the pair bound must skip pairs: {tally:?}");
    let [incremental, full] = tally.align_pairs;
    assert!(incremental < full, "incremental alignment must score fewer pairs: {tally:?}");
}
