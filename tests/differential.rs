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
    // Both kinds of refinement sweep occurred: ones that probe nearly
    // everything afresh and ones that carry most probes over. Only the
    // snippets that probed (judged less settled) could carry one over.
    let [hot, _, sparse] = tally.refine;
    assert!(hot[1] * 10 < hot[0] - hot[3], "hot entities leave few snippets clean: {tally:?}");
    assert!(sparse[1] * 4 > sparse[0] - sparse[3], "sparse entities leave many clean: {tally:?}");
    assert!(tally.refine.iter().all(|r| r[2] > 0), "cohesions must be extended: {tally:?}");
    let settled = |r: &[u64; 4]| 0 < r[3] && r[3] < r[0];
    assert!(tally.refine.iter().all(settled), "some snippets and not all must be settled: {tally:?}");
    let [maintained, swept] = tally.maintenance_pairs;
    assert!(maintained * 2 < swept, "maintenance must score under half the sweep: {tally:?}");
    let [bounded, every] = tally.identify_pairs;
    assert!(bounded < every, "the pair bound must skip pairs: {tally:?}");
    let [incremental, full] = tally.align_pairs;
    assert!(incremental < full, "incremental alignment must score fewer pairs: {tally:?}");
}
