//! `refine()` plans the moves `refine_reference()` plans: one case on
//! each entity catalogue at the default settings, and two — one with
//! entity-less near-duplicates in its corpus, one without — on each of
//! three settings that move where a snippet is settled (own cohesion at
//! or above `1 − move_margin`) or what a move must clear. The
//! differential driver (`lockstep`) compares the two reports at every
//! refine op.

mod lockstep;

use lockstep::CATALOGUES;
use storypivot_core::config::RefineConfig;

#[test]
fn refine_plans_what_the_reference_sweep_plans() {
    for catalogue in 0..CATALOGUES.len() {
        let label = format!("refine {catalogue}");
        let Some(tally) = lockstep::slice(&label, 1, |c| c.catalogue == catalogue) else { return };
        let [_, extended, _] = tally.refine()[catalogue];
        assert!(tally.moves > 0 && extended > 0, "catalogue {catalogue}: {tally:?}");
    }
}

#[test]
fn refine_plans_what_the_reference_sweep_plans_off_the_default_settings() {
    let defaults = RefineConfig::default();
    for (label, refine) in [
        ("refine margin 0.0", RefineConfig { move_margin: 0.0, ..defaults }),
        ("refine margin 0.3", RefineConfig { move_margin: 0.3, ..defaults }),
        ("refine target 0.95", RefineConfig { min_target_cohesion: 0.95, ..defaults }),
    ] {
        // One case on a generated corpus and one with entity-less
        // near-duplicates in it.
        for near_duplicates in [false, true] {
            let focus = |c: &lockstep::Case| c.near_duplicates == near_duplicates;
            let label = format!("{label}{}", if near_duplicates { " near-duplicates" } else { "" });
            let Some(tally) = lockstep::slice_refining(&label, 1, refine, focus) else { return };
            let [judged, settled] = tally.refine().iter().fold([0, 0], |[j, s], r| [j + r[0], s + r[2]]);
            assert!(0 < settled && settled < judged, "{refine:?}: some snippets and not all settled: {tally:?}");
        }
    }
}
