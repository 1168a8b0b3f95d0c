//! Durability integration: engine checkpoints across a simulated
//! restart. Three tests are slices of the differential driver
//! (`lockstep`), whose reload step restarts the engine under test from
//! its own checkpoint and then holds it, after every op, to the
//! never-checkpointed oracle (partition, every `story_of` through
//! `check_invariants`, the change log, alignment and refinement). The
//! served system's journal + checkpoint recovery is
//! `crates/serve/tests/crash_recovery.rs`.

mod lockstep;

use storypivot::prelude::*;

/// A reload with at least 100 snippets on each side of it converges
/// with the uninterrupted run.
#[test]
fn checkpoint_restart_converges_with_uninterrupted_run() {
    let Some(tally) = lockstep::slice("checkpoint restart", 1, |c| c.snippets >= 300) else { return };
    assert!(tally.reloads[1] > 0, "a reload must hold and be followed by 100 snippets: {tally:?}");
}

/// Reloads of whatever state the script left: after removals,
/// reassignments, alignments and refinements. (Few sources keep the
/// case short; the differential driver reloads on every config.)
#[test]
fn checkpoints_round_trip_arbitrary_engine_states() {
    let Some(tally) = lockstep::slice("round trip", 1, |c| c.sources <= 4) else { return };
    assert!(tally.reloads[0] > 0 && tally.reassigned > 0 && tally.moves > 0, "{tally:?}");
}

/// Restored mid-stream == uninterrupted, *with splits occurring*. The
/// maintenance phase (snippets identified since the last pass) is part
/// of the checkpoint: an engine that restarted its count at the reload
/// would run its passes — and fire its splits — at other events than its
/// twin, and the step after the reload would tell them apart. So the
/// slice runs a long drifting single-source corpus at a raised split
/// threshold, where every pass is that source's.
#[test]
fn restored_engine_splits_at_the_same_events_as_its_uninterrupted_twin() {
    let focus = |c: &lockstep::Case| c.splitting && c.sources == 1 && c.snippets >= 330;
    let Some(tally) = lockstep::slice("restored splits", 1, focus) else { return };
    assert!(tally.reloads[0] > 0, "the engine must reload: {tally:?}");
    assert!(tally.splits >= 50, "the corpus must split for the phase to matter: {tally:?}");
}

#[test]
fn version_one_checkpoints_are_rejected_not_misread() {
    let mut pivot = StoryPivot::new(PivotConfig::default());
    pivot.add_source("a", SourceKind::Newspaper);
    let mut bytes = pivot.save_checkpoint();
    assert_eq!(bytes[4..8], 2u32.to_le_bytes());
    bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
    let err = StoryPivot::load_checkpoint(PivotConfig::default(), &bytes).unwrap_err();
    assert!(err.to_string().contains("unsupported checkpoint version 1"), "{err}");
}
