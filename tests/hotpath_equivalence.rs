//! Resuming a story's stored windowed fold changes no decision: the
//! differential driver (`lockstep`) runs the engine under test, which
//! resumes folds, beside an oracle engine that folds every candidate
//! story from scratch.

mod lockstep;

#[test]
fn partitions_identical_with_cache_on_and_off() {
    let Some(tally) = lockstep::slice("cache on", 1, |_| true) else { return };
    let [hits, _] = tally.cache;
    assert!(hits > 0, "stored folds must be resumed: {tally:?}");
}
