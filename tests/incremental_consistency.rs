//! Consistency of the incremental machinery. Four tests are slices of
//! the differential driver (`lockstep`), which holds incremental ==
//! from-scratch after every op; the rest is what no lockstep oracle
//! states: the store image round-trips, and removed-and-re-added
//! documents converge.

mod lockstep;

use std::collections::HashSet;

use storypivot::core::config::PivotConfig;
use storypivot::gen::{CorpusBuilder, GenConfig};
use storypivot::prelude::*;
use storypivot::store::codec::{decode_store, encode_store};
use storypivot::types::DAY;

fn corpus(target: usize, sources: u32, seed: u64) -> storypivot::gen::Corpus {
    CorpusBuilder::new(
        GenConfig::default()
            .with_sources(sources)
            .with_seed(seed)
            .with_target_snippets(target),
    )
    .build()
}

fn partition(pivot: &StoryPivot) -> Vec<Vec<u32>> {
    let mut p: Vec<Vec<u32>> = pivot
        .global_stories()
        .iter()
        .map(|g| {
            let mut m: Vec<u32> = g.members.iter().map(|&(id, _)| id.raw()).collect();
            m.sort_unstable();
            m
        })
        .collect();
    p.sort();
    p
}

/// Incremental alignment between waves of ingest yields the outcome a
/// full alignment yields, on corpora of six sources or more.
#[test]
fn incremental_alignment_equals_full_alignment() {
    let Some(tally) = lockstep::slice("incremental alignment", 1, |c| c.sources >= 6) else { return };
    let [incremental, full] = tally.align_pairs;
    assert!(incremental < full, "incremental alignment must score fewer pairs: {tally:?}");
}

/// A held-back source comes on board mid-stream; the incremental
/// alignments that follow equal full ones.
#[test]
fn onboarding_a_source_incrementally_matches_full_realignment() {
    let Some(tally) = lockstep::slice("onboarding", 1, |c| c.sources >= 2) else { return };
    assert!(tally.onboarded > 0, "a source must come on board: {tally:?}");
}

/// What the engine marks dirty is never less than what changed: every
/// incremental alignment equals a full one, including those with
/// nothing marked dirty since the last.
#[test]
fn dirty_tracking_is_conservative() {
    let Some(tally) = lockstep::slice("dirty tracking", 1, |_| true) else { return };
    assert!(tally.idle_aligns > 0, "an alignment must find nothing dirty: {tally:?}");
}

/// The snippet → story table, the stories' member lists and a shadow
/// partition patched only from the drained change log agree after every
/// op (`check_invariants` and the driver's shadow).
#[test]
fn assignment_table_tracks_member_lists_through_every_op() {
    let Some(tally) = lockstep::slice("assignment table", 1, |_| true) else { return };
    assert!(tally.reassigned > 0 && tally.merges > 0 && tally.late > 0, "{tally:?}");
}

#[test]
fn store_snapshot_round_trips_and_rebuilds_identically() {
    let c = corpus(400, 4, 52);
    let mut pivot = StoryPivot::new(PivotConfig::default());
    for s in &c.sources {
        pivot.add_source_with_lag(s.name.clone(), s.kind, s.typical_lag);
    }
    for s in &c.snippets {
        pivot.ingest(s.clone()).unwrap();
    }
    pivot.align();

    // Encode the event store, decode it, rebuild a pivot from it.
    let loaded = decode_store(&encode_store(pivot.store())).unwrap();

    assert_eq!(loaded.len(), pivot.store().len());
    assert_eq!(loaded.stats(), pivot.store().stats());

    // Re-identify from the loaded store: same inputs → same partition.
    let mut rebuilt = StoryPivot::new(PivotConfig::default());
    for s in loaded.sources() {
        rebuilt.add_source_with_lag(s.name.clone(), s.kind, s.typical_lag);
    }
    let mut snippets: Vec<Snippet> = loaded.iter().cloned().collect();
    snippets.sort_by_key(|s| s.id); // original delivery order = id order
    for s in snippets {
        rebuilt.ingest(s).unwrap();
    }
    rebuilt.align();
    assert_eq!(partition(&rebuilt), partition(&pivot));
}

#[test]
fn document_remove_then_readd_converges() {
    let c = corpus(500, 4, 53);
    let mut pivot = StoryPivot::new(PivotConfig::temporal(14 * DAY));
    for s in &c.sources {
        pivot.add_source_with_lag(s.name.clone(), s.kind, s.typical_lag);
    }
    for s in &c.snippets {
        pivot.ingest(s.clone()).unwrap();
    }
    pivot.align();
    let stories_before = pivot.story_count();
    let store_before = pivot.store().len();

    // Remove 10 documents then re-add their snippets.
    let docs: Vec<DocId> = (0..10u32).map(DocId::new).collect();
    let mut removed_snippets = Vec::new();
    for &d in &docs {
        let ids: HashSet<SnippetId> = pivot.store().snippets_of_doc(d).into_iter().collect();
        for &s in &ids {
            removed_snippets.push(pivot.store().get(s).unwrap().clone());
        }
        pivot.remove_document(d).unwrap();
    }
    pivot.align_incremental();
    assert_eq!(pivot.store().len(), store_before - removed_snippets.len());

    for s in removed_snippets {
        pivot.ingest(s).unwrap();
    }
    pivot.align_incremental();
    assert_eq!(pivot.store().len(), store_before);
    // Story structure converges to a similar size (exact equality is not
    // guaranteed — identification is order-dependent — but the count
    // must be in the same ballpark).
    let diff = (pivot.story_count() as i64 - stories_before as i64).abs();
    assert!(diff <= stories_before as i64 / 5, "story count drifted: {stories_before} -> {}", pivot.story_count());
}
