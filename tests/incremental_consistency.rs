//! Consistency of the incremental machinery: incremental alignment vs
//! full alignment, source onboarding, and store-image persistence.

use std::collections::HashSet;

use storypivot::core::config::PivotConfig;
use storypivot::core::metrics::EngineMetrics;
use storypivot::gen::{CorpusBuilder, GenConfig};
use storypivot::prelude::*;
use storypivot::store::codec::{decode_store, encode_store};
use storypivot::substrate::metrics::Registry;
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

#[test]
fn incremental_alignment_equals_full_alignment() {
    let c = corpus(900, 6, 50);
    let mut pivot = StoryPivot::new(PivotConfig::temporal(14 * DAY));
    for s in &c.sources {
        pivot.add_source_with_lag(s.name.clone(), s.kind, s.typical_lag);
    }
    // Ingest in three waves, aligning incrementally after each.
    let waves = c.snippets.chunks(c.len() / 3 + 1);
    for wave in waves {
        for s in wave {
            pivot.ingest(s.clone()).unwrap();
        }
        pivot.align_incremental();
    }
    let incremental = partition(&pivot);
    // A final full pass from the same state must agree.
    pivot.align();
    assert_eq!(incremental, partition(&pivot));
}

#[test]
fn onboarding_a_source_incrementally_matches_full_realignment() {
    let c = corpus(900, 8, 51);
    let mut pivot = StoryPivot::new(PivotConfig::temporal(14 * DAY));
    for s in &c.sources {
        pivot.add_source_with_lag(s.name.clone(), s.kind, s.typical_lag);
    }
    for s in &c.snippets {
        if s.source.raw() < 6 {
            pivot.ingest(s.clone()).unwrap();
        }
    }
    pivot.align();
    for s in &c.snippets {
        if s.source.raw() >= 6 {
            pivot.ingest(s.clone()).unwrap();
        }
    }
    let mut full = pivot.clone();
    pivot.align_incremental();
    full.align();
    assert_eq!(partition(&pivot), partition(&full));
    // Incremental pass reuses prior decisions: fewer pairs scored.
    assert!(
        pivot.alignment().unwrap().pairs_scored < full.alignment().unwrap().pairs_scored,
        "incremental {} vs full {}",
        pivot.alignment().unwrap().pairs_scored,
        full.alignment().unwrap().pairs_scored
    );
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

#[test]
fn dirty_tracking_is_conservative() {
    let c = corpus(300, 3, 54);
    let mut pivot = StoryPivot::new(PivotConfig::default());
    for s in &c.sources {
        pivot.add_source_with_lag(s.name.clone(), s.kind, s.typical_lag);
    }
    for s in &c.snippets {
        pivot.ingest(s.clone()).unwrap();
    }
    assert!(pivot.dirty_count() > 0);
    pivot.align();
    assert_eq!(pivot.dirty_count(), 0);
    // Incremental alignment with nothing dirty is a no-op on results.
    let p1 = partition(&pivot);
    pivot.align_incremental();
    assert_eq!(p1, partition(&pivot));
}

/// Every op kind that rewrites the snippet → story table, on one
/// engine, with the table checked against the stories' own member
/// lists after each op — and a shadow partition, patched *only* from
/// the engine's drained change log, that must equal `story_partition()`
/// after each op (a mutation site that stops reporting breaks it).
/// `check_invariants` also sweeps, after each op, every story the
/// identifier would skip at its next maintenance pass (clause 4: a
/// mutation site that stops marking its story as changed breaks that);
/// passes run mid-stream so that there are verified stories to skip.
#[test]
fn assignment_table_tracks_member_lists_through_every_op() {
    use std::collections::{BTreeMap, HashMap};

    type Shadow = BTreeMap<StoryId, Vec<SnippetId>>;

    fn check(pivot: &mut StoryPivot, shadow: &mut Shadow, after: &str) {
        pivot
            .check_invariants()
            .unwrap_or_else(|e| panic!("after {after}: {e}"));
        let mut listed: HashMap<SnippetId, StoryId> = HashMap::new();
        for (story, members) in pivot.story_partition() {
            for m in members {
                assert!(
                    listed.insert(m, story).is_none(),
                    "after {after}: snippet {m} is listed by two stories"
                );
            }
        }
        assert_eq!(listed.len(), pivot.store().len(), "after {after}");
        for sn in pivot.store().iter() {
            assert_eq!(
                pivot.story_of(sn.id),
                listed.get(&sn.id).copied(),
                "after {after}: snippet {}",
                sn.id
            );
        }

        let changed = pivot.drain_changes();
        assert!(changed.windows(2).all(|w| w[0] < w[1]), "after {after}: {changed:?}");
        for id in changed {
            match pivot.story(id) {
                Some(state) => {
                    let mut members = state.story.members.clone();
                    members.sort_unstable();
                    shadow.insert(id, members);
                }
                None => {
                    shadow.remove(&id);
                }
            }
        }
        let patched: Vec<(StoryId, Vec<SnippetId>)> =
            shadow.iter().map(|(&id, members)| (id, members.clone())).collect();
        assert_eq!(
            patched,
            pivot.story_partition(),
            "after {after}: the change log missed a story"
        );
    }

    let c = corpus(360, 3, 54);
    let mut config = PivotConfig::temporal(14 * DAY);
    config.identify.maintenance_every = 0; // maintenance is its own op below
    let mut pivot = StoryPivot::new(config.clone());
    pivot.log_changes();
    let mut shadow = Shadow::new();
    for s in &c.sources {
        pivot.add_source_with_lag(s.name.clone(), s.kind, s.typical_lag);
    }
    // The tail of the stream is held back for the two ingest paths
    // exercised after the single-snippet one.
    let (stream, held_back) = c.snippets.split_at(c.len() - 40);
    let (for_maintenance, for_batch) = held_back.split_at(10);

    // Ingest, in and out of timestamp order; bridging snippets merge.
    let (mut late, mut merges) = (0, 0);
    let mut newest: HashMap<SourceId, Timestamp> = HashMap::new();
    for (i, s) in stream.iter().enumerate() {
        let seen = newest.entry(s.source).or_insert(s.timestamp);
        late += usize::from(s.timestamp < *seen);
        *seen = (*seen).max(s.timestamp);
        merges += pivot.ingest_detailed(s.clone()).unwrap().merged.len();
        check(&mut pivot, &mut shadow, "ingest");
        if i % 48 == 47 {
            pivot.run_maintenance();
            check(&mut pivot, &mut shadow, "maintenance mid-stream");
        }
        if i == stream.len() / 2 {
            // Restart from a checkpoint mid-stream. The restored engine
            // logs nothing until asked; the partition is the one the
            // shadow already mirrors.
            pivot = StoryPivot::load_checkpoint(config.clone(), &pivot.save_checkpoint()).unwrap();
            pivot.log_changes();
            check(&mut pivot, &mut shadow, "checkpoint load");
        }
    }
    assert!(late > 0, "no out-of-order arrival");
    assert!(merges > 0, "no merge");

    // Move every `stride`-th snippet into another story of its source.
    let misplace = |pivot: &mut StoryPivot, shadow: &mut Shadow, stride: usize| {
        for s in stream.iter().step_by(stride) {
            let original = pivot.story_of(s.id).expect("ingested above");
            let other = pivot
                .stories_of_source(s.source)
                .iter()
                .map(|st| st.id())
                .find(|&id| id != original)
                .expect("every source has several stories");
            pivot.reassign_snippet(s.id, other).unwrap();
            check(pivot, shadow, "reassign_snippet");
        }
    };

    // Maintenance splits the misplaced snippets off their host stories.
    misplace(&mut pivot, &mut shadow, 9);
    let splits = pivot.run_maintenance().len();
    check(&mut pivot, &mut shadow, "maintenance");
    assert!(splits > 0, "no split");

    // The same split, found by the maintenance pass an ingest triggers
    // (a checkpoint may be loaded under another policy).
    misplace(&mut pivot, &mut shadow, 11);
    let mut eager = config.clone();
    eager.identify.maintenance_every = 1;
    pivot = StoryPivot::load_checkpoint(eager, &pivot.save_checkpoint()).unwrap();
    pivot.log_changes();
    let mut split_on_ingest = 0;
    for s in for_maintenance {
        let before = pivot.story_count();
        let d = pivot.ingest_detailed(s.clone()).unwrap();
        let after = pivot.story_count() + d.merged.len();
        split_on_ingest += after - before - usize::from(d.created);
        check(&mut pivot, &mut shadow, "ingest with maintenance");
    }
    assert!(split_on_ingest > 0, "no split during ingest");

    // Parallel per-source identification of a batch. It books what the
    // sequential path books: two live-registry engines off one
    // checkpoint, one fed the batch, one fed the same per-source order
    // snippet by snippet, expose equal per-decision counters. (Cadence
    // off and one pass on the twin: the batch path maintains each source
    // once at the end.)
    let image = pivot.save_checkpoint();
    let live_engine = || {
        let registry = Registry::new();
        let mut engine = StoryPivot::load_checkpoint(config.clone(), &image).unwrap();
        engine.set_metrics(EngineMetrics::register(&registry));
        (engine, registry)
    };
    let (mut batched, batched_registry) = live_engine();
    let (mut twin, twin_registry) = live_engine();
    batched.ingest_batch_parallel(for_batch.to_vec()).unwrap();
    let mut in_order = for_batch.to_vec();
    in_order.sort_by_key(|s| (s.timestamp, s.id));
    for s in in_order {
        twin.ingest_detailed(s).unwrap();
    }
    twin.run_maintenance();
    assert_eq!(batched.story_partition(), twin.story_partition());
    for name in [
        "storypivot_ingest_total",
        "storypivot_identify_compared_total",
        "storypivot_identify_new_story_total",
        "storypivot_identify_assigned_total",
        "storypivot_identify_merge_total",
        "storypivot_story_cache_hits_total",
        "storypivot_story_cache_misses_total",
    ] {
        let sequential = twin_registry.snapshot().counter_value(name, &[]);
        assert!(sequential.is_some(), "{name} is not registered");
        assert_eq!(
            batched_registry.snapshot().counter_value(name, &[]),
            sequential,
            "{name}: ingest_batch_parallel (left) vs ingest_detailed (right)"
        );
    }
    assert!(
        twin_registry.snapshot().counter_value("storypivot_identify_compared_total", &[]) > Some(0)
    );

    pivot.ingest_batch_parallel(for_batch.to_vec()).unwrap();
    check(&mut pivot, &mut shadow, "ingest_batch_parallel");

    // Refinement moves misplaced snippets back across stories.
    misplace(&mut pivot, &mut shadow, 7);
    pivot.align();
    let moves = pivot.refine().move_count();
    check(&mut pivot, &mut shadow, "refine");
    assert!(moves > 0, "refinement moved nothing");

    // Remove one story's snippets one by one until the story is gone.
    let victim = pivot
        .stories_of_source(c.sources[0].id)
        .into_iter()
        .max_by_key(|st| st.len())
        .expect("source 0 has stories");
    let (victim, members) = (victim.id(), victim.story.members.clone());
    assert!(members.len() > 1);
    for m in members {
        pivot.remove_snippet(m).unwrap();
        check(&mut pivot, &mut shadow, "remove_snippet");
    }
    assert!(pivot.story(victim).is_none(), "emptied story still alive");

    // A source leaves with all of its stories.
    pivot.remove_source(c.sources[1].id).unwrap();
    check(&mut pivot, &mut shadow, "remove_source");
    assert!(!shadow.is_empty() && shadow.len() == pivot.story_count());
}
