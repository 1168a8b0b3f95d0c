//! The derived-sketch oracle.
//!
//! A story's MinHash signature is no longer maintained per ingest: it is
//! derived from the story's centroids when alignment scores the story
//! (`StoryState::sketch`), and the aligner keeps what it derived until
//! the story is dirty again. Both halves are held to the definition — the
//! signature of the items of the story's member snippets, fetched from
//! the store — after every step of a seeded run through in-order and late
//! ingest, `remove_document`, `reassign_snippet`, merges and maintenance
//! passes that split.

use storypivot::core::metrics::EngineMetrics;
use storypivot::core::state::{entity_item, term_item, StoryState};
use storypivot::gen::{CorpusBuilder, GenConfig};
use storypivot::prelude::*;
use storypivot::sketch::{HashFamily, MinHash};
use storypivot::substrate::metrics::Registry;
use storypivot::substrate::prop;
use storypivot::substrate::rng::RngExt;

/// The signature by definition: every member fetched from the store.
fn from_members(pivot: &StoryPivot, family: &HashFamily, state: &StoryState) -> MinHash {
    let members = state.story.members.iter().map(|&m| {
        pivot.store().get(m).unwrap_or_else(|| panic!("story {} lists missing {m}", state.id()))
    });
    MinHash::from_items(
        family,
        members.flat_map(|s| {
            let entities = s.entities().keys().map(entity_item);
            entities.chain(s.terms().keys().map(term_item))
        }),
    )
}

fn assert_derived_sketches(pivot: &StoryPivot, family: &HashFamily, after: &str) {
    for source in pivot.sources() {
        for state in pivot.stories_of_source(source.id) {
            assert_eq!(
                state.sketch(family),
                from_members(pivot, family, state),
                "story {} after {after}",
                state.id()
            );
        }
    }
}

/// Every signature the aligner kept belongs to a live story and is what
/// a derivation from scratch gives now. Returns how many it kept.
fn assert_kept_sketches(pivot: &StoryPivot, family: &HashFamily) -> usize {
    let mut kept = 0;
    for (id, signature) in pivot.kept_sketches() {
        let state = pivot.story(id).unwrap_or_else(|| panic!("kept signature of dead story {id}"));
        assert_eq!(*signature, from_members(pivot, family, state), "kept signature of {id}");
        kept += 1;
    }
    kept
}

#[test]
fn derived_and_kept_signatures_equal_the_members_signature() {
    let (mut merges, mut splits, mut kept_total) = (0u64, 0u64, 0usize);
    prop::run(6, |rng| {
        let corpus = CorpusBuilder::new(
            GenConfig {
                seed: rng.random(),
                sources: rng.random_range(2u32..5),
                drift: 0.4,
                ..GenConfig::default()
            }
            .with_target_snippets(rng.random_range(200usize..400)),
        )
        .build();
        let mut config = PivotConfig::temporal(rng.random_range(3i64..10) * DAY);
        config.identify.split_threshold = 0.45;
        config.identify.maintenance_every = rng.random_range(8usize..40);
        config.align.use_sketches = true;
        config.sketch.minhash_k = rng.random_range(8usize..40);
        config.sketch.seed = rng.random();
        let family = HashFamily::new(config.sketch.seed, config.sketch.minhash_k);

        let registry = Registry::new();
        let mut pivot = StoryPivot::new(config);
        pivot.set_metrics(EngineMetrics::register(&registry));
        for s in &corpus.sources {
            pivot.add_source_with_lag(s.name.clone(), s.kind, s.typical_lag);
        }

        // One snippet in ten is held back and arrives after the rest.
        let (on_time, late): (Vec<&Snippet>, Vec<&Snippet>) =
            corpus.snippets.iter().partition(|_| rng.random_bool(0.9));
        let mut live: Vec<&Snippet> = Vec::new();
        for (i, s) in on_time.into_iter().chain(late).enumerate() {
            pivot.ingest(s.clone()).unwrap();
            assert_derived_sketches(&pivot, &family, "ingest");
            live.push(s);

            if rng.random_bool(0.05) {
                let own = pivot.story_of(s.id).unwrap();
                let stories = pivot.stories_of_source(s.source);
                let others: Vec<StoryId> =
                    stories.iter().map(|st| st.id()).filter(|&id| id != own).collect();
                if !others.is_empty() {
                    let target = others[rng.random_range(0..others.len())];
                    pivot.reassign_snippet(s.id, target).unwrap();
                    assert_derived_sketches(&pivot, &family, "reassign_snippet");
                }
            }
            if rng.random_bool(0.03) {
                let doc = live[rng.random_range(0..live.len())].doc;
                pivot.remove_document(doc).unwrap();
                live.retain(|s| s.doc != doc);
                assert_derived_sketches(&pivot, &family, "remove_document");
            }
            if rng.random_bool(0.02) {
                pivot.run_maintenance();
                assert_derived_sketches(&pivot, &family, "run_maintenance");
            }
            if i % 24 == 0 {
                pivot.align_incremental();
                kept_total += assert_kept_sketches(&pivot, &family);
                // What was kept must also score like what a full pass
                // derives afresh.
                let mut full = pivot.clone();
                full.align();
                assert_eq!(pivot.global_stories(), full.global_stories(), "at event {i}");
            }
        }
        pivot.run_maintenance();
        assert_derived_sketches(&pivot, &family, "the final run_maintenance");
        pivot.align_incremental();
        kept_total += assert_kept_sketches(&pivot, &family);
        pivot.check_invariants().unwrap();

        merges += pivot.metrics().identify_merge_total.get();
        splits += pivot.metrics().identify_split_total.get();
    });
    assert!(merges > 0, "the corpora must merge stories");
    assert!(splits > 10, "the corpora must keep splitting; split {splits}");
    assert!(kept_total > 100, "the aligner must keep signatures; kept {kept_total}");
}
