use std::time::{Duration, Instant};

use storypivot_bench::{corpus_fixed_period, OMEGA};
use storypivot_core::config::PivotConfig;
use storypivot_eval::Table;
use storypivot_types::SnippetId;

use super::{Experiment, Scale};

pub(super) const EXPERIMENT: Experiment = Experiment {
    name: "hotpath",
    alias: Some("e17"),
    title: "E17 — similarity hot path: flat kernels + resumed story folds",
    run: e17_hotpath,
};

/// E17 — the similarity hot path: how often a story's stored windowed
/// fold is resumed.
///
/// The default configuration (the row *flat kernels + resumed folds*)
/// over a seeded Zipf corpus, driving the store and per-source
/// identifiers directly so only the identify inner loop
/// (`Identifier::score_probe`) sits inside the timer. `cache hits` are
/// the folds resumed (extended by the members that entered the window),
/// `cache misses` those folded from scratch. That a resumed fold equals
/// one from scratch is held elsewhere: debug builds refold every resumed
/// fold and compare the bits, and the differential driver's oracle never
/// resumes one. The pre-rework scorer is no longer in the tree; its
/// number is a dated record in EXPERIMENTS.md E17.
///
/// One more, untimed pass takes a census of the candidate pairs (each
/// probe against every candidate in its window), from outside: how many
/// share no entity (no term) at all —
/// `kernel::jaccard == 0`, the pairs whose component is exactly `0.0` —
/// and how many of those the key signatures (`SparseVec::sig`) prove
/// disjoint, which are the pairs the engine answers without a merge.
/// Pruned ÷ disjoint is the filter's recall; a pair counted as pruned
/// but not disjoint would be a wrong answer, and the pass panics on it.
/// It also counts the candidate stories (distinct stories among each
/// probe's candidates, summed): those neither resumed nor folded from
/// scratch are the stories the reachability bound skipped, never folded
/// or scored. `pairs scored` is the engine's own count of the exact
/// pair similarities it computed (`IdentifyDecision::pairs_scored`,
/// summed over `assign`'s decisions): the candidate pairs less those of
/// the stories ruled out before their pairs were scored.
fn e17_hotpath(scale: &Scale, seed: u64) -> Table {
    use std::collections::{HashMap, HashSet};

    use storypivot_core::identify::Identifier;
    use storypivot_store::EventStore;
    use storypivot_types::{kernel, SourceId, SparseVec, StoryId};

    const TRIALS: usize = 3;
    // Few sources for the same corpus → denser per-source windows,
    // which is exactly what stresses the quadratic fold the rework
    // removed (Zipf story popularity keeps the hot stories hot).
    let corpus = corpus_fixed_period(scale.mid, 2, seed ^ 53);
    let base = PivotConfig::temporal(OMEGA);

    struct Run {
        ns_per_event: f64,
        compared: u64,
        pairs_scored: u64,
        cache_hits: u64,
        cache_misses: u64,
        census: Census,
        partition: Vec<(StoryId, Vec<SnippetId>)>,
    }

    /// What the census pass counts over the candidate pairs.
    #[derive(Default)]
    struct Census {
        pairs: u64,
        candidate_stories: u64,
        entity_disjoint: u64,
        entity_pruned: u64,
        term_disjoint: u64,
        term_pruned: u64,
    }

    /// Whether two vectors share no key, and whether their signatures
    /// prove it (the pairs the engine answers `0.0` without a merge).
    fn disjointness<K>(a: &SparseVec<K>, b: &SparseVec<K>) -> (bool, bool)
    where
        K: Copy + Ord + std::fmt::Debug + Into<u32>,
    {
        let disjoint = kernel::jaccard(a.as_slice(), b.as_slice()) == 0.0;
        let pruned = a.sig() & b.sig() == 0;
        assert!(disjoint || !pruned, "signatures pruned a pair sharing a key");
        (disjoint, pruned)
    }

    // Drive one full pass over the corpus. Only the candidate-scoring
    // loop sits inside the timer; the decision bookkeeping evolves the
    // story state untimed. With `census` the pass also reads every
    // candidate pair before the probe does — which warms them for the
    // timed call, so a census pass's clock is not reported.
    let drive = |take_census: bool| -> Run {
        let mut store = EventStore::new();
        let mut idents: HashMap<SourceId, Identifier> = HashMap::new();
        for src in &corpus.sources {
            store
                .register_source(
                    storypivot_types::Source::new(src.id, src.name.clone(), src.kind)
                        .with_lag(src.typical_lag),
                )
                .expect("register corpus source");
            idents.insert(src.id, Identifier::new(src.id, base.identify.clone(), base.sketch));
        }
        let mut timed = Duration::ZERO;
        let (mut compared, mut pairs_scored, mut hits, mut misses) = (0u64, 0u64, 0u64, 0u64);
        let mut census = Census::default();
        for s in &corpus.snippets {
            store.insert(s.clone()).expect("valid corpus snippet");
            let ident = idents.get_mut(&s.source).expect("registered source");
            if take_census {
                let mut stories = HashSet::new();
                for entry in store.window(s.source, s.timestamp, OMEGA) {
                    let cand = store.resolve(entry);
                    if cand.id == s.id {
                        continue;
                    }
                    let Some(story) = ident.story_of(cand.id) else { continue };
                    stories.insert(story);
                    census.pairs += 1;
                    let (disjoint, pruned) = disjointness(s.entities(), cand.entities());
                    census.entity_disjoint += disjoint as u64;
                    census.entity_pruned += pruned as u64;
                    let (disjoint, pruned) = disjointness(s.terms(), cand.terms());
                    census.term_disjoint += disjoint as u64;
                    census.term_pruned += pruned as u64;
                }
                census.candidate_stories += stories.len() as u64;
            }
            let t = Instant::now();
            let (c, h, m) = ident.score_probe(s, &store);
            timed += t.elapsed();
            compared += c as u64;
            hits += h as u64;
            misses += m as u64;
            // Untimed: commit the decision.
            pairs_scored += ident.assign(s, &store).pairs_scored as u64;
            if ident.maintenance_due() {
                ident.maintain(&store); // untimed in every configuration
            }
        }
        let mut partition: Vec<(StoryId, Vec<SnippetId>)> = idents
            .values()
            .flat_map(|ident| {
                ident.story_ids().into_iter().map(move |sid| {
                    let mut members =
                        ident.story(sid).expect("listed story").story.members.clone();
                    members.sort_unstable();
                    (sid, members)
                })
            })
            .collect();
        partition.sort_unstable_by_key(|&(sid, _)| sid);
        Run {
            ns_per_event: timed.as_nanos() as f64 / corpus.len() as f64,
            compared,
            pairs_scored,
            cache_hits: hits,
            cache_misses: misses,
            census,
            partition,
        }
    };

    let r = (0..TRIALS)
        .map(|_| drive(false))
        .min_by(|a, b| a.ns_per_event.total_cmp(&b.ns_per_event))
        .expect("ran");
    let census = drive(true);
    assert_eq!(census.partition, r.partition, "the census pass changed the partition");
    assert_eq!(r.compared, census.census.pairs, "`compared` must count every candidate");
    let census = census.census;
    println!("best of {TRIALS} trials\n");

    let mut table = Table::new(["config", "events"])
        .clocks(["ns/event"])
        .counts([
            "cache hits",
            "cache misses",
            "hit rate",
            "candidate stories",
            "stories skipped",
            "candidate pairs",
            "pairs scored",
            "entity-disjoint",
            "entity-pruned",
            "term-disjoint",
            "term-pruned",
        ]);
    let folds = r.cache_hits + r.cache_misses;
    let hit_rate = if folds == 0 {
        "-".to_string()
    } else {
        format!("{:.1}%", r.cache_hits as f64 / folds as f64 * 100.0)
    };
    table.row([
        "flat kernels + resumed folds".to_string(),
        corpus.len().to_string(),
        format!("{:.0}", r.ns_per_event),
        r.cache_hits.to_string(),
        r.cache_misses.to_string(),
        hit_rate,
        census.candidate_stories.to_string(),
        (census.candidate_stories - folds).to_string(),
        r.compared.to_string(),
        r.pairs_scored.to_string(),
        census.entity_disjoint.to_string(),
        census.entity_pruned.to_string(),
        census.term_disjoint.to_string(),
        census.term_pruned.to_string(),
    ]);
    table
}
