use std::time::{Duration, Instant};

use storypivot_bench::{corpus_fixed_period, OMEGA};
use storypivot_core::config::PivotConfig;
use storypivot_eval::Table;
use storypivot_types::SnippetId;

use super::{Experiment, Scale};

pub(super) const EXPERIMENT: Experiment = Experiment {
    name: "hotpath",
    alias: Some("e17"),
    title: "E17 — similarity hot path: flat kernels + hot-story cache",
    run: e17_hotpath,
};

/// E17 — the similarity hot path: what the hot-story cache buys.
///
/// Two configurations over the identical seeded Zipf corpus, driving
/// the store and per-source identifiers directly so only the identify
/// inner loop (`Identifier::score_probe`) sits inside the timer:
///
/// * **flat kernels, cache off** — `hot_cache_capacity = 0`: cached
///   norms, flat kernels, scratch accumulators. The baseline row.
/// * **flat kernels + hot cache** — the default configuration.
///
/// The pre-rework scorer these replaced is no longer in the tree; its
/// number is a dated record in EXPERIMENTS.md E17. The run also asserts
/// live that the cache-off and cache-on partitions are byte-identical.
///
/// One more, untimed pass takes a census of the snippet pairs phase 1
/// scores, from outside: how many share no entity (no term) at all —
/// `kernel::jaccard == 0`, the pairs whose component is exactly `0.0` —
/// and how many of those the key signatures (`SparseVec::sig`) prove
/// disjoint, which are the pairs the engine answers without a merge.
/// Pruned ÷ disjoint is the filter's recall; a pair counted as pruned
/// but not disjoint would be a wrong answer, and the pass panics on it.
fn e17_hotpath(scale: &Scale, seed: u64) -> Table {
    use std::collections::HashMap;

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
        cache_hits: u64,
        cache_misses: u64,
        census: Census,
        partition: Vec<(StoryId, Vec<SnippetId>)>,
    }

    /// What the census pass counts over the pairs phase 1 scores.
    #[derive(Default)]
    struct Census {
        pairs: u64,
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
    // loop sits inside the timer; the (identical) decision bookkeeping
    // evolves the story state untimed, so the rows compare exactly the
    // work the cache changes. With `census` the pass also reads every
    // candidate pair before the probe does — which warms them for the
    // timed call, so a census pass's clock is not reported.
    let drive = |hot_cache_capacity: usize, take_census: bool| -> Run {
        let mut cfg = base.clone();
        cfg.identify.hot_cache_capacity = hot_cache_capacity;
        let mut store = EventStore::new();
        let mut idents: HashMap<SourceId, Identifier> = HashMap::new();
        for src in &corpus.sources {
            store
                .register_source(
                    storypivot_types::Source::new(src.id, src.name.clone(), src.kind)
                        .with_lag(src.typical_lag),
                )
                .expect("register corpus source");
            idents.insert(src.id, Identifier::new(src.id, cfg.identify.clone(), cfg.sketch));
        }
        let mut timed = Duration::ZERO;
        let (mut compared, mut hits, mut misses) = (0u64, 0u64, 0u64);
        let mut census = Census::default();
        for s in &corpus.snippets {
            store.insert(s.clone()).expect("valid corpus snippet");
            let ident = idents.get_mut(&s.source).expect("registered source");
            if take_census {
                for cand in store.window(s.source, s.timestamp, OMEGA) {
                    if cand.id == s.id || ident.story_of(cand.id).is_none() {
                        continue;
                    }
                    census.pairs += 1;
                    let (disjoint, pruned) = disjointness(s.entities(), cand.entities());
                    census.entity_disjoint += disjoint as u64;
                    census.entity_pruned += pruned as u64;
                    let (disjoint, pruned) = disjointness(s.terms(), cand.terms());
                    census.term_disjoint += disjoint as u64;
                    census.term_pruned += pruned as u64;
                }
            }
            let t = Instant::now();
            let (c, h, m) = ident.score_probe(s, &store);
            timed += t.elapsed();
            compared += c as u64;
            hits += h as u64;
            misses += m as u64;
            ident.assign(s, &store); // untimed: commit the decision
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
            cache_hits: hits,
            cache_misses: misses,
            census,
            partition,
        }
    };

    let configs: [(&str, usize); 2] = [
        ("flat kernels, cache off", 0),
        ("flat kernels + hot cache", base.identify.hot_cache_capacity),
    ];
    let mut best: [Option<Run>; 2] = [None, None];
    for _ in 0..TRIALS {
        for (slot, &(_, capacity)) in configs.iter().enumerate() {
            let run = drive(capacity, false);
            let better = best[slot]
                .as_ref()
                .is_none_or(|b| run.ns_per_event < b.ns_per_event);
            if better {
                best[slot] = Some(run);
            }
        }
    }
    let best = best.map(|r| r.expect("ran"));
    assert_eq!(
        best[0].partition, best[1].partition,
        "hot-story cache changed the identification partition"
    );
    let census = drive(base.identify.hot_cache_capacity, true);
    assert_eq!(census.partition, best[1].partition, "the census pass changed the partition");
    for run in &best {
        // The same pairs in both configurations, pruned or not.
        assert_eq!(run.compared, census.census.pairs, "`compared` must count every candidate");
    }
    let census = census.census;
    println!("best of {TRIALS} trials per configuration\n");

    let mut table = Table::new(["config", "events"])
        .clocks(["ns/event", "speedup vs cache off"])
        .counts([
            "cache hits",
            "cache misses",
            "hit rate",
            "pairs scored",
            "entity-disjoint",
            "entity-pruned",
            "term-disjoint",
            "term-pruned",
        ]);
    let baseline_ns = best[0].ns_per_event;
    for (slot, &(name, _)) in configs.iter().enumerate() {
        let r = &best[slot];
        let folds = r.cache_hits + r.cache_misses;
        let hit_rate = if folds == 0 {
            "-".to_string()
        } else {
            format!("{:.1}%", r.cache_hits as f64 / folds as f64 * 100.0)
        };
        table.row([
            name.to_string(),
            corpus.len().to_string(),
            format!("{:.0}", r.ns_per_event),
            if slot == 0 {
                "baseline".to_string()
            } else {
                format!("{:.2}x", baseline_ns / r.ns_per_event)
            },
            r.cache_hits.to_string(),
            r.cache_misses.to_string(),
            hit_rate,
            r.compared.to_string(),
            census.entity_disjoint.to_string(),
            census.entity_pruned.to_string(),
            census.term_disjoint.to_string(),
            census.term_pruned.to_string(),
        ]);
    }
    table
}
