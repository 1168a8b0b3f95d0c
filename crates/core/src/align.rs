//! Story alignment across data sources (paper §2.3).
//!
//! Alignment finds per-source stories that "contain the same semantic
//! information" and integrates them into global stories. Two stories
//! align when their **content** is similar *and* their **temporal
//! evolution** is similar — "it is highly unlikely that two stories c₁
//! and c₂ are similar if c₁ ends at tᵢ and c₂ starts at tⱼ with
//! tᵢ ≪ tⱼ". Within an integrated story, each snippet either **aligns**
//! (has a temporally-proximate counterpart in another source) or
//! **enriches** (source-exclusive extras such as special reports).
//!
//! The aligner supports both full recomputation and **incremental**
//! re-alignment against a previous outcome — the capability that makes
//! adding a new data source cheap (paper §2.1: "as new sources become
//! available, we first identify the stories associated with them and
//! then align them with existing stories").
//!
//! Both are one routine over a set of stories to (re)score — every
//! story, or the dirty ones. Candidate pairs come from walking each such
//! story's entities through an entity → stories index (`candidate_pairs`),
//! so finding them costs those stories' postings, not the number of
//! pairs that exist. Incremental alignment copies the decision of every
//! pair of clean stories from the previous outcome, and a group made of
//! the same clean stories as one of its global stories keeps that
//! story's member roles; only the other groups are classified again.
//! Both reuses rest on one invariant, kept by the engine (`Touched` in
//! [`crate::pivot`]): a story that is not dirty has the member list it
//! had when the previous outcome was computed. Debug builds recompute
//! every reused group and compare.
//!
//! With `use_sketches` on (§2.4), content is compared through MinHash
//! signatures instead of the exact centroids. A signature is derived
//! from a story's state when a pass first scores the story
//! ([`StoryState::sketch`]) and kept by the aligner from round to round;
//! the same invariant says when it is stale, so a pass drops the
//! signatures of the stories it rescores and derives them again. With
//! the flag off — the default — no signature is ever built.

use std::collections::{HashMap, HashSet};

use storypivot_sketch::{HashFamily, MinHash};
use storypivot_store::EventStore;
use storypivot_types::ids::IdGen;
use storypivot_types::{
    mem, EntityId, GlobalStory, GlobalStoryId, Snippet, SnippetId, SnippetRole, SourceId, StoryId,
    TimeRange,
};

use crate::config::{AlignConfig, SketchConfig};
use crate::sim::SimWeights;
use crate::state::StoryState;
use crate::unionfind::UnionFind;

/// The result of an alignment pass.
#[derive(Debug, Clone, Default)]
pub struct AlignOutcome {
    /// Integrated stories, sorted by id. Every per-source story appears
    /// in exactly one global story (singletons included — unaligned
    /// stories "still hold interest for a variety of users").
    pub global_stories: Vec<GlobalStory>,
    /// Per-source story → its global story.
    pub story_to_global: HashMap<StoryId, GlobalStoryId>,
    /// Snippet → global story (derived convenience map).
    pub snippet_to_global: HashMap<SnippetId, GlobalStoryId>,
    /// The story pairs whose combined similarity passed the threshold.
    pub accepted_pairs: Vec<(StoryId, StoryId)>,
    /// Number of candidate pairs scored in this pass (perf metric).
    pub pairs_scored: usize,
}

impl AlignOutcome {
    /// Look up a global story by id.
    pub fn global_story(&self, id: GlobalStoryId) -> Option<&GlobalStory> {
        self.global_stories
            .binary_search_by_key(&id, |g| g.id)
            .ok()
            .map(|i| &self.global_stories[i])
    }

    /// Heap bytes of the outcome (the memory account).
    pub fn heap_bytes(&self) -> usize {
        let lists = |g: &GlobalStory| {
            mem::vec_bytes(&g.member_stories) + mem::vec_bytes(&g.sources) + mem::vec_bytes(&g.members)
        };
        mem::vec_bytes(&self.global_stories)
            + self.global_stories.iter().map(lists).sum::<usize>()
            + mem::hash_map_bytes(&self.story_to_global)
            + mem::hash_map_bytes(&self.snippet_to_global)
            + mem::vec_bytes(&self.accepted_pairs)
    }

    /// Global stories corroborated by more than one source.
    pub fn cross_source_stories(&self) -> impl Iterator<Item = &GlobalStory> + '_ {
        self.global_stories.iter().filter(|g| g.is_cross_source())
    }
}

/// The signatures a sketching aligner has materialised.
#[derive(Debug, Clone)]
struct Sketches {
    family: HashFamily,
    /// Signature of every story scored since it last changed.
    kept: HashMap<StoryId, MinHash>,
}

/// Cross-source story aligner.
#[derive(Debug, Clone)]
pub struct Aligner {
    cfg: AlignConfig,
    weights: SimWeights,
    /// `Some` iff `cfg.use_sketches`.
    sketches: Option<Sketches>,
}

impl Aligner {
    /// Build an aligner from configuration; `sketch` is read only when
    /// `cfg.use_sketches` is on.
    pub fn new(cfg: AlignConfig, weights: SimWeights, sketch: SketchConfig) -> Self {
        let sketches = cfg.use_sketches.then(|| Sketches {
            family: HashFamily::new(sketch.seed, sketch.minhash_k),
            kept: HashMap::new(),
        });
        Aligner { cfg, weights, sketches }
    }

    /// The configuration in use.
    pub fn config(&self) -> &AlignConfig {
        &self.cfg
    }

    /// The signatures kept from the passes so far (empty unless
    /// `use_sketches` is on), in no particular order.
    pub fn kept_sketches(&self) -> impl Iterator<Item = (StoryId, &MinHash)> + '_ {
        self.sketches.iter().flat_map(|s| s.kept.iter().map(|(&id, sig)| (id, sig)))
    }

    /// Heap bytes of the kept signatures (the memory account).
    pub fn heap_bytes(&self) -> usize {
        self.sketches.as_ref().map_or(0, |s| {
            mem::hash_map_bytes(&s.kept) + s.kept.values().map(MinHash::heap_bytes).sum::<usize>()
        })
    }

    /// Bring the kept signatures up to date for scoring `pairs`: drop
    /// those of rescored and vanished stories — a story that is not
    /// rescored has the member list, hence the centroids, its signature
    /// was derived from — and derive the missing ones among `pairs`.
    fn materialise_sketches(
        &mut self,
        states: &[&StoryState],
        rescore: &[bool],
        index_of: &HashMap<StoryId, usize>,
        pairs: &[(usize, usize)],
    ) {
        let Some(Sketches { family, kept }) = &mut self.sketches else { return };
        kept.retain(|id, _| index_of.get(id).is_some_and(|&i| !rescore[i]));
        for &(i, j) in pairs {
            for state in [states[i], states[j]] {
                let sig = kept.entry(state.id()).or_insert_with(|| state.sketch(family));
                debug_assert_eq!(*sig, state.sketch(family), "stale signature of {}", state.id());
            }
        }
    }

    /// Combined story–story similarity: content (exact, or sketched from
    /// the materialised signatures) gated by lag-tolerant evolution
    /// similarity.
    fn story_pair_score(&self, a: &StoryState, b: &StoryState) -> f64 {
        // Cheap temporal prune first: stories whose lifespans are
        // further apart than the lag tolerance cannot align.
        let max_gap = (self.cfg.max_lag_buckets + 1) * self.cfg.bucket_width;
        if a.lifespan().gap(b.lifespan()) > max_gap {
            return 0.0;
        }
        let content = match &self.sketches {
            Some(s) => s.kept[&a.id()].estimate_jaccard(&s.kept[&b.id()]),
            None => a.content_sim_exact(b),
        };
        if content == 0.0 {
            return 0.0;
        }
        // Containment, not cosine: a sparse source's short story must be
        // able to align with a prolific source's long story; disjoint
        // lifespans still gate to zero (§2.3).
        let evolution = a
            .signature
            .containment_similarity(&b.signature, self.cfg.max_lag_buckets);
        content * evolution
    }

    /// Score candidate pairs, in parallel when the batch is large.
    /// Returns the accepted `(story, story)` pairs (unordered).
    fn score_pairs(
        &self,
        states: &[&StoryState],
        pairs: &[(usize, usize)],
    ) -> Vec<(StoryId, StoryId)> {
        /// Below this, thread spawn overhead dominates.
        const PARALLEL_THRESHOLD: usize = 4_096;

        let score_chunk = |chunk: &[(usize, usize)]| -> Vec<(StoryId, StoryId)> {
            chunk
                .iter()
                .filter(|&&(i, j)| {
                    self.story_pair_score(states[i], states[j]) >= self.cfg.align_threshold
                })
                .map(|&(i, j)| (states[i].id(), states[j].id()))
                .collect()
        };

        // Size first: asking the OS for the CPU count is a syscall plus
        // cgroup file reads, and most alignments are small.
        if pairs.len() < PARALLEL_THRESHOLD {
            return score_chunk(pairs);
        }
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        if workers < 2 {
            return score_chunk(pairs);
        }
        let chunk_size = pairs.len().div_ceil(workers);
        let mut out = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = pairs
                .chunks(chunk_size)
                .map(|chunk| scope.spawn(move || score_chunk(chunk)))
                .collect();
            for h in handles {
                out.extend(h.join().expect("scoring thread panicked"));
            }
        });
        out
    }

    /// Full alignment over all per-source stories.
    pub fn align(&mut self, states: &[&StoryState], store: &EventStore) -> AlignOutcome {
        self.align_internal(states, store, None)
    }

    /// Incremental alignment: pairs between two *clean* stories reuse
    /// their accept/reject decision from `previous`, and a global story
    /// made of the same clean stories as in `previous` keeps its member
    /// roles; only pairs with at least one endpoint in `dirty` are
    /// (re)scored and only the other groups re-classified. `dirty` must
    /// hold every story whose member list changed since `previous` was
    /// computed (see `Touched` in [`crate::pivot`]).
    pub fn align_incremental(
        &mut self,
        states: &[&StoryState],
        store: &EventStore,
        previous: &AlignOutcome,
        dirty: &HashSet<StoryId>,
    ) -> AlignOutcome {
        self.align_internal(states, store, Some((previous, dirty)))
    }

    /// The cross-source story pairs `(i, j)`, `i < j`, with at least one
    /// end marked in `rescore`, that share at least
    /// `min_shared_entities` entities — each exactly once, in no
    /// particular order. Same-source pairs are identification's job.
    ///
    /// Every marked story walks its entities through an entity → stories
    /// index into a stamped dense counter; a pair with both ends marked
    /// is counted from its smaller index only. Full alignment marks
    /// every story, incremental alignment the dirty ones, so the cost
    /// follows the marked stories' postings, not the number of pairs
    /// that exist.
    fn candidate_pairs(&self, states: &[&StoryState], rescore: &[bool]) -> Vec<(usize, usize)> {
        let mut entity_index: HashMap<EntityId, Vec<usize>> = HashMap::new();
        for (i, s) in states.iter().enumerate() {
            for e in s.entities.keys() {
                entity_index.entry(e).or_default().push(i);
            }
        }
        // Per story `(stamp, shared entities)`, valid for marked story
        // `d` iff the stamp is `d + 1`.
        let mut shared: Vec<(usize, usize)> = vec![(0, 0); states.len()];
        let mut touched: Vec<usize> = Vec::new();
        let mut pairs = Vec::new();
        for (d, state) in states.iter().enumerate() {
            if !rescore[d] {
                continue;
            }
            touched.clear();
            for e in state.entities.keys() {
                for &j in &entity_index[&e] {
                    if j == d || (rescore[j] && j < d) || states[j].source() == state.source() {
                        continue;
                    }
                    let slot = &mut shared[j];
                    if slot.0 == d + 1 {
                        slot.1 += 1;
                    } else {
                        *slot = (d + 1, 1);
                        touched.push(j);
                    }
                }
            }
            for &j in &touched {
                if shared[j].1 >= self.cfg.min_shared_entities {
                    pairs.push((d.min(j), d.max(j)));
                }
            }
        }
        pairs
    }

    fn align_internal(
        &mut self,
        states: &[&StoryState],
        store: &EventStore,
        incremental: Option<(&AlignOutcome, &HashSet<StoryId>)>,
    ) -> AlignOutcome {
        let index_of: HashMap<StoryId, usize> =
            states.iter().enumerate().map(|(i, s)| (s.id(), i)).collect();
        // The stories whose pairs and roles are computed in this pass.
        let rescore: Vec<bool> = match incremental {
            Some((_, dirty)) => states.iter().map(|s| dirty.contains(&s.id())).collect(),
            None => vec![true; states.len()],
        };

        // ---- pair scoring (incremental reuse where possible) ----------
        let to_score = self.candidate_pairs(states, &rescore);
        let pairs_scored = to_score.len();
        self.materialise_sketches(states, &rescore, &index_of, &to_score);
        let mut accepted = self.score_pairs(states, &to_score);
        if let Some((prev, _)) = incremental {
            // Reuse accepted pairs between clean, still-live stories.
            let clean = |s: &StoryId| index_of.get(s).is_some_and(|&i| !rescore[i]);
            accepted.extend(prev.accepted_pairs.iter().filter(|(a, b)| clean(a) && clean(b)));
        }

        // Deterministic order for downstream grouping.
        accepted.sort_unstable();
        accepted.dedup();

        // ---- grouping --------------------------------------------------
        let mut uf = UnionFind::new(states.len());
        for &(a, b) in &accepted {
            if let (Some(&i), Some(&j)) = (index_of.get(&a), index_of.get(&b)) {
                uf.union(i, j);
            }
        }

        let mut outcome = AlignOutcome {
            accepted_pairs: accepted,
            pairs_scored,
            ..AlignOutcome::default()
        };

        let mut ids = IdGen::<GlobalStoryId>::new();
        for group in uf.groups() {
            let gid = ids.next_id();
            let mut member_stories: Vec<StoryId> = group.iter().map(|&i| states[i].id()).collect();
            member_stories.sort_unstable();
            for &story in &member_stories {
                outcome.story_to_global.insert(story, gid);
            }

            // The same clean stories as one global story of the previous
            // outcome: the same members, hence the same roles.
            let unchanged = incremental.and_then(|(prev, _)| {
                if group.iter().any(|&i| rescore[i]) {
                    return None;
                }
                let before = prev.global_story(*prev.story_to_global.get(&member_stories[0])?)?;
                (before.member_stories == member_stories).then_some(before)
            });
            let global = match unchanged {
                Some(before) => {
                    let global = GlobalStory {
                        id: gid,
                        member_stories,
                        sources: before.sources.clone(),
                        members: before.members.clone(),
                        lifespan: before.lifespan,
                    };
                    if cfg!(debug_assertions) {
                        let stories = global.member_stories.clone();
                        let fresh = self.integrate(gid, stories, &group, states, store);
                        debug_assert_eq!(global, fresh, "reused global story differs from a recomputed one");
                    }
                    global
                }
                None => self.integrate(gid, member_stories, &group, states, store),
            };
            for &(m, _) in &global.members {
                outcome.snippet_to_global.insert(m, gid);
            }
            outcome.global_stories.push(global);
        }
        outcome
    }

    /// Build the global story of one group of aligned stories
    /// (`group` indexes `states`): sources, lifespan and the
    /// aligning/enriching role of every member snippet.
    fn integrate(
        &self,
        id: GlobalStoryId,
        member_stories: Vec<StoryId>,
        group: &[usize],
        states: &[&StoryState],
        store: &EventStore,
    ) -> GlobalStory {
        let mut sources: Vec<SourceId> = group.iter().map(|&i| states[i].source()).collect();
        sources.sort_unstable();
        sources.dedup();

        // Counterparts are looked for among temporal neighbours.
        let mut by_time: Vec<&Snippet> = group
            .iter()
            .flat_map(|&i| &states[i].story.members)
            .filter_map(|&m| store.get(m))
            .collect();
        by_time.sort_unstable_by_key(|s| (s.timestamp, s.id));
        let lifespan = match (by_time.first(), by_time.last()) {
            (Some(first), Some(last)) => TimeRange::new(first.timestamp, last.timestamp),
            _ => TimeRange::EMPTY,
        };
        let mut members: Vec<(SnippetId, SnippetRole)> = by_time
            .iter()
            .enumerate()
            .map(|(pos, &sn)| {
                let role = if sources.len() > 1 && self.has_counterpart(sn, pos, &by_time) {
                    SnippetRole::Aligning
                } else {
                    SnippetRole::Enriching
                };
                (sn.id, role)
            })
            .collect();
        members.sort_unstable_by_key(|&(id, _)| id);
        GlobalStory {
            id,
            member_stories,
            sources,
            members,
            lifespan,
        }
    }

    /// Whether `sn` (at sorted position `pos` in `members`) has a
    /// counterpart: a content-similar snippet from a *different source*
    /// within the counterpart lag.
    fn has_counterpart(
        &self,
        sn: &Snippet,
        pos: usize,
        members: &[&Snippet],
    ) -> bool {
        let lag = self.cfg.counterpart_lag;
        // Bind the probe once: the outward scans re-score `sn` against
        // every neighbour, so probe-side state is hoisted out.
        let scorer = self.weights.probe(&sn.content);
        // members is sorted by timestamp: scan outwards until the lag
        // bound is exceeded in both directions.
        let check = |other: &Snippet| -> bool {
            if other.source == sn.source || other.timestamp.distance(sn.timestamp) > lag {
                return false;
            }
            let (score, term) = scorer.score_and_term(&other.content);
            score >= self.cfg.counterpart_threshold && term >= self.cfg.counterpart_term_floor
        };
        for other in members[pos + 1..].iter() {
            if other.timestamp.distance(sn.timestamp) > lag {
                break;
            }
            if check(other) {
                return true;
            }
        }
        for other in members[..pos].iter().rev() {
            if other.timestamp.distance(sn.timestamp) > lag {
                break;
            }
            if check(other) {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{IdentifyConfig, MatchMode, SketchConfig};
    use crate::identify::Identifier;
    use storypivot_types::{
        EntityId, EventType, Snippet, Source, SourceId, SourceKind, TermId, Timestamp, DAY,
    };

    struct Fixture {
        store: EventStore,
        idents: Vec<Identifier>,
        next_id: u32,
    }

    impl Fixture {
        fn new(sources: u32) -> Self {
            let mut store = EventStore::new();
            let mut idents = Vec::new();
            for i in 0..sources {
                store
                    .register_source(Source::new(SourceId::new(i), format!("s{i}"), SourceKind::Newspaper))
                    .unwrap();
                idents.push(Identifier::new(
                    SourceId::new(i),
                    IdentifyConfig {
                        mode: MatchMode::Temporal { omega: 7 * DAY },
                        maintenance_every: 0,
                        ..IdentifyConfig::default()
                    },
                    SketchConfig::default(),
                ));
            }
            Fixture {
                store,
                idents,
                next_id: 0,
            }
        }

        fn ingest(&mut self, source: u32, day: i64, entities: &[u32], terms: &[u32]) -> SnippetId {
            let id = SnippetId::new(self.next_id);
            self.next_id += 1;
            let mut b = Snippet::builder(id, SourceId::new(source), Timestamp::from_secs(day * DAY))
                .event_type(EventType::Accident);
            for &e in entities {
                b = b.entity(EntityId::new(e), 1.0);
            }
            for &t in terms {
                b = b.term(TermId::new(t), 1.0);
            }
            let s = b.build();
            self.store.insert(s.clone()).unwrap();
            self.idents[source as usize].assign(&s, &self.store);
            id
        }

        fn states(&self) -> Vec<&StoryState> {
            self.idents.iter().flat_map(|i| i.stories()).collect()
        }

        fn align(&self) -> AlignOutcome {
            Aligner::new(AlignConfig::default(), SimWeights::default(), SketchConfig::default())
                .align(&self.states(), &self.store)
        }
    }

    #[test]
    fn same_story_across_sources_aligns() {
        let mut f = Fixture::new(2);
        // Both sources report the same evolving story.
        for day in 0..5 {
            f.ingest(0, day, &[1, 2], &[10, 11]);
            f.ingest(1, day, &[1, 2], &[10, 11]);
        }
        let out = f.align();
        assert_eq!(out.cross_source_stories().count(), 1);
        let g = out.cross_source_stories().next().unwrap();
        assert_eq!(g.source_count(), 2);
        assert_eq!(g.len(), 10);
        // Every snippet has a same-day counterpart in the other source.
        assert_eq!(g.aligning().count(), 10);
    }

    #[test]
    fn unrelated_stories_stay_apart() {
        let mut f = Fixture::new(2);
        for day in 0..3 {
            f.ingest(0, day, &[1, 2], &[10]);
            f.ingest(1, day, &[7, 8], &[20]);
        }
        let out = f.align();
        assert_eq!(out.global_stories.len(), 2);
        assert_eq!(out.cross_source_stories().count(), 0);
    }

    #[test]
    fn temporally_disjoint_stories_do_not_align() {
        let mut f = Fixture::new(2);
        // Same content, but source 1 reports it three months later —
        // "highly unlikely" to be the same story (§2.3).
        for day in 0..3 {
            f.ingest(0, day, &[1, 2], &[10, 11]);
            f.ingest(1, day + 90, &[1, 2], &[10, 11]);
        }
        let out = f.align();
        assert_eq!(out.cross_source_stories().count(), 0);
    }

    #[test]
    fn lagged_source_still_aligns() {
        let mut f = Fixture::new(2);
        // Source 1 reports each event one day later (typical lag).
        for day in 0..5 {
            f.ingest(0, day, &[1, 2], &[10, 11]);
            f.ingest(1, day + 1, &[1, 2], &[10, 11]);
        }
        let out = f.align();
        assert_eq!(out.cross_source_stories().count(), 1);
    }

    #[test]
    fn enriching_snippets_are_classified() {
        let mut f = Fixture::new(2);
        for day in 0..4 {
            f.ingest(0, day, &[1, 2], &[10, 11]);
            f.ingest(1, day, &[1, 2], &[10, 11]);
        }
        // A source-0 exclusive background report: same entities (so it
        // stays in the story) but distinct description terms and no
        // same-time counterpart.
        let special = f.ingest(0, 2, &[1, 2], &[30, 31, 32]);
        let out = f.align();
        let g = out
            .global_story(*out.snippet_to_global.get(&special).unwrap())
            .unwrap();
        assert_eq!(g.role_of(special), Some(SnippetRole::Enriching));
        assert!(g.aligning().count() >= 8);
    }

    #[test]
    fn singleton_stories_survive_alignment() {
        let mut f = Fixture::new(2);
        f.ingest(0, 0, &[1], &[10]);
        let out = f.align();
        assert_eq!(out.global_stories.len(), 1);
        let g = &out.global_stories[0];
        assert!(!g.is_cross_source());
        // Single-source members are enriching by definition.
        assert_eq!(g.enriching().count(), 1);
    }

    #[test]
    fn three_sources_chain_into_one_global_story() {
        let mut f = Fixture::new(3);
        for day in 0..4 {
            f.ingest(0, day, &[1, 2, 3], &[10, 11]);
            f.ingest(1, day, &[1, 2], &[10, 11]);
            f.ingest(2, day, &[2, 3], &[10, 11]);
        }
        let out = f.align();
        assert_eq!(out.cross_source_stories().count(), 1);
        assert_eq!(out.cross_source_stories().next().unwrap().source_count(), 3);
    }

    #[test]
    fn incremental_alignment_matches_full() {
        let mut f = Fixture::new(2);
        for day in 0..4 {
            f.ingest(0, day, &[1, 2], &[10, 11]);
            f.ingest(1, day, &[1, 2], &[10, 11]);
        }
        let mut aligner =
            Aligner::new(AlignConfig::default(), SimWeights::default(), SketchConfig::default());
        let full0 = aligner.align(&f.states(), &f.store);

        // New snippets arrive in source 1 (dirtying its story).
        let v = f.ingest(1, 4, &[1, 2], &[10, 11]);
        let dirty_story = f.idents[1].story_of(v).unwrap();
        let dirty: HashSet<StoryId> = [dirty_story].into_iter().collect();

        let incremental = aligner.align_incremental(&f.states(), &f.store, &full0, &dirty);
        let full1 = aligner.align(&f.states(), &f.store);

        // Same grouping (compare member-story partitions).
        let partition = |o: &AlignOutcome| -> Vec<Vec<StoryId>> {
            let mut p: Vec<Vec<StoryId>> = o
                .global_stories
                .iter()
                .map(|g| g.member_stories.clone())
                .collect();
            p.sort();
            p
        };
        assert_eq!(partition(&incremental), partition(&full1));
        // And the incremental pass scored fewer or equal pairs.
        assert!(incremental.pairs_scored <= full1.pairs_scored);
    }

    /// The candidate routine against a brute-force count of shared
    /// entities over all story pairs: the same pairs, each once, for
    /// every, some and adjacent marked stories — and `pairs_scored` of
    /// both alignment entry points is that count.
    #[test]
    fn candidate_pairs_match_a_brute_force_shared_entity_count() {
        let mut f = Fixture::new(3);
        // Story k of every source is about entities {k, k+1, k+2}: it
        // shares two with its neighbours' k±1 and one with their k±2.
        for k in 0..6u32 {
            for source in 0..3 {
                for day in 0..2 {
                    f.ingest(source, day, &[k, k + 1, k + 2], &[100 + k]);
                }
            }
        }
        let states = f.states();
        assert_eq!(states.len(), 18);

        for min_shared in 1..=3 {
            let cfg = AlignConfig {
                min_shared_entities: min_shared,
                ..AlignConfig::default()
            };
            let mut aligner = Aligner::new(cfg, SimWeights::default(), SketchConfig::default());
            let brute = |rescore: &[bool]| -> Vec<(usize, usize)> {
                let mut pairs = Vec::new();
                for i in 0..states.len() {
                    for j in i + 1..states.len() {
                        let shared = states[i]
                            .entities
                            .keys()
                            .filter(|e| states[j].entities.get(e).is_some())
                            .count();
                        if states[i].source() != states[j].source()
                            && shared >= min_shared
                            && (rescore[i] || rescore[j])
                        {
                            pairs.push((i, j));
                        }
                    }
                }
                pairs
            };
            let all = vec![true; states.len()];
            let some: Vec<bool> = (0..states.len()).map(|i| i % 5 == 0).collect();
            // Both ends of one candidate pair marked.
            let (a, b) = brute(&all)[0];
            let both_ends: Vec<bool> = (0..states.len()).map(|i| i == a || i == b).collect();
            for rescore in [&all, &some, &both_ends] {
                let mut pairs = aligner.candidate_pairs(&states, rescore);
                pairs.sort_unstable();
                let expected = brute(rescore);
                assert!(!expected.is_empty());
                assert_eq!(pairs, expected, "min_shared {min_shared}, marked {rescore:?}");
            }

            let full = aligner.align(&states, &f.store);
            assert_eq!(full.pairs_scored, brute(&all).len());
            let dirty: HashSet<StoryId> = [states[a].id(), states[b].id()].into_iter().collect();
            let incremental = aligner.align_incremental(&states, &f.store, &full, &dirty);
            assert_eq!(incremental.pairs_scored, brute(&both_ends).len());
            assert_eq!(incremental.global_stories, full.global_stories);
            assert_eq!(incremental.accepted_pairs, full.accepted_pairs);
        }
    }

    #[test]
    fn sketch_mode_agrees_on_clear_cases() {
        let mut f = Fixture::new(2);
        for day in 0..5 {
            f.ingest(0, day, &[1, 2, 3, 4], &[10, 11, 12]);
            f.ingest(1, day, &[1, 2, 3, 4], &[10, 11, 12]);
            f.ingest(0, day, &[50, 51], &[60, 61]);
        }
        let cfg = AlignConfig {
            use_sketches: true,
            ..AlignConfig::default()
        };
        let out = Aligner::new(cfg, SimWeights::default(), SketchConfig::default())
            .align(&f.states(), &f.store);
        assert_eq!(out.cross_source_stories().count(), 1);
    }

    #[test]
    fn empty_input_aligns_to_nothing() {
        let f = Fixture::new(1);
        let out = f.align();
        assert!(out.global_stories.is_empty());
        assert_eq!(out.pairs_scored, 0);
    }
}
