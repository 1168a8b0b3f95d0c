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
//! story, or the dirty ones. A story is compared by its **profile**
//! (`Profile`): the sums of its members' entity and term vectors and
//! their activity over time, built from the members in one function and
//! cached by story id; nothing else in the engine keeps them. Candidate
//! pairs come from walking each such story's entities through an
//! entity → stories index (`candidate_pairs`), so finding them costs
//! those stories' postings, not the number of pairs that exist. A
//! candidate pair is pruned on its lifespans first, then scored on its
//! content, and only a pair whose content reaches `align_threshold` has
//! its evolution scored: evolution is at most 1, so a pair below the
//! threshold on content stays below it (debug builds score it in full
//! and check). Incremental alignment keeps the profile of every clean
//! story, copies the decision of every pair of clean stories from the
//! previous outcome, and a group made of the same clean stories as one
//! of its global stories keeps that story's member roles; only the
//! other profiles are built and the other groups classified again. All
//! three reuses rest on one invariant, kept by the engine (`Touched` in
//! [`crate::pivot`]): a story that is not dirty has the member list it
//! had at this aligner's previous pass. Debug builds rebuild every
//! reused profile, recompute every reused group, and compare.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};

use storypivot_sketch::TemporalSignature;
use storypivot_store::EventStore;
use storypivot_types::ids::IdGen;
use storypivot_types::{
    mem, EntityId, GlobalStory, GlobalStoryId, Snippet, SnippetId, SnippetRole, SourceId,
    SparseVec, StoryId, TermId, TimeRange,
};

use crate::config::AlignConfig;
use crate::sim::{ProbeTables, SimWeights};
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

/// What alignment compares of one story (§2.3): the sums of its members'
/// entity and term vectors and their activity over time.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Profile {
    /// Summed entity weights over the member snippets.
    pub(crate) entities: SparseVec<EntityId>,
    /// Summed term weights over the member snippets.
    terms: SparseVec<TermId>,
    /// One unit of activity per member, bucketed at `AlignConfig::bucket_width`.
    signature: TemporalSignature,
}

impl Profile {
    /// The profile of `state`'s members, summed in member order.
    fn of(state: &StoryState, store: &EventStore, bucket_width: i64) -> Self {
        let mut profile = Profile {
            entities: SparseVec::new(),
            terms: SparseVec::new(),
            signature: TemporalSignature::new(bucket_width),
        };
        for snippet in state.story.members.iter().filter_map(|&m| store.get(m)) {
            profile.entities.merge_add(snippet.entities());
            profile.terms.merge_add(snippet.terms());
            profile.signature.add(snippet.timestamp, 1.0);
        }
        profile
    }

    /// Content similarity of two stories: weighted Jaccard of entity
    /// mass and cosine of term mass, blended 0.6 / 0.4.
    fn content_sim(&self, other: &Profile) -> f64 {
        let e = self.entities.weighted_jaccard(&other.entities);
        let t = self.terms.cosine(&other.terms);
        0.6 * e + 0.4 * t
    }

    fn heap_bytes(&self) -> usize {
        self.entities.heap_bytes() + self.terms.heap_bytes() + self.signature.heap_bytes()
    }
}

/// A story as a pass compares it: its state and its profile.
type Compared<'a> = (&'a StoryState, &'a Profile);

/// Cross-source story aligner.
#[derive(Debug, Clone)]
pub struct Aligner {
    cfg: AlignConfig,
    weights: SimWeights,
    /// Probe tables of the role pass's counterpart scans.
    tables: ProbeTables,
    /// The profile of every story of the previous pass, by story id.
    profiles: HashMap<StoryId, Profile>,
}

impl Aligner {
    /// Build an aligner from configuration.
    pub fn new(cfg: AlignConfig, weights: SimWeights) -> Self {
        Aligner {
            cfg,
            weights,
            tables: ProbeTables::default(),
            profiles: HashMap::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &AlignConfig {
        &self.cfg
    }

    /// Heap bytes of the role pass's probe tables and of the cached
    /// story profiles (the memory account).
    pub fn heap_bytes(&self) -> [(&'static str, usize); 2] {
        let profiles = mem::hash_map_bytes(&self.profiles)
            + self.profiles.values().map(Profile::heap_bytes).sum::<usize>();
        [("align.tables", self.tables.heap_bytes()), ("align.profiles", profiles)]
    }

    /// The profile `story` had at the previous pass, if it took part.
    pub(crate) fn profile(&self, story: StoryId) -> Option<&Profile> {
        self.profiles.get(&story)
    }

    /// Whether two stories' lifespans are further apart than the lag
    /// tolerance, so that they cannot align.
    fn too_far_apart(&self, a: &StoryState, b: &StoryState) -> bool {
        let max_gap = (self.cfg.max_lag_buckets + 1) * self.cfg.bucket_width;
        a.lifespan().gap(b.lifespan()) > max_gap
    }

    /// A pair's content similarity gated by its lag-tolerant evolution
    /// similarity. Containment, not cosine: a sparse source's short
    /// story must be able to align with a prolific source's long story;
    /// disjoint lifespans still gate to zero (§2.3).
    fn gated(&self, content: f64, pa: &Profile, pb: &Profile) -> f64 {
        if content == 0.0 {
            return 0.0;
        }
        content * pa.signature.containment_similarity(&pb.signature, self.cfg.max_lag_buckets)
    }

    /// Combined story–story similarity, scored in full: exact content
    /// similarity gated by evolution, after the lifespan prune.
    #[cfg(test)]
    fn story_pair_score(&self, (a, pa): Compared, (b, pb): Compared) -> f64 {
        if self.too_far_apart(a, b) {
            return 0.0;
        }
        self.gated(pa.content_sim(pb), pa, pb)
    }

    /// Whether a pair's combined similarity reaches `align_threshold`.
    /// The cheap lifespan prune comes first, then the content; evolution
    /// is scored only when the content reaches the threshold. Evolution
    /// is at most 1, so `content · evolution` is at most `content`
    /// (rounding is monotone), and a pair whose content is below the
    /// threshold is below it whatever its evolution. A NaN content is
    /// below nothing and takes the full path. Debug builds score every
    /// pair rejected on content in full.
    fn aligns(&self, (a, pa): Compared, (b, pb): Compared) -> bool {
        let threshold = self.cfg.align_threshold;
        if self.too_far_apart(a, b) {
            return 0.0 >= threshold;
        }
        let content = pa.content_sim(pb);
        if content < threshold {
            debug_assert!(
                self.gated(content, pa, pb) < threshold,
                "stories {} and {}, rejected on content {content}, score {} in full",
                a.id(),
                b.id(),
                self.gated(content, pa, pb)
            );
            return false;
        }
        self.gated(content, pa, pb) >= threshold
    }

    /// Score candidate pairs. Returns the accepted `(story, story)`
    /// pairs (unordered).
    fn score_pairs(&self, stories: &[Compared], pairs: &[(usize, usize)]) -> Vec<(StoryId, StoryId)> {
        pairs
            .iter()
            .filter(|&&(i, j)| self.aligns(stories[i], stories[j]))
            .map(|&(i, j)| (stories[i].0.id(), stories[j].0.id()))
            .collect()
    }

    /// Full alignment over all per-source stories.
    pub fn align(&mut self, states: &[&StoryState], store: &EventStore) -> AlignOutcome {
        self.align_internal(states, store, None)
    }

    /// Incremental alignment: a clean story keeps the profile of this
    /// aligner's previous pass, pairs between two *clean* stories reuse
    /// their accept/reject decision from `previous`, and a global story
    /// made of the same clean stories as in `previous` keeps its member
    /// roles; only pairs with at least one endpoint in `dirty` are
    /// (re)scored and only the other groups re-classified. `previous`
    /// must be the outcome of this aligner's previous call, and `dirty`
    /// must hold every story whose member list changed since that call
    /// (see `Touched` in [`crate::pivot`]).
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
    fn candidate_pairs(&self, stories: &[Compared], rescore: &[bool]) -> Vec<(usize, usize)> {
        let mut entity_index: HashMap<EntityId, Vec<usize>> = HashMap::new();
        for (i, (_, p)) in stories.iter().enumerate() {
            for e in p.entities.keys() {
                entity_index.entry(e).or_default().push(i);
            }
        }
        // Per story `(stamp, shared entities)`, valid for marked story
        // `d` iff the stamp is `d + 1`.
        let mut shared: Vec<(usize, usize)> = vec![(0, 0); stories.len()];
        let mut touched: Vec<usize> = Vec::new();
        let mut pairs = Vec::new();
        for (d, (state, profile)) in stories.iter().enumerate() {
            if !rescore[d] {
                continue;
            }
            touched.clear();
            for e in profile.entities.keys() {
                for &j in &entity_index[&e] {
                    if j == d || (rescore[j] && j < d) || stories[j].0.source() == state.source() {
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

        // ---- profiles: a clean story keeps its own, the others are built
        match incremental {
            Some((_, dirty)) => {
                self.profiles.retain(|id, _| !dirty.contains(id) && index_of.contains_key(id))
            }
            None => self.profiles.clear(),
        }
        for state in states {
            let fresh = || Profile::of(state, store, self.cfg.bucket_width);
            match self.profiles.entry(state.id()) {
                Entry::Vacant(slot) => _ = slot.insert(fresh()),
                // Weights are positive, so `==` on them is equality of bits.
                Entry::Occupied(kept) => debug_assert!(
                    *kept.get() == fresh(),
                    "the reused profile of {} differs from a rebuilt one",
                    state.id()
                ),
            }
        }
        let stories: Vec<Compared> = states.iter().map(|&s| (s, &self.profiles[&s.id()])).collect();

        // ---- pair scoring (incremental reuse where possible) ----------
        let to_score = self.candidate_pairs(&stories, &rescore);
        let pairs_scored = to_score.len();
        let mut accepted = self.score_pairs(&stories, &to_score);
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
        // Out of `self` for the pass, so `integrate` can borrow both.
        let mut tables = std::mem::take(&mut self.tables);
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
                        let fresh =
                            self.integrate(gid, stories, &group, states, store, &mut tables);
                        debug_assert_eq!(global, fresh, "reused global story differs from a recomputed one");
                    }
                    global
                }
                None => self.integrate(gid, member_stories, &group, states, store, &mut tables),
            };
            for &(m, _) in &global.members {
                outcome.snippet_to_global.insert(m, gid);
            }
            outcome.global_stories.push(global);
        }
        self.tables = tables;
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
        tables: &mut ProbeTables,
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
                let role = if sources.len() > 1 && self.has_counterpart(sn, pos, &by_time, tables) {
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
        tables: &mut ProbeTables,
    ) -> bool {
        let lag = self.cfg.counterpart_lag;
        // Bind the probe once: the outward scans re-score `sn` against
        // every neighbour by table lookup.
        let scorer = self.weights.probe(&sn.content, tables);
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
            Aligner::new(AlignConfig::default(), SimWeights::default()).align(&self.states(), &self.store)
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
        let mut aligner = Aligner::new(AlignConfig::default(), SimWeights::default());
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
        let profiles: Vec<Profile> = states.iter().map(|s| Profile::of(s, &f.store, DAY)).collect();
        let stories: Vec<Compared> = states.iter().copied().zip(&profiles).collect();

        for min_shared in 1..=3 {
            let cfg = AlignConfig {
                min_shared_entities: min_shared,
                ..AlignConfig::default()
            };
            let mut aligner = Aligner::new(cfg, SimWeights::default());
            let brute = |rescore: &[bool]| -> Vec<(usize, usize)> {
                let mut pairs = Vec::new();
                for i in 0..states.len() {
                    for j in i + 1..states.len() {
                        let shared = profiles[i]
                            .entities
                            .keys()
                            .filter(|e| profiles[j].entities.get(e).is_some())
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
                let mut pairs = aligner.candidate_pairs(&stories, rescore);
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
    fn similar_stories_have_a_high_content_score() {
        let mut f = Fixture::new(2);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for day in 0..5 {
            a.push(f.ingest(0, day, &[1, 2, 3], &[10, 11]));
            b.push(f.ingest(1, day, &[1, 2, 3], &[10, 11]));
        }
        let c = f.ingest(1, 40, &[7, 8], &[20]);
        let profile = |snippet: SnippetId| {
            let source = f.store.get(snippet).unwrap().source.raw() as usize;
            let story = f.idents[source].story_of(snippet).unwrap();
            Profile::of(f.idents[source].story(story).unwrap(), &f.store, DAY)
        };
        let (pa, pb, pc) = (profile(a[0]), profile(b[0]), profile(c));
        assert_eq!(profile(a[4]), pa, "one story per source");
        assert_eq!(pa.entities.get(&EntityId::new(1)), Some(5.0), "the members' sum");
        assert_eq!(pa.signature.total(), 5.0, "one unit of activity per member");
        assert!(pa.content_sim(&pb) > 0.8);
        assert!(pa.content_sim(&pc) < 0.1);
    }

    /// The lifespan prune and the evolution comparison use one width:
    /// stories 3 days apart are 3 buckets apart at `DAY` and in one
    /// bucket at `4 * DAY`.
    #[test]
    fn the_bucket_width_sets_both_the_prune_and_the_signature() {
        let mut f = Fixture::new(2);
        f.ingest(0, 0, &[1, 2], &[10, 11]);
        f.ingest(1, 3, &[1, 2], &[10, 11]);
        let cross = |bucket_width| {
            let cfg = AlignConfig {
                bucket_width,
                max_lag_buckets: 1,
                ..AlignConfig::default()
            };
            let out = Aligner::new(cfg, SimWeights::default()).align(&f.states(), &f.store);
            out.cross_source_stories().count()
        };
        assert_eq!(cross(DAY), 0);
        assert_eq!(cross(4 * DAY), 1);
    }

    /// Two cross-source pairs with the same evolution (1.0: the same two
    /// days), one whose content is at the threshold and one just below
    /// it: the first is scored in full and accepted, the second rejected
    /// on its content alone, and the accepted pairs are those a full
    /// scoring of every candidate accepts. `pairs_scored` still counts
    /// the candidates.
    #[test]
    fn a_pair_below_the_threshold_on_content_is_rejected_as_a_full_score_rejects_it() {
        let mut f = Fixture::new(2);
        for day in 0..2 {
            f.ingest(0, day, &[1, 2], &[10, 11]);
            f.ingest(1, day, &[1, 2], &[10, 12]);
            f.ingest(0, day, &[3, 4], &[20, 21, 22, 23]);
            f.ingest(1, day, &[3, 4], &[20, 21, 24, 25, 26]);
        }
        let states = f.states();
        assert_eq!(states.len(), 4);
        let profiles: Vec<Profile> = states.iter().map(|s| Profile::of(s, &f.store, DAY)).collect();
        let stories: Vec<Compared> = states.iter().copied().zip(&profiles).collect();
        let probe = Aligner::new(AlignConfig::default(), SimWeights::default());
        let candidates = probe.candidate_pairs(&stories, &[true; 4]);
        assert_eq!(candidates.len(), 2);
        let content = |&(i, j): &(usize, usize)| profiles[i].content_sim(&profiles[j]);
        for &(i, j) in &candidates {
            assert_eq!(probe.gated(1.0, &profiles[i], &profiles[j]), 1.0, "evolution 1");
        }
        let (mut at, mut below) = (candidates[0], candidates[1]);
        if content(&at) < content(&below) {
            std::mem::swap(&mut at, &mut below);
        }
        let threshold = content(&at);
        let below_content = content(&below);
        assert!(threshold - 0.05 < below_content && below_content < threshold, "{below_content} {threshold}");

        let cfg = AlignConfig {
            align_threshold: threshold,
            ..AlignConfig::default()
        };
        let mut aligner = Aligner::new(cfg, SimWeights::default());
        let mut full: Vec<(StoryId, StoryId)> = candidates
            .iter()
            .filter(|&&(i, j)| aligner.story_pair_score(stories[i], stories[j]) >= threshold)
            .map(|&(i, j)| (states[i].id(), states[j].id()))
            .collect();
        full.sort_unstable();
        assert_eq!(full, vec![(states[at.0].id(), states[at.1].id())]);
        let out = aligner.align(&states, &f.store);
        assert_eq!(out.accepted_pairs, full);
        assert_eq!(out.pairs_scored, candidates.len());
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
