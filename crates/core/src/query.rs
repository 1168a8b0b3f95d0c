//! Entity/time queries over detected stories (paper §4.2).
//!
//! "Users will be able to explore the results of the larger integration
//! run and can query STORYPIVOT to see the evolution of a story over
//! time within and across sources. For simplicity, queries will consist
//! of enquiries about specified real-world events or entities."
//!
//! A [`StoryQuery`] filters by entities (any-of), a time range, sources,
//! and a minimum story size; results are global stories ranked by how
//! strongly they feature the queried entities, read from the story
//! profiles the last alignment compared (`Profile` in [`crate::align`]).

use storypivot_types::{EntityId, GlobalStoryId, SourceId, TimeRange};

use crate::pivot::StoryPivot;

/// A declarative story query.
#[derive(Debug, Clone, Default)]
pub struct StoryQuery {
    /// Match stories mentioning at least one of these entities (empty =
    /// no entity constraint).
    pub entities: Vec<EntityId>,
    /// Restrict to stories whose lifespan overlaps this range.
    pub range: Option<TimeRange>,
    /// Restrict to stories with at least one contributing source from
    /// this set (empty = any).
    pub sources: Vec<SourceId>,
    /// Minimum number of member snippets.
    pub min_snippets: usize,
    /// Only cross-source (corroborated) stories.
    pub cross_source_only: bool,
}

impl StoryQuery {
    /// An unconstrained query (matches every story).
    pub fn any() -> Self {
        Self::default()
    }

    /// Query by a single entity.
    pub fn entity(e: EntityId) -> Self {
        StoryQuery {
            entities: vec![e],
            ..Self::default()
        }
    }

    /// Add an entity (any-of semantics).
    pub fn or_entity(mut self, e: EntityId) -> Self {
        self.entities.push(e);
        self
    }

    /// Restrict to a time range.
    pub fn in_range(mut self, range: TimeRange) -> Self {
        self.range = Some(range);
        self
    }

    /// Restrict to stories covered by `source`.
    pub fn from_source(mut self, source: SourceId) -> Self {
        self.sources.push(source);
        self
    }

    /// Require at least `n` member snippets.
    pub fn min_snippets(mut self, n: usize) -> Self {
        self.min_snippets = n;
        self
    }

    /// Only stories corroborated by more than one source.
    pub fn cross_source(mut self) -> Self {
        self.cross_source_only = true;
        self
    }
}

/// One query hit: a global story and its relevance to the query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryHit {
    /// The matching global story.
    pub story: GlobalStoryId,
    /// Total weight of the queried entities inside the story (0 when
    /// the query has no entity constraint).
    pub relevance: f64,
}

/// Evaluate `query` against the pivot's most recent alignment. Results
/// are sorted by descending relevance, ties by story id. Returns an
/// empty vector when [`StoryPivot::align`] has not run yet.
///
/// Relevance, like the global stories it ranks, is the last alignment's
/// view: the queried entities' weight in the member stories' profiles
/// as that alignment built them. A snippet ingested since then counts
/// from the next alignment on.
pub fn query_stories(pivot: &StoryPivot, query: &StoryQuery) -> Vec<QueryHit> {
    let mut hits = Vec::new();
    for g in pivot.global_stories() {
        if query.cross_source_only && !g.is_cross_source() {
            continue;
        }
        if g.len() < query.min_snippets {
            continue;
        }
        if let Some(range) = query.range {
            if !g.lifespan.overlaps(range) {
                continue;
            }
        }
        if !query.sources.is_empty() && !query.sources.iter().any(|s| g.sources.contains(s)) {
            continue;
        }
        // Entity constraint: sum the queried entities' mass across the
        // member per-source stories' profiles.
        let relevance = g
            .member_stories
            .iter()
            .filter_map(|&story| pivot.aligner.profile(story))
            .flat_map(|p| query.entities.iter().filter_map(|e| p.entities.get(e)))
            .fold(0.0, |mass, w| mass + w as f64);
        if !query.entities.is_empty() && relevance == 0.0 {
            continue;
        }
        hits.push(QueryHit {
            story: g.id,
            relevance,
        });
    }
    hits.sort_by(|a, b| {
        b.relevance
            .total_cmp(&a.relevance)
            .then(a.story.cmp(&b.story))
    });
    hits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PivotConfig;
    use storypivot_types::{
        EventType, Snippet, SnippetId, SourceKind, TermId, Timestamp, DAY,
    };

    fn fixture() -> (StoryPivot, SourceId, SourceId) {
        let mut pivot = StoryPivot::new(PivotConfig::default());
        let a = pivot.add_source("a", SourceKind::Newspaper);
        let b = pivot.add_source("b", SourceKind::Newspaper);
        let mut id = 0u32;
        let mut snip = |source, day: i64, e: u32, t: u32| {
            let s = Snippet::builder(SnippetId::new(id), source, Timestamp::from_secs(day * DAY))
                .entity(EntityId::new(e), 1.0)
                .entity(EntityId::new(e + 1), 1.0)
                .term(TermId::new(t), 1.0)
                .event_type(EventType::Conflict)
                .build();
            id += 1;
            s
        };
        // Story X: entities {1,2}, both sources, days 0-3.
        // Story Y: entities {10,11}, source a only, days 50-52.
        let mut batch = Vec::new();
        for d in 0..4 {
            batch.push(snip(a, d, 1, 5));
            batch.push(snip(b, d, 1, 5));
        }
        for d in 50..53 {
            batch.push(snip(a, d, 10, 9));
        }
        for s in batch {
            pivot.ingest(s).unwrap();
        }
        pivot.align();
        (pivot, a, b)
    }

    #[test]
    fn entity_query_finds_the_right_story() {
        let (pivot, _, _) = fixture();
        let hits = query_stories(&pivot, &StoryQuery::entity(EntityId::new(1)));
        assert_eq!(hits.len(), 1);
        let g = pivot.alignment().unwrap().global_story(hits[0].story).unwrap();
        assert_eq!(g.len(), 8);
        assert!(hits[0].relevance >= 8.0);
    }

    #[test]
    fn relevance_is_read_at_the_last_alignment() {
        let (mut pivot, a, _) = fixture();
        let relevance = |pivot: &StoryPivot| {
            let hits = query_stories(pivot, &StoryQuery::entity(EntityId::new(1)));
            assert_eq!(hits.len(), 1);
            hits[0].relevance
        };
        let aligned = relevance(&pivot);
        let late = Snippet::builder(SnippetId::new(100), a, Timestamp::from_secs(4 * DAY))
            .entity(EntityId::new(1), 2.5)
            .term(TermId::new(5), 1.0)
            .event_type(EventType::Conflict)
            .build();
        let story = pivot.ingest(late).unwrap();
        assert_eq!(pivot.story_of(SnippetId::new(0)), Some(story), "joined story X");
        assert_eq!(relevance(&pivot), aligned, "not aligned yet: the last alignment's view");
        pivot.align_incremental();
        assert_eq!(relevance(&pivot), aligned + 2.5);
    }

    #[test]
    fn any_of_entities_unions_results() {
        let (pivot, _, _) = fixture();
        let q = StoryQuery::entity(EntityId::new(1)).or_entity(EntityId::new(10));
        let hits = query_stories(&pivot, &q);
        assert_eq!(hits.len(), 2);
        // The bigger story has more entity mass → ranks first.
        let first = pivot.alignment().unwrap().global_story(hits[0].story).unwrap();
        assert!(first.is_cross_source());
    }

    #[test]
    fn time_range_filters() {
        let (pivot, _, _) = fixture();
        let q = StoryQuery::any().in_range(TimeRange::new(
            Timestamp::from_secs(40 * DAY),
            Timestamp::from_secs(60 * DAY),
        ));
        let hits = query_stories(&pivot, &q);
        assert_eq!(hits.len(), 1);
        let g = pivot.alignment().unwrap().global_story(hits[0].story).unwrap();
        assert_eq!(g.len(), 3);
    }

    #[test]
    fn source_and_cross_source_filters() {
        let (pivot, _, b) = fixture();
        // Stories involving source b: only the big one.
        let hits = query_stories(&pivot, &StoryQuery::any().from_source(b));
        assert_eq!(hits.len(), 1);
        // Cross-source only: same.
        let hits = query_stories(&pivot, &StoryQuery::any().cross_source());
        assert_eq!(hits.len(), 1);
        // The paper's sports-club scenario (§2.3): a single-source story
        // must still be findable without the cross-source filter.
        let hits = query_stories(&pivot, &StoryQuery::entity(EntityId::new(10)));
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn min_snippets_filters_small_stories() {
        let (pivot, _, _) = fixture();
        let hits = query_stories(&pivot, &StoryQuery::any().min_snippets(5));
        assert_eq!(hits.len(), 1);
        let hits = query_stories(&pivot, &StoryQuery::any().min_snippets(100));
        assert!(hits.is_empty());
    }

    #[test]
    fn unknown_entity_matches_nothing() {
        let (pivot, _, _) = fixture();
        let hits = query_stories(&pivot, &StoryQuery::entity(EntityId::new(999)));
        assert!(hits.is_empty());
    }

    #[test]
    fn before_alignment_queries_are_empty() {
        let pivot = StoryPivot::new(PivotConfig::default());
        assert!(query_stories(&pivot, &StoryQuery::any()).is_empty());
    }
}
