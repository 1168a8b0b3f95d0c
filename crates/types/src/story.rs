//! Stories: per-source and cross-source (global).
//!
//! A *story* (paper §2) is an evolving set of snippets describing related
//! real-world events. Story **identification** produces per-source
//! [`Story`] values; story **alignment** groups them into cross-source
//! [`GlobalStory`] values and classifies each snippet as *aligning* or
//! *enriching* (paper §2.3).

use crate::ids::{GlobalStoryId, SnippetId, SourceId, StoryId};
use crate::time::{TimeRange, Timestamp};

/// A story within one data source (`cᵢ` in the paper).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Story {
    /// Unique story id (unique across all sources in one pivot instance).
    pub id: StoryId,
    /// The data source this story was identified in.
    pub source: SourceId,
    /// Member snippets. Kept sorted by snippet id.
    pub members: Vec<SnippetId>,
    /// Temporal span covered by the member snippets.
    pub lifespan: TimeRange,
}

impl Story {
    /// A new, empty story.
    pub fn new(id: StoryId, source: SourceId) -> Self {
        Story {
            id,
            source,
            members: Vec::new(),
            lifespan: TimeRange::EMPTY,
        }
    }

    /// Number of member snippets.
    #[inline]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the story has no members.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Whether `snippet` belongs to this story.
    pub fn contains(&self, snippet: SnippetId) -> bool {
        self.members.binary_search(&snippet).is_ok()
    }

    /// Add a member and extend the lifespan. Idempotent.
    pub fn add_member(&mut self, snippet: SnippetId, at: Timestamp) {
        if let Err(pos) = self.members.binary_search(&snippet) {
            self.members.insert(pos, snippet);
        }
        self.lifespan = self.lifespan.extend(at);
    }

    /// Remove a member if present; returns whether it was removed.
    ///
    /// The lifespan is *not* shrunk here — callers that need a tight
    /// lifespan after removal recompute it from the surviving members'
    /// timestamps (the store knows those).
    pub fn remove_member(&mut self, snippet: SnippetId) -> bool {
        match self.members.binary_search(&snippet) {
            Ok(pos) => {
                self.members.remove(pos);
                true
            }
            Err(_) => false,
        }
    }
}

/// Role a snippet plays inside an integrated story (paper §2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SnippetRole {
    /// Has a temporally-proximate, content-similar counterpart in another
    /// source: it *aligns* the story across sources.
    Aligning,
    /// Source-exclusive extra information (special reports, background
    /// pieces): it *enriches* the story.
    Enriching,
}

/// An integrated story spanning data sources (`c'` in the paper,
/// Figure 1c).
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalStory {
    /// Unique id of the integrated story.
    pub id: GlobalStoryId,
    /// The per-source stories merged into this global story.
    pub member_stories: Vec<StoryId>,
    /// Distinct sources contributing to this story, sorted.
    pub sources: Vec<SourceId>,
    /// Member snippets with their alignment role, sorted by snippet id.
    pub members: Vec<(SnippetId, SnippetRole)>,
    /// Temporal span of the integrated story.
    pub lifespan: TimeRange,
}

impl GlobalStory {
    /// A new, empty global story.
    pub fn new(id: GlobalStoryId) -> Self {
        GlobalStory {
            id,
            member_stories: Vec::new(),
            sources: Vec::new(),
            members: Vec::new(),
            lifespan: TimeRange::EMPTY,
        }
    }

    /// Number of member snippets.
    #[inline]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether there are no member snippets.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Number of distinct contributing sources.
    pub fn source_count(&self) -> usize {
        self.sources.len()
    }

    /// Whether this story was corroborated by more than one source.
    pub fn is_cross_source(&self) -> bool {
        self.sources.len() > 1
    }

    /// The role of `snippet` within this story, if it is a member.
    pub fn role_of(&self, snippet: SnippetId) -> Option<SnippetRole> {
        self.members
            .binary_search_by_key(&snippet, |&(id, _)| id)
            .ok()
            .map(|i| self.members[i].1)
    }

    /// Record a contributing source (deduplicated, kept sorted).
    pub fn add_source(&mut self, source: SourceId) {
        if let Err(pos) = self.sources.binary_search(&source) {
            self.sources.insert(pos, source);
        }
    }

    /// Add a member snippet with its role (idempotent; updates role on
    /// re-insertion) and extend the lifespan.
    pub fn add_member(&mut self, snippet: SnippetId, role: SnippetRole, at: Timestamp) {
        match self.members.binary_search_by_key(&snippet, |&(id, _)| id) {
            Ok(i) => self.members[i].1 = role,
            Err(i) => self.members.insert(i, (snippet, role)),
        }
        self.lifespan = self.lifespan.extend(at);
    }

    /// Member snippets that align the story across sources.
    pub fn aligning(&self) -> impl Iterator<Item = SnippetId> + '_ {
        self.members
            .iter()
            .filter(|&&(_, r)| r == SnippetRole::Aligning)
            .map(|&(id, _)| id)
    }

    /// Member snippets that enrich the story with source-exclusive
    /// information.
    pub fn enriching(&self) -> impl Iterator<Item = SnippetId> + '_ {
        self.members
            .iter()
            .filter(|&&(_, r)| r == SnippetRole::Enriching)
            .map(|&(id, _)| id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn story_membership_is_sorted_and_idempotent() {
        let mut c = Story::new(StoryId::new(1), SourceId::new(0));
        c.add_member(SnippetId::new(5), Timestamp(50));
        c.add_member(SnippetId::new(2), Timestamp(20));
        c.add_member(SnippetId::new(5), Timestamp(50));
        assert_eq!(c.members, vec![SnippetId::new(2), SnippetId::new(5)]);
        assert_eq!(c.lifespan, TimeRange::new(Timestamp(20), Timestamp(50)));
        assert!(c.contains(SnippetId::new(2)));
        assert!(!c.contains(SnippetId::new(3)));
    }

    #[test]
    fn story_remove_member() {
        let mut c = Story::new(StoryId::new(0), SourceId::new(0));
        c.add_member(SnippetId::new(1), Timestamp(1));
        assert!(c.remove_member(SnippetId::new(1)));
        assert!(!c.remove_member(SnippetId::new(1)));
        assert!(c.is_empty());
    }

    #[test]
    fn global_story_roles() {
        let mut g = GlobalStory::new(GlobalStoryId::new(0));
        g.add_source(SourceId::new(1));
        g.add_source(SourceId::new(0));
        g.add_source(SourceId::new(1));
        assert_eq!(g.sources, vec![SourceId::new(0), SourceId::new(1)]);
        assert!(g.is_cross_source());

        g.add_member(SnippetId::new(3), SnippetRole::Aligning, Timestamp(30));
        g.add_member(SnippetId::new(1), SnippetRole::Enriching, Timestamp(10));
        assert_eq!(g.role_of(SnippetId::new(3)), Some(SnippetRole::Aligning));
        assert_eq!(g.role_of(SnippetId::new(9)), None);
        assert_eq!(g.aligning().collect::<Vec<_>>(), vec![SnippetId::new(3)]);
        assert_eq!(g.enriching().collect::<Vec<_>>(), vec![SnippetId::new(1)]);

        // Re-adding flips the role rather than duplicating the member.
        g.add_member(SnippetId::new(3), SnippetRole::Enriching, Timestamp(30));
        assert_eq!(g.len(), 2);
        assert_eq!(g.role_of(SnippetId::new(3)), Some(SnippetRole::Enriching));
    }

    #[test]
    fn single_source_story_is_not_cross_source() {
        let mut g = GlobalStory::new(GlobalStoryId::new(1));
        g.add_source(SourceId::new(4));
        assert!(!g.is_cross_source());
        assert_eq!(g.source_count(), 1);
    }
}
