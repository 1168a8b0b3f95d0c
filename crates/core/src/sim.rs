//! The similarity model shared by identification, alignment, and
//! refinement.
//!
//! Paper §2.2: *"If a snippet is sufficiently similar to any other
//! candidate snippets they may be part of the same story."* Similarity
//! combines three signals — shared entities, shared description terms,
//! and event-type affinity — with configurable weights.

use storypivot_types::{EntityId, Error, EventType, Result, Snippet, SnippetContent, SparseVec, TermId};

/// Weights of the similarity components. They need not sum to one; the
/// score is normalized by the weight total.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimWeights {
    /// Weight of entity overlap (weighted Jaccard).
    pub entity: f64,
    /// Weight of description-term similarity (cosine over TF-IDF).
    pub term: f64,
    /// Weight of event-type affinity.
    pub event: f64,
}

impl Default for SimWeights {
    fn default() -> Self {
        SimWeights {
            entity: 0.45,
            term: 0.45,
            event: 0.10,
        }
    }
}

impl SimWeights {
    /// Validate the weights: non-negative, not all zero.
    pub fn validate(&self) -> Result<()> {
        if self.entity < 0.0 || self.term < 0.0 || self.event < 0.0 {
            return Err(Error::InvalidConfig("similarity weights must be non-negative".into()));
        }
        if self.total() == 0.0 {
            return Err(Error::InvalidConfig("similarity weights must not all be zero".into()));
        }
        Ok(())
    }

    /// Sum of the weights.
    pub fn total(&self) -> f64 {
        self.entity + self.term + self.event
    }

    /// Similarity of two snippet contents in `[0,1]`.
    pub fn content_sim(&self, a: &SnippetContent, b: &SnippetContent) -> f64 {
        self.probe(a).score(b)
    }

    /// Similarity of two snippets (delegates to the contents).
    #[inline]
    pub fn snippet_sim(&self, a: &Snippet, b: &Snippet) -> f64 {
        self.content_sim(&a.content, &b.content)
    }

    /// Bind one probe content for repeated scoring against many
    /// counterparts. The probe-side vectors and the weight total are
    /// looked up once instead of per comparison.
    pub fn probe<'a>(&self, a: &'a SnippetContent) -> ProbeScorer<'a> {
        ProbeScorer {
            entity_w: self.entity,
            term_w: self.term,
            event_w: self.event,
            total: self.total(),
            entities: &a.entities,
            terms: &a.terms,
            event_type: a.event_type,
        }
    }
}

/// One probe snippet's content, pre-bound for scoring against many
/// candidates ([`SimWeights::probe`]).
///
/// `score` evaluates exactly the same expression as
/// [`SimWeights::content_sim`] — same kernels, same term order — so a
/// loop over candidates through a `ProbeScorer` is bit-identical to
/// calling `content_sim` per pair, just without re-deriving the
/// probe-side state every iteration.
#[derive(Debug, Clone, Copy)]
pub struct ProbeScorer<'a> {
    entity_w: f64,
    term_w: f64,
    event_w: f64,
    total: f64,
    entities: &'a SparseVec<EntityId>,
    terms: &'a SparseVec<TermId>,
    event_type: EventType,
}

impl ProbeScorer<'_> {
    /// Similarity of the bound probe against `b` in `[0,1]`.
    #[inline]
    pub fn score(&self, b: &SnippetContent) -> f64 {
        self.score_and_term(b).0
    }

    /// [`ProbeScorer::score`] together with the term component (cosine
    /// of the description terms) it blended in, for callers that also
    /// hold that component to a floor of its own.
    #[inline]
    pub fn score_and_term(&self, b: &SnippetContent) -> (f64, f64) {
        // Both go through `SparseVec`'s guarded entry points: a pair
        // sharing no entity (or no term) costs two inline words each,
        // not a merge over two heap buffers.
        let e = self.entities.weighted_jaccard(&b.entities);
        let t = self.terms.cosine(&b.terms);
        let ev = self.event_type.affinity(b.event_type);
        ((self.entity_w * e + self.term_w * t + self.event_w * ev) / self.total, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use storypivot_types::{EntityId, EventType, SnippetId, SourceId, TermId, Timestamp};

    fn snip(entities: &[u32], terms: &[u32], ty: EventType) -> Snippet {
        let mut b = Snippet::builder(SnippetId::new(0), SourceId::new(0), Timestamp::EPOCH)
            .event_type(ty);
        for &e in entities {
            b = b.entity(EntityId::new(e), 1.0);
        }
        for &t in terms {
            b = b.term(TermId::new(t), 1.0);
        }
        b.build()
    }

    #[test]
    fn identical_snippets_score_one() {
        let a = snip(&[1, 2], &[10, 11], EventType::Accident);
        let b = snip(&[1, 2], &[10, 11], EventType::Accident);
        let s = SimWeights::default().snippet_sim(&a, &b);
        assert!((s - 1.0).abs() < 1e-9, "score {s}");
    }

    #[test]
    fn disjoint_snippets_score_zero() {
        let a = snip(&[1], &[10], EventType::Accident);
        let b = snip(&[2], &[11], EventType::Sports);
        assert_eq!(SimWeights::default().snippet_sim(&a, &b), 0.0);
    }

    #[test]
    fn partial_overlap_lands_between() {
        let a = snip(&[1, 2, 3], &[10, 11], EventType::Accident);
        let b = snip(&[1, 2, 9], &[10, 12], EventType::Accident);
        let s = SimWeights::default().snippet_sim(&a, &b);
        assert!(s > 0.3 && s < 1.0, "score {s}");
    }

    #[test]
    fn weights_steer_the_score() {
        let a = snip(&[1], &[10], EventType::Accident);
        let b = snip(&[1], &[11], EventType::Accident);
        // Entity-only weighting: full entity overlap ⇒ high score.
        let entity_only = SimWeights { entity: 1.0, term: 0.0, event: 0.0 };
        assert!((entity_only.snippet_sim(&a, &b) - 1.0).abs() < 1e-9);
        // Term-only weighting: no term overlap ⇒ zero.
        let term_only = SimWeights { entity: 0.0, term: 1.0, event: 0.0 };
        assert_eq!(term_only.snippet_sim(&a, &b), 0.0);
    }

    #[test]
    fn event_affinity_contributes() {
        let a = snip(&[], &[], EventType::Conflict);
        let b = snip(&[], &[], EventType::Protest);
        let w = SimWeights { entity: 0.0, term: 0.0, event: 1.0 };
        assert_eq!(w.snippet_sim(&a, &b), 0.5);
    }

    #[test]
    fn score_is_symmetric() {
        let a = snip(&[1, 2], &[10], EventType::Accident);
        let b = snip(&[2, 3], &[10, 11], EventType::Diplomacy);
        let w = SimWeights::default();
        assert_eq!(w.snippet_sim(&a, &b), w.snippet_sim(&b, &a));
    }

    #[test]
    fn probe_scorer_matches_content_sim_bitwise() {
        let a = snip(&[1, 2, 3], &[10, 11], EventType::Accident);
        let b = snip(&[2, 9], &[10, 12], EventType::Protest);
        let w = SimWeights::default();
        let p = w.probe(&a.content);
        assert_eq!(
            p.score(&b.content).to_bits(),
            w.content_sim(&a.content, &b.content).to_bits()
        );
    }

    #[test]
    fn score_and_term_hands_back_the_term_cosine() {
        let a = snip(&[1, 2, 3], &[10, 11], EventType::Accident);
        let b = snip(&[2, 9], &[10, 12], EventType::Protest);
        let p = SimWeights::default().probe(&a.content);
        let (s, t) = p.score_and_term(&b.content);
        assert_eq!(s.to_bits(), p.score(&b.content).to_bits());
        assert_eq!(t.to_bits(), a.terms().cosine(b.terms()).to_bits());
    }

    #[test]
    fn validation_rejects_bad_weights() {
        assert!(SimWeights { entity: -0.1, term: 0.5, event: 0.1 }.validate().is_err());
        assert!(SimWeights { entity: 0.0, term: 0.0, event: 0.0 }.validate().is_err());
        assert!(SimWeights::default().validate().is_ok());
    }
}
