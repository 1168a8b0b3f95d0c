//! The similarity model shared by identification, alignment, and
//! refinement.
//!
//! Paper §2.2: *"If a snippet is sufficiently similar to any other
//! candidate snippets they may be part of the same story."* Similarity
//! combines three signals — shared entities, shared description terms,
//! and event-type affinity — with configurable weights.

use storypivot_types::kernel::{BoundProbe, ProbeTable};
use storypivot_types::{EntityId, Error, Result, Snippet, SnippetContent, SparseVec, TermId};

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

    /// The score of three component similarities: their weighted sum
    /// over the weight total.
    #[inline]
    pub(crate) fn blend(&self, entity: f64, term: f64, event: f64) -> f64 {
        (self.entity * entity + self.term * term + self.event * event) / self.total()
    }

    /// Similarity of two snippet contents in `[0,1]`, through the merge
    /// kernels. This is the definition; [`ProbeScorer`] reproduces it
    /// bit for bit.
    pub fn content_sim(&self, a: &SnippetContent, b: &SnippetContent) -> f64 {
        let e = a.entities.weighted_jaccard(&b.entities);
        let t = a.terms.cosine(&b.terms);
        self.blend(e, t, a.event_type.affinity(b.event_type))
    }

    /// Similarity of two snippets (delegates to the contents).
    #[inline]
    pub fn snippet_sim(&self, a: &Snippet, b: &Snippet) -> f64 {
        self.content_sim(&a.content, &b.content)
    }

    /// Bind one probe content into `tables` for repeated scoring against
    /// many counterparts. The probe's vectors go into the tables once,
    /// and leave them when the scorer is dropped.
    pub fn probe<'a>(&self, a: &'a SnippetContent, tables: &'a mut ProbeTables) -> ProbeScorer<'a> {
        ProbeScorer {
            weights: *self,
            content: a,
            entities: tables.entities.bind(a.entities.as_slice()),
            terms: tables.terms.bind(a.terms.as_slice()),
        }
    }
}

/// The probe tables a [`ProbeScorer`] binds its probe into, one for the
/// entities and one for the terms ([`storypivot_types::kernel::ProbeTable`]).
/// Whoever scores probe after probe owns one and lends it to each
/// [`SimWeights::probe`], so binds stop allocating once the tables have
/// grown; each table is at most 32 KiB.
#[derive(Debug, Clone, Default)]
pub struct ProbeTables {
    entities: ProbeTable,
    terms: ProbeTable,
}

impl ProbeTables {
    /// Heap bytes of both tables (the memory account).
    pub fn heap_bytes(&self) -> usize {
        self.entities.heap_bytes() + self.terms.heap_bytes()
    }
}

/// One probe snippet's content, bound for scoring against many
/// candidates ([`SimWeights::probe`]).
///
/// Every cosine against the probe — the term component of
/// [`ProbeScorer::score`], and [`ProbeScorer::entity_cosine`] /
/// [`ProbeScorer::term_cosine`] against story folds — looks the
/// candidate's keys up in the probe's table instead of merging the two
/// lists ([`SparseVec::cosine_table`]). Weighted Jaccard stays a merge.
/// Same kernels' bits, same term order: `score` is bit-identical to
/// [`SimWeights::content_sim`] and the cosines to
/// [`SparseVec::cosine`], and debug builds assert it on every cosine.
#[derive(Debug)]
pub struct ProbeScorer<'a> {
    weights: SimWeights,
    content: &'a SnippetContent,
    entities: BoundProbe<'a, EntityId>,
    terms: BoundProbe<'a, TermId>,
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
        // Both are signature-guarded: a pair sharing no entity (or no
        // term) costs two inline words each.
        let e = self.content.entities.weighted_jaccard(&b.entities);
        let t = self.term_cosine(&b.terms);
        let ev = self.content.event_type.affinity(b.event_type);
        (self.weights.blend(e, t, ev), t)
    }

    /// Cosine of the probe's entities and `other`, by table lookup.
    #[inline]
    pub fn entity_cosine(&self, other: &SparseVec<EntityId>) -> f64 {
        self.content.entities.cosine_table(&self.entities, other)
    }

    /// Cosine of the probe's terms and `other`, by table lookup.
    #[inline]
    pub fn term_cosine(&self, other: &SparseVec<TermId>) -> f64 {
        self.content.terms.cosine_table(&self.terms, other)
    }

    /// Upper bounds on the entity components against any vector whose
    /// key signature is `sig`: on [`ProbeScorer::entity_cosine`] and on
    /// the weighted Jaccard [`ProbeScorer::score`] blends in, as
    /// `(cosine, jaccard)`
    /// ([`storypivot_types::kernel::BoundProbe::bounds`]).
    #[inline]
    pub(crate) fn entity_bounds(&self, sig: u64) -> (f64, f64) {
        self.entities.bounds(sig)
    }

    /// An upper bound on [`ProbeScorer::term_cosine`] against any vector
    /// whose key signature is `sig`.
    #[inline]
    pub(crate) fn term_bound(&self, sig: u64) -> f64 {
        self.terms.cosine_bound(sig)
    }

    /// Whether the probe's entity and term norms are both finite and
    /// positive: the bounds are to be trusted only then.
    #[inline]
    pub(crate) fn bounds_hold(&self) -> bool {
        let ok = |n: f64| n.is_finite() && n > 0.0;
        ok(self.content.entities.norm()) && ok(self.content.terms.norm())
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
        let snippets = [
            snip(&[1, 2, 3], &[10, 11], EventType::Accident),
            snip(&[2, 9], &[10, 12], EventType::Protest),
            snip(&[9], &[12, 13, 14, u32::MAX], EventType::Protest),
            snip(
                &[0, 1, 2, 3, 4, 5, 6],
                &[0, 11, 12, u32::MAX],
                EventType::Sports,
            ),
            snip(&[], &[], EventType::Accident),
        ];
        let w = SimWeights::default();
        // One pair of tables for every probe, as the engine holds them.
        let mut tables = ProbeTables::default();
        for a in &snippets {
            let p = w.probe(&a.content, &mut tables);
            for b in &snippets {
                let (a, b) = (&a.content, &b.content);
                assert_eq!(p.score(b).to_bits(), w.content_sim(a, b).to_bits());
                assert_eq!(
                    p.entity_cosine(&b.entities).to_bits(),
                    a.entities.cosine(&b.entities).to_bits()
                );
                assert_eq!(
                    p.term_cosine(&b.terms).to_bits(),
                    a.terms.cosine(&b.terms).to_bits()
                );
            }
            drop(p);
            assert!(tables.entities.is_vacant() && tables.terms.is_vacant());
        }
    }

    #[test]
    fn score_and_term_hands_back_the_term_cosine() {
        let a = snip(&[1, 2, 3], &[10, 11], EventType::Accident);
        let b = snip(&[2, 9], &[10, 12], EventType::Protest);
        let mut tables = ProbeTables::default();
        let p = SimWeights::default().probe(&a.content, &mut tables);
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
