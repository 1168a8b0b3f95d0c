//! The four frozen workloads: generator parameters, op counts and the
//! seeded op stream each pass replays.
//!
//! A workload's *world* — its stories, events and which source reports
//! what — is frozen: it comes from `storypivot_gen` with the fixed
//! generator seed `WORLD_SEED`, generated 15 % larger than needed and
//! cut to exactly `Spec::snippets` in delivery order. Per-event cost
//! depends on the world far more than on any code change (ten generator
//! seeds moved `events_per_s` by 33–47 %, quartile distance over
//! median), so a world per run seed would drown every comparison.
//!
//! The run seed decides everything else the program sees: entities and
//! terms are relabelled by a seeded permutation (no two seeds share
//! ids, sort orders inside the sparse vectors or hash buckets), and the
//! seed picks which entity each query names and which document each
//! removal retracts. The program under test only ever sees the
//! resulting ops.

use std::collections::HashMap;
use std::time::Instant;

use storypivot_gen::{Corpus, CorpusBuilder, GenConfig};
use storypivot_substrate::rng::{splitmix64, SliceRandom, StdRng};
use storypivot_types::{DocId, EntityId, SnippetId, SparseVec, TermId};

use crate::stats::Fnv;

/// Which engine a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `StoryPivot::ingest_detailed` per snippet, no alignment.
    Identify,
    /// `DynamicPivot` with align+refine every 256 ingests, reads between.
    AlignRefine,
    /// An in-process `storypivot_serve` server driven by one `Client`.
    Serve,
}

/// One frozen workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Engine driven.
    pub kind: Kind,
    /// `GenConfig::sources`; every other generator field is the default.
    pub sources: u32,
    /// Snippets ingested per pass.
    pub snippets: usize,
}

/// `GenConfig::seed` of every workload's world.
pub const WORLD_SEED: u64 = 2015;
/// After every how many ingests `align_refine` issues one read.
pub const ALIGN_READ_EVERY: usize = 16;
/// `align_refine` re-aligns and refines after this many ingests.
pub const ALIGN_EVERY: usize = 256;
/// After every how many ingests `serve_mixed` issues GET_STORY.
pub const SERVE_GET_EVERY: usize = 8;
/// After every how many ingests `serve_mixed` issues QUERY_STORIES.
pub const SERVE_QUERY_EVERY: usize = 64;
/// After every how many ingests `serve_mixed` issues REMOVE_DOC.
pub const SERVE_REMOVE_EVERY: usize = 100;
/// Queries name one of this many most frequent entities.
const HOT_ENTITIES: usize = 8;

/// The benchmark's workloads, in reporting order. Sizes are frozen:
/// changing one changes every number measured since.
pub const SPECS: [Spec; 4] = [
    Spec {
        name: "identify_dense",
        kind: Kind::Identify,
        sources: 2,
        snippets: 7_500,
    },
    Spec {
        name: "identify_wide",
        kind: Kind::Identify,
        sources: 24,
        snippets: 24_000,
    },
    Spec {
        name: "align_refine",
        kind: Kind::AlignRefine,
        sources: 10,
        snippets: 1_700,
    },
    Spec {
        name: "serve_mixed",
        kind: Kind::Serve,
        sources: 6,
        snippets: 3_200,
    },
];

/// Look a workload up by name.
pub fn spec(name: &str) -> Option<Spec> {
    SPECS.iter().copied().find(|s| s.name == name)
}

#[cfg(test)]
impl Spec {
    /// The same workload at another size (unit-test smokes).
    pub fn with_snippets(mut self, snippets: usize) -> Self {
        self.snippets = snippets;
        self
    }
}

/// One operation of a pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Ingest `corpus.snippets[i]`.
    Ingest(u32),
    /// `query_stories(StoryQuery::entity(e))` (align_refine).
    QueryEntity(EntityId),
    /// `explain_assignment(id, 5)` (align_refine).
    Explain(SnippetId),
    /// GET_STORY of the story the previous ingest was assigned to (serve_mixed).
    GetStoryLast,
    /// QUERY_STORIES (serve_mixed).
    QueryStories,
    /// REMOVE_DOC of an earlier, still present document (serve_mixed).
    RemoveDoc(DocId),
}

/// A generated workload instance: corpus plus op stream.
pub struct Prepared {
    /// The workload.
    pub spec: Spec,
    /// The seeded corpus, cut to `spec.snippets`.
    pub corpus: Corpus,
    /// The ops every pass replays.
    pub ops: Vec<Op>,
    /// FNV-1a over the op stream and the content of every ingested snippet.
    pub op_hash: u64,
    /// Time `CorpusBuilder::build` took.
    pub corpus_build_ns: u64,
}

impl Prepared {
    /// Number of ingest ops.
    pub fn ingests(&self) -> usize {
        self.corpus.snippets.len()
    }
}

/// Generate the corpus and op stream of `spec` for `seed`.
pub fn prepare(spec: Spec, seed: u64) -> Prepared {
    let cfg = GenConfig::default()
        .with_seed(WORLD_SEED)
        .with_sources(spec.sources)
        .with_target_snippets(spec.snippets + spec.snippets * 15 / 100);
    let t = Instant::now();
    let mut corpus = CorpusBuilder::new(cfg).build();
    let corpus_build_ns = t.elapsed().as_nanos() as u64;
    corpus.snippets.truncate(spec.snippets);
    relabel(&mut corpus, seed);
    let ops = build_ops(spec, &corpus, seed);
    let op_hash = hash_ops(&corpus, &ops);
    Prepared {
        spec,
        corpus,
        ops,
        op_hash,
        corpus_build_ns,
    }
}

/// A seeded permutation of `0..n`.
fn permutation(n: usize, seed: u64) -> Vec<u32> {
    let mut perm: Vec<u32> = (0..n as u32).collect();
    perm.shuffle(&mut StdRng::seed_from_u64(seed));
    perm
}

/// Renumber every entity and term by a seeded permutation of the
/// catalogs. The display-name tables are left alone: nothing here reads them.
fn relabel(corpus: &mut Corpus, seed: u64) {
    let entities = permutation(corpus.entity_names.len(), seed ^ 0x454E_5449_5449_4553); // "ENTITIES"
    let terms = permutation(corpus.term_names.len(), seed ^ 0x5445_524D_5445_524D); // "TERMTERM"
    for s in &mut corpus.snippets {
        let c = &mut s.content;
        c.entities = SparseVec::from_pairs(
            c.entities
                .iter()
                .map(|(e, w)| (EntityId::new(entities[e.index()]), w))
                .collect(),
        );
        c.terms = SparseVec::from_pairs(
            c.terms
                .iter()
                .map(|(t, w)| (TermId::new(terms[t.index()]), w))
                .collect(),
        );
    }
}

/// The most frequent entities of the corpus, most frequent first.
fn hot_entities(corpus: &Corpus) -> Vec<EntityId> {
    let mut counts: HashMap<EntityId, u32> = HashMap::new();
    for s in &corpus.snippets {
        for e in s.entities().keys() {
            *counts.entry(e).or_default() += 1;
        }
    }
    let mut ranked: Vec<(EntityId, u32)> = counts.into_iter().collect();
    ranked.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    ranked
        .into_iter()
        .take(HOT_ENTITIES)
        .map(|(e, _)| e)
        .collect()
}

fn build_ops(spec: Spec, corpus: &Corpus, seed: u64) -> Vec<Op> {
    let mut rng = seed ^ 0x5350_4245_4E43_4821; // "SPBENCH!"
    let hot = hot_entities(corpus);
    let mut live: Vec<DocId> = Vec::new();
    let mut ops = Vec::with_capacity(corpus.snippets.len() * 9 / 8 + 8);
    let mut reads = 0usize;
    for (i, s) in corpus.snippets.iter().enumerate() {
        ops.push(Op::Ingest(i as u32));
        let n = i + 1;
        match spec.kind {
            Kind::Identify => {}
            Kind::AlignRefine => {
                if n % ALIGN_READ_EVERY == 0 {
                    reads += 1;
                    if reads % 2 == 1 && !hot.is_empty() {
                        let e = hot[(splitmix64(&mut rng) % hot.len() as u64) as usize];
                        ops.push(Op::QueryEntity(e));
                    } else {
                        ops.push(Op::Explain(s.id));
                    }
                }
            }
            Kind::Serve => {
                live.push(s.doc);
                if n % SERVE_GET_EVERY == 0 {
                    ops.push(Op::GetStoryLast);
                }
                if n % SERVE_QUERY_EVERY == 0 {
                    ops.push(Op::QueryStories);
                }
                // Never retract the newest document: GET_STORY of the
                // story it just joined must keep succeeding.
                if n % SERVE_REMOVE_EVERY == 0 && live.len() > 1 {
                    let pick = (splitmix64(&mut rng) % (live.len() as u64 - 1)) as usize;
                    ops.push(Op::RemoveDoc(live.swap_remove(pick)));
                }
            }
        }
    }
    ops
}

fn hash_ops(corpus: &Corpus, ops: &[Op]) -> u64 {
    let mut h = Fnv::default();
    for op in ops {
        match *op {
            Op::Ingest(i) => {
                let s = &corpus.snippets[i as usize];
                h.u64(1);
                h.u64(s.id.raw() as u64);
                h.u64(s.source.raw() as u64);
                h.u64(s.doc.raw() as u64);
                h.u64(s.timestamp.secs() as u64);
                for (e, w) in s.entities().iter() {
                    h.u64(e.raw() as u64);
                    h.u64(w.to_bits() as u64);
                }
                for (t, w) in s.terms().iter() {
                    h.u64(t.raw() as u64);
                    h.u64(w.to_bits() as u64);
                }
                h.bytes(s.content.headline.as_bytes());
            }
            Op::QueryEntity(e) => {
                h.u64(2);
                h.u64(e.raw() as u64);
            }
            Op::Explain(id) => {
                h.u64(3);
                h.u64(id.raw() as u64);
            }
            Op::GetStoryLast => h.u64(4),
            Op::QueryStories => h.u64(5),
            Op::RemoveDoc(d) => {
                h.u64(6);
                h.u64(d.raw() as u64);
            }
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_op_stream_other_seed_other_stream() {
        for s in SPECS {
            let small = s.with_snippets(300);
            let a = prepare(small, 7);
            let b = prepare(small, 7);
            let c = prepare(small, 8);
            assert_eq!(a.ops, b.ops, "{}", s.name);
            assert_eq!(a.op_hash, b.op_hash, "{}", s.name);
            assert_ne!(a.op_hash, c.op_hash, "{}", s.name);
            assert_ne!(a.corpus.snippets, c.corpus.snippets, "{}", s.name);
        }
    }

    #[test]
    fn op_counts_do_not_depend_on_the_seed() {
        for s in SPECS {
            let small = s.with_snippets(400);
            let (a, b) = (prepare(small, 1), prepare(small, 2));
            assert_eq!(a.ingests(), 400, "{}", s.name);
            assert_eq!(a.ops.len(), b.ops.len(), "{}", s.name);
        }
    }

    #[test]
    fn relabelling_keeps_the_world_and_changes_the_names() {
        let spec = spec("identify_dense").unwrap().with_snippets(300);
        let (a, b) = (prepare(spec, 1), prepare(spec, 2));
        let mut differ = 0;
        for (x, y) in a.corpus.snippets.iter().zip(&b.corpus.snippets) {
            assert_eq!(
                (x.id, x.source, x.doc, x.timestamp),
                (y.id, y.source, y.doc, y.timestamp)
            );
            assert_eq!(x.entities().len(), y.entities().len());
            assert_eq!(x.terms().len(), y.terms().len());
            differ += (x.entities() != y.entities()) as usize;
        }
        assert!(
            differ > 250,
            "only {differ} of 300 snippets changed entity ids"
        );
    }

    #[test]
    fn serve_ops_follow_the_mix_and_never_remove_twice() {
        let p = prepare(spec("serve_mixed").unwrap().with_snippets(800), 3);
        let count = |f: fn(&Op) -> bool| p.ops.iter().filter(|o| f(o)).count();
        assert_eq!(
            count(|o| matches!(o, Op::GetStoryLast)),
            800 / SERVE_GET_EVERY
        );
        assert_eq!(
            count(|o| matches!(o, Op::QueryStories)),
            800 / SERVE_QUERY_EVERY
        );
        let mut removed: Vec<DocId> = p
            .ops
            .iter()
            .filter_map(|op| match op {
                Op::RemoveDoc(d) => Some(*d),
                _ => None,
            })
            .collect();
        assert_eq!(removed.len(), 800 / SERVE_REMOVE_EVERY);
        removed.sort_unstable();
        removed.dedup();
        assert_eq!(removed.len(), 800 / SERVE_REMOVE_EVERY);
    }

    #[test]
    fn align_reads_alternate() {
        let p = prepare(spec("align_refine").unwrap().with_snippets(320), 3);
        let reads: Vec<&Op> = p
            .ops
            .iter()
            .filter(|o| matches!(o, Op::QueryEntity(_) | Op::Explain(_)))
            .collect();
        assert_eq!(reads.len(), 320 / ALIGN_READ_EVERY);
        assert!(matches!(reads[0], Op::QueryEntity(_)));
        assert!(matches!(reads[1], Op::Explain(_)));
    }
}
