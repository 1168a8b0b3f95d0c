//! Composable, phase-based chaos scenarios.
//!
//! A corpus from [`crate::CorpusBuilder`] is a well-behaved stream:
//! sources registered up front, delivery roughly paced by publication
//! lag, nothing ever retracted. Real feeds are not that polite. A
//! [`Scenario`] reshapes a corpus into an adversarial *script* — a
//! sequence of [`Segment`]s, each a stretch of operations driven at
//! its own rate after its own dormancy gap — while keeping the ground
//! truth consistent with exactly the snippets that survive to the end,
//! so clustering quality remains scoreable *under load*.
//!
//! The phase knobs compose:
//!
//! * `weight` — the share of the corpus stream the phase consumes;
//! * `rate` / `gap_ms` — pacing: a burst phase streams unpaced, a
//!   dormancy phase sleeps before its first event;
//! * `duplicates` — wire-service flood: every snippet is re-emitted as
//!   fresh near-identical copies (new snippet and document ids, same
//!   story label);
//! * `retract` — a fraction of the phase's documents is REMOVE_DOC'd
//!   at the end of the phase, and the retracted snippets leave the
//!   ground truth;
//! * `late_sources` — sources whose registration (and any earlier
//!   snippets, held back) only happens when the phase begins;
//! * `focus_top_stories` — Zipf-style skew: the phase keeps only the
//!   snippets of its most-reported stories, the shape of a flash
//!   crowd where every outlet covers the same breaking story.
//!
//! Five adversarial builtins ([`flash_crowd`], [`duplicate_flood`],
//! [`source_churn`], [`retraction_storm`], [`resurgence`]) cover the
//! failure shapes the serving layer degrades under; `loadgen
//! --scenario <name>` replays them against a live server and the
//! bench harness scores F-measure for each (experiment E16).

use std::collections::HashMap;

use storypivot_types::{DocId, Snippet, SnippetId, Source, SourceId};

use crate::config::GenConfig;
use crate::corpus::CorpusBuilder;
use crate::truth::GroundTruth;

/// One phase of a [`Scenario`]: how a contiguous share of the corpus
/// stream is delivered.
#[derive(Debug, Clone)]
pub struct Phase {
    /// Phase name (becomes the compiled segment's name).
    pub name: &'static str,
    /// Relative share of the corpus stream this phase consumes; the
    /// stream is split proportionally to the weights.
    pub weight: u32,
    /// Target events/second while the phase streams (0 = unpaced).
    pub rate: u64,
    /// Idle pause before the phase's first event, in milliseconds.
    pub gap_ms: u64,
    /// Extra near-identical copies emitted per snippet (fresh snippet
    /// and document ids, same source, timestamp, content, and label).
    pub duplicates: u32,
    /// Fraction of this phase's documents retracted (REMOVE_DOC) once
    /// the phase has streamed.
    pub retract: f64,
    /// How many not-yet-registered sources come online when this phase
    /// begins. Late sources are taken from the top of the id space in
    /// phase order, so mid-stream ADD_SOURCE still allocates ids
    /// sequentially; snippets of a late source that the stream emitted
    /// earlier are held back and flushed right after its registration.
    pub late_sources: u32,
    /// Keep only the snippets of the phase's `k` most-reported stories
    /// (the rest of the phase's share is dropped from the script and
    /// the truth).
    pub focus_top_stories: Option<u32>,
}

impl Default for Phase {
    fn default() -> Self {
        Phase {
            name: "phase",
            weight: 1,
            rate: 0,
            gap_ms: 0,
            duplicates: 0,
            retract: 0.0,
            late_sources: 0,
            focus_top_stories: None,
        }
    }
}

/// A scenario before compilation: corpus knobs plus phases.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario name (carried onto the compiled script).
    pub name: &'static str,
    /// Corpus generator configuration (seed, size, noise — per-phase
    /// noise is expressed by choosing noisier corpus knobs for the
    /// scenario as a whole).
    pub config: GenConfig,
    /// The phases, in delivery order.
    pub phases: Vec<Phase>,
}

/// One operation of a compiled script.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioOp {
    /// Register a source coming online mid-stream. Must be sent before
    /// any snippet of that source, in ascending id order (the server
    /// allocates source ids sequentially).
    AddSource(Source),
    /// Ingest one snippet.
    Ingest(Snippet),
    /// Retract a document.
    RemoveDoc(DocId),
}

/// A contiguous stretch of a compiled script with one pacing policy.
#[derive(Debug, Clone)]
pub struct Segment {
    /// The originating phase's name.
    pub name: &'static str,
    /// Target events/second (0 = unpaced).
    pub rate: u64,
    /// Idle pause before the segment's first operation.
    pub gap_ms: u64,
    /// The operations, in delivery order.
    pub ops: Vec<ScenarioOp>,
}

/// A compiled, deterministic chaos scenario, ready for the load
/// generator.
#[derive(Debug, Clone)]
pub struct Script {
    /// Scenario name.
    pub name: &'static str,
    /// Sources registered before the stream starts (late sources show
    /// up as [`ScenarioOp::AddSource`] inside segments instead).
    pub sources: Vec<Source>,
    /// The segments, in delivery order.
    pub segments: Vec<Segment>,
    /// Ground truth over the snippets that survive the whole script
    /// (retracted documents excluded), keyed by the script's own
    /// sequential snippet ids.
    pub truth: GroundTruth,
}

impl Script {
    /// Total snippets the script ingests (duplicates included).
    pub fn events(&self) -> usize {
        self.segments
            .iter()
            .map(|s| s.ops.iter().filter(|op| matches!(op, ScenarioOp::Ingest(_))).count())
            .sum()
    }

    /// Total documents the script retracts.
    pub fn removed_docs(&self) -> usize {
        self.segments
            .iter()
            .map(|s| s.ops.iter().filter(|op| matches!(op, ScenarioOp::RemoveDoc(_))).count())
            .sum()
    }
}

/// One splitmix64 step — the deterministic choice source for
/// retraction sampling.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Scenario {
    /// Compile the scenario: generate the corpus, carve its delivery
    /// stream into phase slices, apply each phase's knobs, and re-key
    /// snippets and documents sequentially over the final operation
    /// stream (ids in arrival order, ground truth rebuilt to match).
    pub fn compile(&self) -> Script {
        let corpus = CorpusBuilder::new(self.config.clone()).build();
        let total_weight: u64 = self.phases.iter().map(|p| u64::from(p.weight.max(1))).sum();
        let total_late: u32 = self.phases.iter().map(|p| p.late_sources).sum();
        assert!(
            (total_late as usize) < corpus.sources.len(),
            "scenario {}: at least one source must be registered up front",
            self.name
        );
        let initial = corpus.sources.len() - total_late as usize;
        let mut late_iter = corpus.sources[initial..].iter().cloned();
        let mut active: Vec<bool> = (0..corpus.sources.len()).map(|i| i < initial).collect();
        let mut holdback: HashMap<SourceId, Vec<Snippet>> = HashMap::new();

        let mut next_snippet = 0u32;
        let mut next_doc = 0u32;
        let mut truth = GroundTruth::new();
        // Re-key one corpus snippet into the script's id space and
        // record its label under the new id.
        let mut emit = |s: &Snippet, truth: &mut GroundTruth, ops: &mut Vec<ScenarioOp>| {
            let id = SnippetId::new(next_snippet);
            let doc = DocId::new(next_doc);
            next_snippet += 1;
            next_doc += 1;
            let label = corpus
                .truth
                .label_of(s.id)
                .expect("corpus snippet carries a label");
            truth.record(id, label, s.source);
            ops.push(ScenarioOp::Ingest(Snippet {
                id,
                source: s.source,
                doc,
                timestamp: s.timestamp,
                content: s.content.clone(),
            }));
            (id, doc)
        };

        let mut rng = self.config.seed ^ 0xC1A0_5CE7;
        let mut segments = Vec::with_capacity(self.phases.len());
        let mut cursor = 0usize;
        let n = corpus.snippets.len();
        let mut consumed_weight = 0u64;
        for phase in &self.phases {
            consumed_weight += u64::from(phase.weight.max(1));
            let end = ((n as u64 * consumed_weight) / total_weight) as usize;
            let slice = &corpus.snippets[cursor..end.max(cursor)];
            cursor = end.max(cursor);

            let mut ops = Vec::new();
            // Sources coming online this phase, in ascending id order,
            // each followed by its held-back backlog.
            for _ in 0..phase.late_sources {
                let source = late_iter.next().expect("late source quota matches the id space");
                active[source.id.raw() as usize] = true;
                let backlog = holdback.remove(&source.id).unwrap_or_default();
                ops.push(ScenarioOp::AddSource(source));
                for s in &backlog {
                    emit(s, &mut truth, &mut ops);
                }
            }

            // The phase's share of the stream, minus inactive-source
            // snippets (held back) and out-of-focus stories (dropped).
            let mut kept: Vec<&Snippet> = Vec::with_capacity(slice.len());
            for s in slice {
                if active[s.source.raw() as usize] {
                    kept.push(s);
                } else {
                    holdback.entry(s.source).or_default().push(s.clone());
                }
            }
            if let Some(k) = phase.focus_top_stories {
                let mut counts: HashMap<u32, usize> = HashMap::new();
                for s in &kept {
                    *counts
                        .entry(corpus.truth.label_of(s.id).expect("labelled"))
                        .or_default() += 1;
                }
                let mut ranked: Vec<(u32, usize)> = counts.into_iter().collect();
                // Count-descending, label-ascending: a total order, so
                // the focus set is deterministic.
                ranked.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                ranked.truncate(k as usize);
                let top: Vec<u32> = ranked.into_iter().map(|(label, _)| label).collect();
                kept.retain(|s| top.contains(&corpus.truth.label_of(s.id).expect("labelled")));
            }

            let mut phase_docs = Vec::new();
            for s in &kept {
                let (_, doc) = emit(s, &mut truth, &mut ops);
                phase_docs.push(doc);
                for _ in 0..phase.duplicates {
                    let (_, dup_doc) = emit(s, &mut truth, &mut ops);
                    phase_docs.push(dup_doc);
                }
            }

            // Retraction storm: pull a deterministic sample of this
            // phase's documents back out, and out of the truth — the
            // reference clustering only ever contains what a correct
            // engine would still be serving.
            if phase.retract > 0.0 && !phase_docs.is_empty() {
                let want = ((phase_docs.len() as f64) * phase.retract.clamp(0.0, 1.0)) as usize;
                let mut pool = phase_docs;
                let mut removed = Vec::with_capacity(want);
                for _ in 0..want {
                    let pick = (splitmix64(&mut rng) as usize) % pool.len();
                    removed.push(pool.swap_remove(pick));
                }
                removed.sort_unstable();
                for doc in removed {
                    // Documents and snippets are 1:1 in the script's id
                    // space: doc j carries snippet j.
                    truth.remove(SnippetId::new(doc.raw()));
                    ops.push(ScenarioOp::RemoveDoc(doc));
                }
            }

            segments.push(Segment {
                name: phase.name,
                rate: phase.rate,
                gap_ms: phase.gap_ms,
                ops,
            });
        }
        debug_assert!(holdback.is_empty(), "every late source was activated");

        Script {
            name: self.name,
            sources: corpus.sources[..initial].to_vec(),
            segments,
            truth,
        }
    }
}

// ---- builtin adversarial scenarios -----------------------------------

/// Names of the builtin scenarios, for CLI dispatch and docs.
pub const BUILTIN: [&str; 5] = [
    "flash_crowd",
    "duplicate_flood",
    "source_churn",
    "retraction_storm",
    "resurgence",
];

/// Look a builtin scenario up by name and compile it for roughly
/// `events` base snippets (duplicates come on top).
pub fn by_name(name: &str, events: usize, seed: u64) -> Option<Script> {
    match name {
        "flash_crowd" => Some(flash_crowd(events, seed)),
        "duplicate_flood" => Some(duplicate_flood(events, seed)),
        "source_churn" => Some(source_churn(events, seed)),
        "retraction_storm" => Some(retraction_storm(events, seed)),
        "resurgence" => Some(resurgence(events, seed)),
        _ => None,
    }
}

fn base_config(events: usize, seed: u64, sources: u32) -> GenConfig {
    GenConfig::default()
        .with_seed(seed)
        .with_sources(sources)
        .with_target_snippets(events)
}

/// Breaking-news flash crowd: a paced steady state, then an unpaced
/// burst where every outlet piles onto the two most-reported stories
/// (with a wire copy each), then a paced recovery.
pub fn flash_crowd(events: usize, seed: u64) -> Script {
    Scenario {
        name: "flash_crowd",
        config: base_config(events, seed, 6),
        phases: vec![
            Phase { name: "steady", weight: 2, rate: 800, ..Phase::default() },
            Phase {
                name: "spike",
                weight: 2,
                rate: 0,
                duplicates: 2,
                focus_top_stories: Some(2),
                ..Phase::default()
            },
            Phase { name: "recovery", weight: 1, rate: 500, ..Phase::default() },
        ],
    }
    .compile()
}

/// Wire-service duplicate flood: the middle of the stream arrives with
/// three near-identical copies per snippet, on a corpus with extra
/// term noise (wire copy gets mangled in transit).
pub fn duplicate_flood(events: usize, seed: u64) -> Script {
    let mut config = base_config(events, seed, 6);
    config.term_noise = 0.4;
    Scenario {
        name: "duplicate_flood",
        config,
        phases: vec![
            Phase { name: "lead-in", weight: 1, rate: 600, ..Phase::default() },
            Phase { name: "flood", weight: 3, duplicates: 3, ..Phase::default() },
            Phase { name: "tail", weight: 1, rate: 600, ..Phase::default() },
        ],
    }
    .compile()
}

/// Source churn mid-stream: half the sources only come online in the
/// middle of the run, each flushing its held-back backlog the moment
/// it registers.
pub fn source_churn(events: usize, seed: u64) -> Script {
    Scenario {
        name: "source_churn",
        config: base_config(events, seed, 8),
        phases: vec![
            Phase { name: "early", weight: 2, rate: 800, ..Phase::default() },
            Phase { name: "churn", weight: 2, late_sources: 4, ..Phase::default() },
            Phase { name: "settle", weight: 1, rate: 800, ..Phase::default() },
        ],
    }
    .compile()
}

/// Retraction storm: after a build-up, half of a whole phase's
/// documents are REMOVE_DOC'd at volume, then a settling phase loses
/// another tenth.
pub fn retraction_storm(events: usize, seed: u64) -> Script {
    Scenario {
        name: "retraction_storm",
        config: base_config(events, seed, 6),
        phases: vec![
            Phase { name: "build", weight: 2, rate: 800, ..Phase::default() },
            Phase { name: "storm", weight: 2, retract: 0.5, ..Phase::default() },
            Phase { name: "settle", weight: 1, rate: 600, retract: 0.1, ..Phase::default() },
        ],
    }
    .compile()
}

/// Long-dormant story resurgence: most of the stream lands, then the
/// feed goes quiet for a while, then the tail of the longest-lived
/// stories floods back in unpaced.
pub fn resurgence(events: usize, seed: u64) -> Script {
    Scenario {
        name: "resurgence",
        config: base_config(events, seed, 6),
        phases: vec![
            Phase { name: "active", weight: 3, rate: 800, ..Phase::default() },
            Phase { name: "resurgence", weight: 1, gap_ms: 400, ..Phase::default() },
        ],
    }
    .compile()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_scripts() -> Vec<Script> {
        BUILTIN.iter().map(|n| by_name(n, 600, 7).expect("builtin")).collect()
    }

    #[test]
    fn unknown_scenario_is_none() {
        assert!(by_name("nope", 100, 1).is_none());
    }

    #[test]
    fn snippet_ids_are_sequential_over_the_whole_script() {
        for script in all_scripts() {
            let mut expect = 0u32;
            for seg in &script.segments {
                for op in &seg.ops {
                    if let ScenarioOp::Ingest(s) = op {
                        assert_eq!(s.id.raw(), expect, "{}: ids in arrival order", script.name);
                        assert_eq!(s.doc.raw(), expect, "{}: docs 1:1 with snippets", script.name);
                        expect += 1;
                    }
                }
            }
            assert!(expect > 0, "{}: script ingests something", script.name);
        }
    }

    #[test]
    fn truth_covers_exactly_the_surviving_snippets() {
        for script in all_scripts() {
            let mut surviving: std::collections::HashSet<u32> = std::collections::HashSet::new();
            for seg in &script.segments {
                for op in &seg.ops {
                    match op {
                        ScenarioOp::Ingest(s) => {
                            surviving.insert(s.id.raw());
                        }
                        ScenarioOp::RemoveDoc(d) => {
                            assert!(
                                surviving.remove(&d.raw()),
                                "{}: retraction targets an ingested doc",
                                script.name
                            );
                        }
                        ScenarioOp::AddSource(_) => {}
                    }
                }
            }
            assert_eq!(script.truth.len(), surviving.len(), "{}", script.name);
            for id in surviving {
                assert!(
                    script.truth.label_of(SnippetId::new(id)).is_some(),
                    "{}: surviving snippet {id} is labelled",
                    script.name
                );
            }
        }
    }

    #[test]
    fn sources_register_before_their_snippets_in_id_order() {
        for script in all_scripts() {
            let mut registered: Vec<u32> = script.sources.iter().map(|s| s.id.raw()).collect();
            for seg in &script.segments {
                for op in &seg.ops {
                    match op {
                        ScenarioOp::AddSource(s) => {
                            assert_eq!(
                                s.id.raw(),
                                registered.len() as u32,
                                "{}: mid-stream registration allocates sequentially",
                                script.name
                            );
                            registered.push(s.id.raw());
                        }
                        ScenarioOp::Ingest(s) => assert!(
                            (s.source.raw() as usize) < registered.len(),
                            "{}: snippet only after its source registered",
                            script.name
                        ),
                        ScenarioOp::RemoveDoc(_) => {}
                    }
                }
            }
        }
    }

    #[test]
    fn compilation_is_deterministic() {
        for name in BUILTIN {
            let a = by_name(name, 500, 13).unwrap();
            let b = by_name(name, 500, 13).unwrap();
            assert_eq!(a.segments.len(), b.segments.len());
            for (sa, sb) in a.segments.iter().zip(&b.segments) {
                assert_eq!(sa.ops, sb.ops, "{name}: identical op streams");
            }
            assert_eq!(a.truth.pairs(), b.truth.pairs(), "{name}: identical truth");
        }
    }

    #[test]
    fn builtins_have_their_advertised_shapes() {
        let flash = flash_crowd(600, 7);
        assert!(flash.segments.iter().any(|s| s.rate == 0), "flash crowd has an unpaced spike");

        let flood = duplicate_flood(400, 7);
        assert!(flood.events() > 400, "duplicates inflate the flood well past the base stream");

        let churn = source_churn(600, 7);
        let mid_stream_adds = churn
            .segments
            .iter()
            .flat_map(|s| &s.ops)
            .filter(|op| matches!(op, ScenarioOp::AddSource(_)))
            .count();
        assert_eq!(mid_stream_adds, 4, "half the churn sources come online mid-stream");

        let storm = retraction_storm(600, 7);
        assert!(storm.removed_docs() > storm.events() / 10, "the storm retracts at volume");
        assert!(storm.truth.len() == storm.events() - storm.removed_docs());

        let quiet = resurgence(600, 7);
        assert!(quiet.segments.last().unwrap().gap_ms > 0, "resurgence follows a dormant gap");
    }
}
