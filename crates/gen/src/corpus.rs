//! The corpus builder: ground-truth world → noisy multi-source stream.

use storypivot_substrate::rng::{RngExt, SliceRandom, StdRng, Zipf};

use storypivot_types::{
    DocId, EntityId, EventType, Snippet, SnippetId, Source, SourceId, SourceKind, TermId,
    Timestamp, DAY, HOUR, MINUTE,
};

use crate::config::GenConfig;
use crate::names;
use crate::truth::GroundTruth;

/// A generated corpus: sources, a snippet stream in *delivery order*
/// (publication lag makes event timestamps arrive out of order), and the
/// ground truth labels.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// The generating configuration.
    pub config: GenConfig,
    /// Registered sources.
    pub sources: Vec<Source>,
    /// Snippets in delivery order. Snippet ids are assigned in this
    /// order, so `snippets[i].id == SnippetId(i)`.
    pub snippets: Vec<Snippet>,
    /// True story label per snippet.
    pub truth: GroundTruth,
    /// Display names of the entity catalog (index = entity id).
    pub entity_names: Vec<String>,
    /// Display names of the term vocabulary (index = term id).
    pub term_names: Vec<String>,
}

impl Corpus {
    /// Number of snippets.
    pub fn len(&self) -> usize {
        self.snippets.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.snippets.is_empty()
    }

    /// The snippet stream re-sorted by *event* time (the in-order
    /// baseline for the out-of-order experiments).
    pub fn snippets_by_event_time(&self) -> Vec<Snippet> {
        let mut v = self.snippets.clone();
        v.sort_by_key(|s| (s.timestamp, s.id));
        v
    }

    /// Fraction of adjacent delivery pairs whose event timestamps are
    /// inverted — a measure of out-of-orderness.
    pub fn inversion_fraction(&self) -> f64 {
        if self.snippets.len() < 2 {
            return 0.0;
        }
        let inv = self
            .snippets
            .windows(2)
            .filter(|w| w[0].timestamp > w[1].timestamp)
            .count();
        inv as f64 / (self.snippets.len() - 1) as f64
    }
}

/// One real-world event of a ground-truth story.
struct WorldEvent {
    story: u32,
    time: Timestamp,
    entities: Vec<u32>,
    terms: Vec<u32>,
    event_type: EventType,
}

/// A finished story process: what lineage (split/merge) inherits from.
struct FinishedStory {
    end: Timestamp,
    event_type: EventType,
    entities: Vec<u32>,
    terms: Vec<u32>,
}

/// Emit the events of one story process (with drift) and return its
/// final active sets and end time.
#[allow(clippy::too_many_arguments)]
fn emit_story_events(
    cfg: &GenConfig,
    rng: &mut StdRng,
    entity_zipf: &Zipf,
    term_zipf: &Zipf,
    events: &mut Vec<WorldEvent>,
    label: u32,
    event_type: EventType,
    start: Timestamp,
    dur_days: i64,
    n_events: usize,
    mut active_entities: Vec<u32>,
    mut active_terms: Vec<u32>,
) -> FinishedStory {
    let mut times: Vec<i64> = (0..n_events)
        .map(|_| rng.random_range(0..dur_days.max(1) * DAY))
        .collect();
    times.sort_unstable();
    let mut end = start;

    for offset in times {
        // Drift: the story's characteristics change over time (§2.2:
        // "story evolution means that characteristics of a story change
        // over time").
        if rng.random_bool(cfg.drift) {
            let slot = rng.random_range(0..active_entities.len());
            active_entities[slot] = entity_zipf.sample(rng) as u32;
        }
        if rng.random_bool(cfg.drift) {
            let slot = rng.random_range(0..active_terms.len());
            active_terms[slot] = term_zipf.sample(rng) as u32;
        }

        let ne = rng
            .random_range(cfg.entities_per_snippet.0..=cfg.entities_per_snippet.1)
            .min(active_entities.len());
        let nt = rng
            .random_range(cfg.terms_per_snippet.0..=cfg.terms_per_snippet.1)
            .min(active_terms.len());
        let mut es = active_entities.clone();
        es.shuffle(rng);
        es.truncate(ne);
        let mut ts = active_terms.clone();
        ts.shuffle(rng);
        ts.truncate(nt);

        let time = start + offset;
        end = end.max(time);
        events.push(WorldEvent {
            story: label,
            time,
            entities: es,
            terms: ts,
            event_type,
        });
    }
    FinishedStory {
        end,
        event_type,
        entities: active_entities,
        terms: active_terms,
    }
}

/// Builds [`Corpus`] values from a [`GenConfig`].
///
/// ```
/// use storypivot_gen::{CorpusBuilder, GenConfig};
///
/// let corpus = CorpusBuilder::new(
///     GenConfig::default().with_sources(5).with_target_snippets(500),
/// )
/// .build();
/// assert!(corpus.len() > 200);
/// assert!(corpus.truth.story_count() > 1);
/// // The stream arrives out of event-time order (publication lag).
/// assert!(corpus.inversion_fraction() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct CorpusBuilder {
    cfg: GenConfig,
}

impl CorpusBuilder {
    /// A builder for the given configuration.
    pub fn new(cfg: GenConfig) -> Self {
        CorpusBuilder { cfg }
    }

    /// Generate the corpus (deterministic per configuration).
    pub fn build(&self) -> Corpus {
        let cfg = &self.cfg;
        let mut rng = StdRng::seed_from_u64(cfg.seed);

        // ---- catalogs -------------------------------------------------
        let entity_names: Vec<String> = (0..cfg.entities)
            .map(|i| names::entity_name(cfg.seed, i as u64))
            .collect();
        let term_names: Vec<String> = (0..cfg.terms)
            .map(|i| names::pseudo_word(cfg.seed ^ 0x7E57, i as u64))
            .collect();
        let entity_zipf = Zipf::new(cfg.entities as usize, cfg.zipf_exponent);
        let term_zipf = Zipf::new(cfg.terms as usize, cfg.zipf_exponent);

        // ---- sources ----------------------------------------------------
        let kinds = [
            (SourceKind::Wire, "Wire", HOUR),
            (SourceKind::Newspaper, "Times", 6 * HOUR),
            (SourceKind::Newspaper, "Journal", 8 * HOUR),
            (SourceKind::Blog, "Dispatch", 12 * HOUR),
            (SourceKind::Magazine, "Weekly", 2 * DAY),
            (SourceKind::Social, "Feed", 30 * MINUTE),
        ];
        let sources: Vec<Source> = (0..cfg.sources)
            .map(|i| {
                let (kind, suffix, lag) = kinds[i as usize % kinds.len()];
                Source::new(
                    SourceId::new(i),
                    names::source_name(cfg.seed, i as u64, suffix),
                    kind,
                )
                .with_lag(lag)
            })
            .collect();

        // ---- ground-truth stories and events -----------------------------
        let mut events: Vec<WorldEvent> = Vec::new();
        let mut next_label = 0u32;
        let mut finished: Vec<FinishedStory> = Vec::new();
        let corpus_end = cfg.end();

        for _ in 0..cfg.stories {
            let label = next_label;
            next_label += 1;
            let event_type = EventType::ALL[rng.random_range(0..EventType::COUNT)];
            let dur_days =
                rng.random_range(cfg.story_duration_days.0..=cfg.story_duration_days.1);
            let latest_start = (cfg.duration_days - dur_days).max(1);
            let start = cfg.start + rng.random_range(0..latest_start) * DAY;
            let n_events = ((cfg.events_per_story * (0.5 + rng.random::<f64>())).round() as usize)
                .max(2);
            let active_entities: Vec<u32> = entity_zipf
                .sample_distinct(&mut rng, cfg.entities_per_story)
                .into_iter()
                .map(|e| e as u32)
                .collect();
            let active_terms: Vec<u32> = term_zipf
                .sample_distinct(&mut rng, cfg.terms_per_story)
                .into_iter()
                .map(|t| t as u32)
                .collect();
            finished.push(emit_story_events(
                cfg, &mut rng, &entity_zipf, &term_zipf, &mut events,
                label, event_type, start, dur_days, n_events,
                active_entities, active_terms,
            ));
        }

        // ---- lineage: splits and merges (paper §2.1) ----------------------
        //
        // A split story spawns two successors, each inheriting half of
        // the parent's final content; a merge pairs two base stories
        // into one successor inheriting from both. Successors carry new
        // ground-truth labels — after the transition they *are*
        // different stories (the Ukraine example: politics and economics
        // interweave, then separate).
        let mut merge_partner: Option<usize> = None;
        let spawn = |rng: &mut StdRng,
                         events: &mut Vec<WorldEvent>,
                         next_label: &mut u32,
                         inherited_entities: Vec<u32>,
                         inherited_terms: Vec<u32>,
                         event_type: EventType,
                         after: Timestamp| {
            let start = after + rng.random_range(1i64..=3) * DAY;
            if start + 2 * DAY >= corpus_end {
                return; // no room left in the observation period
            }
            let max_dur = ((corpus_end - start) / DAY).max(2);
            let dur_days = rng
                .random_range(cfg.story_duration_days.0..=cfg.story_duration_days.1)
                .min(max_dur);
            let n_events =
                ((cfg.events_per_story * (0.25 + rng.random::<f64>() * 0.5)).round() as usize).max(2);
            // Top up inherited content with fresh draws.
            let mut entities = inherited_entities;
            while entities.len() < cfg.entities_per_story {
                let e = entity_zipf.sample(rng) as u32;
                if !entities.contains(&e) {
                    entities.push(e);
                }
            }
            let mut terms = inherited_terms;
            while terms.len() < cfg.terms_per_story {
                let t = term_zipf.sample(rng) as u32;
                if !terms.contains(&t) {
                    terms.push(t);
                }
            }
            let label = *next_label;
            *next_label += 1;
            emit_story_events(
                cfg, rng, &entity_zipf, &term_zipf, events,
                label, event_type, start, dur_days, n_events, entities, terms,
            );
        };

        for i in 0..finished.len() {
            if rng.random_bool(cfg.split_prob) {
                // Split: two successors, each with half the content.
                let parent = &finished[i];
                let (even, odd): (Vec<_>, Vec<_>) = parent
                    .entities
                    .iter()
                    .copied()
                    .enumerate()
                    .partition(|(k, _)| k % 2 == 0);
                let (teven, todd): (Vec<_>, Vec<_>) = parent
                    .terms
                    .iter()
                    .copied()
                    .enumerate()
                    .partition(|(k, _)| k % 2 == 0);
                let strip = |v: Vec<(usize, u32)>| v.into_iter().map(|(_, x)| x).collect::<Vec<_>>();
                let (end, ty) = (parent.end, parent.event_type);
                spawn(&mut rng, &mut events, &mut next_label, strip(even), strip(teven), ty, end);
                spawn(&mut rng, &mut events, &mut next_label, strip(odd), strip(todd), ty, end);
            } else if rng.random_bool(cfg.merge_prob) {
                match merge_partner.take() {
                    None => merge_partner = Some(i),
                    Some(j) => {
                        // Merge: one successor inheriting from both.
                        let (a, b) = (&finished[i], &finished[j]);
                        let mut entities: Vec<u32> = a.entities.iter().chain(&b.entities).copied().collect();
                        entities.dedup();
                        entities.truncate(cfg.entities_per_story + 2);
                        let mut terms: Vec<u32> = a.terms.iter().chain(&b.terms).copied().collect();
                        terms.dedup();
                        terms.truncate(cfg.terms_per_story + 2);
                        let after = a.end.max(b.end);
                        let ty = a.event_type;
                        spawn(&mut rng, &mut events, &mut next_label, entities, terms, ty, after);
                    }
                }
            }
        }

        // ---- per-story source coverage (lineage successors included) ----
        let covering: Vec<Vec<bool>> = (0..next_label)
            .map(|_| {
                (0..cfg.sources)
                    .map(|_| rng.random_bool(cfg.coverage))
                    .collect()
            })
            .collect();

        // ---- observe events through sources ------------------------------
        struct Pending {
            delivery: Timestamp,
            source: SourceId,
            timestamp: Timestamp,
            entities: Vec<u32>,
            terms: Vec<u32>,
            event_type: EventType,
            story: u32,
            headline: String,
        }
        let mut pending: Vec<Pending> = Vec::new();
        for ev in &events {
            for src in &sources {
                if !covering[ev.story as usize][src.id.raw() as usize] {
                    continue;
                }
                if !rng.random_bool(cfg.report_prob) {
                    continue;
                }
                // Timestamp estimate jitter.
                let jitter = if cfg.timestamp_jitter > 0 {
                    rng.random_range(-cfg.timestamp_jitter..=cfg.timestamp_jitter)
                } else {
                    0
                };
                // Publication lag: exponential with source-typical mean.
                let mean_lag = (cfg.mean_pub_lag + src.typical_lag).max(1) as f64;
                let u: f64 = rng.random();
                let pub_lag = (-(1.0 - u).ln() * mean_lag) as i64;

                // Annotation noise.
                let mut es = ev.entities.clone();
                if es.len() > 1 && rng.random_bool(cfg.entity_dropout) {
                    let drop = rng.random_range(0..es.len());
                    es.remove(drop);
                }
                let mut ts = ev.terms.clone();
                if rng.random_bool(cfg.term_noise) {
                    ts.push(term_zipf.sample(&mut rng) as u32);
                }
                if ts.len() > 1 && rng.random_bool(cfg.term_noise / 2.0) {
                    let drop = rng.random_range(0..ts.len());
                    ts.remove(drop);
                }
                let event_type = if rng.random_bool(0.05) {
                    EventType::ALL[rng.random_range(0..EventType::COUNT)]
                } else {
                    ev.event_type
                };

                let headline = format!(
                    "{}: {} — {}",
                    event_type,
                    es.iter()
                        .map(|&e| entity_names[e as usize].as_str())
                        .collect::<Vec<_>>()
                        .join(", "),
                    ts.first()
                        .map(|&t| term_names[t as usize].as_str())
                        .unwrap_or("report"),
                );

                pending.push(Pending {
                    delivery: ev.time + pub_lag,
                    source: src.id,
                    timestamp: ev.time + jitter,
                    entities: es,
                    terms: ts,
                    event_type,
                    story: ev.story,
                    headline,
                });
            }
        }

        // ---- deliver ----------------------------------------------------
        pending.sort_by_key(|p| p.delivery);
        let mut truth = GroundTruth::new();
        let snippets: Vec<Snippet> = pending
            .into_iter()
            .enumerate()
            .map(|(i, p)| {
                let id = SnippetId::new(i as u32);
                truth.record(id, p.story, p.source);
                let mut b = Snippet::builder(id, p.source, p.timestamp)
                    .doc(DocId::new(i as u32))
                    .event_type(p.event_type)
                    .headline(p.headline);
                for e in p.entities {
                    b = b.entity(EntityId::new(e), 1.0);
                }
                for t in p.terms {
                    b = b.term(TermId::new(t), 1.0);
                }
                b.build()
            })
            .collect();

        Corpus {
            config: self.cfg.clone(),
            sources,
            snippets,
            truth,
            entity_names,
            term_names,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Corpus {
        CorpusBuilder::new(GenConfig {
            sources: 4,
            entities: 100,
            terms: 300,
            stories: 8,
            ..GenConfig::default()
        })
        .build()
    }

    #[test]
    fn corpus_is_deterministic() {
        let a = small();
        let b = small();
        assert_eq!(a.snippets, b.snippets);
        assert_eq!(a.truth.pairs(), b.truth.pairs());
    }

    #[test]
    fn different_seeds_differ() {
        let a = small();
        let b = CorpusBuilder::new(GenConfig {
            sources: 4,
            entities: 100,
            terms: 300,
            stories: 8,
            seed: 99,
            ..GenConfig::default()
        })
        .build();
        assert_ne!(a.snippets, b.snippets);
    }

    #[test]
    fn every_snippet_is_labelled_and_valid() {
        let c = small();
        assert!(!c.is_empty());
        for s in &c.snippets {
            assert!(c.truth.label_of(s.id).is_some());
            assert!(s.source.raw() < c.config.sources);
            assert!(!s.content.is_vacuous());
            assert!(s.timestamp >= c.config.start - c.config.timestamp_jitter);
        }
    }

    #[test]
    fn snippet_count_near_expectation() {
        let c = small();
        let expected = c.config.expected_snippets() as f64;
        let actual = c.len() as f64;
        assert!(
            actual > expected * 0.5 && actual < expected * 1.8,
            "expected ≈{expected}, got {actual}"
        );
    }

    #[test]
    fn delivery_order_is_out_of_order_in_event_time() {
        let c = small();
        let f = c.inversion_fraction();
        assert!(f > 0.0, "publication lag must cause inversions");
        assert!(f < 0.6, "but not total shuffling: {f}");
        // The re-sorted stream is monotone.
        let sorted = c.snippets_by_event_time();
        assert!(sorted.windows(2).all(|w| w[0].timestamp <= w[1].timestamp));
    }

    #[test]
    fn snippet_ids_match_positions() {
        let c = small();
        for (i, s) in c.snippets.iter().enumerate() {
            assert_eq!(s.id, SnippetId::new(i as u32));
        }
    }

    #[test]
    fn stories_span_multiple_sources() {
        let c = small();
        let mut sources_per_story: std::collections::HashMap<u32, std::collections::HashSet<SourceId>> =
            std::collections::HashMap::new();
        for s in &c.snippets {
            sources_per_story
                .entry(c.truth.label_of(s.id).unwrap())
                .or_default()
                .insert(s.source);
        }
        let multi = sources_per_story.values().filter(|v| v.len() > 1).count();
        assert!(multi >= sources_per_story.len() / 2, "most stories should be multi-source");
    }

    #[test]
    fn scaling_to_target_works() {
        let c = CorpusBuilder::new(
            GenConfig {
                sources: 5,
                ..GenConfig::default()
            }
            .with_target_snippets(2_000),
        )
        .build();
        assert!(c.len() > 1_000 && c.len() < 4_000, "got {}", c.len());
    }
}

#[cfg(test)]
mod lineage_tests {
    use super::*;
    use crate::config::GenConfig;

    fn with_lineage(split: f64, merge: f64) -> Corpus {
        CorpusBuilder::new(GenConfig {
            sources: 4,
            entities: 100,
            terms: 300,
            stories: 20,
            split_prob: split,
            merge_prob: merge,
            ..GenConfig::default()
        })
        .build()
    }

    #[test]
    fn splits_and_merges_create_successor_stories() {
        let none = with_lineage(0.0, 0.0);
        let some = with_lineage(0.6, 0.4);
        assert_eq!(none.truth.story_count(), 20, "no lineage → exactly the base stories");
        assert!(
            some.truth.story_count() > 20,
            "lineage must add successor stories, got {}",
            some.truth.story_count()
        );
    }

    #[test]
    fn lineage_is_deterministic() {
        let a = with_lineage(0.5, 0.3);
        let b = with_lineage(0.5, 0.3);
        assert_eq!(a.snippets, b.snippets);
    }

    #[test]
    fn successor_events_stay_inside_the_corpus_period() {
        let c = with_lineage(0.8, 0.5);
        for s in &c.snippets {
            assert!(
                s.timestamp <= c.config.end() + c.config.timestamp_jitter,
                "event at {} beyond corpus end {}",
                s.timestamp,
                c.config.end()
            );
        }
    }

    #[test]
    fn successors_share_content_with_parents() {
        // With aggressive splitting, successor stories must reuse some
        // parent entities (that is the hard part for identification).
        let c = with_lineage(1.0, 0.0);
        let clusters = c.truth.clusters();
        assert!(clusters.len() > 20);
        // Each story has a coherent entity pool; successors (labels >= 20)
        // exist and carry snippets.
        let successor_snippets: usize = clusters
            .iter()
            .filter(|&(&l, _)| l >= 20)
            .map(|(_, v)| v.len())
            .sum();
        assert!(successor_snippets > 0);
    }
}
