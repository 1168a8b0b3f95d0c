//! Text renderers for the demo's UI modules (Figures 3–7).
//!
//! Each renderer produces plain text from the live engine state, so the
//! demo semantics are scriptable, diffable, and testable. The layouts
//! follow the paper's figures: document selection (Fig. 3), story
//! overview (Fig. 4), stories per source (Fig. 5), snippets per story
//! (Fig. 6), and the statistics module (Fig. 7).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use storypivot_core::pivot::StoryPivot;
use storypivot_core::state::StoryState;
use storypivot_extract::Document;
use storypivot_types::{GlobalStory, GlobalStoryId, Snippet, SnippetId, SnippetRole, SourceId};

use crate::names::NameSource;

fn source_name(pivot: &StoryPivot, id: SourceId) -> String {
    pivot
        .store()
        .source(id)
        .map(|s| s.name.clone())
        .unwrap_or_else(|| id.to_string())
}

/// Exact occurrence counts of the items `items_of` yields over the
/// member snippets of `states`, read from the store at render time: the
/// `k` most frequent, ties by ascending id.
fn top_counts<'a, K, I>(
    pivot: &'a StoryPivot,
    states: &[&StoryState],
    k: usize,
    items_of: impl Fn(&'a Snippet) -> I,
) -> Vec<(K, u64)>
where
    K: Copy + Ord,
    I: Iterator<Item = K>,
{
    let mut counts: BTreeMap<K, u64> = BTreeMap::new();
    let members = states.iter().flat_map(|st| &st.story.members);
    for snippet in members.filter_map(|&m| pivot.store().get(m)) {
        for item in items_of(snippet) {
            *counts.entry(item).or_insert(0) += 1;
        }
    }
    let mut v: Vec<(K, u64)> = counts.into_iter().collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    v.truncate(k);
    v
}

/// Digest of entity codes like `{UKR,5}; {NTH,2}` (Figure 4 style).
fn entity_digest(pivot: &StoryPivot, states: &[&StoryState], names: &dyn NameSource, k: usize) -> String {
    top_counts(pivot, states, k, |s| s.entities().keys())
        .iter()
        .map(|&(e, c)| format!("{{{},{c}}}", names.entity_code(e)))
        .collect::<Vec<_>>()
        .join("; ")
}

/// Digest of description terms like `{crash,3}; {plane,3}` (Figure 4).
fn term_digest(pivot: &StoryPivot, states: &[&StoryState], names: &dyn NameSource, k: usize) -> String {
    top_counts(pivot, states, k, |s| s.terms().keys())
        .iter()
        .map(|&(t, c)| format!("{{{},{c}}}", names.term_name(t)))
        .collect::<Vec<_>>()
        .join("; ")
}

fn member_states<'a>(pivot: &'a StoryPivot, g: &GlobalStory) -> Vec<&'a StoryState> {
    g.member_stories
        .iter()
        .filter_map(|&s| pivot.story(s))
        .collect()
}

/// Figure 3 — the document selection module: available documents with
/// source, URL, and a preview; ingested ones are marked `[x]`.
pub fn document_selection(pivot: &StoryPivot, docs: &[Document], ingested: &[bool]) -> String {
    let mut out = String::from("=== Document Selection =================================\n");
    for (i, d) in docs.iter().enumerate() {
        let mark = if ingested.get(i).copied().unwrap_or(false) {
            "[x]"
        } else {
            "[ ]"
        };
        let preview: String = d.body.chars().take(60).collect();
        let _ = writeln!(
            out,
            "{mark} #{i:<2} {:<22} {:<36} {}",
            source_name(pivot, d.source),
            d.url,
            d.title
        );
        let _ = writeln!(out, "        {} | {preview}...", d.timestamp);
    }
    out
}

/// Figure 4 — the story overview module: one row per integrated story
/// with sources, entity digest, and description digest; plus a detail
/// panel for the selected story.
pub fn story_overview(pivot: &StoryPivot, names: &dyn NameSource) -> String {
    let mut out = String::from("=== Story Overview =====================================\n");
    let _ = writeln!(out, "{:<6} {:<28} {:<30} Description", "Story", "Sources", "Entities");
    for g in pivot.global_stories() {
        let states = member_states(pivot, g);
        let sources = g
            .sources
            .iter()
            .map(|&s| source_name(pivot, s))
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(
            out,
            "{:<6} {:<28} {:<30} {}",
            g.id.to_string(),
            sources,
            entity_digest(pivot, &states, names, 3),
            term_digest(pivot, &states, names, 3),
        );
    }
    out
}

/// Figure 4's detail panel — full information on one integrated story.
pub fn story_information(pivot: &StoryPivot, id: GlobalStoryId, names: &dyn NameSource) -> String {
    let Some(g) = pivot.alignment().and_then(|o| o.global_story(id)) else {
        return format!("story {id}: not found\n");
    };
    let states = member_states(pivot, g);
    let mut out = String::new();
    let _ = writeln!(out, "--- Story Information: {id} ---");
    let _ = writeln!(
        out,
        "Sources     {}",
        g.sources
            .iter()
            .map(|&s| source_name(pivot, s))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(out, "Entities    {}", entity_digest(pivot, &states, names, 6));
    let _ = writeln!(out, "Description {}", term_digest(pivot, &states, names, 9));
    let _ = writeln!(out, "Start Date  {}", g.lifespan.start);
    let _ = writeln!(out, "End Date    {}", g.lifespan.end);
    let _ = writeln!(
        out,
        "Snippets    {} ({} aligning, {} enriching)",
        g.len(),
        g.aligning().count(),
        g.enriching().count()
    );
    out
}

/// Figure 5 — stories per source: the identification view. Shows each
/// story of the source with its member snippets on a time axis.
pub fn stories_per_source(pivot: &StoryPivot, source: SourceId, names: &dyn NameSource) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "=== Stories per Source: {} ===", source_name(pivot, source));
    for st in pivot.stories_of_source(source) {
        let _ = writeln!(
            out,
            "{}  [{} .. {}]  {} snippets  entities: {}",
            st.id(),
            st.lifespan().start,
            st.lifespan().end,
            st.len(),
            entity_digest(pivot, &[st], names, 4),
        );
        for &m in &st.story.members {
            if let Some(sn) = pivot.store().get(m) {
                let _ = writeln!(out, "    {m}  {}  {}", sn.timestamp, sn.content.headline);
            }
        }
    }
    out
}

/// Figure 5's detail panel — one snippet's extraction record.
pub fn snippet_information(pivot: &StoryPivot, id: SnippetId, names: &dyn NameSource) -> String {
    let Some(sn) = pivot.store().get(id) else {
        return format!("snippet {id}: not found\n");
    };
    let mut out = String::new();
    let _ = writeln!(out, "--- Snippet Information: {id} ---");
    let _ = writeln!(out, "Source      {}", source_name(pivot, sn.source));
    let _ = writeln!(out, "Timestamp   {}", sn.timestamp);
    let _ = writeln!(out, "Document    {}", sn.doc);
    let _ = writeln!(out, "Event Type  {}", sn.content.event_type);
    let entities = sn
        .entities()
        .keys()
        .map(|e| names.entity_code(e))
        .collect::<Vec<_>>()
        .join(", ");
    let _ = writeln!(out, "Entities    {entities}");
    let mut terms: Vec<(storypivot_types::TermId, f32)> = sn.terms().iter().collect();
    terms.sort_by(|a, b| b.1.total_cmp(&a.1));
    let terms = terms
        .iter()
        .take(6)
        .map(|&(t, _)| names.term_name(t))
        .collect::<Vec<_>>()
        .join(", ");
    let _ = writeln!(out, "Description {terms}");
    if let Some(story) = pivot.story_of(id) {
        let _ = writeln!(out, "Story       {story}");
    }
    if let Some(g) = pivot.global_of(id) {
        let _ = writeln!(out, "Global      {g}");
    }
    out
}

/// Figure 6 — snippets per story: the alignment view. One lane per
/// source, snippets in time order, with roles.
pub fn snippets_per_story(pivot: &StoryPivot, id: GlobalStoryId, names: &dyn NameSource) -> String {
    let Some(g) = pivot.alignment().and_then(|o| o.global_story(id)) else {
        return format!("story {id}: not found\n");
    };
    let mut out = String::new();
    let _ = writeln!(out, "=== Snippets per Story: {id} ===");
    for &src in &g.sources {
        let _ = writeln!(out, "{}:", source_name(pivot, src));
        let mut lane: Vec<(SnippetId, SnippetRole)> = g
            .members
            .iter()
            .copied()
            .filter(|&(m, _)| pivot.store().get(m).map(|s| s.source) == Some(src))
            .collect();
        lane.sort_by_key(|&(m, _)| pivot.store().get(m).map(|s| s.timestamp));
        for (m, role) in lane {
            if let Some(sn) = pivot.store().get(m) {
                let tag = match role {
                    SnippetRole::Aligning => "align ",
                    SnippetRole::Enriching => "enrich",
                };
                let _ = writeln!(out, "    {} {m:<5} {}  {}", tag, sn.timestamp, sn.content.headline);
            }
        }
    }
    out.push_str(&story_information(pivot, id, names));
    out
}

/// One row of the statistics module's results table.
#[derive(Debug, Clone)]
pub struct StatRow {
    /// Dataset label.
    pub dataset: String,
    /// Identification method label.
    pub si_method: String,
    /// Alignment method label.
    pub sa_method: String,
    /// Number of events processed.
    pub events: usize,
    /// Mean per-event execution time in milliseconds.
    pub exec_ms: f64,
    /// F-measure against ground truth.
    pub f_measure: f64,
}

/// Figure 7 — the statistics module: dataset information plus the
/// performance/quality table of the large-scale experiments.
pub fn statistics(
    dataset: &str,
    sources: usize,
    entities: usize,
    snippets: usize,
    start: storypivot_types::Timestamp,
    end: storypivot_types::Timestamp,
    rows: &[StatRow],
) -> String {
    let mut out = String::from("=== Statistics =========================================\n");
    let _ = writeln!(out, "Dataset     {dataset}");
    let _ = writeln!(out, "# Sources   {sources}");
    let _ = writeln!(out, "# Entities  {entities}");
    let _ = writeln!(out, "# Snippets  {snippets}");
    let _ = writeln!(out, "Start Date  {start}");
    let _ = writeln!(out, "End Date    {end}");
    let _ = writeln!(out, "---------------------------------------------------------");
    let _ = writeln!(
        out,
        "{:<10} {:<10} {:<10} {:>8} {:>14} {:>10}",
        "Dataset", "SI method", "SA method", "# events", "exec (ms/ev)", "F-measure"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<10} {:<10} {:<10} {:>8} {:>14.4} {:>10.3}",
            r.dataset, r.si_method, r.sa_method, r.events, r.exec_ms, r.f_measure
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mh17::Mh17Demo;
    use crate::names::PipelineNames;

    fn built() -> Mh17Demo {
        Mh17Demo::build()
    }

    #[test]
    fn document_selection_lists_everything() {
        let demo = built();
        let ingested = vec![true; demo.len()];
        let view = document_selection(&demo.pivot, &demo.documents, &ingested);
        assert!(view.contains("New York Times"));
        assert!(view.contains("Wall Street Journal"));
        assert!(view.contains("online.wsj.com/doc10.html"));
        assert!(view.contains("[x]"));
        assert_eq!(view.matches("[x]").count(), demo.len());
    }

    #[test]
    fn story_overview_shows_digests() {
        let demo = built();
        let names = PipelineNames(&demo.pipeline);
        let view = story_overview(&demo.pivot, &names);
        // The crash story digest features UKR and crash-like terms.
        assert!(view.contains("UKR"), "view:\n{view}");
        assert!(view.contains("New York Times, Wall Street Journal"), "view:\n{view}");
    }

    /// Past 64 distinct terms a fixed-capacity heavy-hitter digest has to
    /// evict; counting the members' terms at render time does not.
    #[test]
    fn digest_of_a_story_with_many_distinct_terms_is_exact_and_repeats() {
        use storypivot_core::config::PivotConfig;
        use storypivot_types::{EntityId, SourceKind, TermId, Timestamp, HOUR};

        struct RawIds;
        impl NameSource for RawIds {
            fn entity_name(&self, e: EntityId) -> String {
                e.to_string()
            }
            fn term_name(&self, t: TermId) -> String {
                t.to_string()
            }
        }
        let render = || {
            let mut pivot = StoryPivot::new(PivotConfig::default());
            let source = pivot.add_source("Wire", SourceKind::Wire);
            for i in 0..40u32 {
                let mut b = Snippet::builder(SnippetId::new(i), source, Timestamp::from_secs(i as i64 * HOUR))
                    .entity(EntityId::new(1), 1.0)
                    .entity(EntityId::new(2), 1.0)
                    .term(TermId::new(0), 1.0)
                    // Two terms nobody else uses: 83 distinct in all.
                    .term(TermId::new(100 + 2 * i), 0.2)
                    .term(TermId::new(101 + 2 * i), 0.2);
                if i < 30 {
                    b = b.term(TermId::new(1), 1.0);
                }
                if i < 20 {
                    b = b.term(TermId::new(2), 1.0);
                }
                pivot.ingest(b.build()).unwrap();
            }
            assert_eq!(pivot.story_count(), 1);
            let members = &pivot.stories_of_source(source)[0].story.members;
            let terms: std::collections::BTreeSet<TermId> =
                members.iter().flat_map(|&m| pivot.store().get(m).unwrap().terms().keys()).collect();
            assert_eq!(terms.len(), 83);
            pivot.align();
            let story = pivot.global_stories()[0].id;
            story_overview(&pivot, &RawIds) + &story_information(&pivot, story, &RawIds)
        };
        let view = render();
        assert!(view.contains("{E1,40}; {E2,40}"), "view:\n{view}");
        assert!(view.contains("{t0,40}; {t1,30}; {t2,20}\n"), "view:\n{view}");
        // The nine-term panel reaches into the terms seen once each: the
        // first six by id, every count exact.
        let singles: String = (100..106).map(|t| format!("; {{t{t},1}}")).collect();
        assert!(view.contains(&format!("{{t0,40}}; {{t1,30}}; {{t2,20}}{singles}\n")), "view:\n{view}");
        assert_eq!(view, render());
    }

    #[test]
    fn story_information_panel_is_complete() {
        let demo = built();
        let names = PipelineNames(&demo.pipeline);
        let g = demo.pivot.global_of(demo.crash_snippet().unwrap()).unwrap();
        let view = story_information(&demo.pivot, g, &names);
        assert!(view.contains("Start Date  2014-07-17"));
        assert!(view.contains("End Date    2014-09-12"));
        assert!(view.contains("aligning"));
    }

    #[test]
    fn stories_per_source_lists_snippets() {
        let demo = built();
        let names = PipelineNames(&demo.pipeline);
        let view = stories_per_source(&demo.pivot, demo.nyt, &names);
        assert!(view.contains("Jetliner Explodes Over Ukraine"));
        assert!(view.contains("snippets"));
        // Gaza story is a separate story in the NYT lane.
        assert!(view.contains("Gaza") || view.contains("Investigation in Gaza"));
    }

    #[test]
    fn snippet_information_resolves_names() {
        let demo = built();
        let names = PipelineNames(&demo.pipeline);
        let view = snippet_information(&demo.pivot, demo.crash_snippet().unwrap(), &names);
        assert!(view.contains("Source      New York Times"));
        assert!(view.contains("Timestamp   2014-07-17"));
        assert!(view.contains("UKR"));
        assert!(view.contains("Event Type  accident"));
        assert!(view.contains("Story"));
    }

    #[test]
    fn snippets_per_story_has_both_lanes() {
        let demo = built();
        let names = PipelineNames(&demo.pipeline);
        let g = demo.pivot.global_of(demo.crash_snippet().unwrap()).unwrap();
        let view = snippets_per_story(&demo.pivot, g, &names);
        assert!(view.contains("New York Times:"));
        assert!(view.contains("Wall Street Journal:"));
        assert!(view.contains("align"));
    }

    #[test]
    fn missing_ids_render_gracefully() {
        let demo = built();
        let names = PipelineNames(&demo.pipeline);
        let view = snippet_information(&demo.pivot, SnippetId::new(9999), &names);
        assert!(view.contains("not found"));
        let view = snippets_per_story(&demo.pivot, GlobalStoryId::new(9999), &names);
        assert!(view.contains("not found"));
    }

    #[test]
    fn statistics_module_renders_rows() {
        let rows = vec![StatRow {
            dataset: "GDELT".into(),
            si_method: "temporal".into(),
            sa_method: "full".into(),
            events: 10_000,
            exec_ms: 0.0451,
            f_measure: 0.91,
        }];
        let view = statistics(
            "GDELT-like",
            50,
            500,
            10_000,
            storypivot_types::Timestamp::from_ymd(2014, 6, 1),
            storypivot_types::Timestamp::from_ymd(2014, 12, 1),
            &rows,
        );
        assert!(view.contains("# Sources   50"));
        assert!(view.contains("temporal"));
        assert!(view.contains("0.910"));
        assert!(view.contains("2014-12-01"));
    }
}

/// "Why" panel: explain a snippet's assignment (paper §4.2.1 — the demo
/// exists to show *why* the algorithms make their decisions). Renders
/// the strongest supporting and contesting neighbors plus the
/// cross-source counterparts.
pub fn why_snippet(
    pivot: &StoryPivot,
    id: SnippetId,
    names: &dyn NameSource,
) -> String {
    use storypivot_core::explain::{explain_assignment, explain_counterparts};
    let Some(ex) = explain_assignment(pivot, id, 3) else {
        return format!("snippet {id}: not found\n");
    };
    let mut out = String::new();
    let _ = writeln!(out, "--- Why is {id} where it is? ---");
    if let Some(story) = ex.story {
        let _ = writeln!(out, "Assigned to story {story}");
    }
    let headline = |m: SnippetId| -> String {
        pivot
            .store()
            .get(m)
            .map(|s| s.content.headline.clone())
            .unwrap_or_default()
    };
    let _ = writeln!(out, "Supporting evidence (same story):");
    for n in &ex.supporting {
        let _ = writeln!(
            out,
            "    {} sim={:.2} (entities {:.2}, description {:.2}, type {:.2}; mostly {})  {}",
            n.snippet, n.sim.combined, n.sim.entity, n.sim.term, n.sim.event,
            n.sim.dominant(), headline(n.snippet)
        );
    }
    if ex.supporting.is_empty() {
        let _ = writeln!(out, "    (none — the snippet opened its own story)");
    }
    let _ = writeln!(out, "Closest other-story snippets (not matched):");
    for n in &ex.contesting {
        let story = n.story.map(|s| s.to_string()).unwrap_or_default();
        let _ = writeln!(
            out,
            "    {} in {} sim={:.2} (mostly {})  {}",
            n.snippet, story, n.sim.combined, n.sim.dominant(), headline(n.snippet)
        );
    }
    let counterparts = explain_counterparts(pivot, id, 3);
    if !counterparts.is_empty() {
        let _ = writeln!(out, "Cross-source counterparts (why it aligns):");
        for n in counterparts {
            let src = pivot
                .store()
                .source(n.source)
                .map(|s| s.name.clone())
                .unwrap_or_else(|| n.source.to_string());
            let _ = writeln!(
                out,
                "    {} from {} sim={:.2}  {}",
                n.snippet, src, n.sim.combined, headline(n.snippet)
            );
        }
    }
    let _ = names; // names reserved for future entity-level detail
    out
}

/// A small ASCII line chart for the statistics module's two panels
/// (Figure 7 plots "Execution Time" and "F-Measure" against `# events`).
/// Each series is one row of column bars; values are scaled to the
/// global maximum.
pub fn ascii_chart(title: &str, x_labels: &[String], series: &[(String, Vec<f64>)]) -> String {
    const BARS: &[char] = &[' ', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let mut out = String::new();
    let _ = writeln!(out, "--- {title} ---");
    let max = series
        .iter()
        .flat_map(|(_, v)| v.iter().copied())
        .fold(0.0f64, f64::max);
    let name_width = series.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
    for (name, values) in series {
        let bars: String = values
            .iter()
            .map(|&v| {
                if max <= 0.0 {
                    BARS[0]
                } else {
                    let idx = ((v / max) * (BARS.len() - 1) as f64).round() as usize;
                    BARS[idx.min(BARS.len() - 1)]
                }
            })
            .collect();
        let peak = values.iter().copied().fold(0.0f64, f64::max);
        let _ = writeln!(out, "{name:>name_width$} |{bars}|  max {peak:.3}");
    }
    if !x_labels.is_empty() {
        let _ = writeln!(
            out,
            "{:>name_width$}  {} .. {}",
            "x:",
            x_labels.first().map(String::as_str).unwrap_or(""),
            x_labels.last().map(String::as_str).unwrap_or("")
        );
    }
    out
}

#[cfg(test)]
mod chart_tests {
    use super::*;

    #[test]
    fn chart_scales_and_labels() {
        let x: Vec<String> = ["1k", "2k", "4k"].iter().map(|s| s.to_string()).collect();
        let chart = ascii_chart(
            "Execution Time (ms/event)",
            &x,
            &[
                ("temporal".to_string(), vec![0.02, 0.03, 0.05]),
                ("complete".to_string(), vec![0.04, 0.07, 0.12]),
            ],
        );
        assert!(chart.contains("Execution Time"));
        assert!(chart.contains("temporal"));
        assert!(chart.contains('█'), "the max value renders a full bar:\n{chart}");
        assert!(chart.contains("1k .. 4k"));
        assert!(chart.contains("max 0.120"));
    }

    #[test]
    fn empty_and_zero_series_render() {
        let chart = ascii_chart("empty", &[], &[("none".into(), vec![0.0, 0.0])]);
        assert!(chart.contains("none"));
        assert!(!chart.contains('█'));
    }
}
