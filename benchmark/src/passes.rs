//! One pass of a workload: build a fresh engine (or server), replay the
//! prepared op stream, time every call, then check what came out.
//!
//! An untraced pass calls the same public function a user would
//! (`StoryPivot::ingest_detailed`, `DynamicPivot::ingest`, `Client`
//! requests). A traced pass replaces that call by the calls it makes
//! and wraps each in a span; its partition must equal the untraced one.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use storypivot_core::config::PivotConfig;
use storypivot_core::explain::explain_assignment;
use storypivot_core::identify::{Identifier, IdentifyDecision};
use storypivot_core::pipeline::{DynamicPivot, PipelinePolicy};
use storypivot_core::pivot::StoryPivot;
use storypivot_core::query::{query_stories, StoryQuery};
use storypivot_eval::metrics::{pairwise_counts, Clustering, PairCounts};
use storypivot_eval::run::alignment_scores;
use storypivot_gen::Corpus;
use storypivot_serve::client::{BackoffPolicy, Client, RetryStats};
use storypivot_serve::server::{serve, ServerConfig};
use storypivot_store::EventStore;
use storypivot_substrate::wal::SyncPolicy;
use storypivot_types::{Snippet, StoryId, DAY};

use crate::stats::Fnv;
use crate::sys::process_cpu_ns;
use crate::trace::{Span, Tracer};
use crate::workload::{Kind, Op, Prepared, ALIGN_EVERY};

/// A story partition: `(cluster key, sorted member snippet ids)`,
/// sorted by key.
pub type Partition = Vec<(u32, Vec<u32>)>;

/// The identification window of every workload (the shipped default).
const OMEGA: i64 = 14 * DAY;

/// In a traced identify pass, every how many events the window query
/// and `score_probe` are timed on their own before `assign`.
pub const PROBE_EVERY: usize = 8;

/// What one pass measured and produced.
#[derive(Default)]
pub struct Pass {
    /// Wall time of the op loop.
    pub wall_ns: u64,
    /// Process CPU time (all threads) spent during the op loop.
    pub cpu_ns: u64,
    /// Ops completed.
    pub ops_done: u64,
    /// Calls made, retries included.
    pub attempted: u64,
    /// Calls that were refused, retried or returned an error.
    pub failed: u64,
    /// Latency of every op, in op-stream order (0 for an op the pass skips).
    pub op_ns: Vec<u64>,
    /// FNV-1a of the resulting partition(s).
    pub partition_hash: u64,
    /// The resulting per-source story partition.
    pub partition: Partition,
    /// Pairwise F1 against the corpus ground truth.
    pub pair_f1: f64,
    /// `StoryPivot::check_invariants` passed (true where no `StoryPivot` exists).
    pub invariants_ok: bool,
    /// Exact counts the pass can see from outside.
    pub counts: BTreeMap<&'static str, f64>,
    /// Durations outside the op stream: the final `flush`, server
    /// start and shutdown, the from-scratch alignment of a traced pass.
    pub extra_ns: BTreeMap<&'static str, u64>,
    /// Spans of a traced pass (empty otherwise).
    pub spans: Vec<Span>,
}

impl Pass {
    fn count(&mut self, name: &'static str, by: f64) {
        *self.counts.entry(name).or_default() += by;
    }

    fn count_decision(&mut self, d: &IdentifyDecision) {
        self.count("compared", d.compared as f64);
        self.count("cache_hits", d.cache_hits as f64);
        self.count("cache_misses", d.cache_misses as f64);
        self.count("created", d.created as u8 as f64);
        self.count("merges", d.merged.len() as f64);
    }
}

/// Where passes may write (WAL and checkpoint directories of served passes).
pub struct Scratch {
    root: PathBuf,
    next: std::cell::Cell<u32>,
}

impl Scratch {
    /// Scratch space under `root`; created on demand.
    pub fn new(root: PathBuf) -> Self {
        Scratch {
            root,
            next: std::cell::Cell::new(0),
        }
    }

    /// A fresh, empty directory.
    pub fn fresh_dir(&self, tag: &str) -> std::io::Result<PathBuf> {
        let n = self.next.get();
        self.next.set(n + 1);
        let dir = self
            .root
            .join(format!("tmp-{}-{tag}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

fn ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

fn register_sources(pivot: &mut StoryPivot, corpus: &Corpus) {
    for s in &corpus.sources {
        let id = pivot.add_source_with_lag(s.name.clone(), s.kind, s.typical_lag);
        assert_eq!(id, s.id, "a fresh engine numbers sources like the corpus");
    }
}

fn engine_partition(pivot: &StoryPivot) -> Partition {
    pivot
        .story_partition()
        .into_iter()
        .map(|(id, members)| (id.raw(), members.into_iter().map(|m| m.raw()).collect()))
        .collect()
}

/// The global-story partition, keyed by each story's smallest member
/// so it does not depend on how global ids were handed out.
fn global_partition(pivot: &StoryPivot) -> Partition {
    let mut out: Partition = pivot
        .global_stories()
        .iter()
        .filter(|g| !g.members.is_empty())
        .map(|g| {
            let mut members: Vec<u32> = g.members.iter().map(|&(m, _)| m.raw()).collect();
            members.sort_unstable();
            (members[0], members)
        })
        .collect();
    out.sort_unstable();
    out
}

/// FNV-1a over partitions.
fn partition_hash(parts: &[&Partition]) -> u64 {
    let mut h = Fnv::default();
    for part in parts {
        h.u64(part.len() as u64);
        for (key, members) in part.iter() {
            h.u64(*key as u64);
            h.u64(members.len() as u64);
            for &m in members {
                h.u64(m as u64);
            }
        }
    }
    h.finish()
}

/// Micro-averaged per-source pairwise F1 of a per-source story
/// partition (what `eval::run::identification_scores` computes from a
/// `StoryPivot`), over the snippets the partition still holds.
fn identification_f1(partition: &Partition, corpus: &Corpus) -> f64 {
    let story_of: HashMap<u32, u32> = partition
        .iter()
        .flat_map(|(story, members)| members.iter().map(move |&m| (m, *story)))
        .collect();
    let mut pred: Vec<Clustering> = vec![Clustering::new(); corpus.sources.len()];
    let mut truth = pred.clone();
    for s in &corpus.snippets {
        let (Some(&story), Some(label)) = (story_of.get(&s.id.raw()), corpus.truth.label_of(s.id))
        else {
            continue;
        };
        pred[s.source.index()].assign(s.id.raw() as u64, story as u64);
        truth[s.source.index()].assign(s.id.raw() as u64, label as u64);
    }
    let mut total = PairCounts::default();
    for (p, t) in pred.iter().zip(&truth) {
        total.add(pairwise_counts(p, t));
    }
    total.scores().f1
}

/// Run one pass of the prepared workload.
pub fn run_pass(p: &Prepared, scratch: &Scratch, traced: bool) -> Result<Pass, String> {
    match (p.spec.kind, traced) {
        (Kind::Identify, false) => Ok(identify_pass(p)),
        (Kind::Identify, true) => Ok(identify_pass_traced(p)),
        (Kind::AlignRefine, false) => Ok(align_pass(p)),
        (Kind::AlignRefine, true) => Ok(align_pass_traced(p)),
        (Kind::Serve, _) => serve_pass(p, scratch, traced).map_err(|e| format!("serve pass: {e}")),
    }
}

fn finish_identify(pass: &mut Pass, p: &Prepared, partition: Partition) {
    pass.partition_hash = partition_hash(&[&partition]);
    pass.pair_f1 = identification_f1(&partition, &p.corpus);
    pass.partition = partition;
}

fn identify_pass(p: &Prepared) -> Pass {
    let mut pivot = StoryPivot::new(PivotConfig::temporal(OMEGA));
    register_sources(&mut pivot, &p.corpus);
    let input = p.corpus.snippets.clone();
    let mut pass = Pass {
        op_ns: Vec::with_capacity(input.len()),
        ..Pass::default()
    };

    let cpu0 = process_cpu_ns();
    let t0 = Instant::now();
    for snippet in input {
        let t = Instant::now();
        let r = pivot.ingest_detailed(snippet);
        pass.op_ns.push(ns(t));
        pass.attempted += 1;
        match r {
            Ok(d) => {
                pass.ops_done += 1;
                pass.count_decision(&d);
            }
            Err(_) => pass.failed += 1,
        }
    }
    pass.wall_ns = ns(t0);
    pass.cpu_ns = process_cpu_ns() - cpu0;

    pass.invariants_ok = pivot.check_invariants().is_ok();
    finish_identify(&mut pass, p, engine_partition(&pivot));
    pass
}

/// `StoryPivot::ingest_detailed` taken apart: the store insert, the
/// identifier's `assign`, and `maintain` when due, each in a span.
fn identify_pass_traced(p: &Prepared) -> Pass {
    let cfg = PivotConfig::temporal(OMEGA);
    let mut store = EventStore::new();
    let mut idents: Vec<Identifier> = Vec::new();
    for s in &p.corpus.sources {
        store
            .register_source(s.clone())
            .expect("corpus sources are distinct");
        idents.push(Identifier::new(s.id, cfg.identify.clone(), cfg.sketch));
    }
    let input = p.corpus.snippets.clone();
    let mut pass = Pass {
        op_ns: Vec::with_capacity(input.len()),
        ..Pass::default()
    };
    let mut tr = Tracer::with_capacity(input.len() * 4);

    let cpu0 = process_cpu_ns();
    let t0 = Instant::now();
    for (i, snippet) in input.into_iter().enumerate() {
        let op = i as u32;
        let ident = &mut idents[snippet.source.index()];
        tr.enter(op, "bench.ingest");
        let (inserted, _) = tr.span(op, "store.insert", || store.insert(snippet.clone()));
        pass.attempted += 1;
        if inserted.is_err() {
            pass.failed += 1;
            pass.op_ns.push(tr.exit());
            continue;
        }
        if i % PROBE_EVERY == 0 {
            let (candidates, _) = tr.span(op, "store.window", || {
                store.window(snippet.source, snippet.timestamp, OMEGA).len()
            });
            pass.count("window_candidates", candidates as f64);
            pass.count("window_probes", 1.0);
            tr.span(op, "core.identify.score_probe", || {
                black_box(ident.score_probe(&snippet, &store))
            });
        }
        // `score_probe` just warmed the hot-story cache for a probed
        // event, so its `assign` is named apart and left out of assign_us.
        let name = if i % PROBE_EVERY == 0 {
            "core.identify.assign_after_probe"
        } else {
            "core.identify.assign"
        };
        let (d, _) = tr.span(op, name, || ident.assign(&snippet, &store));
        pass.count("created", d.created as u8 as f64);
        pass.count("merges", d.merged.len() as f64);
        if ident.maintenance_due() {
            let (report, _) = tr.span(op, "core.identify.maintain", || ident.maintain(&store));
            pass.count("maintain_runs", 1.0);
            pass.count("splits", report.splits.len() as f64);
        }
        pass.op_ns.push(tr.exit());
        pass.ops_done += 1;
    }
    pass.wall_ns = ns(t0);
    pass.cpu_ns = process_cpu_ns() - cpu0;

    let mut partition: Partition = idents
        .iter()
        .flat_map(|ident| {
            ident.story_ids().into_iter().map(move |sid| {
                let mut members: Vec<u32> = ident
                    .story(sid)
                    .expect("listed story")
                    .story
                    .members
                    .iter()
                    .map(|m| m.raw())
                    .collect();
                members.sort_unstable();
                (sid.raw(), members)
            })
        })
        .collect();
    partition.sort_unstable_by_key(|&(sid, _)| sid);
    pass.invariants_ok = true;
    finish_identify(&mut pass, p, partition);
    pass.spans = tr.into_spans();
    pass
}

fn align_policy() -> PipelinePolicy {
    PipelinePolicy {
        align_every: ALIGN_EVERY,
        align_every_event_secs: None,
        refine_on_align: true,
    }
}

fn finish_align(pass: &mut Pass, p: &Prepared, pivot: &StoryPivot) {
    let stories = engine_partition(pivot);
    let globals = global_partition(pivot);
    pass.invariants_ok = pivot.check_invariants().is_ok();
    pass.partition_hash = partition_hash(&[&stories, &globals]);
    pass.pair_f1 = alignment_scores(pivot, &p.corpus).f1;
    pass.count("global_stories", globals.len() as f64);
    pass.partition = stories;
}

fn align_pass(p: &Prepared) -> Pass {
    let mut dp = DynamicPivot::new(PivotConfig::default(), align_policy());
    register_sources(dp.pivot_mut(), &p.corpus);
    let mut input = p.corpus.snippets.clone().into_iter();
    let mut pass = Pass {
        op_ns: Vec::with_capacity(p.ops.len()),
        ..Pass::default()
    };

    let cpu0 = process_cpu_ns();
    let t0 = Instant::now();
    for op in &p.ops {
        pass.attempted += 1;
        match *op {
            Op::Ingest(_) => {
                let snippet = input.next().expect("one snippet per ingest op");
                let t = Instant::now();
                let r = dp.ingest(snippet);
                pass.op_ns.push(ns(t));
                if r.is_err() {
                    pass.failed += 1;
                    continue;
                }
            }
            Op::QueryEntity(e) => {
                let t = Instant::now();
                black_box(query_stories(dp.pivot(), &StoryQuery::entity(e)));
                pass.op_ns.push(ns(t));
            }
            Op::Explain(id) => {
                let t = Instant::now();
                let found = black_box(explain_assignment(dp.pivot(), id, 5)).is_some();
                pass.op_ns.push(ns(t));
                if !found {
                    pass.failed += 1;
                    continue;
                }
            }
            Op::GetStoryLast | Op::QueryStories | Op::RemoveDoc(_) => unreachable!("serve-only op"),
        }
        pass.ops_done += 1;
    }
    let t = Instant::now();
    dp.flush();
    pass.extra_ns.insert("flush", ns(t));
    pass.wall_ns = ns(t0);
    pass.cpu_ns = process_cpu_ns() - cpu0;

    finish_align(&mut pass, p, dp.pivot());
    pass
}

/// `DynamicPivot::ingest` taken apart: `StoryPivot::ingest`, then
/// `align_incremental` + `refine` at the same cadence, each in a span.
fn align_pass_traced(p: &Prepared) -> Pass {
    let mut pivot = StoryPivot::new(PivotConfig::default());
    register_sources(&mut pivot, &p.corpus);
    let mut input = p.corpus.snippets.clone().into_iter();
    let mut pass = Pass {
        op_ns: Vec::with_capacity(p.ops.len()),
        ..Pass::default()
    };
    let mut tr = Tracer::with_capacity(p.ops.len() * 3);
    let mut since_align = 0usize;

    fn round(pivot: &mut StoryPivot, tr: &mut Tracer, pass: &mut Pass, op: u32) {
        pass.count("dirty", pivot.dirty_count() as f64);
        pass.count("rounds", 1.0);
        tr.span(op, "core.align.incremental", || {
            pivot.align_incremental();
        });
        let (report, _) = tr.span(op, "core.refine.pass", || pivot.refine());
        pass.count("refine_moves", report.move_count() as f64);
    }

    let cpu0 = process_cpu_ns();
    let t0 = Instant::now();
    for (i, op) in p.ops.iter().enumerate() {
        let opn = i as u32;
        pass.attempted += 1;
        match *op {
            Op::Ingest(_) => {
                let snippet = input.next().expect("one snippet per ingest op");
                tr.enter(opn, "bench.ingest");
                let (r, _) = tr.span(opn, "core.pivot.ingest", || pivot.ingest(snippet));
                since_align += 1;
                if since_align >= ALIGN_EVERY {
                    round(&mut pivot, &mut tr, &mut pass, opn);
                    since_align = 0;
                }
                pass.op_ns.push(tr.exit());
                if r.is_err() {
                    pass.failed += 1;
                    continue;
                }
            }
            Op::QueryEntity(e) => {
                tr.enter(opn, "bench.read");
                tr.span(opn, "core.query.query_stories", || {
                    black_box(query_stories(&pivot, &StoryQuery::entity(e)));
                });
                pass.op_ns.push(tr.exit());
            }
            Op::Explain(id) => {
                tr.enter(opn, "bench.read");
                tr.span(opn, "core.explain.explain", || {
                    black_box(explain_assignment(&pivot, id, 5));
                });
                pass.op_ns.push(tr.exit());
            }
            Op::GetStoryLast | Op::QueryStories | Op::RemoveDoc(_) => unreachable!("serve-only op"),
        }
        pass.ops_done += 1;
    }
    let opn = p.ops.len() as u32;
    tr.enter(opn, "bench.flush");
    round(&mut pivot, &mut tr, &mut pass, opn);
    pass.extra_ns.insert("flush", tr.exit());
    pass.wall_ns = ns(t0);
    pass.cpu_ns = process_cpu_ns() - cpu0;

    // One from-scratch alignment of the final state, for comparison
    // with the incremental rounds; it leaves the partition unchanged.
    let t = Instant::now();
    pivot.align();
    pass.extra_ns.insert("full_align", ns(t));

    finish_align(&mut pass, p, &pivot);
    pass.spans = tr.into_spans();
    pass
}

/// The server configuration of `serve_mixed`: shipped defaults except
/// two shards, WAL and checkpoints on, fsync off.
fn server_config(dir: &Path) -> ServerConfig {
    ServerConfig {
        shards: 2,
        wal_dir: Some(dir.join("wal")),
        checkpoint_dir: Some(dir.join("ckpt")),
        fsync: SyncPolicy::Never,
        ..ServerConfig::default()
    }
}

/// Sum of every series of `name` in a METRICS exposition (labelled or not).
fn exposition_sum(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            let bare = series.split('{').next()?;
            (bare == name).then(|| value.parse::<f64>().ok()).flatten()
        })
        .sum()
}

fn serve_pass(p: &Prepared, scratch: &Scratch, traced: bool) -> storypivot_types::Result<Pass> {
    let dir = scratch.fresh_dir("serve")?;
    let t = Instant::now();
    let handle = serve("127.0.0.1:0", server_config(&dir))?;
    let mut client = Client::connect(handle.addr())?;
    let start_ns = ns(t);
    for s in &p.corpus.sources {
        let id = client.add_source(&s.name, s.kind, s.typical_lag)?;
        assert_eq!(id, s.id, "a fresh server numbers sources like the corpus");
    }

    let snippets: &[Snippet] = &p.corpus.snippets;
    let mut pass = Pass {
        op_ns: Vec::with_capacity(p.ops.len()),
        ..Pass::default()
    };
    pass.extra_ns.insert("server_start", start_ns);
    let mut tr = traced.then(|| Tracer::with_capacity(p.ops.len()));
    let mut last_story = StoryId::new(0);
    let backoff = BackoffPolicy::default();

    let cpu0 = process_cpu_ns();
    let t0 = Instant::now();
    for (i, op) in p.ops.iter().enumerate() {
        if let Some(tr) = tr.as_mut() {
            let root = match op {
                Op::Ingest(_) => "bench.ingest",
                Op::RemoveDoc(_) => "bench.remove",
                _ => "bench.read",
            };
            tr.enter(i as u32, root);
        }
        let t = Instant::now();
        let outcome = match *op {
            Op::Ingest(i) => {
                client
                    .ingest_backoff(&snippets[i as usize], backoff)
                    .map(|(story, retries)| {
                        last_story = story;
                        retries
                    })
            }
            Op::GetStoryLast => client.get_story(last_story).map(|s| {
                black_box(s);
                RetryStats::default()
            }),
            Op::QueryStories => client.query_stories().map(|s| {
                black_box(s);
                RetryStats::default()
            }),
            Op::RemoveDoc(d) => client.remove_doc(d).map(|n| {
                black_box(n);
                RetryStats::default()
            }),
            Op::QueryEntity(_) | Op::Explain(_) => unreachable!("align-only op"),
        };
        let dt = ns(t);
        if let Some(tr) = tr.as_mut() {
            tr.exit();
        }
        pass.op_ns.push(dt);
        pass.attempted += 1;
        match outcome {
            Ok(retries) => {
                pass.ops_done += 1;
                pass.attempted += retries.total() as u64;
                pass.failed += retries.total() as u64;
                pass.count("busy", retries.busy as f64);
                pass.count("shed", retries.shed as f64);
            }
            Err(_) => pass.failed += 1,
        }
    }
    pass.wall_ns = ns(t0);
    pass.cpu_ns = process_cpu_ns() - cpu0;

    let mut partition: Partition = client
        .query_stories()?
        .iter()
        .map(|s| (s.id.raw(), s.members.iter().map(|m| m.raw()).collect()))
        .collect();
    partition.sort_unstable();
    if traced {
        let text = client.metrics()?;
        pass.count(
            "identify_ns_sum",
            exposition_sum(&text, "storypivot_identify_duration_ns_sum"),
        );
        pass.count(
            "wal_append_ns_sum",
            exposition_sum(&text, "storypivot_wal_append_duration_ns_sum"),
        );
    }
    let t = Instant::now();
    client.shutdown()?;
    drop(client);
    handle.join();
    pass.extra_ns.insert("server_shutdown", ns(t));
    let _ = std::fs::remove_dir_all(&dir);

    pass.invariants_ok = true;
    finish_identify(&mut pass, p, partition);
    if let Some(tr) = tr {
        pass.spans = tr.into_spans();
    }
    Ok(pass)
}

/// The in-process twin of a served pass: the same ingests and removals
/// through a plain `StoryPivot`. Its partition is the oracle the served
/// partition must equal (identification is per source, so sharding by
/// source does not change it).
pub fn serve_twin(p: &Prepared) -> Pass {
    let mut pivot = StoryPivot::new(PivotConfig::default());
    register_sources(&mut pivot, &p.corpus);
    let mut input = p.corpus.snippets.clone().into_iter();
    let mut pass = Pass {
        op_ns: Vec::with_capacity(p.ops.len()),
        ..Pass::default()
    };
    let t0 = Instant::now();
    for op in &p.ops {
        match *op {
            Op::Ingest(_) => {
                let snippet = input.next().expect("one snippet per ingest op");
                let t = Instant::now();
                let r = pivot.ingest_detailed(snippet);
                pass.op_ns.push(ns(t));
                pass.attempted += 1;
                match r {
                    Ok(d) => pass.count_decision(&d),
                    Err(_) => pass.failed += 1,
                }
            }
            Op::RemoveDoc(d) => {
                let t = Instant::now();
                let r = pivot.remove_document(d);
                pass.op_ns.push(ns(t));
                pass.attempted += 1;
                pass.failed += r.is_err() as u64;
            }
            _ => pass.op_ns.push(0),
        }
    }
    pass.wall_ns = ns(t0);
    pass.invariants_ok = pivot.check_invariants().is_ok();
    finish_identify(&mut pass, p, engine_partition(&pivot));
    pass
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{prepare, spec};
    use storypivot_eval::run::identification_scores;

    #[test]
    fn identification_f1_agrees_with_the_eval_crate() {
        let p = prepare(spec("identify_wide").unwrap().with_snippets(600), 5);
        let mut pivot = StoryPivot::new(PivotConfig::temporal(OMEGA));
        register_sources(&mut pivot, &p.corpus);
        for s in &p.corpus.snippets {
            pivot.ingest(s.clone()).unwrap();
        }
        let ours = identification_f1(&engine_partition(&pivot), &p.corpus);
        let theirs = identification_scores(&pivot, &p.corpus).f1;
        assert!((ours - theirs).abs() < 1e-12, "{ours} vs {theirs}");
        assert!(ours > 0.3, "identification should beat chance, got {ours}");
    }

    #[test]
    fn exposition_sum_adds_labelled_series() {
        let text =
            "# HELP x\nfoo_sum{shard=\"0\"} 10\nfoo_sum{shard=\"1\"} 5\nfoo_sum_other 99\nbar 1\n";
        assert_eq!(exposition_sum(text, "foo_sum"), 15.0);
        assert_eq!(exposition_sum(text, "bar"), 1.0);
        assert_eq!(exposition_sum(text, "missing"), 0.0);
    }
}
