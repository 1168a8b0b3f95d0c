//! One run of one workload: set-up, timed passes, the checks, and the
//! metrics computed from the per-op minima over the passes.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use crate::layers;
use crate::metrics::{Def, END_TO_END, PER_LAYER};
use crate::passes::{run_pass, serve_twin, Partition, Pass, Scratch, PROBE_EVERY};
use crate::stats::{mean, median, pass_spread_ratio, percentile};
use crate::sys::peak_rss_mib;
use crate::trace::{root_ns, self_times, write_jsonl, SelfTime};
use crate::workload::{prepare, Kind, Op, Prepared, Spec, ALIGN_EVERY};

/// Fewest timed passes of each kind, however short `--seconds` is.
const MIN_PASSES: usize = 3;

/// How to run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Seed of the relabelling and of the op stream's choices.
    pub seed: u64,
    /// How long to keep starting timed passes.
    pub seconds: f64,
    /// Also run traced passes and the layer micro-loops, and report
    /// per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// What a run reports.
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Every check passed.
    pub correct: bool,
    /// Calls made in the timed passes.
    pub attempted: u64,
    /// Calls that failed or were refused in the timed passes.
    pub failed: u64,
    /// The metrics of this mode, in table order.
    pub metrics: Vec<(Def, f64)>,
    /// Human-readable lines about the run (stderr).
    pub notes: Vec<String>,
}

/// The passes of one kind (untraced or traced), folded as they finish
/// so that only the fastest one is kept whole.
///
/// Op i does identical work in every pass, so its smallest latency over
/// the passes is the least disturbed observation of it. Every timing
/// metric is computed from these per-op minima: a neighbour that slows
/// the machine for a few seconds spoils whole passes, but rarely the
/// same op in every pass.
struct Folded {
    walls_ns: Vec<u64>,
    /// Smallest latency of each op, in op-stream order.
    op_ns: Vec<u64>,
    /// Smallest value of each out-of-stream duration (`Pass::extra_ns`).
    extra_ns: BTreeMap<&'static str, u64>,
    /// Smallest process CPU time of a pass.
    cpu_ns: u64,
    attempted: u64,
    failed: u64,
    /// BUSY and SHED replies absorbed, over all passes.
    busy: f64,
    shed: f64,
    /// `VmHWM` right after the first pass: what running the workload
    /// once costs in memory (later passes only repeat it).
    first_pass_rss_mib: f64,
    partition_hash: u64,
    partitions_agree: bool,
    invariants_ok: bool,
    ops_completed: bool,
    matches_twin: bool,
    /// The fastest pass (its partition dropped).
    best: Pass,
}

impl Folded {
    /// Run passes for `seconds` (at least `MIN_PASSES`), calling
    /// `between` between every two.
    fn run(
        p: &Prepared,
        scratch: &Scratch,
        traced: bool,
        seconds: f64,
        twin: Option<&Partition>,
        mut between: impl FnMut(),
    ) -> Result<Folded, String> {
        let started = Instant::now();
        let first = run_pass(p, scratch, traced)?;
        let mut f = Folded {
            walls_ns: Vec::new(),
            op_ns: first.op_ns.clone(),
            extra_ns: first.extra_ns.clone(),
            cpu_ns: first.cpu_ns,
            attempted: 0,
            failed: 0,
            busy: 0.0,
            shed: 0.0,
            first_pass_rss_mib: peak_rss_mib(),
            partition_hash: first.partition_hash,
            partitions_agree: true,
            invariants_ok: true,
            ops_completed: true,
            matches_twin: true,
            best: Pass {
                wall_ns: u64::MAX,
                ..Pass::default()
            },
        };
        f.absorb(p, first, twin);
        while f.walls_ns.len() < MIN_PASSES || started.elapsed().as_secs_f64() < seconds {
            between();
            f.absorb(p, run_pass(p, scratch, traced)?, twin);
        }
        Ok(f)
    }

    fn absorb(&mut self, p: &Prepared, mut pass: Pass, twin: Option<&Partition>) {
        let count = |name: &str| pass.counts.get(name).copied().unwrap_or(0.0);
        self.busy += count("busy");
        self.shed += count("shed");
        self.walls_ns.push(pass.wall_ns);
        for (min, &ns) in self.op_ns.iter_mut().zip(&pass.op_ns) {
            *min = (*min).min(ns);
        }
        for (name, &ns) in &pass.extra_ns {
            let min = self.extra_ns.entry(name).or_insert(ns);
            *min = (*min).min(ns);
        }
        self.cpu_ns = self.cpu_ns.min(pass.cpu_ns);
        self.attempted += pass.attempted;
        self.failed += pass.failed;
        self.partitions_agree &= pass.partition_hash == self.partition_hash;
        self.invariants_ok &= pass.invariants_ok;
        self.ops_completed &= pass.ops_done == p.ops.len() as u64;
        self.matches_twin &= twin.map_or(true, |t| *t == pass.partition);
        if pass.wall_ns < self.best.wall_ns {
            pass.partition = Partition::new();
            self.best = pass;
        }
    }

    fn extra(&self, name: &str) -> u64 {
        self.extra_ns.get(name).copied().unwrap_or(0)
    }

    /// The minima of the ops `keep` accepts.
    fn select(&self, p: &Prepared, keep: impl Fn(&Op) -> bool) -> Vec<u64> {
        p.ops
            .iter()
            .zip(&self.op_ns)
            .filter(|(op, _)| keep(op))
            .map(|(_, &ns)| ns)
            .collect()
    }

    /// Minima of the ingests that ran an align+refine round, then the flush.
    fn rounds(&self, p: &Prepared) -> Vec<u64> {
        if p.spec.kind != Kind::AlignRefine {
            return Vec::new();
        }
        let mut rounds: Vec<u64> = self
            .select(p, is_ingest)
            .chunks_exact(ALIGN_EVERY)
            .map(|chunk| *chunk.last().expect("non-empty chunk"))
            .collect();
        rounds.push(self.extra("flush"));
        rounds
    }

    /// Time an undisturbed pass would take: every op plus the flush.
    fn total_ns(&self) -> u64 {
        self.op_ns.iter().sum::<u64>() + self.extra("flush")
    }

    fn events_per_s(&self, p: &Prepared) -> f64 {
        p.ingests() as f64 / (self.total_ns() as f64 / 1e9)
    }
}

fn is_ingest(op: &Op) -> bool {
    matches!(op, Op::Ingest(_))
}

fn is_read(op: &Op) -> bool {
    matches!(
        op,
        Op::QueryEntity(_) | Op::Explain(_) | Op::GetStoryLast | Op::QueryStories
    )
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

fn p50_us(samples: &[u64]) -> f64 {
    us(percentile(samples, 0.50) as f64)
}

/// Mean duration in ns of the spans called `name`.
fn span_mean(st: &BTreeMap<&'static str, SelfTime>, name: &str) -> f64 {
    st.get(name)
        .map_or(0.0, |s| s.total_ns as f64 / s.count.max(1) as f64)
}

/// Run `spec` once and report.
pub fn run_workload(spec: Spec, opts: Options, out_dir: &Path) -> Result<Report, String> {
    let scratch = Scratch::new(out_dir.to_path_buf());
    let mut notes = Vec::new();
    let mut checks: Vec<(&str, bool)> = Vec::new();

    // ---- set-up ---------------------------------------------------------
    // Corpus, op stream and (serve_mixed) the twin's oracle partition:
    // 5–100 ms, too short to repeat well and as exposed to the machine's
    // slow episodes as the passes are. So a run sets up again between
    // every two untraced passes and reports the median.
    let mut setup_secs = Vec::new();
    let mut op_hashes = Vec::new();
    let mut set_up = || {
        let t = Instant::now();
        let prepared = prepare(spec, opts.seed);
        let twin = (spec.kind == Kind::Serve).then(|| serve_twin(&prepared));
        setup_secs.push(t.elapsed().as_secs_f64());
        op_hashes.push(prepared.op_hash);
        (prepared, twin)
    };
    let (p, twin) = set_up();
    notes.push(format!(
        "{}: seed {} -> {} ops ({} ingests), op hash {:016x}",
        spec.name,
        opts.seed,
        p.ops.len(),
        p.ingests(),
        p.op_hash
    ));

    // ---- timed passes ---------------------------------------------------
    // The first pass doubles as warm-up: per-op minima ignore its cold caches.
    let twin_partition = twin.as_ref().map(|t| &t.partition);
    let plain_seconds = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let plain = Folded::run(&p, &scratch, false, plain_seconds, twin_partition, || {
        set_up();
    })?;
    let traced = if opts.trace {
        Some(Folded::run(
            &p,
            &scratch,
            true,
            opts.seconds / 2.0,
            twin_partition,
            || (),
        )?)
    } else {
        None
    };
    checks.push((
        "same seed gives the same op stream",
        op_hashes.iter().all(|&h| h == p.op_hash),
    ));

    // ---- checks ---------------------------------------------------------
    let kinds = || std::iter::once(&plain).chain(&traced);
    checks.push((
        "every pass produced the same partition",
        kinds().all(|f| f.partitions_agree && f.partition_hash == plain.partition_hash),
    ));
    checks.push(("engine invariants hold", kinds().all(|f| f.invariants_ok)));
    checks.push((
        "every op of every pass completed",
        kinds().all(|f| f.ops_completed),
    ));
    checks.push((
        "pair_f1 is a usable score",
        plain.best.pair_f1.is_finite() && plain.best.pair_f1 > 0.0,
    ));
    if let Some(twin) = &twin {
        checks.push((
            "in-process twin is sound",
            twin.invariants_ok && twin.failed == 0,
        ));
        checks.push((
            "served partition equals the in-process twin's",
            kinds().all(|f| f.matches_twin),
        ));
    }
    for (what, ok) in &checks {
        if !ok {
            notes.push(format!("{}: CHECK FAILED: {what}", spec.name));
        }
    }
    let mut correct = checks.iter().all(|&(_, ok)| ok);
    let attempted = kinds().map(|f| f.attempted).sum();
    let failed = kinds().map(|f| f.failed).sum();

    // ---- metrics --------------------------------------------------------
    let b = &plain.best;
    let ingest = plain.select(&p, is_ingest);
    let reads = plain.select(&p, is_read);
    let rounds = plain.rounds(&p);
    notes.push(format!(
        "{}: {} passes, best {:.3} s, median {:.3} s, per-op minima sum to {:.3} s; {} ingest / {} read / {} round samples",
        spec.name,
        plain.walls_ns.len(),
        b.wall_ns as f64 / 1e9,
        median(&plain.walls_ns.iter().map(|&w| w as f64 / 1e9).collect::<Vec<_>>()),
        plain.total_ns() as f64 / 1e9,
        ingest.len(),
        reads.len(),
        rounds.len()
    ));
    notes.push(format!(
        "{}: pass walls (s): {}",
        spec.name,
        plain
            .walls_ns
            .iter()
            .map(|&w| format!("{:.3}", w as f64 / 1e9))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    if let Some(traced) = &traced {
        let t = &traced.best;
        let spans = &t.spans;
        let st = self_times(spans);
        let count = |pass: &Pass, name: &str| pass.counts.get(name).copied().unwrap_or(0.0);
        let ingests = p.ingests() as f64;

        // Identification, seen through IdentifyDecision (untraced: the
        // probes of a traced pass would inflate the cache hit count).
        let decided = twin.as_ref().unwrap_or(b);
        let probes = count(decided, "cache_hits") + count(decided, "cache_misses");
        v.insert(
            "core.identify.compared_per_event",
            count(decided, "compared") / ingests,
        );
        v.insert(
            "core.hotcache.hit_ratio",
            if probes > 0.0 {
                count(decided, "cache_hits") / probes
            } else {
                0.0
            },
        );
        if spec.kind == Kind::Identify {
            v.insert(
                "core.identify.new_story_ratio",
                count(b, "created") / ingests,
            );
            v.insert("core.identify.merges", count(b, "merges"));
            v.insert("core.identify.splits", count(t, "splits"));
            v.insert("core.identify.maintain_runs", count(t, "maintain_runs"));
            v.insert(
                "core.identify.maintain_ms",
                ms(span_mean(&st, "core.identify.maintain")),
            );
            v.insert(
                "core.identify.assign_us",
                us(span_mean(&st, "core.identify.assign")),
            );
            v.insert(
                "core.identify.score_probe_us",
                us(span_mean(&st, "core.identify.score_probe")),
            );
            v.insert("store.window_us", us(span_mean(&st, "store.window")));
            v.insert(
                "store.window_candidates",
                count(t, "window_candidates") / count(t, "window_probes").max(1.0),
            );
            v.insert("store.insert_us", us(span_mean(&st, "store.insert")));
        }
        if spec.kind == Kind::AlignRefine {
            v.insert(
                "core.align.incremental_ms",
                ms(span_mean(&st, "core.align.incremental")),
            );
            v.insert("core.align.full_ms", ms(traced.extra("full_align") as f64));
            v.insert(
                "core.align.dirty_per_round",
                count(t, "dirty") / count(t, "rounds").max(1.0),
            );
            v.insert("core.align.global_stories", count(t, "global_stories"));
            v.insert(
                "core.refine.pass_ms",
                ms(span_mean(&st, "core.refine.pass")),
            );
            v.insert("core.refine.moves", count(t, "refine_moves"));
            v.insert(
                "core.query.query_stories_us",
                us(span_mean(&st, "core.query.query_stories")),
            );
            v.insert(
                "core.explain.explain_us",
                us(span_mean(&st, "core.explain.explain")),
            );
        }
        if let Some(twin) = &twin {
            let twin_p50 = |keep: fn(&Op) -> bool| {
                let kept: Vec<u64> = p
                    .ops
                    .iter()
                    .zip(&twin.op_ns)
                    .filter(|(op, _)| keep(op))
                    .map(|(_, &ns)| ns)
                    .collect();
                p50_us(&kept)
            };
            let rtt_p50 = |keep: fn(&Op) -> bool| p50_us(&plain.select(&p, keep));
            v.insert("serve.server.ingest_rtt_us", rtt_p50(is_ingest));
            v.insert(
                "serve.server.get_story_rtt_us",
                rtt_p50(|op| matches!(op, Op::GetStoryLast)),
            );
            v.insert(
                "serve.server.query_stories_rtt_us",
                rtt_p50(|op| matches!(op, Op::QueryStories)),
            );
            v.insert(
                "serve.server.remove_doc_rtt_us",
                rtt_p50(|op| matches!(op, Op::RemoveDoc(_))),
            );
            v.insert(
                "serve.server.overhead_us",
                rtt_p50(is_ingest) - twin_p50(is_ingest),
            );
            // Server-side sums come from the fastest traced pass, so they
            // are set against that pass's own round trips.
            let traced_rtt: u64 = p
                .ops
                .iter()
                .zip(&t.op_ns)
                .filter(|(op, _)| is_ingest(op))
                .map(|(_, &ns)| ns)
                .sum();
            v.insert(
                "serve.server.engine_share",
                count(t, "identify_ns_sum") / traced_rtt.max(1) as f64,
            );
            v.insert(
                "serve.server.wal_share",
                count(t, "wal_append_ns_sum") / traced_rtt.max(1) as f64,
            );
            v.insert("serve.server.busy", plain.busy);
            v.insert("serve.server.shed", plain.shed);
            v.insert(
                "serve.server.start_ms",
                ms(plain.extra("server_start") as f64),
            );
            v.insert(
                "serve.server.shutdown_ms",
                ms(plain.extra("server_shutdown") as f64),
            );
            // The twin retracted exactly the documents the served passes did.
            v.insert(
                "core.pivot.remove_document_us",
                twin_p50(|op| matches!(op, Op::RemoveDoc(_))),
            );
        }
        let layer_dir = scratch
            .fresh_dir("layers")
            .map_err(|e| format!("scratch dir: {e}"))?;
        let micro =
            layers::measure(&p.corpus, &layer_dir).map_err(|e| format!("layer loops: {e}"))?;
        let _ = std::fs::remove_dir_all(&layer_dir);
        for (name, value) in micro {
            v.entry(name).or_insert(value);
        }
        v.insert("gen.corpus.build_ms", ms(p.corpus_build_ns as f64));
        v.insert("bench.read_p50_us", p50_us(&reads));
        v.insert("bench.read_samples", reads.len() as f64);
        v.insert("bench.round_mean_ms", ms(mean(&rounds)));
        v.insert("bench.round_samples", rounds.len() as f64);
        v.insert("bench.ingest_samples", ingest.len() as f64);
        v.insert(
            "bench.cpu_us_per_op",
            us(plain.cpu_ns as f64) / p.ops.len() as f64,
        );
        v.insert("bench.passes", plain.walls_ns.len() as f64);
        v.insert(
            "bench.pass_spread_ratio",
            pass_spread_ratio(&plain.walls_ns),
        );
        v.insert(
            "trace.overhead_ratio",
            traced.events_per_s(&p) / plain.events_per_s(&p),
        );
        let coverage = root_ns(spans) as f64 / t.wall_ns as f64;
        v.insert("trace.chain_coverage_ratio", coverage);
        if coverage < 0.9 {
            notes.push(format!(
                "{}: CHECK FAILED: spans explain only {coverage:.3} of the traced wall",
                spec.name
            ));
            correct = false;
        }

        let path = out_dir.join(format!("trace-{}.jsonl", spec.name));
        write_jsonl(&path, spans).map_err(|e| format!("{}: {e}", path.display()))?;
        notes.push(format!(
            "{}: {} traced passes, best {:.3} s; {} spans of it -> {}",
            spec.name,
            traced.walls_ns.len(),
            t.wall_ns as f64 / 1e9,
            spans.len(),
            path.display()
        ));
        let ops = t.ops_done.max(1) as f64;
        for (name, s) in &st {
            notes.push(format!(
                "{}:   self {:>10.3} us/op  {:>8} spans  {name}",
                spec.name,
                us(s.self_ns as f64) / ops,
                s.count
            ));
        }
        let probes = if spec.kind == Kind::Identify {
            format!(" (store.window and score_probe run on every {PROBE_EVERY}th event only)")
        } else {
            String::new()
        };
        notes.push(format!(
            "{}:   wall {:>10.3} us/op{probes}",
            spec.name,
            us(t.wall_ns as f64) / ops
        ));
    } else {
        v.insert("events_per_s", plain.events_per_s(&p));
        v.insert("ingest_p50_us", p50_us(&ingest));
        v.insert("ingest_p99_us", us(percentile(&ingest, 0.99) as f64));
        v.insert("peak_rss_mib", plain.first_pass_rss_mib);
        v.insert("pair_f1", b.pair_f1);
        v.insert("setup_s", median(&setup_secs));
    }

    let table = if opts.trace { PER_LAYER } else { END_TO_END };
    let metrics = table
        .iter()
        .map(|d| {
            let value = v.get(d.name).copied();
            assert!(
                opts.trace || value.is_some(),
                "end-to-end metric {} was not measured",
                d.name
            );
            (*d, value.unwrap_or(0.0))
        })
        .collect();
    Ok(Report {
        workload: spec.name,
        correct,
        attempted,
        failed,
        metrics,
        notes,
    })
}

impl Report {
    /// The result object the driver reads, on one line.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(d, value)| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    d.name,
                    json_number(*value),
                    d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A float as JSON: all its digits, and never `NaN` or `inf`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::SPECS;

    fn out_dir(tag: &str) -> std::path::PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{tag}-{}", std::process::id()))
    }

    /// A 200-snippet smoke of every workload, untraced and traced.
    #[test]
    fn every_workload_is_correct_at_smoke_size() {
        for spec in SPECS {
            let small = spec.with_snippets(200);
            let dir = out_dir(spec.name);
            for trace in [false, true] {
                let opts = Options {
                    seed: 11,
                    seconds: 0.0,
                    trace,
                };
                let r = run_workload(small, opts, &dir).unwrap();
                assert!(r.correct, "{} trace={trace}: {:?}", spec.name, r.notes);
                assert_eq!(r.failed, 0, "{} trace={trace}", spec.name);
                assert!(r.attempted >= 200 * MIN_PASSES as u64);
                let table = if trace { PER_LAYER } else { END_TO_END };
                assert_eq!(r.metrics.len(), table.len());
                if !trace {
                    for (d, value) in &r.metrics {
                        assert!(*value > 0.0, "{} {} must never be 0", spec.name, d.name);
                    }
                }
                let json = r.to_json();
                assert!(
                    json.starts_with("{\"correct\": true, \"attempted\": "),
                    "{json}"
                );
                assert!(!json.contains('\n'));
            }
            assert!(dir.join(format!("trace-{}.jsonl", spec.name)).exists());
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn per_op_minima_pick_each_ops_least_disturbed_pass() {
        let spec = crate::workload::spec("align_refine")
            .unwrap()
            .with_snippets(ALIGN_EVERY + 40);
        let p = prepare(spec, 1);
        let dir = out_dir("minima");
        let f = Folded::run(&p, &Scratch::new(dir.clone()), false, 0.0, None, || ()).unwrap();
        assert_eq!(f.walls_ns.len(), MIN_PASSES);
        assert_eq!(f.op_ns.len(), p.ops.len());
        // No minimum exceeds the fastest pass's own reading of that op,
        // and their sum undercuts the fastest pass's wall.
        assert!(f
            .op_ns
            .iter()
            .zip(&f.best.op_ns)
            .all(|(min, best)| min <= best));
        assert!(f.total_ns() <= f.best.wall_ns);
        // One round inside the stream, then the flush.
        assert_eq!(f.rounds(&p).len(), 2);
        assert!(f.partitions_agree && f.invariants_ok && f.ops_completed);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_finite_values_never_reach_the_json() {
        assert_eq!(json_number(f64::NAN), "0");
        assert_eq!(json_number(1.25), "1.25");
    }
}
