//! The names, units and directions of every metric the benchmark
//! prints. `BENCHMARK.json` lists the same names; a unit test keeps the
//! two in step.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric definition.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change is rejected (0 for per-layer metrics,
    /// which have no bound).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees; printed with `--trace 0` by every workload.
pub const END_TO_END: &[Def] = &[
    e2e("events_per_s", "1/s", Higher, 0.25),
    e2e("ingest_p50_us", "us", Lower, 0.25),
    e2e("ingest_p99_us", "us", Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.10),
    e2e("pair_f1", "ratio", Higher, 0.01),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Single layers; printed with `--trace 1` by every workload. A layer a
/// workload does not exercise (or that cannot be timed from outside
/// there) reads 0.
pub const PER_LAYER: &[Def] = &[
    layer("types.kernel.cosine_batch_ns_per_nnz", "ns", Lower),
    layer("core.identify.score_probe_us", "us", Lower),
    layer("store.window_us", "us", Lower),
    layer("store.window_candidates", "count", Lower),
    layer("core.identify.assign_us", "us", Lower),
    layer("core.identify.compared_per_event", "count", Lower),
    layer("core.hotcache.hit_ratio", "ratio", Higher),
    layer("store.insert_us", "us", Lower),
    layer("sketch.minhash.signature_us", "us", Lower),
    layer("core.identify.new_story_ratio", "ratio", Lower),
    layer("core.identify.merges", "count", Lower),
    layer("core.identify.splits", "count", Lower),
    layer("core.identify.maintain_ms", "ms", Lower),
    layer("core.identify.maintain_runs", "count", Lower),
    layer("core.align.incremental_ms", "ms", Lower),
    layer("core.align.full_ms", "ms", Lower),
    layer("core.align.dirty_per_round", "count", Lower),
    layer("core.align.global_stories", "count", Lower),
    layer("core.refine.pass_ms", "ms", Lower),
    layer("core.refine.moves", "count", Lower),
    layer("core.query.query_stories_us", "us", Lower),
    layer("core.explain.explain_us", "us", Lower),
    layer("serve.server.ingest_rtt_us", "us", Lower),
    layer("serve.server.get_story_rtt_us", "us", Lower),
    layer("serve.server.query_stories_rtt_us", "us", Lower),
    layer("serve.server.remove_doc_rtt_us", "us", Lower),
    layer("serve.server.overhead_us", "us", Lower),
    layer("serve.server.engine_share", "ratio", Higher),
    layer("serve.server.wal_share", "ratio", Lower),
    layer("serve.server.busy", "count", Lower),
    layer("serve.server.shed", "count", Lower),
    layer("serve.server.start_ms", "ms", Lower),
    layer("serve.server.shutdown_ms", "ms", Lower),
    layer("serve.proto.encode_ns", "ns", Lower),
    layer("serve.proto.decode_borrowed_ns", "ns", Lower),
    layer("serve.proto.bytes_per_ingest", "B", Lower),
    layer("core.oplog.encode_ns", "ns", Lower),
    layer("core.oplog.replay_us", "us", Lower),
    layer("substrate.wal.append_us", "us", Lower),
    layer("substrate.wal.bytes_per_op", "B", Lower),
    layer("substrate.wal.sync_us", "us", Lower),
    layer("core.pivot.remove_document_us", "us", Lower),
    layer("core.checkpoint.save_ms", "ms", Lower),
    layer("core.checkpoint.load_ms", "ms", Lower),
    layer("core.checkpoint.bytes_per_snippet", "B", Lower),
    layer("gen.corpus.build_ms", "ms", Lower),
    layer("bench.read_p50_us", "us", Lower),
    layer("bench.read_samples", "count", Higher),
    layer("bench.round_mean_ms", "ms", Lower),
    layer("bench.round_samples", "count", Higher),
    layer("bench.ingest_samples", "count", Higher),
    layer("bench.cpu_us_per_op", "us", Lower),
    layer("bench.passes", "count", Higher),
    layer("bench.pass_spread_ratio", "ratio", Lower),
    layer("trace.overhead_ratio", "ratio", Higher),
    layer("trace.chain_coverage_ratio", "ratio", Higher),
];

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn every_printed_name_and_unit_is_well_formed_and_used_once() {
        let mut seen = std::collections::HashSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(d.name), "bad name {:?}", d.name);
            assert!(valid_unit(d.unit), "bad unit {:?}", d.unit);
            assert!(seen.insert(d.name), "duplicate {:?}", d.name);
        }
        for s in crate::workload::SPECS {
            assert!(valid_name(s.name) && seen.insert(s.name));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    }

    #[test]
    fn end_to_end_bounds_fit_the_contract() {
        for d in END_TO_END {
            assert!(d.bound > 0.0 && d.bound <= 0.25, "{}", d.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|d| d.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            END_TO_END.iter().all(|d| d.bound <= setup.bound),
            "setup_s gets the largest bound"
        );
    }

    /// `BENCHMARK.json` is what the driver reads; this table is what the
    /// program prints. They must list the same metrics and workloads.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let json = include_str!("../../BENCHMARK.json");
        let section = |key: &str| {
            let start = json
                .find(&format!("\"{key}\""))
                .unwrap_or_else(|| panic!("no {key}"));
            let open = start + json[start..].find('[').expect("array");
            let close = open + json[open..].find(']').expect("array end");
            &json[open..close]
        };
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let body = section(key);
            assert_eq!(body.matches("\"name\"").count(), defs.len(), "{key} length");
            for d in defs {
                let entry = format!(
                    "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                    d.name,
                    d.unit,
                    d.better.as_str()
                );
                assert!(body.contains(&entry), "{key} lacks {entry}");
                if d.bound > 0.0 {
                    assert!(
                        body.contains(&format!("{entry}, \"bound\": {}", d.bound)),
                        "bound of {}",
                        d.name
                    );
                }
            }
        }
        let body = section("workloads");
        assert_eq!(
            body.matches("\"name\"").count(),
            crate::workload::SPECS.len()
        );
        for s in crate::workload::SPECS {
            assert!(
                body.contains(&format!("\"name\": \"{}\"", s.name)),
                "workload {}",
                s.name
            );
        }
    }
}
