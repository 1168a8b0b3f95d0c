use std::time::Instant;

use storypivot_bench::corpus_fixed_period;
use storypivot_core::config::PivotConfig;
use storypivot_core::oplog::{self, ReplayOp};
use storypivot_core::StoryPivot;
use storypivot_eval::Table;
use storypivot_substrate::wal::{self, SyncPolicy, Wal};

use super::{ms, Experiment, Scale};

pub(super) const EXPERIMENT: Experiment = Experiment {
    name: "wal",
    alias: Some("e12"),
    title: "E12 — WAL fsync cost and recovery replay (durability)",
    run: e12_wal,
};

/// E12 — durability cost and recovery speed: journaled ingest under each
/// fsync policy vs the unjournaled baseline, and scan+replay time as a
/// function of journal length. Measures the same WAL + oplog machinery
/// pivotd runs, without the network in the way.
fn e12_wal(scale: &Scale, seed: u64) -> Table {
    let corpus = corpus_fixed_period(scale.mid, 8, seed ^ 43);
    let dir = std::env::temp_dir().join(format!("storypivot-harness-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create WAL scratch dir");
    let mut table = Table::new(["mode", "fsync", "events"])
        .clocks(["ms/event"])
        .counts(["wal KiB"])
        .clocks(["recover ms"]);
    // Identification only, as on a shard.
    let fresh = || StoryPivot::new(PivotConfig::default());

    // Baseline: the same ingest stream with no journal at all.
    let mut engine = fresh();
    for s in &corpus.sources {
        engine.add_source_registered(s.clone()).unwrap();
    }
    let t = Instant::now();
    for s in &corpus.snippets {
        engine.ingest(s.clone()).unwrap();
    }
    let base_nanos = t.elapsed().as_nanos() as f64 / corpus.len() as f64;
    table.row([
        "ingest (no wal)".into(),
        "-".into(),
        corpus.len().to_string(),
        ms(base_nanos),
        "-".into(),
        "-".into(),
    ]);

    // Journaled ingest: append-before-apply, one record per op, under
    // each fsync policy pivotd exposes.
    for policy in [SyncPolicy::Always, SyncPolicy::EveryN(64), SyncPolicy::Never] {
        let path = dir.join(format!("ingest-{policy}.wal"));
        let (mut journal, _) = Wal::open(&path, policy).expect("open journal");
        let mut engine = fresh();
        for s in &corpus.sources {
            journal.append(&ReplayOp::AddSource(s.clone()).to_bytes()).unwrap();
            engine.add_source_registered(s.clone()).unwrap();
        }
        let t = Instant::now();
        for s in &corpus.snippets {
            journal.append(&ReplayOp::Ingest(s.clone()).to_bytes()).unwrap();
            engine.ingest(s.clone()).unwrap();
        }
        let nanos = t.elapsed().as_nanos() as f64 / corpus.len() as f64;
        table.row([
            "ingest (journaled)".into(),
            policy.to_string(),
            corpus.len().to_string(),
            ms(nanos),
            (journal.len() / 1024).to_string(),
            "-".into(),
        ]);
    }

    // Recovery: cold scan + decode + idempotent replay of a journal
    // holding 1/4, 1/2, and all of the stream — the startup cost a
    // checkpoint-less restart pays, linear in tail length.
    for frac in [4usize, 2, 1] {
        let n = corpus.len() / frac;
        let path = dir.join(format!("recover-{n}.wal"));
        let (mut journal, _) = Wal::open(&path, SyncPolicy::Never).expect("open journal");
        for s in &corpus.sources {
            journal.append(&ReplayOp::AddSource(s.clone()).to_bytes()).unwrap();
        }
        for s in corpus.snippets.iter().take(n) {
            journal.append(&ReplayOp::Ingest(s.clone()).to_bytes()).unwrap();
        }
        journal.sync().unwrap();
        let wal_kib = journal.len() / 1024;
        drop(journal);

        let t = Instant::now();
        let scan = wal::scan(&path).expect("scan journal");
        let mut engine = fresh();
        for record in &scan.records {
            let op = ReplayOp::decode(record).expect("decode journaled op");
            oplog::replay(&mut engine, &op).expect("replay journaled op");
        }
        let recover_nanos = t.elapsed().as_nanos() as f64;
        assert!(!scan.damaged(), "bench journal must scan clean");
        assert_eq!(engine.store().len(), n, "replay must restore every snippet");
        table.row([
            "recover (scan+replay)".into(),
            "-".into(),
            n.to_string(),
            "-".into(),
            wal_kib.to_string(),
            ms(recover_nanos),
        ]);
    }

    let _ = std::fs::remove_dir_all(&dir);
    table
}
