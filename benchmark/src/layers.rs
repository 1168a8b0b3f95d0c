//! Micro-loops over single layers, run after the traced passes on the
//! payloads of the same corpus: kernels, sketches, wire and journal
//! codecs, the WAL, replay and checkpoints. Every loop reports the
//! fastest of `ROUNDS` repetitions, like the passes do.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use storypivot_core::config::{PivotConfig, SketchConfig};
use storypivot_core::oplog::{replay_op, ReplayOp};
use storypivot_core::pipeline::{DynamicPivot, PipelinePolicy};
use storypivot_core::pivot::StoryPivot;
use storypivot_core::state::{entity_item, term_item};
use storypivot_gen::Corpus;
use storypivot_serve::proto::{frame, Request};
use storypivot_sketch::{HashFamily, MinHash};
use storypivot_substrate::wal::{SyncPolicy, Wal};
use storypivot_types::{kernel, Snippet};

const ROUNDS: usize = 3;
/// Snippets the codec, WAL, replay and checkpoint loops run over.
const SAMPLE: usize = 2_000;
/// Appends of the fsync loop.
const SYNC_APPENDS: usize = 200;
/// Documents removed from the replayed engine.
const REMOVALS: usize = 100;

/// Fastest of `ROUNDS` timings of `f`, in nanoseconds.
fn best_ns<T>(mut f: impl FnMut() -> T) -> f64 {
    (0..ROUNDS)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_nanos() as u64
        })
        .min()
        .expect("ROUNDS > 0") as f64
}

/// Run every micro-loop; values are keyed by per-layer metric name.
pub fn measure(corpus: &Corpus, dir: &Path) -> std::io::Result<BTreeMap<&'static str, f64>> {
    let mut out = BTreeMap::new();
    let sample: &[Snippet] = &corpus.snippets[..corpus.snippets.len().min(SAMPLE)];
    let n = sample.len() as f64;

    // types::kernel — each sampled snippet's term vector against the
    // 64 that follow it, as `score_probe` batches one probe against its
    // window; cost per stored entry touched.
    let vectors: Vec<_> = sample
        .iter()
        .map(|s| (s.terms().as_slice(), s.terms().norm()))
        .collect();
    let batch = 64.min(vectors.len().saturating_sub(1));
    let mut scores = Vec::with_capacity(batch);
    let mut nnz = 0usize;
    for (i, (probe, _)) in vectors.iter().enumerate() {
        nnz += (0..batch)
            .map(|k| probe.len() + vectors[(i + 1 + k) % vectors.len()].0.len())
            .sum::<usize>();
    }
    let kernel_ns = best_ns(|| {
        let mut acc = 0.0;
        for (i, &(probe, norm)) in vectors.iter().enumerate() {
            let cands = (0..batch).map(|k| vectors[(i + 1 + k) % vectors.len()]);
            kernel::cosine_batch(probe, norm, cands, &mut scores);
            acc += scores.iter().sum::<f64>();
        }
        acc
    });
    out.insert(
        "types.kernel.cosine_batch_ns_per_nnz",
        kernel_ns / nnz.max(1) as f64,
    );

    // sketch::minhash — the signature a one-snippet story starts with.
    let sk = SketchConfig::default();
    let family = HashFamily::new(sk.seed, sk.minhash_k);
    let sig_ns = best_ns(|| {
        for s in sample {
            let items = s
                .entities()
                .keys()
                .map(entity_item)
                .chain(s.terms().keys().map(term_item));
            black_box(MinHash::from_items(&family, items));
        }
    });
    out.insert("sketch.minhash.signature_us", sig_ns / n / 1e3);

    // serve::proto — INGEST frames of the sampled snippets.
    let requests: Vec<Request> = sample
        .iter()
        .map(|s| Request::IngestSnippet(s.clone()))
        .collect();
    let enc_ns = best_ns(|| {
        for r in &requests {
            black_box(frame(|b| r.encode(b)));
        }
    });
    let frames: Vec<Vec<u8>> = requests.iter().map(|r| frame(|b| r.encode(b))).collect();
    let dec_ns = best_ns(|| {
        for f in &frames {
            black_box(Request::decode_borrowed(&f[4..]).is_ok());
        }
    });
    out.insert("serve.proto.encode_ns", enc_ns / n);
    out.insert("serve.proto.decode_borrowed_ns", dec_ns / n);
    out.insert(
        "serve.proto.bytes_per_ingest",
        frames.iter().map(Vec::len).sum::<usize>() as f64 / n,
    );

    // core::oplog — journal payloads of the same snippets.
    let ops: Vec<ReplayOp> = sample.iter().map(|s| ReplayOp::Ingest(s.clone())).collect();
    let oplog_ns = best_ns(|| {
        for op in &ops {
            black_box(op.to_bytes());
        }
    });
    out.insert("core.oplog.encode_ns", oplog_ns / n);
    let payloads: Vec<Vec<u8>> = ops.iter().map(ReplayOp::to_bytes).collect();

    // substrate::wal — append those payloads without and with fsync.
    let wal_path = dir.join("layers.wal");
    let mut wal_len = 0u64;
    let append_ns = best_ns(|| {
        let _ = std::fs::remove_file(&wal_path);
        let (mut wal, _) = Wal::open(&wal_path, SyncPolicy::Never)
            .expect("journal opens in the scratch directory");
        for p in &payloads {
            wal.append(p)
                .expect("journal append in the scratch directory");
        }
        wal_len = wal.len();
    });
    out.insert("substrate.wal.append_us", append_ns / n / 1e3);
    out.insert("substrate.wal.bytes_per_op", wal_len as f64 / n);
    let _ = std::fs::remove_file(&wal_path);
    let (mut wal, _) = Wal::open(&wal_path, SyncPolicy::Always)?;
    let t = Instant::now();
    for p in payloads.iter().cycle().take(SYNC_APPENDS) {
        wal.append(p)?;
    }
    out.insert(
        "substrate.wal.sync_us",
        t.elapsed().as_nanos() as f64 / SYNC_APPENDS as f64 / 1e3,
    );
    drop(wal);
    let _ = std::fs::remove_file(&wal_path);

    // core::oplog replay — decode + apply, as crash recovery does.
    let policy = PipelinePolicy {
        align_every: 0,
        ..PipelinePolicy::default()
    };
    let build = || {
        let mut engine = DynamicPivot::new(PivotConfig::default(), policy);
        for s in &corpus.sources {
            engine
                .pivot_mut()
                .add_source_registered(s.clone())
                .expect("distinct sources");
        }
        engine
    };
    let mut replayed = build();
    let replay_ns = best_ns(|| {
        replayed = build();
        for p in &payloads {
            let op = ReplayOp::decode(p).expect("own encoding decodes");
            replay_op(&mut replayed, &op).expect("replay of a fresh journal applies");
        }
    });
    out.insert("core.oplog.replay_us", replay_ns / n / 1e3);

    // core::checkpoint — save and load the replayed engine.
    let mut bytes = Vec::new();
    let save_ns = best_ns(|| bytes = replayed.pivot().save_checkpoint());
    let load_ns = best_ns(|| StoryPivot::load_checkpoint(PivotConfig::default(), &bytes).is_ok());
    out.insert("core.checkpoint.save_ms", save_ns / 1e6);
    out.insert("core.checkpoint.load_ms", load_ns / 1e6);
    out.insert("core.checkpoint.bytes_per_snippet", bytes.len() as f64 / n);

    // core::pivot — retract documents from the replayed engine.
    let pivot = replayed.pivot_mut();
    let stride = (sample.len() / REMOVALS).max(1);
    let docs: Vec<_> = sample
        .iter()
        .step_by(stride)
        .take(REMOVALS)
        .map(|s| s.doc)
        .collect();
    let t = Instant::now();
    for &d in &docs {
        black_box(pivot.remove_document(d).is_ok());
    }
    out.insert(
        "core.pivot.remove_document_us",
        t.elapsed().as_nanos() as f64 / docs.len().max(1) as f64 / 1e3,
    );
    Ok(out)
}
