//! The experiment harness: regenerates every table of EXPERIMENTS.md.
//!
//! ```text
//! cargo run -p storypivot-bench --release --bin harness -- all
//! cargo run -p storypivot-bench --release --bin harness -- e1 e3 --quick
//! ```
//!
//! Experiments (see DESIGN.md §4):
//!   e1  per-event identification cost vs #events   (Fig 7, performance)
//!   e2  F-measure vs #events per SI/SA method      (Fig 7, quality)
//!   e3  sliding-window size ω sweep                (§2.2)
//!   e4  sketch vs exact alignment ablation         (§2.4)
//!   e5  out-of-order delivery robustness           (§2.4)
//!   e6  incremental source onboarding              (§2.1)
//!   e7  refinement error-correction                (§2.3, Fig 1d)
//!   e8  scaling with the number of sources         (Fig 7 inset)
//!   e9  document add/remove latency                (§4.2.1)
//!   e10 identification scoring ablation            (design choice)
//!   wal (e12) journal fsync cost + recovery replay (durability)
//!   metrics (e13) instrumentation overhead         (observability)
//!   conns (e14) many-connection serving memory/rtt (serving runtime)
//!   replica (e15) read fan-out across followers
//!   chaos (e16) adversarial scenario quality under load  (robustness)
//!   hotpath (e17) similarity inner loop: flat kernels with the
//!                 hot-story cache off vs on
//!   refine (e18) refinement cost vs corpus size: the reference sweep
//!                beside the probing, caching Refiner

mod chaos;
mod conns;
mod e1;
mod e10;
mod e2;
mod e3;
mod e4;
mod e5;
mod e6;
mod e7;
mod e8;
mod e9;
mod hotpath;
mod metrics;
mod refine;
mod replica;
mod wal;

struct Scale {
    e1_sizes: Vec<usize>,
    e2_sizes: Vec<usize>,
    mid: usize,
    e8_sources: Vec<u32>,
    per_source: usize,
    conn_tiers: Vec<usize>,
    refine_sizes: Vec<usize>,
}

impl Scale {
    fn quick() -> Self {
        Scale {
            e1_sizes: vec![500, 1_000, 2_000],
            e2_sizes: vec![500, 1_000, 2_000],
            mid: 1_200,
            e8_sources: vec![2, 5, 10],
            per_source: 60,
            conn_tiers: vec![200, 500],
            refine_sizes: vec![400, 800, 1_600],
        }
    }

    fn full() -> Self {
        Scale {
            e1_sizes: vec![1_000, 2_000, 4_000, 8_000, 16_000],
            e2_sizes: vec![1_000, 2_000, 4_000, 8_000, 16_000],
            mid: 4_000,
            e8_sources: vec![2, 5, 10, 20, 50],
            per_source: 120,
            conn_tiers: vec![1_000, 5_000, 10_000],
            refine_sizes: vec![1_700, 5_000, 15_000],
        }
    }
}

fn ms(nanos: f64) -> String {
    format!("{:.4}", nanos / 1e6)
}

fn f3(x: f64) -> String {
    format!("{x:.3}")
}

fn main() {
    let mut quick = false;
    let mut json_dir: Option<String> = None;
    let mut seed: u64 = 0;
    let mut wanted: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--json" => {
                json_dir = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--json needs a directory");
                    std::process::exit(2);
                }))
            }
            "--seed" => {
                let raw = args.next().unwrap_or_else(|| {
                    eprintln!("--seed needs a u64 value");
                    std::process::exit(2);
                });
                seed = raw.parse().unwrap_or_else(|_| {
                    eprintln!("--seed must be a u64, got {raw:?}");
                    std::process::exit(2);
                });
            }
            other if other.starts_with("--") => {
                eprintln!(
                    "unknown flag {other:?} (flags: --quick, --seed <u64>, --json <dir>)"
                );
                std::process::exit(2);
            }
            other => wanted.push(other.to_string()),
        }
    }
    let scale = if quick { Scale::quick() } else { Scale::full() };
    if wanted.is_empty() || wanted.iter().any(|w| w == "all") {
        wanted = [
            "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "wal", "metrics", "conns",
            "replica", "chaos", "hotpath", "refine",
        ]
        .map(String::from)
        .to_vec();
    }
    if let Some(dir) = &json_dir {
        std::fs::create_dir_all(dir).expect("create --json directory");
    }
    println!("seed: {seed} (corpora and injections are fully determined by it)");
    for exp in &wanted {
        let table = match exp.as_str() {
            "e1" => e1::e1(&scale, seed),
            "e2" => e2::e2(&scale, seed),
            "e3" => e3::e3(&scale, seed),
            "e4" => e4::e4(&scale, seed),
            "e5" => e5::e5(&scale, seed),
            "e6" => e6::e6(&scale, seed),
            "e7" => e7::e7(&scale, seed),
            "e8" => e8::e8(&scale, seed),
            "e9" => e9::e9(seed),
            "e10" => e10::e10(&scale, seed),
            "wal" | "e12" => wal::e12_wal(&scale, seed),
            "metrics" | "e13" => metrics::e13_metrics(&scale, seed),
            "conns" | "e14" => conns::e14_conns(&scale),
            "replica" | "e15" => replica::e15_replica(&scale, seed),
            "chaos" | "e16" => chaos::e16_chaos(&scale, seed),
            "hotpath" | "e17" => hotpath::e17_hotpath(&scale, seed),
            "refine" | "e18" => refine::e18_refine(&scale, seed),
            other => {
                eprintln!(
                    "unknown experiment {other:?} (use e1..e10, wal, metrics, conns, replica, \
                     chaos, hotpath, refine, or all)"
                );
                continue;
            }
        };
        if let Some(dir) = &json_dir {
            let path = format!("{dir}/BENCH_{exp}.json");
            std::fs::write(&path, table.to_json()).expect("write JSON");
            eprintln!("wrote {path}");
        }
    }
}
