//! The experiment harness: the paper-figure reproducer. It regenerates
//! every table of EXPERIMENTS.md and is gated on their counts.
//!
//! ```text
//! cargo run -p storypivot-bench --release --bin harness -- all
//! cargo run -p storypivot-bench --release --bin harness -- e1 e3 --quick
//! cargo run -p storypivot-bench --release --bin harness -- e4 refine --quick --json DIR
//! ```
//!
//! One module per experiment, each contributing one [`Experiment`] to
//! [`REGISTRY`]; `all`, the name/alias lookup and the usage text (run
//! the binary with any unknown name to read the list) are derived from
//! it. `--json DIR` writes each table as `DIR/BENCH_<name>.json` and the
//! count columns of all of them as `DIR/counts.txt`, one line per row;
//! `ci.sh` diffs that file against `data/expected-counts.txt`. Clock
//! columns (`Table::clocks` in each header) are printed and written to
//! the JSON but never gated: timing claims are `benchmark/`'s job.

use std::fmt::Write as _;

use storypivot_eval::Table;

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
mod scale;
mod wal;

use scale::{f3, ms, Scale};

/// One experiment: its command-line name (and `eNN` alias where the
/// name is a word), the heading printed above its table, and the
/// function that runs it.
struct Experiment {
    name: &'static str,
    alias: Option<&'static str>,
    title: &'static str,
    run: fn(&Scale, u64) -> Table,
}

/// Every experiment, in the order `all` runs them.
const REGISTRY: [Experiment; 17] = [
    e1::EXPERIMENT,
    e2::EXPERIMENT,
    e3::EXPERIMENT,
    e4::EXPERIMENT,
    e5::EXPERIMENT,
    e6::EXPERIMENT,
    e7::EXPERIMENT,
    e8::EXPERIMENT,
    e9::EXPERIMENT,
    e10::EXPERIMENT,
    wal::EXPERIMENT,
    metrics::EXPERIMENT,
    conns::EXPERIMENT,
    replica::EXPERIMENT,
    chaos::EXPERIMENT,
    hotpath::EXPERIMENT,
    refine::EXPERIMENT,
];

/// The experiments `wanted` names (by name or alias), in the order
/// given; nothing or `all` selects the whole registry. `Err` carries the
/// first name that is not in the registry.
fn resolve(wanted: &[String]) -> Result<Vec<&'static Experiment>, &str> {
    if wanted.is_empty() || wanted.iter().any(|w| w == "all") {
        return Ok(REGISTRY.iter().collect());
    }
    wanted
        .iter()
        .map(|w| {
            REGISTRY
                .iter()
                .find(|e| e.name == w || e.alias == Some(w.as_str()))
                .ok_or(w.as_str())
        })
        .collect()
}

fn usage() -> String {
    let mut out = String::from(
        "usage: harness [EXPERIMENT... | all] [--quick] [--seed <u64>] [--json <dir>]\n\
         experiments:\n",
    );
    for e in &REGISTRY {
        let names = match e.alias {
            Some(alias) => format!("{} ({alias})", e.name),
            None => e.name.to_string(),
        };
        let _ = writeln!(out, "  {names:<14} {}", e.title);
    }
    out
}

/// Print `message` and the usage text, then exit 2.
fn reject(message: String) -> ! {
    eprintln!("{message}\n{}", usage());
    std::process::exit(2);
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
                json_dir =
                    Some(args.next().unwrap_or_else(|| reject("--json needs a directory".into())))
            }
            "--seed" => {
                let raw = args.next().unwrap_or_else(|| reject("--seed needs a u64 value".into()));
                seed = raw
                    .parse()
                    .unwrap_or_else(|_| reject(format!("--seed must be a u64, got {raw:?}")));
            }
            other if other.starts_with("--") => reject(format!("unknown flag {other:?}")),
            other => wanted.push(other.to_string()),
        }
    }
    // Every name is checked against the registry before anything runs.
    let experiments = resolve(&wanted)
        .unwrap_or_else(|unknown| reject(format!("unknown experiment {unknown:?}")));
    let scale = if quick { Scale::quick() } else { Scale::full() };
    if let Some(dir) = &json_dir {
        std::fs::create_dir_all(dir).expect("create --json directory");
    }
    println!("seed: {seed} (corpora and injections are fully determined by it)");
    let mut counts = String::new();
    for exp in experiments {
        println!("\n## {}\n", exp.title);
        let table = (exp.run)(&scale, seed);
        print!("{}", table.to_markdown());
        if let Some(dir) = &json_dir {
            let path = format!("{dir}/BENCH_{}.json", exp.name);
            std::fs::write(&path, table.to_json()).expect("write JSON");
            eprintln!("wrote {path}");
            counts.push_str(&table.to_counts(exp.name));
        }
    }
    if let Some(dir) = &json_dir {
        let path = format!("{dir}/counts.txt");
        std::fs::write(&path, counts).expect("write counts");
        eprintln!("wrote {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_aliases_are_pairwise_distinct() {
        let mut seen = std::collections::HashSet::new();
        for e in &REGISTRY {
            for name in std::iter::once(e.name).chain(e.alias) {
                assert!(seen.insert(name), "{name:?} names two experiments");
                assert_ne!(name, "all", "`all` is reserved");
            }
        }
    }

    #[test]
    fn all_is_the_registry_in_order() {
        let names = |wanted: &[&str]| -> Vec<&str> {
            let wanted: Vec<String> = wanted.iter().map(|w| w.to_string()).collect();
            resolve(&wanted).expect("known names").iter().map(|e| e.name).collect()
        };
        let registry: Vec<&str> = REGISTRY.iter().map(|e| e.name).collect();
        assert_eq!(names(&["all"]), registry);
        assert_eq!(names(&[]), registry);
        assert_eq!(names(&["e3", "all"]), registry);
        assert_eq!(names(&["refine", "e12", "e1"]), ["refine", "wal", "e1"]);
        assert_eq!(resolve(&["e1".to_string(), "bogus".to_string()]).err(), Some("bogus"));
    }
}
