//! `spbench` — the repository's one benchmark. See `README.md` beside
//! `Cargo.toml` and `BENCHMARK.json` at the repository root.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Standard output carries one JSON object per workload run (the last
//! line is the result the driver reads); everything for people goes to
//! standard error.

mod layers;
mod metrics;
mod passes;
mod run;
mod stats;
mod sys;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use run::{run_workload, Options};
use workload::{Spec, SPECS};

/// Seconds of timed passes when `--seconds` is not given (the
/// `run_seconds` of `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 28.0;

struct Args {
    /// `None` = every workload.
    workload: Option<Spec>,
    opts: Options,
}

fn usage() -> String {
    let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
    format!(
        "usage: spbench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1]",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut workload = "all".to_string();
    let mut opts = Options {
        seed: 0,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}\n{}", usage());
        match flag.as_str() {
            "--workload" => workload = value,
            "--seed" => opts.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(0.0..=600.0).contains(&opts.seconds) {
                    return Err(bad("between 0 and 600"));
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    let workload = match workload.as_str() {
        "all" => None,
        name => Some(
            workload::spec(name)
                .ok_or_else(|| format!("unknown workload {name:?}\n{}", usage()))?,
        ),
    };
    Ok(Args { workload, opts })
}

/// `<benchmark package>/out`: the only place the benchmark writes.
fn out_dir() -> PathBuf {
    // `cargo run` exports the manifest directory of the checkout it runs
    // in; the compile-time value covers a binary started by hand.
    let manifest = std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from);
    manifest.join("out")
}

/// Pin the process to the highest CPU it may use. One CPU for client,
/// server and engine alike: cross-CPU wake-ups on a small shared box
/// vary more from run to run than anything the benchmark measures.
fn pin() {
    let cpus = sys::allowed_cpus();
    match cpus.last() {
        Some(&cpu) => match sys::pin_to_cpu(cpu) {
            Ok(()) => eprintln!("spbench: pinned to cpu {cpu} (allowed: {cpus:?})"),
            Err(e) => eprintln!("spbench: could not pin to cpu {cpu}: {e}; running unpinned"),
        },
        None => eprintln!("spbench: no Cpus_allowed_list; running unpinned"),
    }
}

/// Run one workload in this process; true when it was correct and
/// nothing failed.
fn run_one(spec: Spec, opts: Options) -> bool {
    pin();
    let report = match run_workload(spec, opts, &out_dir()) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("{}: {e}", spec.name);
            return false;
        }
    };
    for line in &report.notes {
        eprintln!("{line}");
    }
    for (d, value) in &report.metrics {
        let bound = if d.bound > 0.0 {
            format!(", may worsen by {}", d.bound)
        } else {
            String::new()
        };
        eprintln!(
            "{}: {:<40} {:>16.4} {:<6} ({} is better{bound})",
            report.workload,
            d.name,
            value,
            d.unit,
            d.better.as_str()
        );
    }
    eprintln!(
        "{}: correct={} attempted={} failed={}",
        report.workload, report.correct, report.attempted, report.failed
    );
    println!("{}", report.to_json());
    report.correct && report.failed == 0
}

/// Run every workload, each in a process of its own — exactly what the
/// driver does, so peak memory and allocator state of one workload
/// never leak into the next — and label each result line.
fn run_all(opts: Options) -> bool {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("spbench: cannot find own executable: {e}");
            return false;
        }
    };
    let mut ok = true;
    for spec in SPECS {
        let out = Command::new(&exe)
            .args(["--workload", spec.name])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output();
        let out = match out {
            Ok(out) => out,
            Err(e) => {
                eprintln!("{}: could not start: {e}", spec.name);
                ok = false;
                continue;
            }
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        match stdout.lines().last().and_then(|l| l.strip_prefix('{')) {
            Some(rest) => println!("{{\"workload\": \"{}\", {rest}", spec.name),
            None => eprintln!("{}: no result ({})", spec.name, out.status),
        }
        ok &= out.status.success();
    }
    ok
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let ok = match args.workload {
        Some(spec) => run_one(spec, args.opts),
        None => run_all(args.opts),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
