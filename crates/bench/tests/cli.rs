//! The harness binary's command line: names are checked against the
//! registry before anything runs, aliases reach the same entry, and the
//! counts a `--json` run writes repeat exactly.

use std::path::PathBuf;
use std::process::{Command, Output};

fn harness(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_harness")).args(args).output().expect("run harness")
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("storypivot-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn an_unknown_experiment_exits_2_before_anything_runs() {
    let dir = scratch("unknown");
    // A valid name first: it must not run either.
    let out = harness(&["e6", "bogus", "--quick", "--json", dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "stdout: {}", String::from_utf8_lossy(&out.stdout));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown experiment \"bogus\""), "stderr: {stderr}");
    // The usage text is derived from the registry.
    assert!(stderr.contains("wal (e12)") && stderr.contains("refine (e18)"), "stderr: {stderr}");
    assert!(!dir.exists(), "nothing may be written for a rejected command line");
}

#[test]
fn an_alias_runs_the_entry_it_names() {
    let dir = scratch("alias");
    let out = harness(&["e12", "--quick", "--json", dir.to_str().unwrap()]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(dir.join("BENCH_wal.json").is_file());
    let counts = std::fs::read_to_string(dir.join("counts.txt")).unwrap();
    assert!(!counts.is_empty() && counts.lines().all(|l| l.starts_with("wal\t")), "{counts}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn counts_repeat_exactly_and_the_json_keeps_its_clock_columns() {
    let dirs = [scratch("counts-a"), scratch("counts-b")];
    let counts = dirs.each_ref().map(|dir| {
        // e6 is the cheapest experiment with a clock column.
        let out = harness(&["e6", "--quick", "--json", dir.to_str().unwrap()]);
        assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        std::fs::read(dir.join("counts.txt")).unwrap()
    });
    assert!(!counts[0].is_empty());
    assert_eq!(counts[0], counts[1], "two runs of one seed wrote different counts");
    let counts = String::from_utf8_lossy(&counts[0]);
    assert!(counts.contains("\tpairs scored=") && !counts.contains("align ms"), "{counts}");
    let json = std::fs::read_to_string(dirs[0].join("BENCH_e6.json")).unwrap();
    assert!(json.contains("\"align ms\": ") && json.contains("\"pairs scored\": "), "{json}");
    for dir in dirs {
        let _ = std::fs::remove_dir_all(&dir);
    }
}
