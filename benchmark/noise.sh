#!/usr/bin/env bash
# How steady is the benchmark on this machine?
#
# Runs every workload as two interleaved sets (A B A B ...) of RUNS runs
# each, run i of either set with seed i, then prints per workload and
# end-to-end metric:
#   spread  distance between the quartiles of a set's values as a share
#           of their median (statistics.quantiles(n=4)), the larger set;
#   shift   how much worse set B's median is than set A's, as a share;
#   bound   the regression bound from BENCHMARK.json.
# Exits non-zero if a spread (setup_s excepted) exceeds its bound, or a
# shift exceeds half its bound, or any run was incorrect or had failures.
#
# usage: benchmark/noise.sh [RUNS=5] [SECONDS=run_seconds of BENCHMARK.json]
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
runs="${1:-5}"
seconds="${2:-$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")}"
out="$here/out/noise"
rm -rf "$out"
mkdir -p "$out"

cd "$root"
export CARGO_NET_OFFLINE=true
cargo build --release --quiet --manifest-path benchmark/Cargo.toml

for ((i = 0; i < runs; i++)); do
  for set in A B; do
    echo "noise: set $set run $i (seed $i, $seconds s per workload)" >&2
    cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- \
      --workload all --seed "$i" --seconds "$seconds" --trace 0 \
      >"$out/$set.$i.jsonl" 2>"$out/$set.$i.log"
  done
done

python3 - "$root/BENCHMARK.json" "$out" "$runs" <<'PY'
import json, statistics, sys

bench = json.load(open(sys.argv[1]))
out, runs = sys.argv[2], int(sys.argv[3])
values = {}  # (workload, metric, set) -> [value per run]
bad = []
for s in "AB":
    for i in range(runs):
        for line in open(f"{out}/{s}.{i}.jsonl"):
            r = json.loads(line)
            if not r["correct"] or r["failed"]:
                bad.append(f"{r['workload']} set {s} run {i}: correct={r['correct']} failed={r['failed']}")
            for name, m in r["metrics"].items():
                values.setdefault((r["workload"], name, s), []).append(m["value"])

def spread(v):
    q = statistics.quantiles(v, n=4)
    return (q[2] - q[0]) / statistics.median(v)

print(f"{'workload':<16}{'metric':<16}{'median A':>14}{'median B':>14}{'spread':>9}{'shift':>9}{'bound':>8}")
for w in (w["name"] for w in bench["workloads"]):
    for m in bench["end_to_end"]:
        a, b = values[(w, m["name"], "A")], values[(w, m["name"], "B")]
        ma, mb = statistics.median(a), statistics.median(b)
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        sp = max(spread(a), spread(b)) if runs >= 2 else 0.0
        flag = ""
        if m["name"] != "setup_s" and sp > m["bound"]:
            flag = "  SPREAD"
            bad.append(f"{w} {m['name']}: spread {sp:.4f} > bound {m['bound']}")
        if worse > m["bound"] / 2:
            flag += "  SHIFT"
            bad.append(f"{w} {m['name']}: shift {worse:.4f} > half of bound {m['bound']}")
        print(f"{w:<16}{m['name']:<16}{ma:>14.4f}{mb:>14.4f}{sp:>9.4f}{worse:>+9.4f}{m['bound']:>8}{flag}")
if bad:
    print("\nnoise: NOT STEADY", *bad, sep="\n  ")
    sys.exit(1)
print("\nnoise: steady")
PY
