#!/usr/bin/env bash
# Offline CI for the storypivot workspace.
#
# The whole point of the zero-dependency substrate is that this script
# passes on a machine with an EMPTY cargo registry and no network. Any
# step that tries to touch crates.io fails the run.
set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true

# Every `cargo test` step runs under a cap far above its usual time, so a
# test that hangs (a job left in a shard's queue with no owner holder to
# look at it leaves its client waiting forever) fails the run instead of
# stalling it.
TEST_CAP=900

echo "==> build (release, all targets)"
cargo build --release --workspace --all-targets

echo "==> tests"
timeout "$TEST_CAP" cargo test -q --workspace

echo "==> soak: the differential driver and its refine slices again (near-duplicate corpora among them), 4x their cases, the kernels, the probe's and the engine's heap ceilings, the fault suites, the served slices and the sched sweep, release"
# The release test binary is the one the --all-targets build above made;
# debug's engine-internal oracles are compiled out here, so what fails is
# the driver's own comparison with its oracle engine. The refine slices
# run here too: release is the build that skips settled snippets without
# judging their alternatives anyway, and stops a settled snippet's own
# scan at the member that settles it. About half the driver's cases, and
# one of each off-default refine setting's two, ingest a corpus with
# entity-less near-duplicates (the same terms, event type, source and
# time, other entities), so a snippet can be most like a member its
# entity postings never reach.
STORYPIVOT_PROP_CASES_MULT=4 timeout "$TEST_CAP" cargo test -q --release --test differential --test refine_equivalence
# Likewise the assert behind every probe-table cosine: in release only
# the explicit property test holds the table to the merge, so it runs
# against the codegen that is benchmarked.
timeout "$TEST_CAP" cargo test -q --release --test kernel_equivalence
# The probe's heap ceiling and the engine's bytes per snippet, held in
# the build that is benchmarked.
timeout "$TEST_CAP" cargo test -q --release --test probe_allocations --test memory_account
# Fault plans fire in every build, so the supervision (poison) and
# disk-fault suites run against the release binaries that are benchmarked;
# so do the driver's served slices (in-process server, crash, follower),
# which check the partition after every step against the release pivotd,
# the write race under its sweep of `sched` seeds, and pipelined replies
# that complete out of order, parked and then written past the pipeline
# cap through each connection's one write buffer.
timeout "$TEST_CAP" cargo test -q --release --test failure_injection
timeout "$TEST_CAP" cargo test -q --release --test serve_e2e -- served_partition sharded_server snapshot_patching racing_writes_keep_each_connections_order_under_sched_seeds pipelined_requests_return_in_order_past_the_pipeline_cap
timeout "$TEST_CAP" cargo test -q --release -p storypivot-serve --test chaos_fault --test crash_recovery --test replica_e2e

echo "==> clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> rustdoc (broken intra-doc links are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> docs: every file, test target, experiment, metric series, member and memory row the docs name exists"
# CHANGES.md and ROADMAP.md are history and plans and may name what is
# gone; these describe the system as it is. A path is a word under a
# top-level directory, or with a directory and a file extension, or a
# bare `name.rs` (matched by file name); braces expand. It must be
# tracked, or a directory of tracked files, or one of the build outputs
# the docs name. `--test NAME` must be a test target, and the words
# after `harness` experiments in its usage list. A `storypivot_*` metric
# series (braces expand; `_count` / `_sum` name a histogram's parts; a
# crate name is not a series) must be a string literal in some
# `crates/*/src` file, which is where every series is registered. A
# backticked `Type::member`, where `Type` is a workspace struct, enum or
# trait, must name a `fn` or a field defined under `crates/*/src`. A
# memory-account row (a backticked `store.*`, `identify.*`, `align.*` or
# `refine.*` name, or a `structure="…"` label value) must be a string
# literal under `crates/*/src` or `benchmark/src`, whose layer metrics
# share those prefixes (`store.window_us`).
doc_check() {
    local tracked experiments series types members rows doc n ref path name stale=0
    tracked="$(git ls-files; printf '%s\n' benchmark/target/release/spbench data/counts.txt)"
    series="$(git grep -ohE '"storypivot_[a-z0-9_]+"' -- 'crates/*/src/*' | tr -d '"'
        git ls-files 'crates/*/Cargo.toml' | sed -E 's|crates/(.*)/Cargo.toml|storypivot_\1|')"
    experiments=" all $( (target/release/harness --help 2>&1 || true) |
        sed -nE 's/^  ([a-z0-9]+)( \(([a-z0-9]+)\))? .*/\1 \3/p' | tr '\n' ' ') "
    # A field is any `name: Type` line; parameters pass too.
    types="$(git grep -hE '^\s*(pub(\([a-z]+\))? )?(struct|enum|trait) [A-Z]' -- 'crates/*/src/*' |
        sed -E 's/^\s*(pub(\([a-z]+\))? )?(struct|enum|trait) ([A-Za-z0-9_]+).*/\4/')"
    members="$(git grep -hoE '\bfn [a-z_][a-z0-9_]*|^\s*(pub(\([a-z]+\))? )?[a-z_][a-z0-9_]*: ' -- 'crates/*/src/*' |
        sed -E 's/^\s*(pub(\([a-z]+\))? )?//; s/^fn //; s/: $//')"
    rows="$(git grep -ohE '"(store|identify|align|refine)\.[a-z0-9_.]+"' -- 'crates/*/src/*' 'benchmark/src/*' |
        tr -d '"')"
    for doc in README.md DESIGN.md EXPERIMENTS.md .claude/skills/verify/SKILL.md; do
        while IFS=: read -r n ref; do
            ref="${ref#./}" && ref="${ref%[.,]}"
            for path in $(eval "printf '%s\n' $ref"); do
                grep -qxF -e "$path" -e "${path%/}" <<< "$tracked" ||
                    grep -q "^${path%/}/" <<< "$tracked" ||
                    { [[ "$path" != */* ]] && grep -q "/$path$" <<< "$tracked"; } ||
                    { echo "$doc:$n: no such file: $path"; stale=1; }
            done
        done < <(grep -noE '(^|[^A-Za-z0-9_.{},/-])(\./)?((crates|tests|benchmark|data|examples|src|\.claude)/[A-Za-z0-9_.{},/-]*|[a-z0-9_.{},-]+(/[A-Za-z0-9_.{},-]+)+\.(rs|md|sh|toml|json|txt|lock)|[a-z0-9_{},]+\.rs)' "$doc" |
            sed -E 's/^([0-9]+):[^A-Za-z0-9_.{},\/-]/\1:/')
        while IFS=: read -r n ref; do
            name="${ref#--test }"
            grep -qE "^(crates/[^/]+/)?tests/$name\.rs$" <<< "$tracked" ||
                { echo "$doc:$n: no test target: $name"; stale=1; }
        done < <(grep -noE -- '--test [a-z0-9_]+' "$doc")
        while IFS=: read -r n ref; do
            for name in ${ref#*harness}; do
                [ "$name" = -- ] || [[ "$experiments" == *" $name "* ]] ||
                    { echo "$doc:$n: no harness experiment: $name"; stale=1; }
            done
        done < <(grep -noE '`harness( [a-z0-9]+)+|harness --( [a-z0-9]+)+' "$doc")
        while IFS=: read -r n ref; do
            [[ "$ref" == *[*] || "$ref" == *_ ]] && continue
            for name in $(eval "printf '%s\n' $ref"); do
                name="${name%_count}" && name="${name%_sum}"
                [[ $'\n'"$series"$'\n' == *$'\n'"$name"$'\n'* ]] ||
                    { echo "$doc:$n: no such series: $name"; stale=1; }
            done
        done < <(grep -noE 'storypivot_[a-z0-9_*]*(\{[a-z0-9_,]*\}[a-z0-9_*]*)*' "$doc")
        while IFS=: read -r n ref; do
            ref="${ref#\`}"
            grep -qxF "${ref%%::*}" <<< "$types" || continue
            grep -qxF "${ref#*::}" <<< "$members" ||
                { echo "$doc:$n: no such fn or field: $ref"; stale=1; }
        done < <(grep -noE '`[A-Z][A-Za-z0-9]*::[a-z_][a-z0-9_]*' "$doc")
        while IFS=: read -r n ref; do
            for name in $(grep -oE '(store|identify|align|refine)\.[a-z0-9_.]+' <<< "$ref"); do
                [[ "$name" == *.rs ]] || grep -qxF "$name" <<< "$rows" ||
                    { echo "$doc:$n: no such memory row: $name"; stale=1; }
            done
        done < <(grep -noE '`(store|identify|align|refine)\.[a-z0-9_.]+`|structure=("[^"]*"\|?)+' "$doc")
    done
    return "$stale"
}
doc_check

echo "==> benchmark package (separate workspace; path-depends on the crates' public API)"
# Nothing above compiles benchmark/: it has its own [workspace] and
# lockfile, so a change that removes or renames a public item it calls
# would otherwise only be noticed when the benchmark is next run.
cargo build --release --manifest-path benchmark/Cargo.toml
timeout "$TEST_CAP" cargo test -q --manifest-path benchmark/Cargo.toml

echo "==> gate: experiment harness counts (all 15 experiments, --quick) + spbench counts"
SMOKE_DIR="$(mktemp -d)"
# If a step dies mid-script, the harness or daemon it started in the
# background must not outlive the CI run: kill it before sweeping the
# scratch dir.
cleanup() {
    kill -9 $(jobs -p) 2>/dev/null || true
    rm -rf "$SMOKE_DIR"
}
trap cleanup EXIT
# Counts, not clocks: the sandbox moves every timing 3–22 % run to run,
# but what the harness counts — events, comparisons, stories, pairs
# scored, sweeps, moves, cache hits, WAL KiB, F-measures — repeats
# exactly for a seed. `--json` writes every table's count columns to
# counts.txt (each header declares which columns are clocks; those are
# left out), and that file must equal the committed one. So E18's
# 1 721-snippet row must plan today's moves in today's sweeps and score
# exactly this many snippet pairs doing it. A change that moves a count
# changes data/expected-counts.txt in the same diff (on a mismatch this
# run's file is left in data/counts.txt: copy it over) and says why.
# chaos (E16) replays its scenarios over the wire: a source's ops go
# in order down one lane, so its partition repeats; its busy / shed
# retry cells depend on scheduling and are clocks. The harness runs
# beside the spbench runs below, which pin themselves to one core.
cargo run -p storypivot-bench --bin harness --release -- all --quick --json "$SMOKE_DIR/bench" \
    > "$SMOKE_DIR/harness.txt" 2>&1 &
HARNESS_PID=$!
# The repository benchmark's exact counts ride in the same file: every
# workload's pair_f1, for seed 7; what identification compared, merged,
# split and swept and how often it resumed a story's fold; what alignment
# rescored and integrated and what refinement moved on align_refine; and
# for the served workload what an ingest weighs on the wire, in the
# journal and in a checkpoint (not its busy / shed cells, which depend on
# scheduling). They repeat exactly whatever the run length, so 3 s of the
# binary built above is enough. Most of them count what the engine
# decides, and a change that only makes things cheaper leaves those where
# they were. The resumed folds and the folds from scratch (the hit
# ratios here, the hotpath row above) and hotpath's `pairs scored` (the
# exact pair similarities identification computed, beside its
# `candidate pairs`) count work done: a change that skips work, or scores the candidate
# stories in another order, moves them, and the gate then requires the
# new values in data/expected-counts.txt in the same diff, with the
# reason in CHANGES.md.
spbench_counts() { # args: workload metric...
    local lines value name workload="$1"
    shift
    # pair_f1 is an end-to-end metric, which only an untraced run prints
    # (its minimum three passes are enough); the layer counts are the
    # traced run's.
    lines="$(benchmark/target/release/spbench --workload "$workload" --seed 7 --seconds 0 --trace 0 2>/dev/null | tail -n 1
        benchmark/target/release/spbench --workload "$workload" --seed 7 --seconds 3 --trace 1 2>/dev/null | tail -n 1)"
    printf 'spbench\tworkload=%s' "$workload"
    for name in "$@"; do
        value="$(printf '%s' "$lines" | grep -o "\"$name\": {\"value\": [^,]*" | head -n 1 | sed 's/.*: //')"
        [ -n "$value" ] || { echo "spbench $workload printed no $name" >&2; return 1; }
        printf '\t%s=%s' "$name" "$value"
    done
    printf '\n'
}
IDENTIFY_COUNTS=(pair_f1 core.identify.compared_per_event core.identify.merges core.identify.splits
    core.identify.maintain_runs core.hotcache.hit_ratio core.identify.new_story_ratio)
{
    spbench_counts identify_dense "${IDENTIFY_COUNTS[@]}"
    spbench_counts identify_wide "${IDENTIFY_COUNTS[@]}"
    spbench_counts align_refine pair_f1 core.align.dirty_per_round core.align.global_stories \
        core.refine.moves
    spbench_counts serve_mixed pair_f1 core.identify.compared_per_event core.hotcache.hit_ratio \
        serve.proto.bytes_per_ingest substrate.wal.bytes_per_op core.checkpoint.bytes_per_snippet
} > "$SMOKE_DIR/spbench-counts.txt"
wait "$HARNESS_PID" || { cat "$SMOKE_DIR/harness.txt"; exit 1; }
cat "$SMOKE_DIR/harness.txt"
test -s "$SMOKE_DIR/bench/BENCH_e1.json"
cat "$SMOKE_DIR/spbench-counts.txt" >> "$SMOKE_DIR/bench/counts.txt"
if ! diff -u data/expected-counts.txt "$SMOKE_DIR/bench/counts.txt"; then
    cp "$SMOKE_DIR/bench/counts.txt" data/counts.txt
    echo "counts differ from data/expected-counts.txt; this run's are in data/counts.txt" >&2
    exit 1
fi

# Poll a pivotd --port-file until the daemon binds; dies if the daemon does.
wait_port() { # args: port_file pid
    for _ in $(seq 1 100); do
        [ -s "$1" ] && break
        kill -0 "$2" 2>/dev/null || { echo "pivotd died before binding"; exit 1; }
        sleep 0.1
    done
    test -s "$1" || { echo "pivotd never wrote its port file"; exit 1; }
    cat "$1"
}

echo "==> smoke: serve (pivotd + loadgen round trip)"
# What the server does is checked by the served test slices; this runs
# the release binaries' command lines once.
cargo run -p storypivot-serve --bin pivotd --release -- \
    --addr 127.0.0.1:0 --shards 2 \
    --checkpoint-dir "$SMOKE_DIR/ckpt" --port-file "$SMOKE_DIR/port" &
PIVOTD_PID=$!
PORT="$(wait_port "$SMOKE_DIR/port" "$PIVOTD_PID")"
cargo run -p storypivot-serve --bin loadgen --release -- \
    --addr "127.0.0.1:$PORT" --quick --metrics --shutdown > "$SMOKE_DIR/metrics.txt"
# The merged exposition made it over the wire.
grep -q '^storypivot_ingest_total ' "$SMOKE_DIR/metrics.txt"
# SHUTDOWN must terminate the daemon gracefully (exit 0) and leave one
# generation-numbered checkpoint per shard.
wait "$PIVOTD_PID"
ls "$SMOKE_DIR"/ckpt/shard0.g*.spvc >/dev/null
ls "$SMOKE_DIR"/ckpt/shard1.g*.spvc >/dev/null

echo "==> smoke: connection storm (multiplexed runtime holds 1k sockets, reading and writing)"
# Needs ~2k descriptors client-side plus the daemon's own; skip rather
# than fail on boxes with a tight ulimit. Every other storm request is a
# single-snippet INGEST, rotated over one source per driver thread, so
# the I/O workers apply writes on both shards while they serve the other
# connections; the exposition must show them, and no failed accept.
STORM_CONNS=1000
FD_LIMIT="$(ulimit -n)"
if [ "$FD_LIMIT" != "unlimited" ] && [ "$FD_LIMIT" -lt 2500 ]; then
    echo "    skipped: ulimit -n is $FD_LIMIT (need ~2500 for $STORM_CONNS connections)"
else
    cargo run -p storypivot-serve --bin pivotd --release -- \
        --addr 127.0.0.1:0 --shards 2 --io-workers 2 --idle-timeout-ms 30000 \
        --checkpoint-dir "$SMOKE_DIR/storm-ckpt" --port-file "$SMOKE_DIR/storm-port" &
    PIVOTD_PID=$!
    PORT="$(wait_port "$SMOKE_DIR/storm-port" "$PIVOTD_PID")"
    cargo run -p storypivot-serve --bin loadgen --release -- \
        --addr "127.0.0.1:$PORT" --storm --conns "$STORM_CONNS" --rounds 3 \
        --interval-ms 20 --json "$SMOKE_DIR/BENCH_storm.json"
    cargo run -p storypivot-serve --bin loadgen --release -- \
        --addr "127.0.0.1:$PORT" --query-only --metrics --shutdown > "$SMOKE_DIR/storm-metrics.txt"
    wait "$PIVOTD_PID"
    test -s "$SMOKE_DIR/BENCH_storm.json"
    grep -q "\"connections\": $STORM_CONNS" "$SMOKE_DIR/BENCH_storm.json"
    awk '$1 == "storypivot_ingest_total" && $2 > 0 { wrote = 1 } END { exit !wrote }' \
        "$SMOKE_DIR/storm-metrics.txt"
    awk '$1 == "storypivot_accept_errors_total" { seen = 1; failed = $2 != 0 }
         END { exit !(seen && !failed) }' "$SMOKE_DIR/storm-metrics.txt"
    for SHARD in 0 1; do
        awk -v series="storypivot_shard_ingest_latency_ns_count{shard=\"$SHARD\"}" \
            '$1 == series && $2 > 0 { wrote = 1 } END { exit !wrote }' "$SMOKE_DIR/storm-metrics.txt"
    done
fi

echo "CI OK"
