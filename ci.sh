#!/usr/bin/env bash
# Offline CI for the storypivot workspace.
#
# The whole point of the zero-dependency substrate is that this script
# passes on a machine with an EMPTY cargo registry and no network. Any
# step that tries to touch crates.io fails the run.
set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true

echo "==> build (release, all targets)"
cargo build --release --workspace --all-targets

echo "==> tests"
cargo test -q --workspace

echo "==> clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> rustdoc (broken intra-doc links are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> benchmark package (separate workspace; path-depends on the crates' public API)"
# Nothing above compiles benchmark/: it has its own [workspace] and
# lockfile, so a change that removes or renames a public item it calls
# would otherwise only be noticed when the benchmark is next run.
cargo build --release --manifest-path benchmark/Cargo.toml
cargo test -q --manifest-path benchmark/Cargo.toml

echo "==> gate: experiment harness counts (14 in-process experiments, --quick) + spbench counts"
SMOKE_DIR="$(mktemp -d)"
PIVOTD_PID=""
REPLICA_PID=""
# If a smoke step dies mid-script, the daemons it spawned must not
# outlive the CI run: kill any live pivotd (leader or replica) before
# sweeping the scratch dir. KILL is safe here — crash recovery is a
# tested path.
cleanup() {
    for pid in "$REPLICA_PID" "$PIVOTD_PID"; do
        if [ -n "$pid" ] && kill -0 "$pid" 2>/dev/null; then
            kill -9 "$pid" 2>/dev/null || true
            wait "$pid" 2>/dev/null || true
        fi
    done
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
# exactly this many snippet pairs doing it, and E4 — the one reader of
# the MinHash signatures alignment derives from story centroids — must
# score the same pairs to the same F1 per signature length. A change
# that moves a count changes data/expected-counts.txt in the same diff
# (on a mismatch this run's file is left in data/counts.txt: copy it
# over) and says why.
# conns / replica / chaos are left out: their busy / shed / qps cells
# depend on scheduling; the pivotd + loadgen legs below cover them.
cargo run -p storypivot-bench --bin harness --release -- \
    e1 e2 e3 e4 e5 e6 e7 e8 e9 e10 wal metrics hotpath refine \
    --quick --json "$SMOKE_DIR/bench"
test -s "$SMOKE_DIR/bench/BENCH_e1.json"
# The repository benchmark's exact counts ride in the same file: what
# identification compared, merged, split and swept and how often the hot
# cache hit, per workload, for seed 7; and for the served workload what
# an ingest weighs on the wire, in the journal and in a checkpoint (not
# its busy / shed cells, which depend on scheduling). They repeat exactly
# whatever the run length, so 3 s of the binary built above is enough; a
# change that only makes things cheaper must leave every one of them
# where it was.
spbench_counts() { # args: workload metric...
    local line value name workload="$1"
    shift
    line="$(benchmark/target/release/spbench --workload "$workload" --seed 7 --seconds 3 --trace 1 2>/dev/null | tail -n 1)"
    printf 'spbench\tworkload=%s' "$workload"
    for name in "$@"; do
        value="$(printf '%s' "$line" | grep -o "\"$name\": {\"value\": [^,]*" | sed 's/.*: //')"
        [ -n "$value" ] || { echo "spbench $workload printed no $name" >&2; return 1; }
        printf '\t%s=%s' "$name" "$value"
    done
    printf '\n'
}
IDENTIFY_COUNTS=(core.identify.compared_per_event core.identify.merges core.identify.splits
    core.identify.maintain_runs core.hotcache.hit_ratio core.identify.new_story_ratio)
{
    spbench_counts identify_dense "${IDENTIFY_COUNTS[@]}"
    spbench_counts identify_wide "${IDENTIFY_COUNTS[@]}"
    spbench_counts serve_mixed core.identify.compared_per_event core.hotcache.hit_ratio \
        serve.proto.bytes_per_ingest substrate.wal.bytes_per_op core.checkpoint.bytes_per_snippet
} >> "$SMOKE_DIR/bench/counts.txt"
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
cargo run -p storypivot-serve --bin pivotd --release -- \
    --addr 127.0.0.1:0 --shards 2 \
    --checkpoint-dir "$SMOKE_DIR/ckpt" --port-file "$SMOKE_DIR/port" &
PIVOTD_PID=$!
PORT="$(wait_port "$SMOKE_DIR/port" "$PIVOTD_PID")"
cargo run -p storypivot-serve --bin loadgen --release -- \
    --addr "127.0.0.1:$PORT" --quick --json "$SMOKE_DIR/BENCH_serve.json" \
    --metrics --shutdown > "$SMOKE_DIR/metrics.txt"
# The merged exposition made it over the wire.
grep -q '^storypivot_ingest_total ' "$SMOKE_DIR/metrics.txt"
# The serving-runtime gauges are registered and exported: connection
# count, pipelining depth, and buffer-pool pressure must all be
# present (values vary; the series existing is the contract).
grep -q '^storypivot_connections_open ' "$SMOKE_DIR/metrics.txt"
grep -q '^storypivot_pipeline_depth ' "$SMOKE_DIR/metrics.txt"
grep -q '^storypivot_pool_buffers_outstanding ' "$SMOKE_DIR/metrics.txt"
grep -q '^storypivot_pool_bytes_highwater ' "$SMOKE_DIR/metrics.txt"
# The hot-story-cache hit/miss counters are registered and exported.
grep -q '^storypivot_story_cache_hits_total' "$SMOKE_DIR/metrics.txt"
grep -q '^storypivot_story_cache_misses_total' "$SMOKE_DIR/metrics.txt"
# So are refinement's work and cohesion-cache counters.
grep -q '^storypivot_refine_pairs_scored_total' "$SMOKE_DIR/metrics.txt"
grep -q '^storypivot_refine_cohesion_cache_hits_total' "$SMOKE_DIR/metrics.txt"
grep -q '^storypivot_refine_cohesion_cache_misses_total' "$SMOKE_DIR/metrics.txt"
grep -q '^storypivot_refine_cohesion_extended_total' "$SMOKE_DIR/metrics.txt"
grep -q '^storypivot_refine_probes_reused_total' "$SMOKE_DIR/metrics.txt"
# And what the maintenance passes looked at.
grep -q '^storypivot_maintenance_stories_checked_total' "$SMOKE_DIR/metrics.txt"
grep -q '^storypivot_maintenance_pairs_scored_total' "$SMOKE_DIR/metrics.txt"
# And the memory account, one series per part of the engine.
grep -q '^storypivot_mem_bytes{structure="store.arena"}' "$SMOKE_DIR/metrics.txt"
grep -q '^storypivot_mem_bytes{structure="identify.stories"}' "$SMOKE_DIR/metrics.txt"
# And the read-snapshot publish clock: what a publish costs and how many
# story entries it patched, per shard.
grep -q '^storypivot_shard_snapshot_publish_duration_ns_count{shard="0"}' "$SMOKE_DIR/metrics.txt"
grep -q '^storypivot_shard_snapshot_stories_patched_total{shard="1"}' "$SMOKE_DIR/metrics.txt"
# SHUTDOWN must terminate the daemon gracefully (exit 0) and leave one
# generation-numbered checkpoint per shard.
wait "$PIVOTD_PID"
PIVOTD_PID=""
ls "$SMOKE_DIR"/ckpt/shard0.g*.spvc >/dev/null
ls "$SMOKE_DIR"/ckpt/shard1.g*.spvc >/dev/null
test -s "$SMOKE_DIR/BENCH_serve.json"

echo "==> smoke: connection storm (multiplexed runtime holds 1k sockets)"
# Needs ~2k descriptors client-side plus the daemon's own; skip rather
# than fail on boxes with a tight ulimit.
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
        --addr "127.0.0.1:$PORT" --query-only --shutdown
    wait "$PIVOTD_PID"
    PIVOTD_PID=""
    test -s "$SMOKE_DIR/BENCH_storm.json"
    grep -q "\"connections\": $STORM_CONNS" "$SMOKE_DIR/BENCH_storm.json"
fi

echo "==> smoke: crash recovery (kill -9, WAL replay must restore the partition)"
CRASH_DIR="$SMOKE_DIR/crash"
mkdir -p "$CRASH_DIR"
cargo run -p storypivot-serve --bin pivotd --release -- \
    --addr 127.0.0.1:0 --shards 2 --fsync always \
    --wal-dir "$CRASH_DIR/wal" --checkpoint-dir "$CRASH_DIR/ckpt" \
    --port-file "$CRASH_DIR/port" &
PIVOTD_PID=$!
PORT="$(wait_port "$CRASH_DIR/port" "$PIVOTD_PID")"
cargo run -p storypivot-serve --bin loadgen --release -- \
    --addr "127.0.0.1:$PORT" --quick --partition-file "$CRASH_DIR/before.txt"
test -s "$CRASH_DIR/before.txt"
# No drain, no checkpoint, no warning: the journal is all that's left.
kill -9 "$PIVOTD_PID"
wait "$PIVOTD_PID" || true
rm -f "$CRASH_DIR/port"
cargo run -p storypivot-serve --bin pivotd --release -- \
    --addr 127.0.0.1:0 --shards 2 --fsync always \
    --wal-dir "$CRASH_DIR/wal" --checkpoint-dir "$CRASH_DIR/ckpt" \
    --port-file "$CRASH_DIR/port" &
PIVOTD_PID=$!
PORT="$(wait_port "$CRASH_DIR/port" "$PIVOTD_PID")"
cargo run -p storypivot-serve --bin loadgen --release -- \
    --addr "127.0.0.1:$PORT" --query-only --partition-file "$CRASH_DIR/after.txt" --shutdown
wait "$PIVOTD_PID"
PIVOTD_PID=""
cmp "$CRASH_DIR/before.txt" "$CRASH_DIR/after.txt"

echo "==> smoke: graceful restart (SHUTDOWN + restart must serve the partition that was served)"
# The drain publishes and checkpoints and moves no snippet: what the
# daemon answered before SHUTDOWN is what it answers after a restart.
RESTART_DIR="$SMOKE_DIR/restart"
mkdir -p "$RESTART_DIR"
for PARTITION in before after; do
    rm -f "$RESTART_DIR/port"
    cargo run -p storypivot-serve --bin pivotd --release -- \
        --addr 127.0.0.1:0 --shards 2 --fsync always \
        --wal-dir "$RESTART_DIR/wal" --checkpoint-dir "$RESTART_DIR/ckpt" \
        --port-file "$RESTART_DIR/port" &
    PIVOTD_PID=$!
    PORT="$(wait_port "$RESTART_DIR/port" "$PIVOTD_PID")"
    if [ "$PARTITION" = before ]; then LOAD=--quick; else LOAD=--query-only; fi
    cargo run -p storypivot-serve --bin loadgen --release -- \
        --addr "127.0.0.1:$PORT" "$LOAD" --partition-file "$RESTART_DIR/$PARTITION.txt" --shutdown
    wait "$PIVOTD_PID"
    PIVOTD_PID=""
done
cmp "$RESTART_DIR/before.txt" "$RESTART_DIR/after.txt"

echo "==> smoke: replication (leader + follower, bounded lag, NOT_LEADER wall)"
REPL_DIR="$SMOKE_DIR/repl"
mkdir -p "$REPL_DIR"
cargo run -p storypivot-serve --bin pivotd --release -- \
    --addr 127.0.0.1:0 --shards 2 --fsync always \
    --wal-dir "$REPL_DIR/leader-wal" --checkpoint-dir "$REPL_DIR/leader-ckpt" \
    --port-file "$REPL_DIR/leader-port" &
PIVOTD_PID=$!
PORT="$(wait_port "$REPL_DIR/leader-port" "$PIVOTD_PID")"
cargo run -p storypivot-serve --bin loadgen --release -- \
    --addr "127.0.0.1:$PORT" --quick --partition-file "$REPL_DIR/leader.txt"
test -s "$REPL_DIR/leader.txt"
cargo run -p storypivot-serve --bin pivotd --release -- \
    --addr 127.0.0.1:0 --shards 2 --leader "127.0.0.1:$PORT" \
    --wal-dir "$REPL_DIR/replica-wal" --checkpoint-dir "$REPL_DIR/replica-ckpt" \
    --port-file "$REPL_DIR/replica-port" &
REPLICA_PID=$!
RPORT="$(wait_port "$REPL_DIR/replica-port" "$REPLICA_PID")"
# The follower must answer queries with bounded lag: within ~10 s its
# served partition equals the leader's, byte for byte.
CONVERGED=""
for _ in $(seq 1 50); do
    cargo run -p storypivot-serve --bin loadgen --release -- \
        --addr "127.0.0.1:$RPORT" --query-only --partition-file "$REPL_DIR/replica.txt"
    if cmp -s "$REPL_DIR/leader.txt" "$REPL_DIR/replica.txt"; then
        CONVERGED=1
        break
    fi
    sleep 0.2
done
[ -n "$CONVERGED" ] || { echo "replica never converged to the leader's partition"; exit 1; }
# The follower exports its replication lag in the METRICS exposition.
cargo run -p storypivot-serve --bin loadgen --release -- \
    --addr "127.0.0.1:$RPORT" --query-only --metrics > "$REPL_DIR/replica-metrics.txt"
grep -q '^storypivot_replica_lag_ops{' "$REPL_DIR/replica-metrics.txt"
# Read fan-out across leader + follower round-robins and reports both.
cargo run -p storypivot-serve --bin loadgen --release -- \
    --addr "127.0.0.1:$PORT" --query-only --replicas "127.0.0.1:$RPORT" \
    --queries 200 --json "$REPL_DIR/BENCH_fanout.json"
grep -q "\"targets\"" "$REPL_DIR/BENCH_fanout.json"
cargo run -p storypivot-serve --bin loadgen --release -- \
    --addr "127.0.0.1:$RPORT" --query-only --shutdown
wait "$REPLICA_PID"
REPLICA_PID=""
cargo run -p storypivot-serve --bin loadgen --release -- \
    --addr "127.0.0.1:$PORT" --query-only --shutdown
wait "$PIVOTD_PID"
PIVOTD_PID=""

echo "==> smoke: chaos (scenario replay + fault injection + crash equivalence)"
# Fault hooks are compiled only into debug binaries (release plans are
# inert by design), so this smoke drives the debug pivotd/loadgen the
# test step already built. The plan tears WAL appends and fails
# checkpoint writes while a flash-crowd scenario replays; every
# rejection is retried, then kill -9 + a clean restart must serve the
# byte-identical partition the faulted daemon acknowledged.
CHAOS_DIR="$SMOKE_DIR/chaos"
mkdir -p "$CHAOS_DIR"
STORYPIVOT_FAULTS="seed=11,wal_enospc=15,wal_short=15,checkpoint=300" \
cargo run -p storypivot-serve --bin pivotd -- \
    --addr 127.0.0.1:0 --shards 2 --fsync every:16 \
    --deadline-ms 50 --checkpoint-every-bytes 32768 \
    --wal-dir "$CHAOS_DIR/wal" --checkpoint-dir "$CHAOS_DIR/ckpt" \
    --port-file "$CHAOS_DIR/port" &
PIVOTD_PID=$!
PORT="$(wait_port "$CHAOS_DIR/port" "$PIVOTD_PID")"
cargo run -p storypivot-serve --bin loadgen -- \
    --addr "127.0.0.1:$PORT" --scenario flash_crowd --events 600 --conns 2 \
    --json "$CHAOS_DIR/BENCH_flash.json" --metrics > "$CHAOS_DIR/metrics.txt"
# The degradation ladder is registered and exported: shed and
# degraded-read counters must be present in the merged exposition.
grep -q '^storypivot_shed_total' "$CHAOS_DIR/metrics.txt"
grep -q '^storypivot_degraded_reads_total' "$CHAOS_DIR/metrics.txt"
# The fault plan actually bit: injected journal rejections were
# absorbed and retried by the scenario replay.
grep -q '"rejected_retries": [1-9]' "$CHAOS_DIR/BENCH_flash.json"
cargo run -p storypivot-serve --bin loadgen -- \
    --addr "127.0.0.1:$PORT" --query-only --partition-file "$CHAOS_DIR/before.txt"
test -s "$CHAOS_DIR/before.txt"
kill -9 "$PIVOTD_PID"
wait "$PIVOTD_PID" || true
rm -f "$CHAOS_DIR/port"
# Clean restart, no fault plan: WAL replay (torn appends were repaired
# in place, rejected appends left nothing) rebuilds the partition.
cargo run -p storypivot-serve --bin pivotd -- \
    --addr 127.0.0.1:0 --shards 2 --fsync every:16 \
    --wal-dir "$CHAOS_DIR/wal" --checkpoint-dir "$CHAOS_DIR/ckpt" \
    --port-file "$CHAOS_DIR/port" &
PIVOTD_PID=$!
PORT="$(wait_port "$CHAOS_DIR/port" "$PIVOTD_PID")"
cargo run -p storypivot-serve --bin loadgen -- \
    --addr "127.0.0.1:$PORT" --query-only --partition-file "$CHAOS_DIR/after.txt" --shutdown
wait "$PIVOTD_PID"
PIVOTD_PID=""
cmp "$CHAOS_DIR/before.txt" "$CHAOS_DIR/after.txt"
# Retraction storm against a fresh daemon (scenario scripts assume
# fresh source ids), checkpoint faults only so REMOVE_DOC at volume
# runs against a journaling-but-flaky checkpoint path.
STORYPIVOT_FAULTS="seed=4,checkpoint=300" \
cargo run -p storypivot-serve --bin pivotd -- \
    --addr 127.0.0.1:0 --shards 2 --fsync every:16 \
    --deadline-ms 50 --checkpoint-every-bytes 32768 \
    --wal-dir "$CHAOS_DIR/storm-wal" --checkpoint-dir "$CHAOS_DIR/storm-ckpt" \
    --port-file "$CHAOS_DIR/storm-port" &
PIVOTD_PID=$!
PORT="$(wait_port "$CHAOS_DIR/storm-port" "$PIVOTD_PID")"
cargo run -p storypivot-serve --bin loadgen -- \
    --addr "127.0.0.1:$PORT" --scenario retraction_storm --events 600 --conns 2 \
    --json "$CHAOS_DIR/BENCH_storm_scenario.json"
grep -q '"shed_retries"' "$CHAOS_DIR/BENCH_storm_scenario.json"
# Chaos exit: the trap's kill -9 is the teardown — crash recovery of a
# checkpoint-faulted daemon is a tested path, not a cleanup hazard.

echo "CI OK"
