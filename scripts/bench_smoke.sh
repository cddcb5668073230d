#!/usr/bin/env bash
# Bench smoke gate (CI's second job): runs the benches in reduced smoke
# mode, writes their JSON into $BENCH_OUT_DIR (default:
# bench-artifacts/), and fails on regression past the thresholds
# committed below. The determinism contracts (seed solver baseline and
# shipped kernels are bit-identical, the fleet engine matches the
# simulator byte for byte) are asserted inside the benches themselves.
# The "core" set also runs the end-to-end loop (loopbench) briefly on
# both of its benchmark workloads and fails unless each run checks out.
#
# Thresholds are deliberately looser than the committed full-run
# numbers in the committed BENCH_*.json files: smoke repetitions on
# a shared CI core are noisy, and the gate is for *regressions* (an
# algorithmic win disappearing), not for benchmarking the runner.
#
# An optional first argument filters which benches run (and which gates
# apply): "core" runs the pipeline/obs/platform benches and loopbench, "fleet" runs
# only the fleet-scale round bench (CI's fleet-smoke job), "wire" runs
# only the binary wire codec bench, "map" runs only the geo-sharded AP
# map bench, "all" (the default) runs everything.
set -euo pipefail
cd "$(dirname "$0")/.."

only="${1:-all}"
case "$only" in
    all | core | fleet | wire | map) ;;
    *)
        echo "usage: $0 [all|core|fleet|wire|map]" >&2
        exit 2
        ;;
esac
run_core=1
run_fleet=1
run_wire=1
run_map=1
if [ "$only" != all ]; then
    run_core=0
    run_fleet=0
    run_wire=0
    run_map=0
    [ "$only" = core ] && run_core=1
    [ "$only" = fleet ] && run_fleet=1
    [ "$only" = wire ] && run_wire=1
    [ "$only" = map ] && run_map=1
fi

export BENCH_OUT_DIR="${BENCH_OUT_DIR:-bench-artifacts}"
export BENCH_SMOKE=1
mkdir -p "$BENCH_OUT_DIR"

cargo build -q --release -p crowdwifi-bench
if [ "$run_core" -eq 1 ]; then
    ./target/release/pipeline_throughput
    ./target/release/obs_overhead
    ./target/release/platform_rounds
    # loopbench is its own cargo workspace; --locked fails on any
    # dependency change that would rewrite its Cargo.lock. A run that
    # does not check out exits non-zero, so keep going and let the gate
    # below report it.
    for workload in metro_campaign fleet_round; do
        cargo run -q --release --offline --locked --manifest-path loopbench/Cargo.toml -- \
            --workload "$workload" --seed 1 --seconds 2 --trace 0 \
            >"$BENCH_OUT_DIR/loopbench_$workload.json" || true
        cat "$BENCH_OUT_DIR/loopbench_$workload.json"
    done
fi
if [ "$run_fleet" -eq 1 ]; then
    ./target/release/fleet_rounds
fi
if [ "$run_wire" -eq 1 ]; then
    ./target/release/wire_codec
fi
if [ "$run_map" -eq 1 ]; then
    ./target/release/ap_map
fi

# Pulls a numeric field out of one of the bench JSONs (no python in the
# gate; the emitters write one "key": value pair per occurrence).
num() {
    sed -n 's/.*"'"$2"'": \(-\{0,1\}[0-9][0-9.]*\).*/\1/p' "$1" | head -n 1
}

fail=0
gate() { # label value op threshold
    local label="$1" value="$2" op="$3" threshold="$4"
    if [ -z "$value" ]; then
        echo "FAIL: $label missing from bench output" >&2
        fail=1
    elif ! awk -v v="$value" -v t="$threshold" "BEGIN{exit !(v $op t)}"; then
        echo "FAIL: $label = $value (want $op $threshold)" >&2
        fail=1
    else
        echo "  ok: $label = $value ($op $threshold)"
    fi
}

P="$BENCH_OUT_DIR/BENCH_pipeline.json"
O="$BENCH_OUT_DIR/BENCH_obs.json"
R="$BENCH_OUT_DIR/BENCH_platform.json"
F="$BENCH_OUT_DIR/BENCH_fleet.json"
W="$BENCH_OUT_DIR/BENCH_wire.json"
M="$BENCH_OUT_DIR/BENCH_map.json"

echo "bench smoke thresholds:"
if [ "$run_core" -eq 0 ]; then
    echo "  (core benches skipped: filter '$only')"
fi
if [ "$run_core" -eq 1 ]; then
# The machine-independent algorithmic gains over the seed
# implementation must not regress away. The cold-path ratio sits near
# 1.05-1.08 with ~±0.1 of scheduler noise in smoke runs (the solve
# dominates a cold recovery either way); the gate only has to catch the
# shared factorization becoming meaningfully *slower* than a per-group
# rebuild.
gate "shared-window cold speedup" "$(num "$P" cold_speedup)" ">=" 0.90
gate "memoized replay speedup" "$(num "$P" memoized_speedup)" ">=" 5
# The workspace speedup, like the kernel and WAL numbers below, is the
# median of per-rep ratios with the leg that runs first alternating rep
# by rep: a slow patch on a shared core lands on both legs of a rep, and
# one bad rep cannot move the median.
gate "solver workspace speedup" "$(num "$P" speedup)" ">=" 1.02
# The exact active set's headline win is machine-independent: over the
# seed campus drive its total pivots must stay at most a tenth of the
# iterations plain FISTA spends when pinned in its place (the same 10x
# bound tests/solver_accel.rs asserts; smoke mode replays the same
# drive, so the ratio does not move with repetitions).
gate "active-set / FISTA l1 work ratio" "$(num "$P" active_set_iteration_ratio)" "<=" 0.10
if ! grep -q '"ap_count_identical": true' "$P"; then
    echo "FAIL: solver_work AP count differs between the active set and FISTA" >&2
    fail=1
else
    echo "  ok: solver work AP count identical"
fi
# The shipped row-blocked kernels must keep a real wall-clock margin
# over the scalar reference loops. Both legs time FISTA's per-iteration
# kernel pair (matvec, then acc_rows) on the 24x160 solver operator in
# the same binary, alternating rep by rep; the ratio is the median over
# reps. Smoke runs on a shared core are noisy, so the gate is a
# regression floor under the measured band, not the headline.
gate "kernel accel wall speedup" "$(num "$P" kernel_wall_speedup)" ">=" 1.3
if ! grep -q '"kernel_bit_identical": true' "$P"; then
    echo "FAIL: kernel_accel shipped kernels not bit-identical to the scalar reference" >&2
    fail=1
else
    echo "  ok: kernel accel bit-identical"
fi
# The estimator's stage timers (prepare, gather, factorize, solve,
# debias, modes, score, refine, polish) must account for the run: on one
# thread their sum over the drive's wall time leaves only grid
# formation, hypothesis generation and consolidation untimed.
gate "pipeline stage coverage" "$(num "$P" stage_coverage)" ">=" 0.95
# Enabled recording budget is 2% of pipeline time; the smoke gate
# allows noise on top of it (the percentage is a median of per-rep
# ratios, legs alternating, like the workspace and WAL gates). The disabled path must stay a few atomic
# loads (nanoseconds), since it is compiled into every hot loop.
gate "obs enabled overhead pct" "$(num "$O" overhead_pct)" "<=" 10
gate "obs disabled counter ns" "$(num "$O" disabled_ns)" "<=" 50
gate "obs enabled counter ns" "$(num "$O" enabled_ns)" "<=" 500
# The virtual-clock simulator must stay usable for fault-matrix testing:
# clean rounds at interactive rates.
gate "sim platform rounds/sec" "$(num "$R" sim_rounds_per_sec)" ">=" 0.2
# Durability budgets: the write-ahead log must stay invisible next to
# the estimator maths that dominates a round (the measured percentage
# hovers around zero and can go negative with scheduler noise), and
# crash recovery must replay a mid-round log far faster than vehicles
# can fill one.
gate "WAL overhead pct" "$(num "$R" wal_overhead_pct)" "<=" 5
gate "recovery replay events/sec" "$(num "$R" recovery_replay_events_per_sec)" ">=" 50000
# The end-to-end loop checks its own outputs (fleet engine byte-identical
# to the simulator, sink-fed map equal to a replay, every true AP served,
# BRR handoff runs, every metric finite) and must lose no operation.
for workload in metro_campaign fleet_round; do
    L="$BENCH_OUT_DIR/loopbench_$workload.json"
    if grep -q '"correct": true' "$L" && grep -q '"failed": 0,' "$L"; then
        echo "  ok: loopbench $workload correct, 0 failed"
    else
        echo "FAIL: loopbench $workload not correct or lost operations" >&2
        fail=1
    fi
done
fi

if [ "$run_fleet" -eq 1 ]; then
# The fleet engine's headline: simulated vehicle-rounds per hour on a
# faulted round. The smoke row is 2k vehicles; the committed full run
# records ~15M/hour at 10k-100k on one core, so gating at the 1M
# project target leaves an order of magnitude of headroom for a noisy
# shared runner while still catching the engine going quadratic.
gate "fleet vehicle-rounds/hour" "$(num "$F" headline_vehicle_rounds_per_hour)" ">=" 1000000
# The bench refuses to time anything unless a small fleet on the
# batched fleet engine was byte-identical to the reference simulator;
# the written flag records that the assertion ran.
if ! grep -q '"digest_match": true' "$F"; then
    echo "FAIL: fleet round not byte-identical to the reference simulator" >&2
    fail=1
else
    echo "  ok: fleet round matches sim byte-for-byte"
fi
fi

if [ "$run_wire" -eq 1 ]; then
# The wire codec's two headline numbers. Payload bytes are measured on
# a deterministic corpus, so they carry no machine noise; the ceiling
# is 0.35x the 135.92 bytes/message the retired text codec spent on the
# same corpus. The throughput floor leaves ~2.3x headroom under the
# committed single-core full run, like the fleet and map absolute
# floors. The bench itself asserts the same bounds, so these gates are
# the CI-visible restatement, not the only line of defense.
gate "wire payload bytes/message" "$(num "$W" binary_payload_bytes_per_message)" "<=" 47.57
gate "wire encode+decode msgs/sec" "$(num "$W" binary_msgs_per_sec)" ">=" 3000000
fi

if [ "$run_map" -eq 1 ]; then
# The geo-sharded AP map's contract: the epoch read path must sustain
# >=1M radius lookups/sec while a paced writer concurrently re-ingests
# the estimate stream (smoke stores ~250k APs instead of the full run's
# 1.2M; the rate gates are scale-independent because lookups only touch
# the queried corridor's buckets). Latency gates pin the lock-light
# claim: p99 under ingest stays in single-digit microseconds and within
# 2x of the ingest-off p99. The bench asserts the same bounds (plus the
# stored-AP floor) before writing JSON.
gate "map lookups/sec under ingest" "$(num "$M" lookups_per_sec_with_ingest)" ">=" 1000000
gate "map lookup p99 us under ingest" "$(num "$M" p99_us_with_ingest)" "<=" 10
gate "map p99 ratio ingest on/off" "$(num "$M" p99_ratio_on_off)" "<=" 2.0
# Map-fed BRR handoff must be indistinguishable from the static AP
# list on the same seed; the flag records the in-bench assertion.
if ! grep -q '"brr_identical": true' "$M"; then
    echo "FAIL: map-fed BRR handoff diverged from the static-list baseline" >&2
    fail=1
else
    echo "  ok: map-fed BRR identical to static baseline"
fi
fi

if [ "$fail" -ne 0 ]; then
    echo "bench smoke: FAILED" >&2
    exit 1
fi
echo "bench smoke: OK (artifacts in $BENCH_OUT_DIR)"
