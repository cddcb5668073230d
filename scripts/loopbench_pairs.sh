#!/usr/bin/env bash
# Interleaved before/after comparison of two loopbench binaries.
#
#   scripts/loopbench_pairs.sh <base-bin> <change-bin> <workload> <pairs> [seed]
#
# Runs <pairs> pairs of loopbench runs (`--trace 0`, BENCHMARK.json's
# run length, seed 1 unless given), alternating which side runs first so
# a drift in machine load lands on both sides. For every end-to-end
# metric in BENCHMARK.json it prints each side's median and quartiles,
# how many pairs the change won, and the change of the median. A median
# that moved the wrong way by more than the metric's bound (a share of
# the base median) is flagged `PAST BOUND`; a median that moved by more
# than the base runs' interquartile range is marked `clear of IQR`.
# Each run's line also shows its `attempted` operation count. A run
# that fits more rounds into its time attempts more operations, and
# `completed_frac` is a ratio over that count, so it moves with the
# round count alone; it is therefore compared only between runs with
# equal `attempted`, one row per count both sides reached.
# Two more rows describe each run as a whole process: `cpu_s`, the CPU
# seconds (user + system) the run used, from `getrusage(RUSAGE_CHILDREN)`
# before and after it, and `cores_busy`, those seconds over the run's
# wall time. They have no bound; they show whether a change keeps more
# cores busy, which the wall-time metrics alone cannot.
# Exits 1 when a run fails its output check or reports failed
# operations, or a median is past its bound.
#
# Build the binaries with
#   cargo build --release --offline --locked --manifest-path loopbench/Cargo.toml
# in each checkout; the binary is loopbench/target/release/crowdwifi-loopbench.
set -euo pipefail

if [ $# -lt 4 ] || [ $# -gt 5 ]; then
    echo "usage: $0 <base-bin> <change-bin> <workload> <pairs> [seed]" >&2
    exit 2
fi

exec python3 - "$(dirname "$0")/../BENCHMARK.json" "$@" <<'EOF'
import json
import resource
import statistics
import subprocess
import sys
import time

bench_path, base, change, workload, pairs = sys.argv[1:6]
seed = sys.argv[6] if len(sys.argv) > 6 else "1"
bench = json.load(open(bench_path))
# The utilisation rows: informative, so they are never past a bound.
usage = [{"name": "cpu_s", "better": "lower", "bound": float("inf")},
         {"name": "cores_busy", "better": "higher", "bound": float("inf")}]
metrics = bench["end_to_end"] + usage
seconds = str(bench["run_seconds"])
bins = {"base": base, "change": change}
runs = {"base": [], "change": []}
attempted = {"base": [], "change": []}
bad = False


def cpu_seconds():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run(side):
    """Runs one side once; returns its JSON line and its (cpu, wall) seconds."""
    cmd = [bins[side], "--workload", workload, "--seed", seed,
           "--seconds", seconds, "--trace", "0"]
    cpu, wall = cpu_seconds(), time.monotonic()
    out = subprocess.run(cmd, stdin=subprocess.DEVNULL, capture_output=True, text=True)
    cpu, wall = cpu_seconds() - cpu, time.monotonic() - wall
    lines = out.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"{side}: {' '.join(cmd)} printed nothing ({out.returncode}):\n{out.stderr[-2000:]}")
    return json.loads(lines[-1]), cpu, wall


for i in range(int(pairs)):
    order = ("base", "change") if i % 2 == 0 else ("change", "base")
    for side in order:
        result, cpu, wall = run(side)
        if not result["correct"] or result.get("failed", 0) != 0:
            bad = True
            print(f"pair {i + 1} {side}: correct={result['correct']} failed={result.get('failed')}")
        values = {k: v["value"] for k, v in result["metrics"].items()}
        values["cpu_s"] = cpu
        values["cores_busy"] = cpu / wall
        runs[side].append(values)
        attempted[side].append(result["attempted"])
        print(f"pair {i + 1} {side:<6} attempted={result['attempted']} " + " ".join(
            f"{m['name']}={values[m['name']]:.6g}" for m in metrics), flush=True)


def summary(xs):
    q = statistics.quantiles(xs, n=4) if len(xs) >= 2 else [xs[0]] * 3
    return statistics.median(xs), q[0], q[2]


def compare(m, label, keep):
    """Prints one comparison row over the runs `keep(side, i)` selects;
    returns whether the change's median is past the metric's bound."""
    name, higher = m["name"], m["better"] == "higher"
    b = [r[name] for i, r in enumerate(runs["base"]) if keep("base", i)]
    c = [r[name] for i, r in enumerate(runs["change"]) if keep("change", i)]
    (bm, bq1, bq3), (cm, cq1, cq3) = summary(b), summary(c)
    both = [i for i in range(len(runs["base"])) if keep("base", i) and keep("change", i)]
    won = sum((runs["change"][i][name] > runs["base"][i][name]) if higher
              else (runs["change"][i][name] < runs["base"][i][name]) for i in both)
    rel = (cm - bm) / abs(bm) if bm else 0.0
    worse = -rel if higher else rel
    flags = []
    if worse > m["bound"]:
        flags.append("PAST BOUND")
    if abs(cm - bm) > bq3 - bq1:
        flags.append("clear of IQR")
    print(f"{label:<20} {f'{bm:.6g} ({bq1:.6g}-{bq3:.6g})':<34} "
          f"{f'{cm:.6g} ({cq1:.6g}-{cq3:.6g})':<34} {f'{won}/{len(both)}':>6} "
          f"{rel:+8.2%}  {' '.join(flags)}")
    return worse > m["bound"]


print(f"\n{workload} seed {seed}, {pairs} pairs, {seconds} s runs")
print(f"{'metric':<20} {'base median (q1-q3)':<34} {'change median (q1-q3)':<34} "
      f"{'won':>6} {'median':>8}")
for m in metrics:
    if m["name"] != "completed_frac":
        bad |= compare(m, m["name"], lambda side, i: True)
        continue
    common = sorted(set(attempted["base"]) & set(attempted["change"]))
    for count in common:
        bad |= compare(m, f"completed@{count}", lambda side, i: attempted[side][i] == count)
    alone = {side: sorted(set(a) - set(common)) for side, a in attempted.items()}
    if not common or any(alone.values()):
        print(f"{'completed_frac':<20} not compared at attempted counts only one side "
              f"reached: base {alone['base']}, change {alone['change']}")
same = [f"{m['name']}={runs['base'][0][m['name']]!r}" for m in metrics
        if len({r[m['name']] for side in runs.values() for r in side}) == 1]
if same:
    print("identical on every run: " + ", ".join(same))
sys.exit(1 if bad else 0)
EOF
