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
import statistics
import subprocess
import sys

bench_path, base, change, workload, pairs = sys.argv[1:6]
seed = sys.argv[6] if len(sys.argv) > 6 else "1"
bench = json.load(open(bench_path))
metrics = bench["end_to_end"]
seconds = str(bench["run_seconds"])
bins = {"base": base, "change": change}
runs = {"base": [], "change": []}
bad = False


def run(side):
    cmd = [bins[side], "--workload", workload, "--seed", seed,
           "--seconds", seconds, "--trace", "0"]
    out = subprocess.run(cmd, stdin=subprocess.DEVNULL, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"{side}: {' '.join(cmd)} printed nothing ({out.returncode}):\n{out.stderr[-2000:]}")
    return json.loads(lines[-1])


for i in range(int(pairs)):
    order = ("base", "change") if i % 2 == 0 else ("change", "base")
    for side in order:
        result = run(side)
        if not result["correct"] or result.get("failed", 0) != 0:
            bad = True
            print(f"pair {i + 1} {side}: correct={result['correct']} failed={result.get('failed')}")
        values = {k: v["value"] for k, v in result["metrics"].items()}
        runs[side].append(values)
        print(f"pair {i + 1} {side:<6} " + " ".join(
            f"{m['name']}={values[m['name']]:.6g}" for m in metrics), flush=True)


def summary(xs):
    q = statistics.quantiles(xs, n=4) if len(xs) >= 2 else [xs[0]] * 3
    return statistics.median(xs), q[0], q[2]


print(f"\n{workload} seed {seed}, {pairs} pairs, {seconds} s runs")
print(f"{'metric':<20} {'base median (q1-q3)':<34} {'change median (q1-q3)':<34} "
      f"{'won':>6} {'median':>8}")
for m in metrics:
    name, higher = m["name"], m["better"] == "higher"
    b = [r[name] for r in runs["base"]]
    c = [r[name] for r in runs["change"]]
    (bm, bq1, bq3), (cm, cq1, cq3) = summary(b), summary(c)
    won = sum((y > x) if higher else (y < x) for x, y in zip(b, c))
    rel = (cm - bm) / abs(bm) if bm else 0.0
    worse = -rel if higher else rel
    flags = []
    if worse > m["bound"]:
        bad = True
        flags.append("PAST BOUND")
    if abs(cm - bm) > bq3 - bq1:
        flags.append("clear of IQR")
    print(f"{name:<20} {f'{bm:.6g} ({bq1:.6g}-{bq3:.6g})':<34} "
          f"{f'{cm:.6g} ({cq1:.6g}-{cq3:.6g})':<34} {f'{won}/{len(b)}':>6} "
          f"{rel:+8.2%}  {' '.join(flags)}")
same = [f"{m['name']}={runs['base'][0][m['name']]!r}" for m in metrics
        if len({r[m['name']] for side in runs.values() for r in side}) == 1]
if same:
    print("identical on every run: " + ", ".join(same))
sys.exit(1 if bad else 0)
EOF
