#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

For every workload asked for, runs the command in BENCHMARK.json once per
seed, then prints each end-to-end metric's median and its spread: the
distance between the first and third quartile (statistics.quantiles,
n=4) as a share of the median, next to the metric's bound.

    python3 loopbench/spread.py --seeds 1-10 [--workload fleet_round ...]
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({out.returncode}):\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: output check failed\n{out.stderr[-2000:]}")
    return result


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--workload", action="append",
                    help="repeatable; default: every workload")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = bench["per_layer" if args.trace else "end_to_end"]
    worst = 0.0
    for w in workloads:
        values = {m["name"]: [] for m in metrics}
        for s in seeds(args.seeds):
            result = run(bench, w, s, args.trace)
            for name, v in result["metrics"].items():
                values[name].append(v["value"])
            print(f"{w} seed {s}: " + ", ".join(
                f"{n}={v['value']:.6g}" for n, v in result["metrics"].items()), flush=True)
        for m in metrics:
            xs = values[m["name"]]
            med = statistics.median(xs)
            if len(xs) >= 2 and med != 0:
                q = statistics.quantiles(xs, n=4)
                spread = (q[2] - q[0]) / abs(med)
            else:
                spread = 0.0
            bound = m.get("bound")
            flag = ""
            if bound is not None and m["name"] != "setup_s":
                ratio = spread / bound
                worst = max(worst, ratio)
                flag = "ok" if ratio <= 1 / 3 else ("within bound" if ratio <= 1 else "TOO WIDE")
            print(f"  {w:<15} {m['name']:<22} median {med:<14.6g} spread {spread:7.4f}"
                  + (f"  bound {bound}  {flag}" if bound is not None else ""))
    if not args.trace:
        print(f"widest spread / bound: {worst:.3f}")


if __name__ == "__main__":
    main()
