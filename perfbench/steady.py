#!/usr/bin/env python3
"""Steadiness report: run workloads N times with distinct seeds and print,
for every metric, its median, quartiles, interquartile spread and
(max-min)/median, flagging any spread over a tenth.

Usage, from the root of a checkout:

    python3 perfbench/steady.py --runs 10 --seconds 30
    python3 perfbench/steady.py --runs 5 --workloads mice1k_irn --seed0 100
    python3 perfbench/steady.py --runs 5 --workloads legacy_websearch

Seeds are seed0, seed0+1, ...; runs are sequential, one process each.
legacy_websearch reproduces the metric set of the rejected earlier
benchmark (one cold set-up, about 120 flows) to show why it was noisy.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bounds():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except OSError:
        return {}, []
    return ({m["name"]: m.get("bound") for m in spec["end_to_end"]},
            [w["name"] for w in spec["workloads"]])


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stdout}")
    return json.loads(lines[-1])


def report(workload, results, bound):
    print(f"\n== {workload}: {len(results)} runs")
    print(f"{'metric':<22} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'range/med':>9}  flag")
    flagged = 0
    for name in results[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        iqr = (q3 - q1) / med if med else 0.0
        rng = (max(vals) - min(vals)) / med if med else 0.0
        flags = []
        if rng > 0.1:
            flags.append("range>0.1")
        if iqr > 0.1:
            flags.append("iqr>0.1")
        b = bound.get(name)
        if b is not None and iqr > b / 3:
            flags.append(f"iqr>bound/3={b / 3:.3f}")
        flagged += bool(flags)
        print(f"{name:<22} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {iqr:>8.4f} {rng:>9.4f}  {' '.join(flags)}")
    return flagged


def main():
    bound, names = bounds()
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(names))
    a = ap.parse_args()
    flagged = 0
    for w in a.workloads.split(","):
        res = [run_once(w, a.seed0 + i, a.seconds) for i in range(a.runs)]
        flagged += report(w, res, bound)
    print(f"\n{flagged} metric/workload pairs flagged")


if __name__ == "__main__":
    main()
