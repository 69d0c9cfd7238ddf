#!/usr/bin/env python3
"""Steadiness check of the repo benchmark.

    python3 perfbench/steadiness.py [--workload NAME ...]

Runs perfbench/run.py 10 times per workload, at seeds 1 to 10, for
BENCHMARK.json's run_seconds, and prints each run's end-to-end metrics.
Then it prints, per metric, the median of the runs and the interquartile
range (statistics.quantiles, n=4) as a share of that median, next to the
metric's bound.  A spread above a third of its bound is marked; setup_s is
exempt from the spread rule but reported.  Exits non-zero when a run fails
or a spread other than setup_s exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else 0.0


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append",
                    help="repeatable; default every workload")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    status = 0
    for workload in workloads:
        values = {name: [] for name in bounds}
        for seed in SEEDS:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: run failed "
                      f"(exit {proc.returncode})")
                status = 1
                continue
            metrics = json.loads(lines[-1])["metrics"]
            for name in bounds:
                values[name].append(metrics[name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name} {metrics[name]['value']:.6g}" for name in bounds),
                flush=True)
        print(f"{workload} ({len(SEEDS)} seeds)")
        for name, bound in bounds.items():
            if len(values[name]) < 2:
                continue
            med, share = spread(values[name])
            mark = ""
            if share > bound and name != "setup_s":
                mark, status = "  OVER BOUND", 1
            elif share > bound / 3:
                mark = "  above bound/3"
            print(f"  {name:14s} median {med:14.6g}  IQR/median {share:7.4f}"
                  f"  bound {bound:.2f}{mark}")
    return status


if __name__ == "__main__":
    sys.exit(main())
