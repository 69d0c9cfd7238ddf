#!/usr/bin/env python3
"""Smoke test of the repo benchmark.

    python3 perfbench/smoke_test.py

Runs every workload once at tiny size, untraced and traced, through
perfbench/run.py and checks each result line against BENCHMARK.json: the
exact result keys, the metric names of the mode (end_to_end untraced,
per_layer traced), their units, numeric values, and a correct run.  Then
checks that run.py fails without printing a result in a directory holding
only BENCHMARK.json and perfbench/.  Exits non-zero on the first mismatch.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print(f"smoke_test: FAIL {msg}", file=sys.stderr)
    sys.exit(1)


def run(cwd, *args, timeout=900):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, stdout=subprocess.PIPE, text=True,
                          timeout=timeout)


def check_result(workload, trace, spec):
    proc = run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "0",
               "--trace", str(trace), "--tiny")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload} trace={trace}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        fail(f"{workload}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0:
        fail(f"{workload}: not correct: {result}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail(f"{workload}: attempted {result['attempted']}")
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(expected):
        fail(f"{workload} trace={trace}: missing "
             f"{sorted(set(expected) - set(got))}, extra "
             f"{sorted(set(got) - set(expected))}")
    for name, m in got.items():
        if set(m) != {"value", "unit"} or m["unit"] != expected[name]:
            fail(f"{workload}: {name} = {m}, expected unit {expected[name]}")
        if not isinstance(m["value"], (int, float)) or isinstance(m["value"], bool):
            fail(f"{workload}: {name} value {m['value']!r} is not a number")
    print(f"smoke_test: ok {workload} trace={trace} "
          f"({len(got)} metrics, {result['attempted']} attempted)")


def check_refuses_without_sources():
    bare = ROOT / ".bench_build" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, "--workload", "bfs-tmkbase", "--seed", "1",
               "--seconds", "1", "--trace", "0", timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("run.py without the sources must fail without a result")
    print("smoke_test: ok refuses without sources")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_result(workload, trace, spec)
    check_refuses_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())
