#!/usr/bin/env python3
"""The repo benchmark: builds perfbench_driver from this checkout, runs one
workload, checks its outputs, and prints one JSON result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1> [--tiny]

Run from the root of a checkout.  The driver is built under .bench_build/
(CMake, out of tree); build output goes to stderr.  --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics, by the names and
units BENCHMARK.json gives them (perfbench/README.md says what each one
means).  --tiny runs smoke-test
sizes.  The last stdout line is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

and the exit code is 0 only when every repetition or job was correct.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD_DIR / "perfbench_driver"

# The driver must finish inside the benchmark's 180 s limit.
DRIVER_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver; returns False on failure."""
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release", *gen])
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "perfbench_driver", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build step failed:", " ".join(cmd))
            return False
    return True


def median(values):
    return statistics.median(values) if values else 0


def percentile(values, pct):
    """Linear-interpolated percentile (the inclusive method)."""
    if not values:
        return 0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


# The serve tail needs this many samples beyond it to be a tail at all.
TAIL_SAMPLES = 10


def tail_percentile(values):
    """(pct, value): the highest whole percentile up to 95 with at least
    TAIL_SAMPLES samples beyond it.  Too few samples for any: p95."""
    for pct in range(95, 49, -1):
        value = percentile(values, pct)
        if sum(1 for v in values if v > value) >= TAIL_SAMPLES:
            return pct, value
    return 95, percentile(values, 95)


def ms(ns):
    return ns / 1e6


def by_type(records, kind):
    return [r for r in records if r["type"] == kind]


def only(records, kind):
    found = by_type(records, kind)
    return found[0] if found else {}


def span_index(records):
    """Spans by id, and the durations of every span of each name."""
    spans = {s["id"]: s for s in by_type(records, "span")}
    durations = {}
    for s in spans.values():
        durations.setdefault(s["name"], []).append(s["end_ns"] - s["start_ns"])
    return spans, durations


def calibration(records):
    cal = {c["at"]: c["ns"] for c in by_type(records, "calibration")}
    start, end = cal.get("start", 0), cal.get("end", 0)
    drift = abs(end - start) / start * 100 if start else 0
    return start, drift


# --- correctness -------------------------------------------------------------


def check_batch(reps):
    """Checksums against the reference; traffic identical across reps."""
    failed = 0
    first = reps[0]
    for r in reps:
        same = all(r[k] == first[k] for k in ("messages", "bytes", "steps_run"))
        if not r["checksum_ok"] or not same:
            failed += 1
            log(f"perfbench: rep {r['rep']} failed: checksum_ok="
                f"{r['checksum_ok']} messages={r['messages']} "
                f"bytes={r['bytes']} (rep 0: {first['messages']}, "
                f"{first['bytes']})")
    return len(reps), failed


def check_serve(jobs):
    """Every job accepted, ok and consistent with its graph's checksum; each
    stream position moves the same traffic in every repetition."""
    failed = 0
    first = {}
    for j in jobs:
        ref = first.setdefault(j["idx"], j)
        same = j["messages"] == ref["messages"] and j["bytes"] == ref["bytes"]
        if not (j["accepted"] and j["ok"] and j["checksum_ok"] and same):
            failed += 1
            log(f"perfbench: job {j['rep']}/{j['idx']} ({j['kernel']}, "
                f"{j['backend']}) failed: accepted={j['accepted']} "
                f"ok={j['ok']} checksum_ok={j['checksum_ok']} "
                f"messages={j['messages']} (first {ref['messages']})")
    return len(jobs), failed


# --- metrics -----------------------------------------------------------------


def batch_end_to_end(records):
    warm = [r for r in by_type(records, "rep") if not r["cold"]]
    walls = [r["wall_ns"] for r in warm]
    return {
        "step_ms": median([ms(r["timed_ns"]) / r["steps_run"] for r in warm]),
        "setup_s": median([(r["wall_ns"] - r["timed_ns"]) / 1e9 for r in warm]),
        "messages": median([r["messages"] for r in warm]),
        "megabytes": median([r["bytes"] / 1e6 for r in warm]),
        "job_p50_ms": ms(median(walls)),
        "job_p95_ms": ms(percentile(walls, 95)),
        "jobs_per_s": len(warm) / (sum(r["total_ns"] for r in warm) / 1e9),
    }


def stream_sums(jobs, key):
    """Sum of `key` over the jobs of the earliest repetition among `jobs`
    (every repetition replays the same stream)."""
    sums = {}
    for j in jobs:
        sums[j["rep"]] = sums.get(j["rep"], 0) + j[key]
    return sums[min(sums)] if sums else 0


def serve_end_to_end(records):
    warm = [j for j in by_type(records, "job") if not j["cold"]]
    streams = [s for s in by_type(records, "stream") if not s["cold"]]
    latencies = [j["latency_ns"] for j in warm]
    setups = [s["setup_ns"] for s in by_type(records, "setup")]
    setups += [s["setup_ns"] for s in streams]
    pct, tail = tail_percentile(latencies)
    log(f"perfbench: job_p95_ms is p{pct} of {len(latencies)} jobs, "
        f"{sum(1 for v in latencies if v > tail)} beyond it")
    return {
        "step_ms": median([ms(j["run_ns"]) / j["steps_run"] for j in warm]),
        "setup_s": median(setups) / 1e9,
        "messages": stream_sums(warm, "messages"),
        "megabytes": stream_sums(warm, "bytes") / 1e6,
        "job_p50_ms": ms(median(latencies)),
        "job_p95_ms": ms(tail),
        "jobs_per_s": len(warm) / (sum(s["wall_ns"] for s in streams) / 1e9),
    }


def tracing_overhead_pct(traced, untraced):
    """Median traced minus median untraced, as a share of the untraced."""
    if not traced or not untraced:
        return 0
    base = median(untraced)
    return (median(traced) - base) / base * 100


def batch_per_layer(records, m):
    seq = only(records, "seq")
    reps = by_type(records, "rep")
    warm = [r for r in reps if not r["cold"]]
    traced = [r for r in warm if r["traced"]] or warm
    spans, durations = span_index(records)
    # overhead_seconds is the inspector on CHAOS, the Read_indices scan on Tmk.
    layer = "chaos" if seq["backend"] == "CHAOS" else "core"

    def med(key, scale=1.0):
        return median([r[key] * scale for r in traced])

    # api.run span minus the timed steps, joined through the rep span.
    untimed = []
    rep_of = {r["rep"]: r for r in reps}
    for s in spans.values():
        parent = spans.get(s["parent"])
        if s["name"] == "api.run" and parent and parent["job"] in rep_of:
            rep = rep_of[parent["job"]]
            if not rep["cold"]:
                untimed.append(ms(s["end_ns"] - s["start_ns"] - rep["timed_ns"]))
    step_ms = median([ms(r["timed_ns"]) / r["steps_run"] for r in traced])
    seq_step_ms = ms(seq["timed_ns"]) / reps[0]["steps_run"]
    # overhead_seconds spans the warmup and the timed steps; a zero-step
    # run has the warmup's share alone.  CHAOS runs its inspector once per
    # rebuild, so there the rebuild counts split it exactly; the Tmk scan
    # runs every step, so there the timed share is what the warmup leaves.
    warmup_only = by_type(records, "warmup_only")
    warmup_ns = median([w["overhead_ns"] for w in warmup_only])
    warmup_rebuilds = median([w["rebuilds"] for w in warmup_only])

    def timed_overhead_ns(r):
        if layer == "chaos":
            timed_rebuilds = r["rebuilds"] - warmup_rebuilds
            return r["overhead_ns"] * timed_rebuilds / r["rebuilds"] if r["rebuilds"] else 0
        return max(0, r["overhead_ns"] - warmup_ns)

    unattributed = median([
        ms(r["timed_ns"] - timed_overhead_ns(r) - r["diff_create_ns"]
           - r["diff_apply_ns"]) / r["steps_run"] for r in traced])
    m.update({
        "apps.make_kernel_ms": ms(median(durations.get("apps.make_kernel", []))),
        "apps.seq_step_ms": seq_step_ms,
        "apps.speedup": seq_step_ms / step_ms if step_ms else 0,
        "api.make_runtime_ms": ms(median(durations.get("api.make_runtime", []))),
        "api.run_untimed_ms": median(untimed),
        "api.cold_run_s": reps[0]["total_ns"] / 1e9,
        "api.barriers_per_step": med("barriers_per_step"),
        "api.rebuilds": med("rebuilds"),
        "api.unattributed_ms_per_step": unattributed,
        "api.warmup_overhead_ms": ms(warmup_ns),
        "core.pages_prefetched": med("pages_prefetched"),
        "core.validate_calls": med("validate_calls"),
        "core.validate_recomputes": med("validate_recomputes"),
        "core.read_indices_ms": (ms(median([timed_overhead_ns(r) for r in traced]))
                                 if layer == "core" else 0),
        "core.read_faults": med("read_faults"),
        "core.twins_created": med("twins_created"),
        "core.whole_pages": med("whole_pages"),
        "core.diff_bytes": med("diff_bytes"),
        "core.diff_create_ms": med("diff_create_ns", 1e-6),
        "core.diff_apply_ms": med("diff_apply_ns", 1e-6),
        "chaos.inspector_ms": med("overhead_ns", 1e-6) if layer == "chaos" else 0,
        "coherence.replications": med("replications"),
        "coherence.migrations": med("migrations"),
        "coherence.ghost_promotions": med("ghost_promotions"),
        "trace.overhead_pct": tracing_overhead_pct(
            [r["wall_ns"] for r in warm if r["traced"]],
            [r["wall_ns"] for r in warm if not r["traced"]]),
    })


def serve_per_layer(records, m):
    jobs = by_type(records, "job")
    warm = [j for j in jobs if not j["cold"]]
    traced = [j for j in warm if j["traced"]] or warm
    first_rep = [j for j in warm if j["rep"] == min(j["rep"] for j in warm)]
    eligible = [j for j in first_rep if j["cache_eligible"]]
    latencies = [j["latency_ns"] for j in warm]
    pct, tail = tail_percentile(latencies)
    streams = by_type(records, "stream")
    cold = [s for s in streams if s["cold"]]
    streams = [s for s in streams if not s["cold"]]
    m.update({
        "api.cold_run_s": cold[0]["wall_ns"] / 1e9 if cold else 0,
        "serve.queue_ms": ms(median([j["queue_ns"] for j in traced])),
        "serve.run_ms": ms(median([j["run_ns"] for j in traced])),
        "serve.overhead_ms": ms(median([
            j["latency_ns"] - j["queue_ns"] - j["run_ns"] for j in traced])),
        "serve.cache_hit_ratio": (sum(j["cache_hit"] for j in eligible)
                                  / len(eligible)) if eligible else 0,
        "serve.cache_eligible_jobs": len(eligible),
        "serve.structure_messages": stream_sums(first_rep, "structure_messages"),
        "serve.jobs_measured": len(latencies),
        "serve.p95_percentile": pct,
        "serve.p95_samples_beyond": sum(1 for v in latencies if v > tail),
        "coherence.replications": stream_sums(first_rep, "replications"),
        "coherence.migrations": stream_sums(first_rep, "migrations"),
        "coherence.ghost_promotions": stream_sums(first_rep, "ghost_promotions"),
        "trace.overhead_pct": tracing_overhead_pct(
            [s["wall_ns"] for s in streams if s["traced"]],
            [s["wall_ns"] for s in streams if not s["traced"]]),
    })


def probe_metrics(records, m):
    probes = {p["name"]: p for p in by_type(records, "probe")}
    vm, net = probes.get("vm.fault", {}), probes.get("net", {})
    bulk_ns = net.get("bulk_socket_ns", 0)
    m.update({
        "vm.fault_ns.cold": vm.get("cold_ns", 0),
        "vm.fault_ns.warm": vm.get("warm_ns", 0),
        "net.rtt_ns.inproc": net.get("rtt_inproc_ns", 0),
        "net.rtt_ns.socket": net.get("rtt_socket_ns", 0),
        "net.mb_per_s.socket": net["bulk_bytes"] / bulk_ns * 1e3 if bulk_ns else 0,
    })


def load_spec():
    """BENCHMARK.json at the checkout root: the workload names, and the
    end_to_end and per_layer metrics as name -> entry, in report order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ([w["name"] for w in spec["workloads"]],
            {m["name"]: m for m in spec["end_to_end"]},
            {m["name"]: m for m in spec["per_layer"]})


def main():
    workloads, end_to_end, per_layer_spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test sizes (not comparable with full runs)")
    args = ap.parse_args()

    if not build():
        return 1
    cmd = [str(DRIVER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: driver exceeded {DRIVER_TIMEOUT_S} s")
        return 1
    if proc.returncode != 0:
        log(f"perfbench: driver exited with {proc.returncode}")
        return 1
    records = [json.loads(line) for line in proc.stdout.splitlines() if line]

    serve = args.workload == "serve-mixed"
    if serve:
        attempted, failed = check_serve(by_type(records, "job"))
        e2e = serve_end_to_end(records)
    else:
        attempted, failed = check_batch(by_type(records, "rep"))
        e2e = batch_end_to_end(records)
    e2e["peak_rss_mb"] = only(records, "end")["peak_rss_bytes"] / 1e6

    cal_ns, drift = calibration(records)
    fingerprint = only(records, "fingerprint")
    bound = end_to_end["step_ms"]["bound"]
    if drift > bound * 100:
        log(f"perfbench: WARNING calibration drifted {drift:.1f}% during the "
            f"run, past the step_ms bound of {bound * 100:.0f}%")
    log("perfbench: machine", json.dumps(fingerprint),
        f"calibration {ms(cal_ns):.1f} ms, drift {drift:.2f}%,",
        f"driver {time.monotonic() - started:.1f} s")

    if args.trace:
        per_layer = dict.fromkeys(per_layer_spec, 0)
        (serve_per_layer if serve else batch_per_layer)(records, per_layer)
        probe_metrics(records, per_layer)
        per_layer["trace.spans"] = only(records, "end")["spans"]
        per_layer["machine.calibration_ms"] = ms(cal_ns)
        per_layer["machine.calibration_drift_pct"] = drift
        unknown = set(per_layer) - set(per_layer_spec)
        if unknown:
            log("perfbench: metrics missing from BENCHMARK.json:", sorted(unknown))
            return 1
        chosen = {k: (per_layer[k], m["unit"]) for k, m in per_layer_spec.items()}
    else:
        chosen = {k: (e2e[k], m["unit"]) for k, m in end_to_end.items()}
    for name, (value, unit) in chosen.items():
        log(f"  {name:32s} {value:>16.6g} {unit}")

    correct = failed == 0 and attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
