#!/usr/bin/env python3
"""Diff two bench JSONs (e.g. BENCH_api.json) and flag perf regressions.

Usage:
    python3 bench/compare_bench.py BASELINE.json CANDIDATE.json [--threshold 0.10]

Rows are matched by (group, variant).  The metrics and their gate
classes come from the candidate's "columns" header, which the harness
generates from the result schema (SDSM_KERNEL_RESULT_FIELDS in
src/api/kernel.hpp): each column is gated "exact", "lower" (lower is
better), "higher" (higher is better) or "none".  For each matched row the
script reports the relative change in every gated column and flags any
that regressed by more than the threshold (default 10%) in its bad
direction: "higher" columns regress by shrinking, the rest by growing.

Timing-derived columns ("lower"/"higher") are noisy on shared runners;
"exact" columns (messages, bytes, barriers, rebuilds, cache hits, the
coherence decisions) are deterministic, so `--exact` ignores timing
entirely and instead fails on ANY difference in them (growth or
shrinkage — an unexplained decrease signals a traffic-accounting bug just
as loudly).  CI runs the script twice: once plain for the human-readable
diff, once with --exact as the gate.

Exit status distinguishes outcomes so CI can treat the plain pass as
advisory without swallowing real failures:
    0  clean
    1  regression / exact-metric mismatch (advisory in the plain pass)
    2  the comparison itself failed (missing file, unreadable JSON,
       malformed rows, a candidate without the "columns" header) —
       always a CI failure, never advisory
"""

import argparse
import json
import sys

EXIT_CLEAN = 0
EXIT_REGRESSION = 1
EXIT_ERROR = 2

GATES = ("exact", "lower", "higher")


def load(path):
    with open(path) as f:
        return json.load(f)


def rows_of(doc):
    rows = {}
    for r in doc.get("rows", []):
        rows[(r["group"], r["variant"])] = r
    return rows


def gated_columns(doc):
    """The (key, gate) pairs of the document's "columns" header that are
    gated at all, in emission order.  The header is required: a candidate
    without it cannot say what to gate."""
    if "columns" not in doc:
        raise ValueError('candidate has no "columns" header')
    return [(c["key"], c["gate"]) for c in doc["columns"]
            if c["gate"] in GATES]


def fmt_delta(base, cand):
    if base == 0:
        return "n/a" if cand == 0 else "+inf"
    return f"{(cand - base) / base:+.1%}"


def compare(base, cand, metrics, threshold, exact):
    """Returns (report_lines, regression_lines)."""
    report = []
    regressions = []
    width = max((len(f"{g} / {v}") for g, v in cand), default=20)
    header = f"{'row':<{width}}" + "".join(
        f"  {name:>{max(9, len(name))}}" for name, _ in metrics)
    report.append(header)
    report.append("-" * len(header))
    for key in sorted(cand):
        if key not in base:
            report.append(f"{key[0]} / {key[1]}: (new row)")
            if exact:
                regressions.append(f"{key[0]} / {key[1]}: row not in baseline")
            continue
        b, c = base[key], cand[key]
        cells = []
        for name, gate in metrics:
            bv, cv = b.get(name, 0), c.get(name, 0)
            cells.append((name, fmt_delta(bv, cv)))
            # The regression direction flips for higher-is-better columns
            # (throughput): the drop is the regression, not the growth.
            bad_delta = (bv - cv) if gate == "higher" else (cv - bv)
            if exact:
                if gate == "exact" and bv != cv:
                    regressions.append(
                        f"{key[0]} / {key[1]}: {name} must be exact, "
                        f"{bv} -> {cv}"
                    )
            elif bv > 0 and bad_delta / bv > threshold:
                regressions.append(
                    f"{key[0]} / {key[1]}: {name} {fmt_delta(bv, cv)} "
                    f"({bv} -> {cv})"
                )
        report.append(f"{f'{key[0]} / {key[1]}':<{width}}" + "".join(
            f"  {cell:>{max(9, len(name))}}" for name, cell in cells))
    for key in sorted(base.keys() - cand.keys()):
        report.append(f"{key[0]} / {key[1]}: row disappeared")
        if exact:
            # A vanished row is as much a traffic change as a changed count:
            # the gate must not go green on the surviving intersection.
            regressions.append(f"{key[0]} / {key[1]}: row disappeared")
    return report, regressions


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("candidate")
    ap.add_argument(
        "--threshold",
        type=float,
        default=0.10,
        help="relative growth that counts as a regression (default 0.10)",
    )
    ap.add_argument(
        "--exact",
        action="store_true",
        help="gate mode: ignore timing, fail on any difference in the "
        "columns the candidate's header gates \"exact\", in either "
        "direction",
    )
    args = ap.parse_args()

    # A comparison that cannot run is not a regression verdict: report it
    # on stderr and exit 2 so CI never mistakes a crashed gate for a clean
    # (or merely advisory) one.
    try:
        base = rows_of(load(args.baseline))
        cand_doc = load(args.candidate)
        metrics = gated_columns(cand_doc)
        # The comparison itself is inside the guard too: a row with a
        # null/string metric value raises during arithmetic, and that is a
        # crashed gate (2), not a regression verdict (1).
        report, regressions = compare(base, rows_of(cand_doc), metrics,
                                      args.threshold, args.exact)
    except OSError as e:
        print(f"compare_bench: cannot read input: {e}", file=sys.stderr)
        return EXIT_ERROR
    except json.JSONDecodeError as e:
        print(f"compare_bench: invalid JSON: {e}", file=sys.stderr)
        return EXIT_ERROR
    except (KeyError, TypeError, AttributeError, ValueError) as e:
        print(f"compare_bench: malformed bench document: {e!r}",
              file=sys.stderr)
        return EXIT_ERROR

    print("\n".join(report))

    if regressions:
        label = "exact-metric mismatches" if args.exact else \
            f"REGRESSIONS (>{args.threshold:.0%})"
        print(f"\n{label}:", file=sys.stderr)
        for r in regressions:
            print(f"  {r}", file=sys.stderr)
        return EXIT_REGRESSION
    print("\nclean" if args.exact
          else f"\nno regressions past {args.threshold:.0%}")
    return EXIT_CLEAN


if __name__ == "__main__":
    sys.exit(main())
