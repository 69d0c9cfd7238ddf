#!/usr/bin/env python3
"""Unit tests for compare_bench.py — the script that gates every merge via
`--exact` deserves coverage of its own: row matching (missing / added /
disappeared rows), threshold boundaries, bidirectional exactness, gates
read from the candidate's "columns" header, and the exit-code contract
(0 clean, 1 regression, 2 the comparison itself crashed).

Runs under plain `python3 bench/test_compare_bench.py` (unittest only, no
pytest dependency) and is registered with ctest as test_compare_bench_py.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "compare_bench.py")


# A header shaped like the one bench_api writes (harness::Table::print_json
# generates it from the result schema).
COLUMNS = [{"key": k, "gate": g} for g, keys in (
    ("none", "group variant refs note"),
    ("lower", "seconds diff_create_seconds diff_apply_seconds"),
    ("higher", "jobs_per_sec"),
    ("exact", "messages megabytes rebuilds barriers_per_step replications "
              "migrations ghost_promotions cache_hits"),
) for k in keys.split()]


def row(group, variant, seconds=1.0, messages=100, megabytes=10.0,
        barriers_per_step=9.0, rebuilds=1, jobs_per_sec=50.0, cache_hits=4):
    return {
        "group": group,
        "variant": variant,
        "seconds": seconds,
        "messages": messages,
        "megabytes": megabytes,
        "barriers_per_step": barriers_per_step,
        "rebuilds": rebuilds,
        "jobs_per_sec": jobs_per_sec,
        "cache_hits": cache_hits,
    }


class CompareBenchTest(unittest.TestCase):
    def setUp(self):
        self._dir = tempfile.TemporaryDirectory()
        self.addCleanup(self._dir.cleanup)

    def write(self, name, doc):
        path = os.path.join(self._dir.name, name)
        with open(path, "w") as f:
            if isinstance(doc, str):
                f.write(doc)
            else:
                json.dump(doc, f)
        return path

    def run_compare(self, baseline, candidate, *flags):
        return subprocess.run(
            [sys.executable, SCRIPT, baseline, candidate, *flags],
            capture_output=True, text=True)

    def compare(self, base_rows, cand_rows, *flags, columns=COLUMNS):
        # The committed baseline predates the header; only the candidate
        # carries it.
        baseline = self.write("base.json", {"rows": base_rows})
        candidate = self.write("cand.json",
                               {"columns": columns, "rows": cand_rows})
        return self.run_compare(baseline, candidate, *flags)

    # --- clean runs ---------------------------------------------------------

    def test_identical_is_clean_in_both_modes(self):
        rows = [row("g", "a"), row("g", "b")]
        for flags in ([], ["--exact"]):
            p = self.compare(rows, rows, *flags)
            self.assertEqual(p.returncode, 0, p.stderr)

    def test_timing_noise_is_ignored_by_exact(self):
        p = self.compare([row("g", "a", seconds=1.0)],
                         [row("g", "a", seconds=97.0)], "--exact")
        self.assertEqual(p.returncode, 0, p.stderr)

    # --- threshold boundaries ----------------------------------------------

    def test_growth_exactly_at_threshold_is_clean(self):
        # The gate is "> threshold": exactly +10% on a 0.10 threshold passes.
        p = self.compare([row("g", "a", messages=1000)],
                         [row("g", "a", messages=1100)])
        self.assertEqual(p.returncode, 0, p.stderr)

    def test_growth_just_past_threshold_regresses(self):
        p = self.compare([row("g", "a", messages=1000)],
                         [row("g", "a", messages=1101)])
        self.assertEqual(p.returncode, 1)
        self.assertIn("messages", p.stderr)

    def test_custom_threshold_applies(self):
        base = [row("g", "a", seconds=1.0)]
        cand = [row("g", "a", seconds=1.3)]
        self.assertEqual(self.compare(base, cand, "--threshold", "0.5")
                         .returncode, 0)
        self.assertEqual(self.compare(base, cand, "--threshold", "0.2")
                         .returncode, 1)

    def test_shrinkage_is_clean_in_plain_mode(self):
        p = self.compare([row("g", "a", messages=1000)],
                         [row("g", "a", messages=10)])
        self.assertEqual(p.returncode, 0, p.stderr)

    # --- exact mode ---------------------------------------------------------

    def test_exact_fails_on_any_message_growth(self):
        p = self.compare([row("g", "a", messages=1000)],
                         [row("g", "a", messages=1001)], "--exact")
        self.assertEqual(p.returncode, 1)

    def test_exact_fails_on_message_shrinkage_too(self):
        # An unexplained decrease is a traffic-accounting bug, not a win.
        p = self.compare([row("g", "a", messages=1000)],
                         [row("g", "a", messages=999)], "--exact")
        self.assertEqual(p.returncode, 1)

    def test_exact_gates_barriers_per_step(self):
        p = self.compare([row("g", "a", barriers_per_step=9.0)],
                         [row("g", "a", barriers_per_step=4.0)], "--exact")
        self.assertEqual(p.returncode, 1)
        self.assertIn("barriers", p.stderr)

    def test_exact_gates_rebuilds(self):
        # Frontier workloads rebuild every step; a silent rebuild-count
        # change (e.g. a step-0 double build) must trip the gate in either
        # direction.
        for cand_rebuilds in (23, 25):
            p = self.compare([row("g", "a", rebuilds=24)],
                             [row("g", "a", rebuilds=cand_rebuilds)],
                             "--exact")
            self.assertEqual(p.returncode, 1)
            self.assertIn("rebuilds", p.stderr)

    # --- serving-layer metrics ----------------------------------------------

    def test_jobs_per_sec_drop_regresses_in_plain_mode(self):
        # Throughput is a higher-is-better metric: the regression is the
        # DROP, not the growth.
        p = self.compare([row("g", "a", jobs_per_sec=100.0)],
                         [row("g", "a", jobs_per_sec=80.0)])
        self.assertEqual(p.returncode, 1)
        self.assertIn("jobs_per_sec", p.stderr)

    def test_jobs_per_sec_growth_is_clean(self):
        p = self.compare([row("g", "a", jobs_per_sec=100.0)],
                         [row("g", "a", jobs_per_sec=300.0)])
        self.assertEqual(p.returncode, 0, p.stderr)

    def test_jobs_per_sec_noise_is_ignored_by_exact(self):
        # Throughput is timing-derived and therefore noisy; the exact gate
        # must not flake on it.
        p = self.compare([row("g", "a", jobs_per_sec=100.0)],
                         [row("g", "a", jobs_per_sec=3.0)], "--exact")
        self.assertEqual(p.returncode, 0, p.stderr)

    def test_exact_gates_cache_hits_bidirectionally(self):
        # The schedule cache's hit count is deterministic (workers=1 in the
        # serving bench): drift either way means the cache key or the
        # eligibility logic changed.
        for cand_hits in (3, 5):
            p = self.compare([row("g", "a", cache_hits=4)],
                             [row("g", "a", cache_hits=cand_hits)],
                             "--exact")
            self.assertEqual(p.returncode, 1)
            self.assertIn("cache_hits", p.stderr)

    def test_cache_hit_growth_is_advisory_in_plain_mode(self):
        # cache_hits is lower-is-better by convention in plain mode (it is
        # exact-gated anyway); growth past threshold reports, shrinkage is
        # clean — matching every other count metric.
        p = self.compare([row("g", "a", cache_hits=4)],
                         [row("g", "a", cache_hits=0)])
        self.assertEqual(p.returncode, 0, p.stderr)

    # --- adaptive-coherence metrics -----------------------------------------

    def test_exact_gates_replications_and_migrations(self):
        # The coherence decision counters are deterministic (write-census
        # classification): any drift means the policy changed behaviour.
        for key in ("replications", "migrations"):
            base = [dict(row("g", "a"), **{key: 12})]
            cand = [dict(row("g", "a"), **{key: 11})]
            p = self.compare(base, cand, "--exact")
            self.assertEqual(p.returncode, 1)
            self.assertIn(key, p.stderr)

    def test_exact_gates_ghost_promotions(self):
        # Deterministic like the other decision counters (the committed
        # adaptive rows reproduce run to run), so gated the same way.
        p = self.compare([dict(row("g", "a"), ghost_promotions=16)],
                         [dict(row("g", "a"), ghost_promotions=15)], "--exact")
        self.assertEqual(p.returncode, 1)
        self.assertIn("ghost_promotions", p.stderr)

    def test_rows_without_coherence_keys_stay_clean(self):
        # Static rows never carry the coherence keys; both sides default to
        # 0, so a pre-coherence baseline still gates clean against itself.
        p = self.compare([row("g", "a")], [row("g", "a")], "--exact")
        self.assertEqual(p.returncode, 0, p.stderr)
        # And an adaptive row with explicit zeros matches a key-less one.
        p = self.compare([row("g", "a")],
                         [dict(row("g", "a"), replications=0, migrations=0)],
                         "--exact")
        self.assertEqual(p.returncode, 0, p.stderr)

    # --- header-driven gates ------------------------------------------------

    def test_gates_come_from_the_candidate_header(self):
        # A column the header marks exact is gated even though no list in
        # the script names it ...
        columns = COLUMNS + [{"key": "steps_run", "gate": "exact"}]
        p = self.compare([dict(row("g", "a"), steps_run=8)],
                         [dict(row("g", "a"), steps_run=7)], "--exact",
                         columns=columns)
        self.assertEqual(p.returncode, 1)
        self.assertIn("steps_run", p.stderr)
        # ... and one it marks "none" is not gated at all.
        ungated = [dict(c, gate="none") if c["key"] == "messages" else c
                   for c in COLUMNS]
        for flags in ([], ["--exact"]):
            p = self.compare([row("g", "a", messages=10)],
                             [row("g", "a", messages=999)], *flags,
                             columns=ungated)
            self.assertEqual(p.returncode, 0, p.stderr)

    def test_baseline_header_is_not_consulted(self):
        base = self.write("base.json",
                          {"columns": [], "rows": [row("g", "a")]})
        cand = self.write("cand.json", {"columns": COLUMNS,
                                        "rows": [row("g", "a", messages=7)]})
        self.assertEqual(self.run_compare(base, cand, "--exact").returncode, 1)

    def test_candidate_without_header_exits_2(self):
        base = self.write("base.json", {"rows": [row("g", "a")]})
        cand = self.write("cand.json", {"rows": [row("g", "a")]})
        for flags in ([], ["--exact"]):
            p = self.run_compare(base, cand, *flags)
            self.assertEqual(p.returncode, 2)
            self.assertIn("columns", p.stderr)

    # --- row-set changes ----------------------------------------------------

    def test_added_row_fails_exact_but_not_plain(self):
        base = [row("g", "a")]
        cand = [row("g", "a"), row("g", "b")]
        self.assertEqual(self.compare(base, cand).returncode, 0)
        p = self.compare(base, cand, "--exact")
        self.assertEqual(p.returncode, 1)
        self.assertIn("not in baseline", p.stderr)

    def test_disappeared_row_fails_exact(self):
        base = [row("g", "a"), row("g", "b")]
        cand = [row("g", "a")]
        p = self.compare(base, cand, "--exact")
        self.assertEqual(p.returncode, 1)
        self.assertIn("disappeared", p.stderr)

    def test_missing_metric_key_defaults_to_zero(self):
        # Old baselines without barriers_per_step compare as 0 and trip the
        # exact gate against a new candidate — loudly, not silently.
        old = [{k: v for k, v in row("g", "a").items()
                if k != "barriers_per_step"}]
        p = self.compare(old, [row("g", "a")], "--exact")
        self.assertEqual(p.returncode, 1)

    # --- crash-vs-regression exit codes -------------------------------------

    def test_missing_file_exits_2(self):
        ok = self.write("ok.json", {"rows": [row("g", "a")]})
        p = self.run_compare(ok, os.path.join(self._dir.name, "absent.json"))
        self.assertEqual(p.returncode, 2)
        self.assertIn("cannot read", p.stderr)

    def test_bad_json_exits_2(self):
        ok = self.write("ok.json", {"rows": [row("g", "a")]})
        bad = self.write("bad.json", "{not json")
        for order in ((bad, ok), (ok, bad)):
            p = self.run_compare(*order)
            self.assertEqual(p.returncode, 2)
            self.assertIn("invalid JSON", p.stderr)

    def test_malformed_rows_exit_2(self):
        ok = self.write("ok.json", {"rows": [row("g", "a")]})
        # Rows missing the (group, variant) identity cannot be matched.
        bad = self.write("noid.json", {"columns": COLUMNS,
                                       "rows": [{"seconds": 1.0}]})
        p = self.run_compare(ok, bad)
        self.assertEqual(p.returncode, 2)

    def test_non_numeric_metric_exits_2(self):
        # A null or string metric crashes the arithmetic mid-comparison;
        # that must surface as a crashed gate (2), which the CI advisory
        # pass does NOT tolerate, never as a tolerable regression (1).
        ok = self.write("ok.json", {"rows": [row("g", "a")]})
        for value in (None, "lots"):
            broken = dict(row("g", "a"))
            broken["messages"] = value
            bad = self.write("bad_metric.json",
                             {"columns": COLUMNS, "rows": [broken]})
            p = self.run_compare(ok, bad)
            self.assertEqual(p.returncode, 2, p.stderr)
            self.assertIn("malformed", p.stderr)

    def test_exit_codes_1_and_2_stay_distinct(self):
        # The CI advisory pass tolerates 1 (timing regression) but must
        # fail on 2: the distinction is the whole point of the contract.
        base = [row("g", "a", seconds=1.0)]
        cand = [row("g", "a", seconds=2.0)]
        self.assertEqual(self.compare(base, cand).returncode, 1)


if __name__ == "__main__":
    unittest.main()
