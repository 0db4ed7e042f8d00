"""Tests of the benchmark itself (not of pmstat).

    python3 bench/selftest.py

They shrink the workloads (horizon N = 10^4, small ddf batches) so the whole
file runs in about a minute; the CLI suite still runs at its defaults.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import pmstat as pm  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

WORKLOAD_METRICS = {
    "suite": {"setup_s", "peak_rss_mb", "failed_ops_ratio", "batch_s", "suite_wall_s"},
    "horizon": {"setup_s", "peak_rss_mb", "failed_ops_ratio", "batch_s", "verdicts_per_s", "densities_per_s"},
    "ddf": {
        "setup_s",
        "peak_rss_mb",
        "failed_ops_ratio",
        "batch_s",
        "levy_pairs_per_s",
        "levy_wide_pairs_per_s",
        "axiom_checks_per_s",
        "spaces_per_s",
    },
}
REPEATING_COUNTS = (
    "distfn.levy_feasible.calls",
    "summability.rows_evaluated",
    "convergence.value_codes.calls",
    "triangle.supconv_jumps_out",
)

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def setUpModule():
    os.makedirs(run.OUT, exist_ok=True)
    small = {
        (wl, "HORIZON"): 10**4,
        (wl, "NARROW_PAIRS"): 20,
        (wl, "WIDE_PAIRS"): 4,
        (wl, "SPACE_SIZES"): (6, 7),
        (run, "SETUP_REPEATS"): 1,
        (run, "IMPORT_REPEATS"): 1,
        (run, "SUITE_TRACE_REPEATS"): 1,
    }
    global _saved
    _saved = {k: getattr(*k) for k in small}
    for (mod, name), value in small.items():
        setattr(mod, name, value)


def tearDownModule():
    for (mod, name), value in _saved.items():
        setattr(mod, name, value)


def fingerprint(workload: str, seed: int) -> str:
    """A stable text digest of a workload's first-batch inputs."""
    inputs = wl.make_inputs(workload, seed)
    if workload == "suite":
        return json.dumps([inst.to_json() for inst in inputs], sort_keys=True)
    if workload == "horizon":
        rows = []
        for q in inputs:
            row = {k: v for k, v in q.items() if k != "instance"}
            if "instance" in q:
                row["instance"] = q["instance"].to_json()
            rows.append(row)
        return json.dumps(rows, sort_keys=True, default=sorted)
    rows = {
        "narrow": [(f.to_json(), g.to_json()) for f, g in inputs["narrow"]],
        "wide": [(f.to_json(), g.to_json()) for f, g in inputs["wide"]],
        "axioms": [(k, [f.to_json() for f in s]) for k, s in inputs["axioms"]],
        "spaces": [
            {k: (v.to_json() if isinstance(v, pm.StepDistFn) else v) for k, v in s.items()} for s in inputs["spaces"]
        ],
    }
    return json.dumps(rows, sort_keys=True)


def traced_counts(workload: str, seed: int) -> dict:
    rep = run.Report()
    if workload == "suite":
        # the suite's in-process path at a small size, to keep the test short
        tracer = spans.Tracer()
        with tracer:
            pm.run_theorem_suite(pm.generate_suite(seed, 3), pm.SuiteConfig(seed=seed, size=3))
        metrics = spans.layer_metrics(tracer.spans, 1.0)
    else:
        _, traced, tracer = run.trace_inprocess(workload, seed, rep, spans.Tracer)
        metrics = spans.layer_metrics(tracer.spans, traced)
    return {name: metrics[name][0] for name in REPEATING_COUNTS}


class MetricsEmitted(unittest.TestCase):
    def test_every_metric_is_emitted_with_its_unit(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload, trace=0):
                rep = run.Report()
                run.measure(workload, 1, 0.01, rep)
                self.assertLessEqual(WORKLOAD_METRICS[workload], set(rep.metrics))
                out = run.emit(rep, SPEC["end_to_end"])
                self.assertEqual(set(out), {m["name"] for m in SPEC["end_to_end"]})
                for spec in SPEC["end_to_end"]:
                    self.assertGreater(out[spec["name"]]["value"], 0.0)
            with self.subTest(workload=workload, trace=1):
                rep = run.Report()
                run.measure_traced(workload, 1, rep)
                out = run.emit(rep, SPEC["per_layer"])
                self.assertEqual(set(out), {m["name"] for m in SPEC["per_layer"]})
                for name, (value, unit, _) in rep.metrics.items():
                    self.assertTrue(unit, name)
                self.assertIn("trace.overhead_ratio", out)


class Correctness(unittest.TestCase):
    def test_planted_wrong_detector_verdict_raises_failed_ops_ratio(self):
        base = self._horizon_report()
        real = pm.ai_stat_cauchy_detect
        flipped = []

        def flip_once(*args, **kwargs):
            v = real(*args, **kwargs)
            if flipped:
                return v
            flipped.append(True)
            status = pm.DIVERGED if v.converged else pm.CONVERGED
            return pm.Verdict(status, v.value, 0.0, v.tol)

        pm.ai_stat_cauchy_detect = flip_once
        try:
            planted = self._horizon_report()
        finally:
            pm.ai_stat_cauchy_detect = real
        self.assertEqual(planted.attempted, base.attempted)
        self.assertEqual(planted.failed, base.failed + 1)
        self.assertTrue(any(line.startswith("cauchy") for line in planted.failures), planted.failures)

    def _horizon_report(self) -> run.Report:
        out = wl.Outcome()
        wl.run_horizon_batch(wl.horizon_inputs(3, 0), out)
        rep = run.Report()
        rep.count(len(out.answers) + len(out.errors), *wl.check_horizon(out))
        return rep

    def test_planted_wrong_distance_raises_failed_ops(self):
        real = pm.levy_distance
        pm.levy_distance = lambda f, g, tol=pm.DEFAULT_DL_TOL: min(1.0, real(f, g, tol) + 0.05)
        try:
            out = wl.Outcome()
            wl.run_ddf_batch(wl.ddf_inputs(3, 0), out)
        finally:
            pm.levy_distance = real
        failures, _ = wl.check_ddf(out)
        self.assertTrue(any("oracle" in line for line in failures))


class Seeds(unittest.TestCase):
    def test_same_seed_gives_identical_inputs(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(fingerprint(workload, 5), fingerprint(workload, 5))

    def test_different_seed_gives_different_inputs(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.assertNotEqual(fingerprint(workload, 5), fingerprint(workload, 6))

    def test_same_seed_gives_identical_layer_counts(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first = traced_counts(workload, 2)
                self.assertEqual(first, traced_counts(workload, 2))
                self.assertTrue(any(first.values()), first)


class Tracing(unittest.TestCase):
    def test_rebinds_names_imported_by_other_modules_and_restores_them(self):
        from pmstat import convergence, harness, triangle

        before = (harness.lambda_set, convergence.ai_density_is_null, triangle.levy_distance)
        tracer = spans.Tracer()
        with tracer:
            self.assertIsNot(harness.lambda_set, before[0])
            self.assertIs(harness.lambda_set, convergence.lambda_set)
            self.assertIsNot(convergence.ai_density_is_null, before[1])
            self.assertIsNot(triangle.levy_distance, before[2])
            pm.check_triangle_axioms(pm.TriangleFn("prod"), [pm.unit_step(0.25), pm.unit_step(0.5)])
        self.assertEqual((harness.lambda_set, convergence.ai_density_is_null, triangle.levy_distance), before)
        names = {s[0] for s in tracer.spans}
        self.assertLessEqual({"triangle.check_triangle_axioms", "distfn.levy_distance", "triangle.apply_supconv"}, names)

    def test_self_time_subtracts_child_spans(self):
        # parent 0..10 (distfn), child 2..5 (triangle), grandchild 3..4 (distfn)
        fake = [
            ["distfn.levy_distance", 0.0, 10.0, -1, None],
            ["triangle.apply_supconv", 2.0, 5.0, 0, 1],
            ["distfn.levy_feasible", 3.0, 4.0, 1, None],
        ]
        m = spans.layer_metrics(fake, 10.0)
        self.assertAlmostEqual(m["distfn.self_s"][0], 7.0 + 1.0)
        self.assertAlmostEqual(m["triangle.self_s"][0], 2.0)
        self.assertAlmostEqual(m["distfn.busy_share"][0], 0.8)


class Contract(unittest.TestCase):
    def test_fails_without_program_sources(self):
        bare = os.path.join(run.OUT, "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH, os.path.join(bare, "bench"), ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            p = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "ddf", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare,
                capture_output=True,
                text=True,
                timeout=60,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(p.returncode, 0)
        self.assertNotIn('"correct"', p.stdout)


if __name__ == "__main__":
    unittest.main()
