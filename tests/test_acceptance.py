"""Release gate: one test per acceptance criterion.

Each test prints the measured numbers and asserts the pinned tolerance, so
the ``pytest -v`` line for a ``test_criterion_*`` function is the pass/fail
record for that criterion.  Tolerances and runtime budgets are frozen here
on purpose; loosening them is a contract change, not a test fix.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from pmstat.convergence import ai_stat_conv_detect
from pmstat.distfn import (
    EPS0,
    evaluate,
    levy_distance,
    levy_distance_to_zero,
)
from pmstat.harness import (
    SuiteConfig,
    generate_suite,
    oracle_levy_distance,
    random_step_fn,
    run_theorem_suite,
    suite_passed,
    validate_report,
)
from pmstat.summability import (
    ConstantColumnMatrix,
    IdentityMatrix,
    a_density_partial,
    cesaro1,
    check_regularity,
    index_set_from_spec,
)

HORIZON = 10_000


def test_criterion_1_levy_metric_vs_grid_oracle() -> None:
    # exact distance vs the exhaustive 0.01-grid scan on 1000 random pairs,
    # plus exact symmetry and the triangle inequality up to float rounding
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260825)
    fns = [random_step_fn(rng) for _ in range(2000)]
    grid_step = 0.01
    worst = 0.0
    for i in range(1000):
        f, g = fns[2 * i], fns[2 * i + 1]
        d_impl = levy_distance(f, g)
        d_grid = oracle_levy_distance(f, g, grid_step)
        worst = max(worst, abs(d_impl - d_grid))
        assert abs(d_impl - d_grid) <= grid_step + 1e-9, (i, d_impl, d_grid)
        assert levy_distance(g, f) == d_impl

    tri_rng = random.Random(17)
    worst_tri = 0.0
    for _ in range(250):
        f, g, h = tri_rng.sample(fns, 3)
        gap = levy_distance(f, h) - levy_distance(f, g) - levy_distance(g, h)
        worst_tri = max(worst_tri, gap)
        assert gap <= 1e-12

    elapsed = time.perf_counter() - t0
    print(
        f"criterion 1: 1000 pairs, worst |impl-grid|={worst:.6f} "
        f"(cap {grid_step + 1e-9}), worst triangle gap={worst_tri:.2e}, "
        f"elapsed {elapsed:.1f}s"
    )
    assert elapsed < 30.0


def test_criterion_2_zero_distance_threshold_equivalence() -> None:
    # f(t) > 1-t holds exactly when the Levy distance to the unit step at 0
    # is below t; checked with the exact closed form (no band), which the
    # metric's candidate search must reproduce bit for bit
    rng = np.random.default_rng(2)
    exact_checked = 0
    for _ in range(1200):
        f = random_step_fn(rng)
        t = float(rng.uniform(1e-3, 1.0))
        inside = evaluate(f, t) > 1.0 - t

        d_exact = levy_distance_to_zero(f)
        if abs(d_exact - t) > 1e-12:
            assert inside == (d_exact < t), (f, t, d_exact)
            exact_checked += 1

        d_metric = levy_distance(f, EPS0)
        assert d_metric == d_exact, (f, d_metric, d_exact)

    print(
        f"criterion 2: 1200 draws, {exact_checked} exact checks with zero "
        f"violations, metric equal to the closed form on all 1200"
    )
    assert exact_checked >= 1000


def test_criterion_3_regularity_check_at_horizon() -> None:
    t0 = time.perf_counter()
    for A in (cesaro1(), IdentityMatrix()):
        report = check_regularity(A, HORIZON, 2e-3)
        assert report.ok, report.to_json()
        worst = max(c.residual for c in report.conditions)
        assert worst < 2e-3
        print(f"criterion 3: {A.name} passes all conditions, worst residual {worst:.2e}")

    bad = check_regularity(ConstantColumnMatrix(), HORIZON, 2e-3)
    assert not bad.ok
    assert not bad["columns-vanish"].passed
    assert bad["bounded-row-norms"].passed and bad["row-sums-to-one"].passed
    print(
        "criterion 3: constant-column matrix fails exactly the vanishing-"
        f"columns condition, residual {bad['columns-vanish'].residual}"
    )
    elapsed = time.perf_counter() - t0
    print(f"criterion 3: elapsed {elapsed:.2f}s")
    assert elapsed < 5.0


def _final_density(member, n: int = HORIZON) -> float:
    return float(a_density_partial(cesaro1(), member, n)[-1])


def test_criterion_4_density_calculus() -> None:
    evens = index_set_from_spec("evens")
    squares = index_set_from_spec("squares")

    d_evens = _final_density(evens)
    assert abs(d_evens - 0.5) <= 0.01
    # exactly 100 squares below the horizon: the estimate sits on the
    # boundary, so allow float slack only
    d_squares = _final_density(squares)
    assert d_squares <= 0.01 + 1e-9
    finite_worst = 0.0
    for spec in ("finite:3", "finite:1,2,3", "finite:10,100,1000,9999", "finite:1,2,3,4,5,6,7,8,9"):
        finite_worst = max(finite_worst, _final_density(index_set_from_spec(spec)))
    assert finite_worst <= 0.001
    print(
        f"criterion 4: evens {d_evens}, squares {d_squares}, "
        f"worst finite set {finite_worst}"
    )

    # density properties on 50 constructed pairs: monotone under union,
    # complement sums to one, subadditive, stable under finite changes
    pool_specs = [
        "evens",
        "squares",
        "mod:3,1",
        "mod:5,2",
        "mod:7,0",
        "block:100,600",
        "block:2000,4500",
        "not:mod:4,3",
    ]
    pool = [index_set_from_spec(s) for s in pool_specs]
    pick = random.Random(4)
    tol = 0.02
    for trial in range(50):
        s, t = pick.choice(pool), pick.choice(pool)
        if pick.random() < 0.3:
            s = ~s
        d_s, d_t = _final_density(s), _final_density(t)
        d_union = _final_density(s | t)
        d_comp = _final_density(~s)
        assert d_s <= d_union + tol, (trial, s.name, t.name)
        assert d_union <= d_s + d_t + tol, (trial, s.name, t.name)
        assert abs(d_s + d_comp - 1.0) <= tol, (trial, s.name)
        bump = index_set_from_spec(f"finite:{trial + 1},{trial + 50},{trial + 300}")
        assert abs(_final_density(s | bump) - d_s) <= tol, (trial, s.name)

    empty = evens & ~evens
    full = evens | ~evens
    assert _final_density(empty) == 0.0
    assert _final_density(full) == 1.0
    print("criterion 4: 50 set pairs satisfy the density calculus within 0.02")


def test_criterion_5_detectors_on_ground_truth_instances() -> None:
    instances = generate_suite(7, 100)
    assert len(instances) == 100
    cfg = SuiteConfig()

    planted = recovered = 0
    false_accepts: list[tuple[str, str]] = []
    for inst in instances:
        if inst.expected_limit is None:
            continue
        planted += 1
        for p in inst.space.points:
            v = ai_stat_conv_detect(inst.x, p, inst.matrix, inst.ideal, cfg.horizon, cfg.tol)
            if p == inst.expected_limit:
                recovered += v.converged
            elif v.converged:
                false_accepts.append((inst.name, p))
    assert recovered == planted, f"recovered {recovered} of {planted}"
    assert not false_accepts, false_accepts

    alternators = [i for i in instances if i.family.startswith("alternate")]
    assert alternators
    bad = [
        (inst.name, p)
        for inst in alternators
        for p in inst.space.points
        if ai_stat_conv_detect(inst.x, p, inst.matrix, inst.ideal, cfg.horizon, cfg.tol).converged
    ]
    assert not bad, bad
    print(
        f"criterion 5: {planted}/{planted} planted limits recovered, "
        f"0 false accepts, {len(alternators)} alternators rejected everywhere"
    )


def test_criterion_6_theorem_suite_default_run() -> None:
    t0 = time.perf_counter()
    cfg = SuiteConfig()
    assert (cfg.seed, cfg.horizon, cfg.tol) == (1, 10_000, 0.02)
    report = run_theorem_suite(generate_suite(cfg.seed, cfg.size), cfg)
    elapsed = time.perf_counter() - t0

    s = report["summary"]
    failing = [c["name"] for c in report["checks"] if not c["control"] and not c["passed"]]
    passing_controls = [c["name"] for c in report["checks"] if c["control"] and c["passed"]]
    assert s["failed"] == 0 and not failing, failing
    assert s["controls"] == 4 and s["controls_failing_as_expected"] == 4, passing_controls
    assert suite_passed(report)
    print(
        f"criterion 6: {s['passed']}/{s['total']} checks pass, "
        f"{s['controls']} controls fail as expected, elapsed {elapsed:.1f}s"
    )
    assert elapsed < 300.0


def test_criterion_7_suite_reports_are_byte_identical(tmp_path: Path) -> None:
    # two fresh interpreter runs with different hash seeds must emit the
    # same bytes
    outputs = []
    for hash_seed, name in (("0", "a.json"), ("42", "b.json")):
        out = tmp_path / name
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, "-m", "pmstat.cli", "suite", "--seed", "1", "--out", str(out)],
            capture_output=True,
            text=True,
            env=env,
            timeout=280,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert len(outputs[0]) > 1000
    report = json.loads(outputs[0])
    validate_report(report)
    assert suite_passed(report)
    print(f"criterion 7: two runs byte-identical ({len(outputs[0])} bytes)")
