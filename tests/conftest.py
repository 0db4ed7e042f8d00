"""Shared fixtures and strategies.

The step-function strategy draws jump locations and heights on a
hundredths grid, which keeps examples exactly representable and makes
shrunk counterexamples readable.
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings, strategies as st

from pmstat import (
    FinitePMSpace,
    Ideal,
    StepDistFn,
    Verdict,
    build_equilateral,
    build_metric_induced,
    cesaro1,
    matrix_from_spec,
)
from pmstat.harness import SuiteConfig, generate_suite, run_theorem_suite
from pmstat.summability import _extremes_verdict

settings.register_profile(
    "suite",
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
# a deeper run of the equivalence properties in tests/test_vector_forms.py,
# the only check of each constructor's array form against its definition:
# pytest tests/test_vector_forms.py --hypothesis-profile deep
settings.register_profile("deep", parent=settings.get_profile("suite"), max_examples=1000)
settings.load_profile("suite")


def icbrt(k: int) -> int:
    """The integer cube root of k >= 0, by integer Newton steps from above:
    exact at every size, where ``round(k ** (1/3))`` reads a rounded float."""
    if k < 2:
        return k
    r = 1 << -(-k.bit_length() // 3)
    while True:
        s = (2 * r + k // (r * r)) // 3
        if s >= r:
            return r
        r = s


# Membership predicates of the built-in index sets, by name: the scalar
# reference the tests compare each set's indicator against, written apart
# from the library's array forms.
MEMBERSHIP = {
    "all": lambda k: True,
    "none": lambda k: False,
    "evens": lambda k: k % 2 == 0,
    "odds": lambda k: k % 2 == 1,
    "squares": lambda k: math.isqrt(k) ** 2 == k,
    "cubes": lambda k: icbrt(k) ** 3 == k,
    "pow2": lambda k: k & (k - 1) == 0,
}


def reference_indicator(pred, n: int) -> np.ndarray:
    """The indicator over indices 1..n of a membership predicate, one index at a time."""
    return np.array([bool(pred(k)) for k in range(1, n + 1)], dtype=bool)


@st.composite
def step_fns(draw, max_jumps: int = 5) -> StepDistFn:
    n = draw(st.integers(1, max_jumps))
    locs = draw(
        st.lists(st.integers(0, 300), min_size=n, max_size=n, unique=True).map(sorted)
    )
    heights = draw(
        st.lists(st.integers(1, 99), min_size=n - 1, max_size=n - 1, unique=True).map(sorted)
    )
    vals = [h / 100.0 for h in heights] + [1.0]
    return StepDistFn.from_pairs([(l / 100.0, v) for l, v in zip(locs, vals)])


@st.composite
def wide_step_fns(draw, max_jumps: int = 4) -> StepDistFn:
    """Step functions at arbitrary float locations, so that location sums
    round, with some near the top of the float range, so that they overflow."""
    n = draw(st.integers(1, max_jumps))
    location = st.one_of(
        st.floats(0.0, 4.0),
        st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.7, 1e308, 1.7e308]),
    )
    locs = draw(st.lists(location, min_size=n, max_size=n, unique=True).map(sorted))
    height = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    vals = draw(st.lists(height, min_size=n - 1, max_size=n - 1, unique=True).map(sorted)) + [1.0]
    return StepDistFn.from_pairs(zip(locs, vals))


def _extremes(win: np.ndarray) -> tuple[float, float, float]:
    """The least, greatest and last value of a nonempty window."""
    return float(win.min()), float(win.max()), float(win[-1])


def _tail_verdict(win: np.ndarray, target: float, tol: float) -> Verdict:
    """Tail-stabilization verdict for an ordinary limit, read off a built window.

    ``win`` is rows ``tail_start(n)..n`` of an n-row partial-value series.
    The verdict is ``_extremes_verdict`` on its extremes and last value,
    with a pass over the deviations only when the target lies strictly
    inside its range.  Limit extraction shares one window's extremes
    across its targets, and a null verdict takes them from
    ``SummMatrix.tail_extremes``; both must equal this bit for bit.
    """
    if len(win) == 0:
        raise ValueError("empty partial-value sequence")
    return _extremes_verdict(*_extremes(win), target, tol, lambda: float(np.abs(win - target).min()))


@pytest.fixture
def eq3() -> FinitePMSpace:
    return build_equilateral(("a", "b", "c"), StepDistFn.from_pairs([(0.25, 0.5), (0.75, 1.0)]))


@pytest.fixture
def line4() -> FinitePMSpace:
    return build_metric_induced(
        ("w0", "w1", "w2", "w3"),
        lambda p, q: 0.2 * abs(int(p[1:]) - int(q[1:])),
    )


@pytest.fixture
def cesaro():
    return cesaro1()


@pytest.fixture
def fin_ideal():
    return Ideal.fin()


@pytest.fixture
def file_matrix(tmp_path):
    """Make a random ``file:`` matrix from a seed: rows of uneven length
    1..12 with non-negative entries, about a third of them 0."""

    def make(seed: int, n_rows: int = 30):
        rng = np.random.default_rng(seed)
        rows = []
        for _ in range(n_rows):
            length = int(rng.integers(1, 13))
            rows.append((rng.random(length) * (rng.random(length) < 0.7)).tolist())
        path = tmp_path / f"rows-{seed}.json"
        path.write_text(json.dumps(rows))
        return matrix_from_spec(f"file:{path}")

    return make


@functools.cache
def _suite_report(seed: int, horizon: int) -> dict:
    """The default theorem-suite report of a seed at a horizon, built once
    per test session; a report is read, never changed."""
    return run_theorem_suite(generate_suite(seed), SuiteConfig(seed=seed, horizon=horizon))


@pytest.fixture(scope="session")
def suite_report():
    """``suite_report(seed, horizon)``: the shared suite reports, so the
    tests that read the reports at N = 10^6 build each one once."""
    return _suite_report
