"""Instance generation, oracles, and the theorem-suite report."""

from __future__ import annotations

import copy
import csv
import json
from bisect import bisect_left

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from conftest import MEMBERSHIP
from pmstat import EPS0, levy_distance, unit_step
from pmstat.harness import (
    DEFAULT_SUITE_SIZE,
    LATE_POW2,
    LATE_SQUARES,
    REPORT_SCHEMA,
    _at_least,
    Instance,
    ReportSchemaError,
    SuiteConfig,
    generate_suite,
    oracle_density,
    oracle_levy_distance,
    random_step_fn,
    render_text,
    report_to_json,
    run_theorem_suite,
    space_pool,
    suite_passed,
    validate_report,
    write_csv,
    write_report,
)
from pmstat.summability import (
    EVENS,
    NO_INDICES,
    POWERS_OF_TWO,
    SQUARES,
    BlockMatrix,
    ConstantColumnMatrix,
    IdentityMatrix,
    SummMatrix,
    TriangularMatrix,
    cesaro1,
    finite_set,
    matrix_from_spec,
    squares_rows,
)


@pytest.fixture(scope="module")
def full_report() -> dict:
    return run_theorem_suite(generate_suite(seed=1), SuiteConfig())


class TestOracles:
    def test_random_step_fns_are_canonical(self) -> None:
        rng = np.random.default_rng(42)
        for _ in range(200):
            f = random_step_fn(rng)
            assert f.values[-1] == 1.0  # constructor enforces the rest

    def test_grid_oracle_on_known_distances(self) -> None:
        assert oracle_levy_distance(unit_step(0.3), EPS0) == pytest.approx(0.3, abs=1e-9)
        assert oracle_levy_distance(EPS0, EPS0) == pytest.approx(0.01, abs=1e-9)
        assert oracle_levy_distance(unit_step(5.0), EPS0) == pytest.approx(1.0, abs=1e-9)

    def test_bisection_agrees_with_grid_oracle(self) -> None:
        rng = np.random.default_rng(7)
        for _ in range(80):
            f = random_step_fn(rng)
            g = random_step_fn(rng)
            d_impl = levy_distance(f, g)
            d_grid = oracle_levy_distance(f, g)
            diff = d_grid - d_impl
            # the exact metric is the infimum the grid scan overshoots
            assert -1e-12 <= diff <= 0.01 + 1e-9, (f.jumps, g.jumps)

    @pytest.mark.parametrize(
        "make",
        [cesaro1, squares_rows, lambda: BlockMatrix(10), IdentityMatrix],
        ids=["cesaro", "squares", "block10", "identity"],
    )
    def test_density_oracle_agrees_with_vectorized_path(self, make) -> None:
        A = make()
        for member in (EVENS, SQUARES):
            want = oracle_density(A, member, 40)
            got = A.density_series(member, 40)
            assert np.allclose(got, want, atol=1e-9)


def _entry(A: SummMatrix, n: int, k: int) -> float:
    """Entry a_nk from each kind's closed form, one cell at a time."""
    if isinstance(A, TriangularMatrix):
        phi = A._map or (lambda j: j)
        j = bisect_left(range(1, n + 1), k, key=phi) + 1
        if j > n or phi(j) != k:
            return 0.0
        total = np.cumsum(np.arange(1, n + 1, dtype=float) ** A.power)[-1]  # the sequential weight sum
        return float(np.float64(j) ** A.power / total)
    if isinstance(A, IdentityMatrix):
        return 1.0 if n == k else 0.0
    if isinstance(A, ConstantColumnMatrix):
        return 1.0 if k == A.col else 0.0
    if isinstance(A, BlockMatrix):
        return 1.0 / A.m if (n - 1) * A.m < k <= n * A.m else 0.0
    row = A.rows[n - 1]
    return row[k - 1] if k <= len(row) else 0.0


def _row_support(A: SummMatrix, n: int) -> range | tuple[int, ...]:
    if isinstance(A, TriangularMatrix):
        return tuple(int(v) for v in A._mapped(n))
    if isinstance(A, IdentityMatrix):
        return (n,)
    if isinstance(A, ConstantColumnMatrix):
        return (A.col,)
    if isinstance(A, BlockMatrix):
        return range((n - 1) * A.m + 1, n * A.m + 1)
    return range(1, len(A.rows[n - 1]) + 1)


def _entry_oracle_density(A: SummMatrix, member, n_rows: int) -> np.ndarray:
    """The density oracle as it was read cell by cell, from ``_entry`` and
    ``_row_support``, on a membership predicate."""
    return np.array(
        [sum((_entry(A, n, k) for k in _row_support(A, n) if member(k)), 0.0) for n in range(1, n_rows + 1)]
    )


@pytest.mark.parametrize(
    "spec",
    ["cesaro", "identity", "constcol", "squares", "block:1", "block:7",
     "weighted:0", "weighted:1", "weighted:0.5", "weighted:2", "weighted:-0.5", "file:1", "file:2"],
)
def test_density_oracle_is_bit_identical_to_the_entry_oracle(spec: str, file_matrix) -> None:
    A = file_matrix(int(spec[5:])) if spec.startswith("file:") else matrix_from_spec(spec)
    rows = min(200, A.max_row_for(40_000))
    sets = [(s, MEMBERSHIP[s.name]) for s in (EVENS, SQUARES, POWERS_OF_TWO, NO_INDICES)]
    for member, pred in sets + [(finite_set([1, 3, 50]), lambda k: k in (1, 3, 50))]:
        got = oracle_density(A, member, rows)
        want = _entry_oracle_density(A, pred, rows)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (spec, member.name)


class TestIndexSetsForInstances:
    def test_late_sets_are_sparse_enough_for_the_horizon(self) -> None:
        n = 10_000
        for s, count in ((LATE_SQUARES, 51), (LATE_POW2, 3)):
            ind = s.indicator(n)
            assert int(ind.sum()) == count
            partial = np.cumsum(ind) / np.arange(1, n + 1)
            # never crosses the epsilon floor of the density-ideal verdict
            assert partial.max() < 0.02

    def test_late_pow2_members(self) -> None:
        assert (np.flatnonzero(LATE_POW2.indicator(10_000)) + 1).tolist() == [2048, 4096, 8192]

    @given(n=st.integers(0, 3000), lo=st.integers(-5, 3010))
    @example(n=10, lo=11)  # past the horizon: no member
    @example(n=10, lo=0)  # from before index 1: every index
    def test_at_least_marks_the_indices_from_lo_on(self, n: int, lo: int) -> None:
        ind = _at_least(lo).indicator(n)
        assert ind.dtype == bool and ind.tobytes() == (np.arange(1, n + 1) >= lo).tobytes()


class TestInstanceGeneration:
    def test_space_pool_is_valid(self) -> None:
        pool = space_pool()
        assert set(pool) == {"EQ3", "EQ4", "LINE4", "LINE5"}
        for sp in pool.values():
            assert sp.validate_axioms().ok

    def test_deterministic_for_fixed_seed(self) -> None:
        a = [i.to_json() for i in generate_suite(seed=1)]
        b = [i.to_json() for i in generate_suite(seed=1)]
        assert a == b

    def test_seed_changes_instances(self) -> None:
        a = [i.to_json() for i in generate_suite(seed=1)]
        b = [i.to_json() for i in generate_suite(seed=2)]
        assert a != b

    def test_size_control(self) -> None:
        assert generate_suite(seed=1, size=0) == []
        cycled = generate_suite(seed=1, size=DEFAULT_SUITE_SIZE + 3)
        assert len(cycled) == DEFAULT_SUITE_SIZE + 3
        assert cycled[DEFAULT_SUITE_SIZE].family == cycled[0].family
        with pytest.raises(ValueError):
            generate_suite(seed=1, size=-1)

    def test_ground_truth_is_coherent(self) -> None:
        for inst in generate_suite(seed=3):
            assert isinstance(inst, Instance)
            pts = set(inst.space.points)
            assert inst.expected_lambda <= pts
            assert inst.expected_gamma <= pts
            assert inst.expected_lambda <= inst.expected_gamma
            if inst.expected_limit is not None:
                assert inst.expected_limit in pts
            assert inst.x.space is inst.space
            data = inst.to_json()
            assert data["name"] == inst.name
            assert data["expected_lambda"] == sorted(inst.expected_lambda)


class TestSuiteReport:
    def test_empty_suite_passes_vacuously(self) -> None:
        rep = run_theorem_suite([])
        assert rep["checks"] == []
        assert rep["summary"]["total"] == 0
        assert suite_passed(rep)
        validate_report(rep)

    def test_full_suite_passes(self, full_report: dict) -> None:
        s = full_report["summary"]
        assert s["ok"], render_text(full_report)
        assert s["failed"] == 0
        assert s["controls"] == 4
        assert s["controls_failing_as_expected"] == 4
        assert suite_passed(full_report)
        validate_report(full_report)

    def test_expected_check_groups(self, full_report: dict) -> None:
        groups = {c["group"] for c in full_report["checks"]}
        assert groups == {"foundations", "theorems", "controls"}
        control_names = {c["name"] for c in full_report["checks"] if c["control"]}
        assert control_names == {
            "control-first-argument-projection-passes-axioms",
            "control-alternating-sequence-admits-a-limit",
            "control-zero-tolerance-accepts-sparse-noise",
            "control-constant-column-matrix-is-regular",
        }

    def test_report_is_byte_deterministic(self, full_report: dict) -> None:
        again = run_theorem_suite(generate_suite(seed=1), SuiteConfig())
        assert report_to_json(again) == report_to_json(full_report)

    def test_render_text_lines(self, full_report: dict) -> None:
        text = render_text(full_report)
        lines = text.strip().split("\n")
        assert lines[0].startswith("pmstat-theorem-suite seed=1")
        assert any(line.startswith("PASS ") for line in lines)
        assert any(line.startswith("XFAIL") for line in lines)
        assert not any(line.startswith("FAIL ") for line in lines)
        assert lines[-1].startswith("summary:")
        # one rendered line per check plus header and summary
        assert len(lines) == len(full_report["checks"]) + 2

    def test_write_report_round_trip(self, full_report: dict, tmp_path) -> None:
        path = tmp_path / "report.json"
        write_report(full_report, str(path))
        assert json.loads(path.read_text()) == full_report

    def test_write_csv(self, full_report: dict, tmp_path) -> None:
        path = tmp_path / "report.csv"
        write_csv(full_report, str(path))
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["name", "group", "instance", "control", "passed", "residual"]
        assert len(rows) == len(full_report["checks"]) + 1

    def test_schema_rejects_malformed_reports(self, full_report: dict) -> None:
        broken = dict(full_report)
        del broken["summary"]
        with pytest.raises(ReportSchemaError):
            validate_report(broken)
        broken = json.loads(report_to_json(full_report))
        del broken["checks"][0]["residual"]
        with pytest.raises(ReportSchemaError):
            validate_report(broken)

    def test_schema_error_is_a_value_error(self) -> None:
        assert issubclass(ReportSchemaError, ValueError)

    def test_checker_agrees_with_jsonschema(self, full_report: dict) -> None:
        base = dict(full_report, checks=full_report["checks"][:3], instances=full_report["instances"][:2])
        paths = (
            [(k,) for k in base]
            + [("config", k) for k in base["config"]]
            + [("summary", k) for k in base["summary"]]
            + [("checks", 0, k) for k in base["checks"][0]]
            + [("instances", 1, k) for k in base["instances"][1]]
            + [("checks", 2), ("instances", 0)]
        )
        delete = object()
        values = [True, False, None, 0, -1, 5, 10, 0.0, 1.0, 10.0, -0.5, 2.5, float("nan"), float("inf"), -float("inf"), "x", [], {}, delete]
        verdicts = []
        for path in paths:
            for v in values:
                report = copy.deepcopy(base)
                parent = report
                for step in path[:-1]:
                    parent = parent[step]
                if v is delete:
                    del parent[path[-1]]
                else:
                    parent[path[-1]] = v
                try:
                    jsonschema.validate(instance=report, schema=REPORT_SCHEMA)
                    expected = True
                except jsonschema.ValidationError:
                    expected = False
                try:
                    validate_report(report)
                    got = True
                except ReportSchemaError:
                    got = False
                assert got == expected, (path, v)
                verdicts.append(got)
        assert any(verdicts) and not all(verdicts)
