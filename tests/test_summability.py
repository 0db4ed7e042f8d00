"""Index sets, summability matrices, regularity, ideals, and densities."""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import re
import sys
import tracemalloc
import warnings
from unittest import mock
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from pmstat import (
    ALL_INDICES,
    CONVERGED,
    CUBES,
    DEFAULT_TOL,
    DIVERGED,
    EVENS,
    INCONCLUSIVE,
    NO_INDICES,
    ODDS,
    POWERS_OF_TWO,
    SQUARES,
    BlockMatrix,
    ConstantColumnMatrix,
    ExplicitMatrix,
    Ideal,
    IdentityMatrix,
    IndexSet,
    SummMatrix,
    Verdict,
    a_density_partial,
    ai_density,
    ai_density_is_full,
    ai_density_is_null,
    ai_nonthin,
    cesaro1,
    check_regularity,
    finite_set,
    ideal_from_spec,
    ideal_limit,
    ideal_limit_at,
    index_block,
    index_set_from_spec,
    matrix_from_spec,
    multiples,
    squares_rows,
    tail_start,
    weighted_mean,
)
from pmstat import periodic, summability
from pmstat.harness import generate_suite
from pmstat.summability import (
    REGULARITY_COLUMNS,
    SETTLE_FACTOR,
    TriangularMatrix,
    _candidates,
    _defect_bounds,
    _eps_grid,
    _extremes_verdict,
    _ideal_limit,
    _limit_input,
    nonthin,
)

from conftest import MEMBERSHIP, _extremes, _tail_verdict, reference_indicator


class TestVerdict:
    @pytest.mark.parametrize("residual", [0.5, math.inf, math.nan])
    def test_invariant_converged_within_tol(self, residual: float) -> None:
        with pytest.raises(ValueError, match="above tol"):
            Verdict(CONVERGED, 0.0, residual, 0.1)

    def test_unknown_status_rejected(self) -> None:
        with pytest.raises(ValueError, match="unknown status"):
            Verdict("maybe", 0.0, 0.0, 0.1)

    def test_truthiness(self) -> None:
        assert Verdict(CONVERGED, 0.0, 0.0, 0.1)
        assert not Verdict(DIVERGED, 0.0, 0.9, 0.1)
        assert not Verdict(INCONCLUSIVE, 0.0, 0.9, 0.1)

    def test_json_omits_unset_fields(self) -> None:
        lean = Verdict(DIVERGED, 0.0, 0.9, 0.1).to_json()
        assert "tail_low" not in lean and "witness" not in lean
        rich = Verdict(DIVERGED, 0.0, 0.9, 0.1, 0.2, 0.8, witness=3).to_json()
        assert rich["tail_low"] == 0.2 and rich["witness"] == 3

    def test_all_of_is_the_conjunction_of_its_parts(self) -> None:
        ok = Verdict(CONVERGED, 0.0, 0.01, 0.1)
        unsure = Verdict(INCONCLUSIVE, 0.0, 0.3, 0.1)
        bad = Verdict(DIVERGED, 0.0, 0.2, 0.1)
        for parts, status, residual in (
            ({"a": ok, "b": ok}, CONVERGED, 0.01),
            ({"a": ok, "b": unsure}, INCONCLUSIVE, 0.3),
            ({"a": unsure, "b": bad}, DIVERGED, 0.3),
            ({"a": bad, "b": ok}, DIVERGED, 0.2),
            ({}, CONVERGED, 0.0),
        ):
            v = Verdict.all_of(parts, "p", 0.1, witness=7)
            assert (v.status, v.value, v.residual, v.tol, v.witness) == (status, "p", residual, 0.1, 7)
            assert v.detail is parts

    def test_json_writes_the_parts_recursively(self) -> None:
        inner = Verdict.all_of({"eps=0.1": Verdict(CONVERGED, 0.0, 0.0, 0.1, 0.0, 0.0)}, 0.0, 0.1)
        outer = Verdict.all_of({"t=0.5": inner}, "a", 0.1)
        assert outer.to_json() == {
            "status": CONVERGED,
            "value": "a",
            "residual": 0.0,
            "tol": 0.1,
            "detail": {"t=0.5": inner.to_json()},
        }
        assert outer.to_json()["detail"]["t=0.5"]["detail"]["eps=0.1"]["tail_low"] == 0.0

    @pytest.mark.parametrize("tol", [float("nan"), -0.5, -1e-300])
    def test_tol_must_be_a_number_at_least_zero(self, tol: float) -> None:
        with pytest.raises(ValueError, match="tol must be a number >= 0"):
            Verdict(INCONCLUSIVE, 0.0, 0.9, tol)

    def test_tail_start(self) -> None:
        assert tail_start(10) == 5
        assert tail_start(7) == 4
        assert tail_start(1) == 1


def _members(s: IndexSet, n: int) -> list[int]:
    """The members of s in 1..n, read off its indicator."""
    return (np.flatnonzero(s.indicator(n)) + 1).tolist()


class TestIndexSets:
    NAMED = [EVENS, ODDS, SQUARES, CUBES, POWERS_OF_TWO, ALL_INDICES, NO_INDICES]

    @pytest.mark.parametrize("s", NAMED, ids=lambda s: s.name)
    def test_vectorized_matches_predicate(self, s: IndexSet) -> None:
        assert np.array_equal(s.indicator(300), reference_indicator(MEMBERSHIP[s.name], 300))

    def test_known_members(self) -> None:
        assert _members(SQUARES, 29) == [1, 4, 9, 16, 25]
        assert _members(CUBES, 29) == [1, 8, 27]
        assert _members(POWERS_OF_TWO, 29) == [1, 2, 4, 8, 16]

    def test_combinators(self) -> None:
        n = 120
        assert np.array_equal((~EVENS).indicator(n), ODDS.indicator(n))
        assert np.array_equal((EVENS | ODDS).indicator(n), ALL_INDICES.indicator(n))
        even_squares = EVENS & SQUARES
        assert _members(even_squares, 39) == [4, 16, 36]
        assert "evens" in even_squares.name

    def test_finite_set(self) -> None:
        s = finite_set([5, 3])
        assert s.name == "finite:3,5"
        assert _members(s, 7) == [3, 5]
        assert np.array_equal(s.indicator(4), np.array([False, False, True, False]))
        with pytest.raises(ValueError, match="start at 1"):
            finite_set([0, 3])
        assert finite_set([np.int64(3)]).name == "finite:3"

    @pytest.mark.parametrize("bad", [2.5, 2.0, "3", None])
    def test_finite_set_refuses_members_that_are_not_integers(self, bad) -> None:
        # 2.5 was once truncated to the member 2
        with pytest.raises(ValueError, match=re.escape(f"finite-set member {bad!r} is not an integer")):
            finite_set([1, bad])

    def test_multiples(self) -> None:
        s = multiples(3, 1)
        assert _members(s, 11) == [1, 4, 7, 10]
        assert _members(multiples(4), 9) == [4, 8]
        with pytest.raises(ValueError):
            multiples(3, 3)

    def test_index_block(self) -> None:
        s = index_block(3, 6)
        assert _members(s, 9) == [3, 4, 5]
        assert np.array_equal(s.indicator(4), np.array([False, False, True, True]))
        with pytest.raises(ValueError):
            index_block(5, 5)

    def test_spec_parsing(self) -> None:
        assert index_set_from_spec("evens") is EVENS
        assert index_set_from_spec("finite:2,9").name == "finite:2,9"
        assert _members(index_set_from_spec("mod:3,1"), 8) == [1, 4, 7]
        assert _members(index_set_from_spec("block:10,20"), 30) == list(range(10, 20))
        assert _members(index_set_from_spec("not:evens"), 6) == [1, 3, 5]
        with pytest.raises(ValueError, match="cannot parse"):
            index_set_from_spec("primes")

    def test_indicator_length_validated(self) -> None:
        bad = IndexSet("bad", lambda n: np.ones(n + 1, dtype=bool))
        with pytest.raises(ValueError, match="length"):
            bad.indicator(5)


BUILT_IN_KINDS = [
    "cesaro", "identity", "constcol", "squares", "block:1", "block:7",
    "weighted:0", "weighted:1", "weighted:0.5", "weighted:2", "weighted:-0.5", "weighted:-2",
]


class TestMatrices:
    def test_cesaro_entries_and_density(self) -> None:
        A = cesaro1()
        assert A.row(5) == [(k, 0.2) for k in range(1, 6)]
        y = A.density_series(EVENS, 1000)
        assert y[0] == 0.0
        assert y[1] == 0.5
        assert y[-1] == 0.5
        assert A.max_row_for(10_000) == 10_000

    def test_squares_rows_matrix(self) -> None:
        A = squares_rows()
        assert A.support_bound(10) == 100
        assert A.max_row_for(10_000) == 100
        assert A.row(5) == [(1, 0.2), (4, 0.2), (9, 0.2), (16, 0.2), (25, 0.2)]
        assert np.all(A.density_series(SQUARES, 50) == 1.0)
        # squares j*j with j even are exactly half of the first 100 rows
        assert A.density_series(EVENS, 100)[-1] == 0.5

    def test_block_matrix_windows_do_not_accumulate(self) -> None:
        A = BlockMatrix(10)
        assert A.max_row_for(10_000) == 1000
        assert np.all(A.density_series(EVENS, 200) == 0.5)
        y = A.density_series(index_block(1, 51), 20)
        assert np.all(y[:5] == 1.0)
        assert np.all(y[5:] == 0.0)
        with pytest.raises(ValueError, match="block length"):
            BlockMatrix(0)

    def test_weighted_mean_rows_sum_to_one(self) -> None:
        A = weighted_mean(1.0)
        assert np.allclose(A.density_series(ALL_INDICES, 50), 1.0)
        # weights j favor later indices, so the evens estimate sits above 1/2
        assert A.density_series(EVENS, 1000)[-1] == pytest.approx(0.5005, abs=1e-4)

    def test_identity_matrix(self) -> None:
        A = IdentityMatrix()
        assert list(A.row(3)) == [(3, 1.0)]
        assert np.array_equal(A.density_series(EVENS, 6), EVENS.indicator(6).astype(float))

    def test_constant_column_matrix(self) -> None:
        A = ConstantColumnMatrix()
        assert np.all(A.density_series(finite_set([1]), 40) == 1.0)
        assert np.all(A.density_series(EVENS, 40) == 0.0)

    def test_explicit_matrix(self, tmp_path) -> None:
        A = ExplicitMatrix([[1.0], [0.5, 0.5]])
        assert list(A.row(2)) == [(1, 0.5), (2, 0.5)]
        assert A.max_row_for(1) == 1
        assert A.max_row_for(5) == 2
        with pytest.raises(ValueError, match="beyond"):
            A.row(3)
        path = tmp_path / "rows.json"
        path.write_text(json.dumps([[1.0], [0.25, 0.75]]))
        B = ExplicitMatrix.from_file(str(path))
        assert list(B.row(2)) == [(1, 0.25), (2, 0.75)]
        with pytest.raises(ValueError, match="no rows"):
            ExplicitMatrix([])

    def test_explicit_matrix_refuses_a_horizon_below_its_first_row(self) -> None:
        A = ExplicitMatrix([[1 / 11] * 11, [1 / 12] * 12])
        assert A.max_row_for(11) == 1
        with pytest.raises(ValueError, match=r"^horizon 10 below the support of the first row$"):
            A.max_row_for(10)

    def test_explicit_series_is_float_on_a_window_with_no_member(self) -> None:
        # the generic row loop sums no entry on such a window: still float64, as every kind
        A = ExplicitMatrix([[1.0], [0.5, 0.5], [0.2, 0.3, 0.5], [0.25, 0.25, 0.25, 0.25]])
        assert A.density_series(NO_INDICES, 4).dtype == np.float64
        assert A.density_series(finite_set([4]), 4).tolist() == [0.0, 0.0, 0.0, 0.25]

    @pytest.mark.parametrize("rows", [[1, 2], 5, "rows", [[1.0], "ab"], [[True]], [[None]], [[1.0], [{"a": 1}]]])
    def test_explicit_matrix_rejects_rows_that_are_not_number_lists(self, rows) -> None:
        with pytest.raises(ValueError, match="m.json: rows must be lists of numbers"):
            ExplicitMatrix(rows, name="m.json")

    def test_explicit_matrix_rejects_integers_beyond_float_range(self) -> None:
        with pytest.raises(ValueError, match="beyond the float range"):
            ExplicitMatrix([[1.0], [10**400, 0.5]])

    @pytest.mark.parametrize("bad", [-0.1, -1e-300, float("nan"), float("inf")])
    def test_explicit_matrix_rejects_negative_and_non_finite(self, bad: float) -> None:
        with pytest.raises(ValueError, match="finite and non-negative"):
            ExplicitMatrix([[1.0], [bad, 0.5]])
        assert list(ExplicitMatrix([[0.0, 1.0], [-0.0, 1.0]]).row(2)) == [(1, 0.0), (2, 1.0)]

    @staticmethod
    def _array_row(A: TriangularMatrix, n: int) -> list[tuple[int, float]]:
        """Row n as one array computation: map it, weigh it, normalise."""
        w = A._weights(n)
        return list(zip(A._mapped(n).tolist(), (w / w.sum()).tolist()))

    @pytest.mark.parametrize("spec", ["cesaro", "weighted:1", "weighted:0.5", "squares"])
    def test_row_matches_array_formula(self, spec: str) -> None:
        A = matrix_from_spec(spec)
        for n in (1, 2, 7, 64, 300):
            want = self._array_row(A, n)
            got = A.row(n)
            assert [k for k, _ in got] == [k for k, _ in want]
            got, expected = [a for _, a in got], [a for _, a in want]
            if spec == "weighted:0.5":
                # a fractional power rounds differently in NumPy's array and
                # scalar paths, and a running sum differs from a pairwise one
                assert got == pytest.approx(expected, rel=1e-13, abs=0.0)
            else:
                assert got == expected

    @pytest.mark.parametrize("spec", BUILT_IN_KINDS + ["file:1", "file:2", "file:3"])
    def test_rows_are_sorted_non_negative_and_sum_to_the_series(self, spec: str, file_matrix) -> None:
        A = file_matrix(int(spec[5:])) if spec.startswith("file:") else matrix_from_spec(spec)
        rows = min(60, A.max_row_for(3600))
        for n in range(1, rows + 1):
            row = list(A.row(n))
            cols = [k for k, _ in row]
            assert 1 <= cols[0] and cols[-1] <= A.support_bound(n), (spec, n)
            assert all(j < k for j, k in zip(cols, cols[1:])), (spec, n)
            assert all(a >= 0.0 for _, a in row), (spec, n)
        rng = np.random.default_rng(len(spec))
        members = [rng.random(A.support_bound(rows)) < share for share in (0.0, 0.1, 0.5, 0.9, 1.0)]
        for member in members + [EVENS, SQUARES, finite_set([2, 3, 50])]:
            for start in (1, tail_start(rows)):
                fast = A.density_series(member, rows, start)
                slow = SummMatrix.density_series(A, member, rows, start)
                assert np.allclose(fast, slow, rtol=1e-12, atol=1e-12), (spec, start)

    @pytest.mark.parametrize("power", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_weights_rejected(self, power: float) -> None:
        with pytest.raises(ValueError, match="must be finite"):
            weighted_mean(power)
        with pytest.raises(ValueError, match="must be finite"):
            matrix_from_spec(f"weighted:{power}")

    def test_overflowing_weights_rejected(self) -> None:
        A = weighted_mean(400)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # 5 ** 400 is finite, 6 ** 400 is not
            assert np.all(np.isfinite(A.density_series(EVENS, 5)))
            with pytest.raises(ValueError, match="overflow from row 6"):
                A.density_series(EVENS, 6)
            with pytest.raises(ValueError, match="overflow from row 6"):
                A.density_series(EVENS, 1000)
            # the weight sums are read when the row is asked for, not when it is iterated
            with pytest.raises(ValueError, match="overflow from row 6"):
                A.row(1000)
            assert A.row(5)[-1][1] > 0.0
            # every weight j ** 102.5 up to j = 1000 is finite; their sums are not
            with pytest.raises(ValueError, match="overflow"):
                check_regularity(weighted_mean(102.5), 1000)

    def test_unit_weight_sums_are_row_numbers(self) -> None:
        for A in (cesaro1(), squares_rows(), weighted_mean(0)):
            sums = np.concatenate([w for _, w in A._sums(None, 5000)])
            assert np.array_equal(sums, _exact_weight_sums(A.power, 5000))
            assert np.array_equal(sums, np.cumsum(np.ones(5000)))
            assert np.array_equal(sums, np.arange(1, 5001))

    def test_matrix_from_spec(self) -> None:
        assert matrix_from_spec("cesaro").name == "cesaro"
        assert matrix_from_spec("identity").name == "identity"
        assert matrix_from_spec("block:4").m == 4
        assert matrix_from_spec("weighted:1.5").name == "weighted:1.5"
        assert matrix_from_spec("constcol").col == 1
        assert matrix_from_spec("squares").name == "squares"
        with pytest.raises(ValueError, match="cannot parse"):
            matrix_from_spec("hilbert")

    BUILT_IN_KINDS = ["cesaro", "identity", "constcol", "squares", "block:1", "block:12", "weighted:1", "weighted:-0.5"]

    @pytest.mark.parametrize("spec", [*BUILT_IN_KINDS, "file"])
    def test_a_matrix_name_parses_back(self, spec: str, tmp_path) -> None:
        # the name a report prints reads back as the matrix that printed it
        if spec == "file":
            path = tmp_path / "m.json"
            path.write_text("[[1.0], [0.5, 0.5]]")
            spec = f"file:{path}"
        A = matrix_from_spec(spec)
        back = matrix_from_spec(A.name)
        assert (type(back), back.name) == (type(A), A.name)

    # constcol keeps column 1, so no density ideal is built on it
    @pytest.mark.parametrize("spec", ["fin", *(f"density:{m}" for m in BUILT_IN_KINDS if m != "constcol")])
    def test_an_ideal_name_parses_back(self, spec: str) -> None:
        ideal = ideal_from_spec(spec)
        back = ideal_from_spec(ideal.name)
        assert (back.kind, back.name) == (ideal.kind, ideal.name)

    def test_identity_is_block_1(self) -> None:
        A = IdentityMatrix()
        assert isinstance(A, BlockMatrix) and A.m == 1 and A.name == "identity"
        # it reads through block's readers alone
        assert not {"row", "support_bound", "density_series", "_series", "_counts"} & set(IdentityMatrix.__dict__)

    def test_max_row_for_respects_horizon(self) -> None:
        with pytest.raises(ValueError, match="below the support"):
            squares_rows().max_row_for(0)
        assert squares_rows().max_row_for(99) == 9

    @pytest.mark.parametrize(
        "spec", ["cesaro", "identity", "constcol", "squares", "block:1", "block:12", "weighted:1", "weighted:-0.5"]
    )
    def test_max_row_for_equals_the_bisection(self, spec: str) -> None:
        A = matrix_from_spec(spec)

        def bisected(horizon: int) -> int:
            if A.support_bound(1) > horizon:
                raise ValueError(f"horizon {horizon} below the support of the first row")
            lo, hi = 1, max(1, horizon)
            while lo < hi:
                mid = (lo + hi + 1) // 2
                lo, hi = (mid, hi) if A.support_bound(mid) <= horizon else (lo, mid - 1)
            return lo

        for horizon in (-1, 0, 1, 2, 3, 11, 12, 99, 10**4, 10**6 + 1, 10**7):
            try:
                want = bisected(horizon)
            except ValueError as exc:
                with pytest.raises(ValueError, match=re.escape(str(exc))):
                    A.max_row_for(horizon)
            else:
                assert A.max_row_for(horizon) == want


def _reference_density_series(A: TriangularMatrix, member: np.ndarray, n_rows: int, start: int) -> np.ndarray:
    """``TriangularMatrix.density_series`` as a chain of temporaries: the
    expressions the one-buffer form replaced."""
    j = np.arange(1, n_rows + 1, dtype=np.int64)
    mem = member[: A.support_bound(n_rows)].astype(bool)
    if A._map is not None:
        mem = mem[A._map(j) - 1]
    if A.power == 0:
        sums = np.arange(1, n_rows + 1, dtype=float)
        counts = np.cumsum(mem[start - 1 :], dtype=np.int64)
        counts += np.count_nonzero(mem[: start - 1])
        return counts / sums[start - 1 :]
    weights = np.arange(1, n_rows + 1, dtype=float) ** A.power
    return (np.cumsum(weights * mem) / np.cumsum(weights))[start - 1 :]


class TestInPlaceSeries:
    """Each series pass writes into one buffer, with the bytes of the chain of temporaries."""

    @given(
        power=st.sampled_from([0.0, 1.0, 0.5, 2.0, -0.5, -1.0, 3.7]),
        squares=st.booleans(),
        n_rows=st.integers(1, 2500),
        share=st.sampled_from([0.0, 0.02, 0.5, 0.98, 1.0]),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    @example(power=2.0, squares=False, n_rows=1, share=1.0, seed=0, data=None)
    @example(power=0.0, squares=True, n_rows=1, share=0.0, seed=0, data=None)
    def test_series_equals_the_chain_of_temporaries(self, power, squares, n_rows, share, seed, data) -> None:
        if squares:
            n_rows = 1 + n_rows % 60  # phi(j) = j*j keeps the membership short
        start = 1 if data is None else data.draw(st.integers(1, n_rows), label="start")
        A = TriangularMatrix("t", power, (lambda j: j * j) if squares else None)
        member = np.random.default_rng(seed).random(A.support_bound(n_rows) + 3) < share
        want = _reference_density_series(A, member, n_rows, start)
        got = A.density_series(member, n_rows, start=start)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
        # a second window of the same matrix reads the cached sums
        got = A.density_series(member, n_rows)
        assert got.tobytes() == _reference_density_series(A, member, n_rows, 1).tobytes()

    def test_unit_weights_share_one_read_only_row_number_array(self) -> None:
        rng = np.random.default_rng(15)
        kinds = ("cesaro", "squares", "weighted:0")
        # fresh matrices at growing and shrinking horizons read the same bytes
        for horizon in (10**4, 37, 10**5, 37):
            member = rng.random(horizon) < 0.3
            for spec in kinds:
                A = matrix_from_spec(spec)  # a fresh matrix, as each query builds
                n_rows = A.max_row_for(horizon)
                for start in (1, tail_start(n_rows)):
                    got = A.density_series(member, n_rows, start=start)
                    assert got.tobytes() == _reference_density_series(A, member, n_rows, start).tobytes()



def _exact_weight_sums(power: float, n: int) -> np.ndarray:
    """The sequential weight sums w_1 + ... + w_j for j = 1..n, in one pass."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.cumsum(np.arange(1, n + 1, dtype=float) ** power)


class TestBlockReads:
    """A triangular series read in blocks has the bytes of the whole-series chain."""

    @given(
        block=st.sampled_from([1, 3, 64, summability.BLOCK_ROWS]),
        power=st.sampled_from([0.0, 1.0, 0.5, 2.0, -0.5, -1.0, 3.7]),
        squares=st.booleans(),
        n_rows=st.one_of(st.integers(1, 2500), st.sampled_from([1 << 16, (1 << 16) + 1, (1 << 17) + 5])),
        share=st.sampled_from([0.0, 0.02, 0.5, 0.98, 1.0]),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    @example(block=1, power=0.5, squares=False, n_rows=2, share=1.0, seed=0, data=None)
    @example(block=3, power=0.0, squares=True, n_rows=7, share=0.5, seed=1, data=None)
    @example(block=64, power=1.0, squares=False, n_rows=300, share=0.5, seed=4, data=None)
    @example(block=summability.BLOCK_ROWS, power=3.7, squares=False, n_rows=(1 << 16) + 1, share=0.5, seed=2, data=None)
    @example(block=summability.BLOCK_ROWS, power=1.0, squares=False, n_rows=(1 << 17) + 5, share=0.5, seed=5, data=None)
    @example(block=summability.BLOCK_ROWS, power=0.0, squares=False, n_rows=(1 << 17) + 5, share=0.02, seed=3, data=None)
    def test_blocks_equal_the_whole_series(self, block, power, squares, n_rows, share, seed, data) -> None:
        if squares:
            n_rows = 1 + n_rows % 60  # phi(j) = j*j keeps the membership short
        elif block < summability.BLOCK_ROWS:
            n_rows = 1 + n_rows % 2500  # short series cross small blocks often enough
        start = 1 if data is None else data.draw(st.integers(1, n_rows), label="start")
        A = TriangularMatrix("t", power, (lambda j: j * j) if squares else None)
        member = np.random.default_rng(seed).random(A.support_bound(n_rows) + 3) < share
        s = tail_start(n_rows)
        with mock.patch.object(summability, "BLOCK_ROWS", block):
            got = A.density_series(member, n_rows, start=start)
            extremes = A.tail_extremes(member, n_rows)
        want = _reference_density_series(A, member, n_rows, start)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
        assert extremes == _extremes(_reference_density_series(A, member, n_rows, s))

    @given(
        power=st.one_of(st.floats(-5.0, 800.0), st.sampled_from([0.0, 1.0, 40.0, 102.5, 400.0])),
        n=st.one_of(st.integers(1, 3000), st.integers(3000, 10**5)),
        near=st.sampled_from([None, "bound", "overflow"]),
        nudge=st.floats(-0.05, 0.05),
    )
    @example(power=400.0, n=5, near=None, nudge=0.0)
    @example(power=400.0, n=6, near=None, nudge=0.0)
    @example(power=60.0, n=10**5, near=None, nudge=0.0)
    def test_the_overflow_bound_skips_only_finite_sums(self, power, n, near, nudge) -> None:
        log_max = math.log(sys.float_info.max)
        if near == "bound" and n > 1:
            # the bound n ** (1 + power) about a factor e below the float range
            power = (log_max - 1.0) / math.log(n) - 1.0 + nudge
        elif near == "overflow" and n > 1:
            # the exact sum, about n ** (1 + power) / (1 + power), at the float range
            q = log_max / math.log(n)
            for _ in range(20):
                q = (log_max + math.log(q)) / math.log(n)
            power = q - 1.0 + nudge
        A = weighted_mean(power)
        passes = []
        sums = A._sums

        def counted(mem, n_rows, start=1):
            passes.append(n_rows)
            return sums(mem, n_rows, start)

        A._sums = counted
        exact = _exact_weight_sums(power, n)
        try:
            assert A.max_row_for(n) == n
        except ValueError as exc:
            first = int(np.argmin(np.isfinite(exact))) + 1
            assert str(exc) == f"weight sums for power {power} overflow from row {first}"
            assert passes == [n] and not np.isfinite(exact[-1])
        else:
            assert np.isfinite(exact[-1])  # skipped or passed, the sums are finite

    def test_one_weighted_query_holds_no_horizon_sized_buffer(self) -> None:
        N = 10**6
        ai_density(weighted_mean(1), Ideal.density_zero(cesaro1()), multiples(4, 0), 10**4)  # warm imports and caches
        tracemalloc.start()
        try:
            v = ai_density(weighted_mean(1), Ideal.density_zero(cesaro1()), multiples(4, 0), N)
            peak = tracemalloc.get_traced_memory()[1]
            kept = tracemalloc.take_snapshot().filter_traces([tracemalloc.Filter(True, summability.__file__)])
        finally:
            tracemalloc.stop()
        assert v.converged and v.value == pytest.approx(0.25, abs=1e-3)
        assert peak < 16 * 2**20, peak  # the whole A-series is 8 MB; the weights are read in blocks
        held = sum(stat.size for stat in kept.statistics("filename"))
        assert held < N, held  # nothing the size of the horizon, even one byte a row, outlives the query


@st.composite
def run_memberships(draw) -> tuple[int, np.ndarray]:
    """A row count and the member rows over it: random, thin, co-thin,
    periodic, empty or full."""
    n = draw(st.one_of(st.integers(1, 3000), st.sampled_from([1, 2, 3, 4])))
    kind = draw(st.sampled_from(["random", "thin", "co-thin", "periodic", "empty", "full"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    mem = np.zeros(n, dtype=bool)
    if kind == "random":
        mem = rng.random(n) < draw(st.sampled_from([0.02, 0.3, 0.5, 0.9]))
    elif kind in ("thin", "co-thin"):
        mem[rng.integers(0, n, size=draw(st.integers(1, 8)))] = True
        mem ^= kind == "co-thin"
    elif kind == "periodic":
        m = draw(st.integers(1, 7))
        mem = np.arange(n) % m == draw(st.integers(0, m - 1))
    elif kind == "full":
        mem[:] = True
    return n, mem


class TestRunEnds:
    """Exact-weight windows read at their run ends, against the block reader."""

    @given(
        rows=run_memberships(),
        power=st.sampled_from([0.0, 1.0]),
        squares=st.booleans(),
        block=st.sampled_from([1, 2, 3, 8, 64, summability.BLOCK_ROWS]),
        exact_rows=st.sampled_from([0, 1, 100, 1000, summability._EXACT_ROWS]),
    )
    @example(rows=(1, np.ones(1, dtype=bool)), power=1.0, squares=False, block=1, exact_rows=1)
    @example(rows=(7, np.arange(7) % 2 == 0), power=1.0, squares=False, block=3, exact_rows=1000)
    @example(rows=(2000, np.arange(2000) % 3 == 1), power=1.0, squares=False, block=64, exact_rows=1000)
    def test_run_ends_equal_the_block_reader(self, rows, power, squares, block, exact_rows) -> None:
        n, mem = rows
        squares = squares and power == 0 and n <= 60  # phi(j) = j*j keeps the membership short
        A = TriangularMatrix("t", power, (lambda j: j * j) if squares else None)
        member = np.zeros(A.support_bound(n) + 3, dtype=bool)
        member[(np.arange(1, n + 1) ** (2 if squares else 1))[mem] - 1] = True
        s = tail_start(n)
        window = mem[s - 1 :]
        runs = 1 + np.count_nonzero(window[1:] != window[:-1])
        with mock.patch.object(summability, "BLOCK_ROWS", block), mock.patch.object(summability, "_EXACT_ROWS", exact_rows):
            exact = A._exact(n)
            by_runs = A._run_extremes(mem, n, [s]) if exact else None
            by_blocks = _extremes(np.concatenate([b.copy() for b in A._blocks(mem, n, s)]))
            got = A.tail_extremes(member, n)
            series = A.density_series(member, n, start=s)
        assert exact == (power == 0 or n <= exact_rows)
        assert (by_runs is None) == (not exact or runs > block)
        hexes = lambda xs: tuple(map(float.hex, xs))
        if by_runs is not None:
            (low,), (high,), last, _ = by_runs
            assert hexes((low, high, last)) == hexes(by_blocks)
        assert hexes(got) == hexes(by_blocks)
        # the block reader, from row s under exact weights, is the whole chain's window
        want = _reference_density_series(A, member, n, s)
        assert series.tobytes() == want.tobytes()
        assert hexes(by_blocks) == hexes(_extremes(want))

    def test_a_weighted_fin_window_reads_one_block_of_run_arrays(self) -> None:
        """Read at its run ends, a weighted:1 window at N = 10^6 allocates at
        most one block's buffers beyond its membership: no run array holds
        more than ``BLOCK_ROWS`` entries, and no more than two are alive."""
        N = 10**6
        A, fin = weighted_mean(1), Ideal.fin()
        n = A.max_row_for(N)
        rng = np.random.default_rng(28)
        thin = np.zeros(N, dtype=bool)
        thin[rng.choice(N, summability.BLOCK_ROWS // 4, replace=False)] = True  # about BLOCK_ROWS / 4 runs in the window
        sets = [CUBES, ~SQUARES, finite_set([3, 17]), NO_INDICES, ALL_INDICES, multiples(1000, 7)]
        for member in [m.indicator(N) for m in sets] + [thin]:
            want = _extremes_verdict(*A.tail_extremes(member, n), 0.0, DEFAULT_TOL)  # warm
            tracemalloc.start()
            try:
                v = ai_density_is_null(A, fin, member, N)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert v == want
            assert peak <= 16 * summability.BLOCK_ROWS, peak


def _outcome(read) -> str:
    """The repr of a verdict, or the error a reading raised, so two readings
    compare bit for bit, refusals included."""
    try:
        return repr(read())
    except ValueError as exc:
        return f"ValueError: {exc}"


class TestSegmentReads:
    """A's series as a limit reads it (``SummMatrix._series``): per-segment
    extremes read at run ends or block by block, and rows built on demand,
    against the series built whole."""

    @given(
        rows=run_memberships(),
        power=st.sampled_from([0.0, 1.0]),
        cut=st.floats(0.0, 1.0),
        fill=st.sampled_from([None, False, True]),
        block=st.sampled_from([1, 2, 8, 64, summability.BLOCK_ROWS]),
        ladder=st.booleans(),
    )
    # several segments of few runs, a head that ends inside the window, and a window of one run
    @example(rows=(3000, np.arange(3000) % 700 < 9), power=1.0, cut=0.9, fill=True, block=summability.BLOCK_ROWS, ladder=True)
    @example(rows=(400, np.arange(400) < 50), power=0.0, cut=0.5, fill=False, block=64, ladder=True)
    @example(rows=(1, np.ones(1, dtype=bool)), power=1.0, cut=1.0, fill=None, block=1, ladder=True)
    def test_segment_extremes_equal_the_built_series(self, rows, power, cut, fill, block, ladder) -> None:
        n, mem = rows
        member = mem if fill is None else (mem[: round(cut * n)], fill)
        full = summability._member_array(member, n)
        A = TriangularMatrix("t", power)
        starts = summability._segments(n, Ideal.density_zero(cesaro1()) if ladder else Ideal.fin())
        r = starts[0]
        with mock.patch.object(summability, "BLOCK_ROWS", block):
            read = A._run_extremes(A._row_head(member, n), n, starts)
            series = A._series(member, n, starts)
            window, head = series.window(), series.head(starts[-1] - r)
        built = A.density_series(full, n, start=r)
        at = [t - r for t in starts]
        hexes = lambda xs: [float(x).hex() for x in xs]  # noqa: E731
        want = hexes(np.minimum.reduceat(built, at)), hexes(np.maximum.reduceat(built, at)), built[-1].hex()
        assert (hexes(series.lows), hexes(series.highs), series.last.hex()) == want
        assert window.tobytes() == built[at[-1] :].tobytes() and head.tobytes() == built[: at[-1]].tobytes()
        # run ends are read unless the head's rows from r on change at least the limit's count of times
        h = min(len(full) if fill is None else len(member[0]), n)
        changes = np.count_nonzero(full[r - 1 : h - 1] != full[r:h]) if h > r else 0
        limit = block if len(starts) == 1 else min(block, (n - r) // 16)
        assert (read is None) == (h > r and changes >= limit)
        if read is not None:
            assert (hexes(read[0]), hexes(read[1]), read[2].hex()) == want
            weights = np.arange(1, starts[-1], dtype=float) ** power
            assert read[3] == weights[full[: starts[-1] - 1]].sum()  # K before the window, exact

    DENSITY_KINDS = ["cesaro", "weighted:1", "weighted:0.5", "squares", "block:12", "identity"]

    @given(
        rows=run_memberships(),
        mspec=st.sampled_from(DENSITY_KINDS),
        ispec=st.sampled_from(["density:cesaro", "density:squares", "density:block:4"]),
        cut=st.floats(0.0, 1.0),
        fill=st.sampled_from([None, False, True]),
        block=st.sampled_from([1, 2, 8, 64, summability.BLOCK_ROWS]),
        tol=st.sampled_from([0.01, 0.05]),
    )
    @example(rows=(3000, np.arange(3000) % 997 < 5), mspec="cesaro", ispec="density:cesaro", cut=1.0, fill=None, block=64, tol=0.01)
    @example(rows=(3000, np.arange(3000) < 1500), mspec="weighted:1", ispec="density:block:4", cut=0.7, fill=True, block=8, tol=0.01)
    def test_density_verdicts_equal_the_built_series_reading(self, rows, mspec, ispec, cut, fill, block, tol) -> None:
        n, mem = rows
        N = max(n, 12)
        member = np.zeros(N, dtype=bool)
        member[:n] = mem
        if fill is not None:
            member = (member[: round(cut * N)], fill)
        A, ideal = matrix_from_spec(mspec), ideal_from_spec(ispec)
        with mock.patch.object(summability, "BLOCK_ROWS", block):
            y = A.density_series(member, A.max_row_for(N))
            whole = _limit_input(y, ideal)
            assert _outcome(lambda: ai_density(A, ideal, member, N, tol)) == _outcome(
                lambda: _ideal_limit(whole, ideal, _candidates(whole), tol)
            )
            assert _outcome(lambda: ai_density_is_null(A, ideal, member, N, tol)) == _outcome(
                lambda: _ideal_limit(_limit_input(y, ideal), ideal, (0.0,), tol)
            )

    def test_few_run_null_readings_build_no_series(self) -> None:
        """The visit sets of instance 20, eventually constant off the squares
        from 2500 on, have at most about 1,900 runs at N = 10^6: their density
        null readings read A at run ends, and every defect set they make is
        decided by its fill, so neither A nor B builds a series."""
        N, tol = 10**6, 0.02
        inst = generate_suite(5)[19]
        assert inst.family == "except-late-squares-density-ideal" and inst.ideal.name == "density-zero(cesaro)"
        A, ideal = inst.matrix, inst.ideal
        codes = inst.x.value_codes(N)
        built = []
        for M in (A, ideal.matrix):
            for name in ("density_series", "_blocks"):
                method = getattr(M, name)
                setattr(M, name, lambda *a, method=method, **kw: built.append(a) or method(*a, **kw))
        for points in ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)):
            member = np.isin(codes, points)
            ai_density_is_null(A, ideal, member, N, tol)  # warm
            tracemalloc.start()
            try:
                v = ai_density_is_null(A, ideal, member, N, tol)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert built == [], points
            assert peak <= 16 * summability.BLOCK_ROWS, (points, peak)
            assert repr(v) == repr(ideal_limit_at(cesaro1().density_series(member, N), ideal, 0.0, tol))

    @pytest.mark.parametrize("spec", ["cesaro", "weighted:1"])
    def test_an_unsettled_fin_density_reads_its_window_once(self, spec: str) -> None:
        """On the indices of [4^j, 2 * 4^j) that are even or in a random half,
        the fin density does not settle at its last value, so the median
        builds the window: once, from the members' weight before it that the
        run-end read summed, not summed again."""
        N = 10**6
        k = np.arange(1, N + 1)
        swing = k < 2 * 4 ** (np.floor(np.log2(k)).astype(np.int64) // 2)
        for member in (swing & (k % 2 == 0), swing & (np.random.default_rng(31).random(N) < 0.5)):
            A = matrix_from_spec(spec)
            blocks, carries = [], []
            block_reader, carry = A._blocks, A._carry
            A._blocks = lambda mem, n_rows, start, *a, **kw: blocks.append(start) or block_reader(mem, n_rows, start, *a, **kw)
            A._carry = lambda head, fill, rows: carries.append(rows) or carry(head, fill, rows)
            v = ai_density(A, Ideal.fin(), member, N)
            del A._blocks, A._carry
            assert v.status == INCONCLUSIVE
            assert blocks == [tail_start(N)] and carries == [tail_start(N) - 1]
            assert repr(v) == repr(ideal_limit(A.density_series(member, N), Ideal.fin()))


class TestLevelSeries:
    """Identity and block series read as level codes (``_LevelSeries``):
    defect sets keyed by level indices and medians from code counts, against
    the same readings of the float series built whole."""

    LEVEL_KINDS = ["identity", "block:1", "block:2", "block:12", "block:255", "block:256", "block:300"]

    @staticmethod
    def float_reads():
        """Identity and block matrices read through the float series built whole."""
        patches = [mock.patch.object(M, "_series", SummMatrix._series) for M in (IdentityMatrix, BlockMatrix)]
        stack = contextlib.ExitStack()
        for patch in patches:
            stack.enter_context(patch)
        return stack

    @given(
        rows=run_memberships(),
        mspec=st.sampled_from(LEVEL_KINDS),
        ispec=st.sampled_from(["fin", "density:cesaro", "density:identity", "density:block:4"]),
        cut=st.floats(0.0, 1.0),
        fill=st.sampled_from([None, False, True]),
        extra=st.integers(0, 3),
        tol=st.sampled_from([0.01, 0.05]),
    )
    # windows of odd and even length: 10 and 11 rows give 6 rows each, 12 gives 7
    @example(rows=(24, np.arange(24) % 3 == 0), mspec="block:2", ispec="density:cesaro", cut=1.0, fill=None, extra=0, tol=0.01)
    @example(rows=(22, np.arange(22) % 2 == 0), mspec="block:2", ispec="fin", cut=1.0, fill=None, extra=0, tol=0.01)
    @example(rows=(11, np.arange(11) % 2 == 0), mspec="identity", ispec="fin", cut=1.0, fill=None, extra=0, tol=0.01)
    @example(rows=(3000, np.arange(3000) < 1200), mspec="block:12", ispec="density:identity", cut=0.5, fill=True, extra=1, tol=0.01)
    def test_level_reads_equal_the_float_series_reading(self, rows, mspec, ispec, cut, fill, extra, tol) -> None:
        n, mem = rows
        A, ideal = matrix_from_spec(mspec), ideal_from_spec(ispec)
        N = max(n, A.support_bound(1), 10) + extra * A.support_bound(1)
        member = np.resize(mem, N)
        if fill is not None:
            member = (member[: round(cut * N)], fill)
        B = Ideal.density_zero(A)
        got = [
            _outcome(lambda: ai_density(A, ideal, member, N, tol)),
            _outcome(lambda: ai_density_is_null(A, ideal, member, N, tol)),
            _outcome(lambda: B.contains(member, N, tol)),
        ]
        with self.float_reads():
            rows_n = A.max_row_for(N)
            starts = summability._segments(rows_n, ideal)
            whole = summability._Series.of(A.density_series(member, rows_n, start=starts[0]), rows_n, starts)
            want = [
                _outcome(lambda: _ideal_limit(whole, ideal, _candidates(whole), tol)),
                _outcome(lambda: _ideal_limit(whole, ideal, (0.0,), tol)),
                _outcome(lambda: B.contains(member, N, tol)),
            ]
            # the block counts, divided, are the member counts of each block divided
            full = summability._member_array(member, A.support_bound(rows_n))
            counted = np.count_nonzero(full.reshape(rows_n, -1), axis=1) / (len(full) // rows_n)
            assert A.density_series(member, rows_n).tobytes() == counted.tobytes()
        assert got == want

    @pytest.mark.parametrize("m", [1, 2, 12, 255, 256, 300])
    def test_block_counts_take_the_least_type_that_holds_m(self, m: int) -> None:
        A = BlockMatrix(m)
        counts = A._counts(np.ones(4 * m, dtype=bool), 4, 2)
        assert counts.dtype == np.min_scalar_type(m) and counts.tolist() == [m] * 3
        assert A.density_series(EVENS, 4).dtype == np.float64

    def test_median_and_nearest_deviation_read_the_level_counts(self) -> None:
        # a window of rows 3..6 (codes 0, 2, 2, 3): the two middle ones average
        levels = [0.0, 0.25, 0.5, 1.0]
        series = summability._LevelSeries(levels, np.array([3, 1, 0, 2, 2, 3], dtype=np.uint8), 6, [1, 3])
        assert series.median() == 0.5 == float(np.median([0.0, 0.5, 0.5, 1.0]))
        assert series.nearest(0.3) == abs(0.5 - 0.3) and series.nearest(0.1) == 0.1 and series.nearest(0.5) == 0.0
        assert (series.lows, series.highs, series.last) == ([0.25, 0.0], [1.0, 1.0], 1.0)
        # levels 0.25 never occurs in the window: ranks skip it
        odd = summability._LevelSeries(levels, np.array([0, 0, 3, 3, 0], dtype=np.uint8), 5, [3])
        assert odd.median() == 0.0 and odd.nearest(0.3) == 0.3

    def test_identity_codes_are_the_membership_itself(self) -> None:
        # block:1's member counts are the membership viewed as bytes: no copy
        n = 1000
        mem = EVENS.indicator(n)
        for starts in ([1], [1, 3, 501], [tail_start(n)]):
            codes = IdentityMatrix()._series(mem, n, starts).codes
            assert codes.dtype == np.uint8 and np.shares_memory(codes, mem)
            assert codes.tolist() == mem[starts[0] - 1 :].tolist()

    def test_a_head_of_another_kind_is_read_as_bool(self) -> None:
        # level codes view the membership as bytes, so a head of counts must not reach them as is
        head = np.array([2, 0, 1], dtype=np.int64)
        for n in (2, 5):
            arr = summability._member_array((head, True), n)
            assert arr.dtype == bool and arr.tolist() == [True, False, True, True, True][:n]
        assert IdentityMatrix().tail_extremes((head, False), 3) == (0.0, 1.0, 1.0)

    def test_an_identity_density_ideal_query_builds_no_float_rows(self, monkeypatch) -> None:
        """An identity A under density:cesaro at 10^6 keys every defect set by
        level indices and takes the median from code counts: no float head
        or window of A's series is built."""

        def no_rows(*args, **kwargs):
            raise AssertionError("a float row of A's series was built")

        N, A, ideal = 10**6, IdentityMatrix(), Ideal.density_zero(cesaro1())
        want = [repr(ai_density(A, ideal, S, N)) for S in (SQUARES, ~SQUARES, EVENS)]
        monkeypatch.setattr(summability._Series, "head", no_rows)
        monkeypatch.setattr(summability._Series, "window", no_rows)
        monkeypatch.setattr(IdentityMatrix, "density_series", no_rows)
        assert [repr(ai_density(A, ideal, S, N)) for S in (SQUARES, ~SQUARES, EVENS)] == want
        assert ai_density(A, ideal, ~SQUARES, N).value == 1.0


@st.composite
def periodic_rows(draw) -> tuple[np.ndarray, int, np.ndarray]:
    """Member rows 1..n that repeat a pattern of p <= 64 rows from row r on,
    after rows of any marks, with r the first row a limit under the drawn
    ideal reads: (rows, r, pattern)."""
    p = draw(st.integers(1, periodic._PERIOD_MAX))
    pattern = np.array(draw(st.lists(st.booleans(), min_size=p, max_size=p)))
    n = draw(st.integers(2 * periodic._PERIOD_MAX, 6000))
    r = draw(st.sampled_from([1, tail_start(n)]))
    before = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random(r - 1) < draw(st.floats(0.0, 1.0))
    return np.concatenate([before, np.resize(pattern, n - r + 1)]), r, pattern


class TestPeriodicSeries:
    """Series of weights 1 whose member rows repeat with a short period, read
    in closed form one residue class at a time (``_PeriodicSeries``), against
    the same readings of the float series built whole."""

    @given(
        drawn=periodic_rows(),
        squares=st.booleans(),
        targets=st.lists(st.floats(-0.1, 1.1), max_size=3),
        cuts=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
        block=st.sampled_from([16, summability.BLOCK_ROWS]),
    )
    @example(drawn=(np.arange(1, 201) % 2 == 0, 1, np.array([False, True])), squares=False, targets=[0.5], cuts=[0.0, 1.0], block=16)
    def test_periodic_reads_equal_the_float_series_reading(self, drawn, squares, targets, cuts, block) -> None:
        rows, r, pattern = drawn
        n = len(rows)
        A = squares_rows() if squares else cesaro1()
        if squares:
            member = np.zeros(n * n, dtype=bool)
            member[np.arange(1, n + 1) ** 2 - 1] = rows
        else:
            member = rows
        starts = summability._segments(n, Ideal.fin() if r > 1 else Ideal.density_zero(cesaro1()))
        assert starts[0] == r
        whole = summability._Series.of(A.density_series(member, n, start=r), n, starts)
        with mock.patch.object(summability, "BLOCK_ROWS", block):
            head = A._row_head(member, n)
            series = periodic._PeriodicSeries(pattern, A._carry(*head, r - 1), n, starts)
            assert (series.lows, series.highs, series.last) == (whole.lows, whole.highs, whole.last)
            assert series.median() == float(np.median(whole.window()))
            c = np.count_nonzero(pattern) / len(pattern)
            window = whole.window()
            for t in [c, *targets, *np.random.default_rng(n).choice(window, 2).tolist()]:
                assert series.nearest(t) == float(np.abs(window - t).min())
            seen: dict = {}
            for t in [c, *targets, 0.0, 0.5, 1.0]:
                for eps in _eps_grid(0.01):
                    lo, hi = _defect_bounds(t, eps)
                    for m in sorted({round(cut * (n - r + 1)) for cut in cuts}):
                        key, marks = series.defects(lo, hi, m)
                        got, want = marks(), whole.defects(lo, hi, m)[1]()
                        assert got.tobytes() == want.tobytes()
                        assert seen.setdefault(key, got.tobytes()) == got.tobytes()
            # the least period of the rows from r on, found on their prefix and checked on all of them
            least = periodic._period(head, r, n)
            if pattern.all() or not pattern.any() or n - r + 1 < 2 * periodic._PERIOD_MAX:
                assert least is None
            else:
                assert least is not None and len(pattern) % len(least) == 0
                assert np.resize(least, len(pattern)).tolist() == pattern.tolist()

    def test_median_where_products_may_pass_int64_is_read_from_the_window(self) -> None:
        n, A = 3000, cesaro1()
        starts = summability._segments(n, Ideal.fin())
        rows = np.resize(np.array([True, False, False, True, True]), n)
        whole = summability._Series.of(A.density_series(rows, n, start=starts[0]), n, starts)
        with mock.patch.object(summability, "BLOCK_ROWS", 16):
            series = periodic._PeriodicSeries(rows[starts[0] - 1 : starts[0] + 4], A._carry(rows, False, starts[0] - 1), n, starts)
            for bound in (periodic._EXACT_PRODUCTS, 0):
                with mock.patch.object(periodic, "_EXACT_PRODUCTS", bound):
                    assert series.median() == float(np.median(whole.window()))

    def test_period_is_checked_on_every_row(self) -> None:
        n = 1000
        evens = EVENS.indicator(n)
        assert periodic._period((evens, False), 1, n).tolist() == [False, True]
        late = evens.copy()
        late[n - 2] = True  # one odd member, past the prefix the period is found on
        assert periodic._period((late, False), 1, n) is None
        # rows fewer than the prefix, one run, and a long fill are left to run ends
        assert periodic._period((evens, False), n - 100, n) is None
        assert periodic._period((np.ones(n, dtype=bool), False), 1, n) is None
        assert periodic._period((evens[:900], True), 1, n) is None
        # a short fill is read with the head: it repeats when it continues the pattern
        assert periodic._period((evens[: n - 1], True), 1, n).tolist() == [False, True]
        assert periodic._period((evens[: n - 2], True), 1, n) is None

    @staticmethod
    def no_periods():
        """The readers as they are without the periodic read."""
        return mock.patch.object(periodic, "_period", lambda rows, r, n: None)

    @given(
        spec=st.sampled_from(["evens", "odds", "mod:3,1", "mod:4,0", "mod:12,5", "not:mod:5,2", "all"]),
        extra=st.sampled_from([None, "squares", "finite:3,40"]),
        mspec=st.sampled_from(["cesaro", "squares", "weighted:0", "weighted:1"]),
        ispec=st.sampled_from(["fin", "density:cesaro", "density:squares", "density:weighted:0"]),
        N=st.sampled_from([1000, 20000, 150000]),
        block=st.sampled_from([16, summability.BLOCK_ROWS]),
    )
    def test_verdicts_equal_those_without_the_periodic_read(self, spec, extra, mspec, ispec, N, block) -> None:
        member = index_set_from_spec(spec)
        if extra is not None:
            member = member | index_set_from_spec(extra)
        A, ideal = matrix_from_spec(mspec), ideal_from_spec(ispec)

        def readings() -> list:
            return [
                _outcome(lambda: ai_density(A, ideal, member, N)),
                _outcome(lambda: ai_density_is_null(A, ideal, member, N)),
                _outcome(lambda: Ideal.density_zero(A).contains(member, N)),
            ]

        with mock.patch.object(summability, "BLOCK_ROWS", block):
            got = readings()
            with self.no_periods():
                assert readings() == got

    def test_periodic_sets_build_no_series_at_a_million_rows(self, monkeypatch) -> None:
        """cesaro under density:cesaro on residue classes, and the Cauchy
        detector on a sequence alternating on the evens, read every series in
        closed form: no triangular block is built.  Weights j are not read by
        period: their answers and the blocks they build are unchanged."""
        from pmstat.cli import sequence_from_spec, space_from_spec
        from pmstat.convergence import ai_stat_cauchy_detect

        N, A, ideal = 10**6, cesaro1(), Ideal.density_zero(cesaro1())
        space = space_from_spec("equilateral:3:eps:0.5")

        def read() -> list[Verdict]:
            x = sequence_from_spec(space, "alternate:a,b:evens")
            return [ai_density(A, ideal, EVENS, N), ai_density(A, ideal, multiples(4, 0), N), ai_stat_cauchy_detect(x, A, ideal, N)]

        with self.no_periods():
            want = read()
        built: list[tuple[int, int]] = []
        blocks = TriangularMatrix._blocks

        def counted(self, mem, n_rows, start, out=None, carry=None):
            built.append((n_rows, start))
            return blocks(self, mem, n_rows, start, out, carry)

        monkeypatch.setattr(TriangularMatrix, "_blocks", counted)
        got = read()
        assert got == want and built == []
        assert [(v.status, v.value) for v in got] == [(CONVERGED, 0.5), (CONVERGED, 0.249999500001), (DIVERGED, "b")]

        W = weighted_mean(1)
        for S in (EVENS, multiples(3, 1)):
            built.clear()
            got = ai_density(W, ideal, S, N)
            paths, built[:] = built[:], []
            with self.no_periods():
                assert ai_density(W, ideal, S, N) == got
            assert built == paths and paths


class TestHeadAndFill:
    """A membership given as ``(head, fill)``, the marks of indices 1..m and
    the membership of every later index, against its materialised array."""

    KINDS = ["cesaro", "weighted:1", "squares", "weighted:0.5", "block:12", "identity"]

    @given(
        rows=run_memberships(),
        mspec=st.sampled_from(KINDS),
        cut=st.floats(0.0, 1.0),
        fill=st.booleans(),
        block=st.sampled_from([1, 2, 8, 64, summability.BLOCK_ROWS]),
        tol=st.sampled_from([0.01, 0.05, 0.2]),
    )
    # windows of more runs than a block has rows, past a head that covers
    # them all, part of them or none of them
    @example(rows=(2000, np.arange(2000) % 2 == 0), mspec="cesaro", cut=1.0, fill=False, block=8, tol=0.01)
    @example(rows=(2000, np.arange(2000) % 3 == 1), mspec="weighted:1", cut=0.8, fill=True, block=64, tol=0.01)
    @example(rows=(2000, np.arange(2000) % 2 == 1), mspec="cesaro", cut=0.3, fill=True, block=2, tol=0.01)
    # a head that ends at the window's first row, and an empty head
    @example(rows=(400, np.arange(400) < 50), mspec="cesaro", cut=0.5, fill=True, block=summability.BLOCK_ROWS, tol=0.01)
    @example(rows=(400, np.zeros(400, dtype=bool)), mspec="squares", cut=0.0, fill=True, block=summability.BLOCK_ROWS, tol=0.01)
    def test_contains_reads_the_pair_as_its_array(self, rows, mspec, cut, fill, block, tol) -> None:
        n, mem = rows
        m = round(cut * n)
        full = mem.copy()
        full[m:] = fill
        ideal = ideal_from_spec(f"density:{mspec}")
        with mock.patch.object(summability, "BLOCK_ROWS", block):
            want = _outcome(lambda: ideal.contains(full, n, tol))
            got = _outcome(lambda: ideal.contains((mem[:m], fill), n, tol))
        assert got == want

    @given(
        rows=run_memberships(),
        mspec=st.sampled_from(KINDS),
        tol=st.sampled_from([0.001, 0.01, 0.05, 0.2]),
    )
    # the last value settles a decaying series; the identity's 0/1 window does not
    @example(rows=(3000, np.arange(3000) < 40), mspec="cesaro", tol=0.01)
    @example(rows=(3000, np.arange(3000) % 2 == 0), mspec="identity", tol=0.01)
    # the last value 0.3 of this Cesaro window (0.27 to 0.38) does not
    # converge at tol 0.02, and the tail median 0.3125 does
    @example(rows=(20, np.array([c == "1" for c in "00001110000110000010"])), mspec="cesaro", tol=0.02)
    # blocks of 9 members in 12, one empty block at the window's first row,
    # and 10 in the last: the last value 10/12 is more than 4 * tol above the
    # window's low 0, so it does not converge, and the tail median 9/12 does
    @example(
        rows=(480, np.concatenate([np.arange(12) < c for c in [9] * 19 + [0] + [9] * 19 + [10]])),
        mspec="block:12",
        tol=0.2,
    )
    def test_fin_density_is_the_limit_of_the_built_window(self, rows, mspec, tol) -> None:
        n, mem = rows
        N = max(n, 12)
        member = np.zeros(N, dtype=bool)
        member[:n] = mem
        A = matrix_from_spec(mspec)
        want = _outcome(lambda: ideal_limit(a_density_partial(A, member, A.max_row_for(N)), Ideal.fin(), tol))
        assert _outcome(lambda: ai_density(A, Ideal.fin(), member, N, tol)) == want


class TestRegularity:
    def test_cesaro_is_regular(self) -> None:
        rep = check_regularity(cesaro1(), 10_000, 2e-3)
        assert rep.ok
        assert rep["bounded-row-norms"].residual == 0.0
        assert rep["columns-vanish"].residual == pytest.approx(2e-4)
        assert rep["row-sums-to-one"].residual == 0.0
        assert rep.horizon == 10_000

    def test_identity_is_regular(self) -> None:
        rep = check_regularity(IdentityMatrix(), 10_000, 2e-3)
        assert rep.ok
        assert rep["columns-vanish"].residual == 0.0

    def test_constant_column_fails_vanishing(self) -> None:
        rep = check_regularity(ConstantColumnMatrix(), 10_000, 2e-3)
        assert not rep.ok
        cond = rep["columns-vanish"]
        assert not cond.passed
        assert cond.residual == 1.0
        assert rep["row-sums-to-one"].passed
        assert rep["bounded-row-norms"].passed

    def test_report_access(self) -> None:
        rep = check_regularity(cesaro1(), 1000, 1e-2)
        assert rep.to_json()["ok"] is True
        with pytest.raises(KeyError):
            rep["nonexistent"]

    def test_small_horizon_rejected(self) -> None:
        with pytest.raises(ValueError, match="at least 10"):
            check_regularity(cesaro1(), 5)

    @pytest.mark.parametrize(
        "spec", ["cesaro", "squares", "weighted:1", "weighted:0.5", "weighted:2", "weighted:-0.5", "weighted:-1", "weighted:3.7"]
    )
    def test_triangular_kinds_build_only_the_row_sums(self, spec: str) -> None:
        # each column {k}, k <= 25, has no member in the tail window, which
        # a triangular matrix reads without its series
        A = matrix_from_spec(spec)
        built, read = [], []
        series, blocks = A.density_series, A._blocks

        def counted(member, n_rows, **window):
            built.append(member)
            return series(member, n_rows, **window)

        def counted_blocks(mem, n_rows, start, out=None):
            read.append(start)
            return blocks(mem, n_rows, start, out)

        A.density_series, A._blocks = counted, counted_blocks
        check_regularity(A, 10**4)
        assert built == [ALL_INDICES]
        assert read == [1]  # the row sums' series, and no column's window

    @staticmethod
    def _brute_regularity(A: SummMatrix, horizon: int, tol: float) -> list[tuple[str, bool, float, float]]:
        """The three conditions straight from ``row``."""
        rows = min(horizon, A.max_row_for(horizon))
        w0 = tail_start(rows)
        entries = [dict(A.row(n)) for n in range(1, rows + 1)]
        abs_sums = [sum(abs(a) for a in row.values()) for row in entries]
        running = np.maximum.accumulate(abs_sums)
        growth = float(running[-1] - running[w0 - 1])
        worst = max(
            abs(row.get(k, 0.0))
            for k in range(1, min(REGULARITY_COLUMNS, rows) + 1)
            for row in entries[w0 - 1 :]
        )
        sums = [sum(row.values()) for row in entries]
        res = max(abs(s - 1.0) for s in sums[w0 - 1 :])
        return [
            ("bounded-row-norms", growth <= tol, growth, float(running[-1])),
            ("columns-vanish", worst <= tol, worst, worst),
            ("row-sums-to-one", res <= tol, res, sums[-1]),
        ]

    @pytest.mark.parametrize(
        "spec",
        ["cesaro", "identity", "constcol", "squares", "block:1", "block:7",
         "weighted:0", "weighted:1", "weighted:0.5", "weighted:2", "weighted:-0.5"],
    )
    def test_conditions_match_brute_force(self, spec: str) -> None:
        A = matrix_from_spec(spec)
        rep = check_regularity(A, 200, 0.01)
        assert rep.horizon == min(200, A.max_row_for(200))
        expected = self._brute_regularity(A, 200, 0.01)
        for cond, (name, passed, residual, value) in zip(rep.conditions, expected):
            assert cond.name == name
            assert cond.passed == passed, name
            assert cond.residual == pytest.approx(residual, rel=1e-12, abs=1e-12), name
            assert cond.value == pytest.approx(value, rel=1e-12, abs=1e-12), name

    def test_explicit_matrix_conditions_match_brute_force(self) -> None:
        regular = [[1.0], [0.5, 0.5], [0.0, 0.25, 0.75]] + [[0.0] * (n - 2) + [0.5, 0.5] for n in range(4, 21)]
        # row sums 2, 3, 1, 2, 3, 1, ...: the running sup differs from the sums
        uneven = [[(1 + n % 3) / n] * n for n in range(1, 21)]
        for rows in (regular, uneven):
            A = ExplicitMatrix(rows)
            rep = check_regularity(A, 20, 0.01)
            expected = self._brute_regularity(A, 20, 0.01)
            assert [(c.name, c.passed, c.residual, c.value) for c in rep.conditions] == expected


class TestIdeals:
    def test_fin_has_no_membership_verdict(self) -> None:
        # a fin limit is tail stabilization, read by the limit code alone
        for member in (finite_set([3, 5]), EVENS, finite_set([150])):
            with pytest.raises(ValueError, match="fin limit is tail stabilization"):
                Ideal.fin().contains(member, 200)

    def test_finite_rule_window_starts_at_the_tail_start(self) -> None:
        # index 100 = tail_start(200) is in rule 2's window, so {100} is not
        # read as finite: the identity B's window reads 1 at row 100 and 0
        # at row 200, which is inconclusive
        assert tail_start(200) == 100
        v = Ideal.density_zero(IdentityMatrix()).contains(finite_set([100]), 200)
        assert v.status == INCONCLUSIVE

    def test_density_ideal_membership(self) -> None:
        ideal = Ideal.density_zero(cesaro1())
        assert ideal.contains(SQUARES, 10_000).status == CONVERGED
        assert ideal.contains(EVENS, 10_000).status == DIVERGED

    @pytest.mark.parametrize("spec", ["constcol", "weighted:-2", "weighted:-1.5", "weighted:-1.0001"])
    def test_density_ideal_with_a_column_that_does_not_vanish_is_refused(self, spec: str) -> None:
        # constcol keeps column 1 at 1; weights j**p with p < -1 have a finite
        # sum, so column 1 tends to 1 / sum_j j**p: {1} would not be null
        assert matrix_from_spec(spec).nonvanishing_column() == 1
        with pytest.raises(ValueError, match="not admissible: column 1 does not tend to 0"):
            ideal_from_spec(f"density:{spec}")

    def test_an_ideal_is_its_matrix_alone(self) -> None:
        # kind and name are read from B, so they cannot contradict it
        assert [f.name for f in dataclasses.fields(Ideal)] == ["matrix"]
        assert Ideal.fin() == Ideal() and Ideal.density_zero(cesaro1()).matrix.name == "cesaro"
        with pytest.raises(TypeError):
            Ideal("density", "x")

    def test_inadmissible_density_ideal_is_refused_where_built(self) -> None:
        # built directly, not through density_zero or a spec
        with pytest.raises(ValueError, match="not admissible: column 1 does not tend to 0"):
            Ideal(ConstantColumnMatrix())

    @pytest.mark.parametrize(
        "spec", ["cesaro", "identity", "squares", "block:4", "weighted:-1", "weighted:-0.5", "weighted:0", "weighted:2"]
    )
    def test_density_ideal_of_a_regular_kind_is_accepted(self, spec: str) -> None:
        # weighted:-1 is regular, though its column 1 decays only like 1/ln n
        assert matrix_from_spec(spec).nonvanishing_column() is None
        ideal = ideal_from_spec(f"density:{spec}")
        assert ideal.kind == "density"
        # an admissible ideal contains every finite set (Fin is a subset of I)
        assert ideal.contains(finite_set([1]), 10**4).converged

    @pytest.mark.parametrize("horizon", [10**4, 10**6])
    def test_slow_column_reads_a_finite_set_as_finite(self, horizon: int) -> None:
        # column 1 of weighted:-1 decays like 1/ln n, so its tail window
        # alone reads {1} as diverged; no member past the window start
        # makes it converge with residual 0
        B = weighted_mean(-1)
        raw = _extremes_verdict(*B.tail_extremes(finite_set([1]), B.max_row_for(horizon)), 0.0, DEFAULT_TOL)
        assert raw.status == DIVERGED
        v = Ideal.density_zero(B).contains(finite_set([1]), horizon)
        assert v.converged and v.residual == 0.0
        assert (v.tail_low, v.tail_high) == (raw.tail_low, raw.tail_high)

    @pytest.mark.parametrize("horizon", [0, -3])
    def test_horizon_below_one_is_refused(self, horizon: int) -> None:
        for ideal in (Ideal.fin(), Ideal.density_zero(cesaro1())):
            with pytest.raises(ValueError, match="horizon must be at least 1"):
                ideal.contains(EVENS, horizon)

    def test_empty_set_reads_zero_with_no_series(self) -> None:
        B = ExplicitMatrix([[1.0], [0.5, 0.5]])
        B.density_series = B.tail_extremes = None  # any series would raise
        v = Ideal.density_zero(B).contains(np.zeros(10, dtype=bool), 10)
        assert v.to_json() == Verdict(CONVERGED, 0.0, 0.0, DEFAULT_TOL, 0.0, 0.0).to_json()

    def test_spec_parsing(self) -> None:
        fin = ideal_from_spec("fin")
        assert (fin.kind, fin.name, fin.matrix) == ("fin", "fin", None)
        ideal = ideal_from_spec("density:cesaro")
        assert ideal.kind == "density"
        assert ideal.name == "density-zero(cesaro)"
        assert ideal_from_spec(" density-zero(block:4) ").matrix.name == "block:4"
        for bad in ("maximal", "density-zero(cesaro", "density-zero()"):
            with pytest.raises(ValueError, match="cannot parse"):
                ideal_from_spec(bad)


class TestTies:
    """Each boundary of the verdict rules, held at an exact tie."""

    def test_a_window_spread_of_exactly_settle_factor_tol_converges(self) -> None:
        assert SETTLE_FACTOR * 0.25 == 1.0
        assert _extremes_verdict(0.0, 1.0, 0.0, 0.0, 0.25).status == CONVERGED
        assert _extremes_verdict(0.0, 1.5, 0.0, 0.0, 0.25).status == INCONCLUSIVE

    def test_a_tail_low_equal_to_tol_is_thin(self) -> None:
        assert not nonthin(Verdict(DIVERGED, 0.0, 0.5, 0.25, tail_low=0.25, tail_high=0.5))
        assert nonthin(Verdict(DIVERGED, 0.0, 0.5, 0.25, tail_low=0.2500001, tail_high=0.5))


class TestDensities:
    def test_partial_densities_basic(self) -> None:
        y = a_density_partial(cesaro1(), EVENS, 1000)
        assert y[-1] == 0.5
        with pytest.raises(ValueError, match="at least one row"):
            a_density_partial(cesaro1(), EVENS, 0)

    def test_membership_array_must_cover_support(self) -> None:
        with pytest.raises(ValueError, match="covers only"):
            a_density_partial(squares_rows(), np.ones(50, dtype=bool), 10)

    def test_ordinary_limit_verdicts(self) -> None:
        fin = Ideal.fin()
        decaying = 1.0 / np.arange(1, 101)
        assert ideal_limit_at(decaying, fin, 0.0, 0.01).status == CONVERGED
        stuck = np.full(100, 0.3)
        v = ideal_limit_at(stuck, fin, 0.0, 0.01)
        assert v.status == DIVERGED
        assert v.tail_low == pytest.approx(0.3)
        flicker = np.where(np.arange(1, 101) % 2 == 0, 0.2, 0.0)
        assert ideal_limit_at(flicker, fin, 0.0, 0.01).status == INCONCLUSIVE

    def test_density_ideal_forgives_sparse_spikes(self) -> None:
        # unit spikes on the squares: no ordinary limit, but the defect
        # rows form a density-zero set, so the ideal limit is 0
        n = 10_000
        y = SQUARES.indicator(n).astype(float)
        fin_v = ideal_limit_at(y, Ideal.fin(), 0.0, 0.02)
        assert fin_v.status != CONVERGED
        ideal = Ideal.density_zero(cesaro1())
        v = ideal_limit_at(y, ideal, 0.0, 0.02)
        assert v.status == CONVERGED
        assert v.detail  # per-epsilon breakdown is recorded

    def test_finite_prefix_is_invisible_to_density_ideal_at_horizon(self) -> None:
        # honest finite-horizon limitation: a genuinely finite set whose
        # members sit at the start still dominates half the defect rows,
        # so its density-zero verdict cannot converge by horizon 10^4
        ideal = Ideal.density_zero(cesaro1())
        v = ai_density_is_null(cesaro1(), ideal, index_block(1, 101), 10_000, 0.02)
        assert v.status != CONVERGED

    def test_late_sparse_set_is_null_under_density_ideal(self) -> None:
        late_squares = SQUARES & IndexSet("late", lambda n: np.arange(1, n + 1) >= 2500)
        ideal = Ideal.density_zero(cesaro1())
        v = ai_density_is_null(cesaro1(), ideal, late_squares, 10_000, 0.02)
        assert v.status == CONVERGED

    # Triples whose density exists but whose partial densities carry a
    # start-up transient that outweighs tol at N = 10^6: 1000 squares rows,
    # or 83k blocks of 12 spiking on the squares.  (matrix, set, closed form)
    TRANSIENT_TRIPLES = [
        ("squares", "evens", 1 / 2),
        ("squares", "odds", 1 / 2),
        ("squares", "mod:3,1", 2 / 3),
        ("squares", "mod:4,0", 1 / 2),
        ("squares", "cubes", 0.0),
        ("squares", "pow2", 0.0),
        ("squares", "mod:3,1&evens", 1 / 3),
        ("block:12", "squares", 0.0),
        ("block:12", "not:squares", 1.0),
    ]

    @pytest.mark.parametrize("mspec,sspec,closed", TRANSIENT_TRIPLES, ids=lambda v: str(v))
    def test_density_ideal_does_not_diverge_on_a_transient(self, mspec, sspec, closed) -> None:
        if "&" in sspec:
            left, right = sspec.split("&")
            member = index_set_from_spec(left) & index_set_from_spec(right)
        else:
            member = index_set_from_spec(sspec)
        v = ai_density(matrix_from_spec(mspec), ideal_from_spec("density:cesaro"), member, 10**6, 0.01)
        assert v.status != DIVERGED
        if mspec == "squares":
            # every defect row sits before the tail window: a finite set,
            # which the admissible density-zero ideal contains
            assert v.status == CONVERGED
        if v.converged:
            assert abs(float(v.value) - closed) <= 0.01

    def test_density_ideal_still_rejects_a_non_null_set(self) -> None:
        ideal = ideal_from_spec("density:cesaro")
        assert ai_density_is_null(squares_rows(), ideal, EVENS, 10**6, 0.01).status == DIVERGED
        assert ai_density_is_null(cesaro1(), ideal, EVENS, 10_000, 0.02).status == DIVERGED

    def test_validation(self) -> None:
        with pytest.raises(ValueError, match="nonempty"):
            ideal_limit_at(np.array([]), Ideal.fin(), 0.0)
        with pytest.raises(ValueError, match="at least 10"):
            ai_density(cesaro1(), Ideal.fin(), EVENS, horizon=5)

    @pytest.mark.parametrize("tol", [float("nan"), -0.5])
    def test_nan_or_negative_tol_is_refused(self, tol: float) -> None:
        # once an inconclusive and a diverged answer, for sets of density 1/2 and 0
        with pytest.raises(ValueError, match="tol must be a number >= 0"):
            ai_density(cesaro1(), Ideal.fin(), EVENS, 1000, tol)
        with pytest.raises(ValueError, match="tol must be a number >= 0"):
            ai_density_is_null(cesaro1(), Ideal.fin(), SQUARES, 1000, tol)
        with pytest.raises(ValueError, match="tol must be a number >= 0"):
            ai_density_is_null(cesaro1(), Ideal.density_zero(cesaro1()), SQUARES, 1000, tol)
        with pytest.raises(ValueError, match="tol must be a number >= 0"):
            check_regularity(cesaro1(), 100, tol)

    def test_limit_search_finds_value(self) -> None:
        y = 0.5 + 1.0 / np.arange(1, 2001)
        v = ideal_limit(y, Ideal.fin(), 0.01)
        assert v.converged
        assert abs(float(v.value) - 0.5) < 0.01

    def test_limit_search_rejects_bad_input(self) -> None:
        with pytest.raises(ValueError, match="one-dimensional"):
            ideal_limit(np.array([[1.0]]), Ideal.fin())
        with pytest.raises(ValueError, match="nonempty"):
            ideal_limit(np.array([]), Ideal.fin())

    @pytest.mark.parametrize("spec", ["fin", "density:cesaro", "density:weighted:1"])
    def test_non_finite_sequences_rejected(self, spec: str) -> None:
        ideal = ideal_from_spec(spec)
        with pytest.raises(ValueError, match=r"finite, got nan at row 1\b"):
            ideal_limit_at(np.full(1000, np.nan), ideal, 0.0)
        with pytest.raises(ValueError, match=r"finite, got nan at row 1\b"):
            ideal_limit_at(np.full(1000, np.nan), ideal, 0.7)
        # a single bad row anywhere, even before the tail a fin limit reads
        for row, bad in ((1000, np.nan), (3, np.inf), (500, -np.inf)):
            y = np.full(1000, 0.5)
            y[row - 1] = bad
            with pytest.raises(ValueError, match=rf"finite, got {bad} at row {row}\b"):
                ideal_limit(y, ideal)

    @pytest.mark.parametrize("spec", ["fin", "density:cesaro", "density:weighted:1"])
    @pytest.mark.parametrize("target", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_targets_rejected(self, spec: str, target: float) -> None:
        # a NaN target once converged under a density ideal with value nan and
        # residual 0.0, and read inconclusive with residual nan under fin
        with pytest.raises(ValueError, match=rf"target must be finite, got {target}$"):
            ideal_limit_at(np.full(100, 0.5), ideal_from_spec(spec), target)

    def test_ai_density_of_evens_is_half(self) -> None:
        v = ai_density(cesaro1(), Ideal.fin(), EVENS)
        assert v.converged
        assert float(v.value) == pytest.approx(0.5, abs=1e-3)

    def test_null_and_full_are_complementary(self) -> None:
        fin = Ideal.fin()
        assert ai_density_is_null(cesaro1(), fin, SQUARES).converged
        # at exactly 10^4 rows the deviation is 0.01 + one float ulp, a
        # knife edge against tol 0.01; one extra row clears it honestly
        assert ai_density_is_full(cesaro1(), fin, ~SQUARES, horizon=10_001).converged
        assert not ai_density_is_null(cesaro1(), fin, EVENS).converged

    @pytest.mark.parametrize("spec", ["fin", "density:cesaro"])
    def test_array_reads_the_rows_of_the_horizon(self, spec: str) -> None:
        # every member lies past the horizon, so rows 1..10^4 are all zero
        late = np.zeros(20_000, dtype=bool)
        late[10_000:] = True
        ideal = ideal_from_spec(spec)
        assert ai_density_is_null(cesaro1(), ideal, late, horizon=10_000).converged
        v = ai_density(cesaro1(), ideal, late, horizon=10_000)
        assert v.converged and v.value == 0.0

    def test_short_array_is_rejected(self) -> None:
        short = np.zeros(5_000, dtype=bool)
        for verdict in (ai_density, ai_density_is_null, ai_density_is_full):
            with pytest.raises(ValueError, match="length 5000 does not cover index 10000"):
                verdict(cesaro1(), Ideal.fin(), short, horizon=10_000)

    def test_nonthin_distinguishes_rate(self) -> None:
        fin = Ideal.fin()
        assert ai_nonthin(cesaro1(), fin, EVENS)
        assert not ai_nonthin(cesaro1(), fin, SQUARES)
        # ODDS has density 1/2 too: nonthin even though not full
        assert ai_nonthin(cesaro1(), fin, ODDS)


def _reference_ideal_limit_at(y: np.ndarray, ideal: Ideal, target: float, tol: float) -> Verdict:
    """Density-ideal extraction as one loop: a fresh B-density series per epsilon."""
    B = ideal.matrix
    rows = B.max_row_for(len(y))
    w0 = tail_start(len(y))
    win = y[w0 - 1 :]
    dev = np.abs(y - target)
    sub: dict[str, Verdict] = {}
    worst = 0.0
    statuses = []
    for eps in _eps_grid(tol):
        defect = dev >= eps
        y_b = B.density_series(defect, rows)
        v = _tail_verdict(y_b[tail_start(len(y_b)) - 1 :], 0.0, tol)
        if not v.converged and not defect[w0 - 1 :].any():
            v = replace(v, status=CONVERGED, residual=0.0)
        elif v.status == DIVERGED and v.tail_low <= SETTLE_FACTOR * tol:
            v = replace(v, status=INCONCLUSIVE)
        sub[f"eps={eps}"] = v
        worst = max(worst, v.residual)
        statuses.append(v.status)
    if all(s == CONVERGED for s in statuses):
        status = CONVERGED
    elif DIVERGED in statuses:
        status = DIVERGED
    else:
        status = INCONCLUSIVE
    return Verdict(status, target, worst, tol, float(win.min()), float(win.max()), detail=sub)


def _reference_ideal_limit(y: np.ndarray, ideal: Ideal, tol: float) -> Verdict:
    """Default-candidate search, each candidate decided on its own."""
    win = y[tail_start(len(y)) - 1 :]
    seen: list[float] = []
    for c in [float(y[-1]), float(np.median(win)), 0.0, 0.5, 1.0]:
        if not any(abs(c - s) <= 1e-12 for s in seen):
            seen.append(c)
    best = None
    for c in seen:
        v = _reference_ideal_limit_at(y, ideal, c, tol)
        if best is None or (v.converged, -v.residual) > (best.converged, -best.residual):
            best = v
    return best


LEVELS = [0.0, 0.25, 0.5, 1.0, 0.49, 0.97, 0.03]
EPS_VALUES = sorted({eps for tol in (0.01, 0.02, 0.05) for eps in _eps_grid(tol)})


def _edges(t: float, eps: float) -> list[float]:
    """fl(t + eps) and fl(t - eps), each with the floats one ulp either side."""
    return [math.nextafter(c, to) for c in (t + eps, t - eps) for to in (-math.inf, c, math.inf)]


@st.composite
def partial_sequences(draw) -> np.ndarray:
    """Piecewise-constant, decaying, or edge-valued partial values, over
    16..400 rows or, so that the suffix ladder has many rungs, 4096..9000
    rows, and sometimes negated.  Edge values lie at a level plus or minus
    an epsilon of the grid, or one ulp off, where a defect begins."""
    n = draw(st.one_of(st.integers(16, 400), st.integers(4096, 9000)))
    kind = draw(st.sampled_from(["steps", "decay", "edges"]))
    if kind == "steps":
        cuts = sorted(draw(st.lists(st.integers(1, n - 1), max_size=4, unique=True)))
        levels = draw(st.lists(st.sampled_from(LEVELS), min_size=len(cuts) + 1, max_size=len(cuts) + 1))
        y = np.repeat(levels, np.diff([0, *cuts, n])).astype(float)
    elif kind == "decay":
        limit = draw(st.sampled_from(LEVELS))
        scale = draw(st.sampled_from([-1.0, -0.3, 0.2, 1.0]))
        rate = draw(st.sampled_from([0.5, 1.0, 2.0]))
        y = limit + scale / np.arange(1, n + 1) ** rate
    else:
        edges = _edges(draw(st.sampled_from(LEVELS)), draw(st.sampled_from(EPS_VALUES)))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        # edge values early, then a settled tail at the level's upper edge
        y = rng.choice(edges, n)
        y[draw(st.integers(1, n - 1)) :] = edges[1]
    return -y if draw(st.booleans()) else y


class TestDefectBounds:
    """``_defect_bounds(t, eps)`` gives the exact rows where |y - t| >= eps."""

    @staticmethod
    def _agrees_near(t: float, eps: float) -> None:
        lo, hi = _defect_bounds(t, eps)
        probes = []
        for bound in (lo, hi):
            # a side no finite y reaches is probed at the greatest finite magnitude
            c = bound if math.isfinite(bound) else math.copysign(sys.float_info.max, bound)
            probes += [math.nextafter(c, -math.inf), c, math.nextafter(c, math.inf)]
        y = np.array([p for p in probes if math.isfinite(p)])
        with np.errstate(over="ignore"):
            want = np.abs(y - t) >= eps
        assert np.array_equal((y <= lo) | (y >= hi), want), (t, eps, lo, hi)

    @given(
        magnitude=st.floats(1e-300, 1e300),
        sign=st.sampled_from([1.0, -1.0]),
        tol=st.sampled_from([0.001, 0.01, 0.02, 0.05, 0.3, 1.0]),
        pick=st.integers(0, 4),
    )
    def test_bounds_agree_with_the_deviation_one_ulp_either_side(self, magnitude, sign, tol, pick) -> None:
        grid = _eps_grid(tol)
        self._agrees_near(sign * magnitude, grid[pick % len(grid)])

    @given(
        t=st.sampled_from([0.0, -0.0, *LEVELS, *(-v for v in LEVELS)]),
        eps=st.sampled_from(EPS_VALUES),
        shift=st.sampled_from([0.0, 1.0, -1.0]),
    )
    def test_bounds_at_targets_an_epsilon_away_from_zero(self, t, eps, shift) -> None:
        # a target at -eps puts hi just below 0.0, many floats away from
        # fl(t + eps) = 0.0, where one ulp around it does not bracket the bound
        self._agrees_near(t + shift * eps, eps)

    def test_a_side_no_finite_row_reaches_is_infinite(self) -> None:
        top = sys.float_info.max
        assert _defect_bounds(top, 0.01) == (math.nextafter(top, 0.0), math.inf)
        assert _defect_bounds(-top, 0.01) == (-math.inf, math.nextafter(-top, 0.0))
        self._agrees_near(top, 0.01)
        self._agrees_near(-top, 0.01)


class TestSharedDefectVerdicts:
    """Each distinct defect set is decided once per extraction."""

    MATRICES = ["cesaro", "weighted:0", "weighted:1", "squares", "block:4", "identity"]

    @given(
        y=partial_sequences(),
        mspec=st.sampled_from(MATRICES),
        tol=st.sampled_from([0.01, 0.02, 0.05]),
        target=st.sampled_from(LEVELS),
    )
    # a constant sequence gives all-empty defects at its own value and
    # all-true defects a whole unit away
    @example(y=np.full(100, 0.5), mspec="cesaro", tol=0.01, target=0.5)
    @example(y=np.zeros(64), mspec="block:4", tol=0.02, target=1.0)
    # null defects whose B-window is all in after a partial prefix, and all
    # out after a nonempty prefix: the closed-form reading of unit weights
    @example(y=np.r_[np.zeros(50), np.ones(350)], mspec="cesaro", tol=0.01, target=0.0)
    @example(y=np.r_[np.zeros(50), np.ones(350)], mspec="squares", tol=0.01, target=0.0)
    @example(y=np.r_[np.ones(50), np.zeros(350)], mspec="cesaro", tol=0.01, target=0.0)
    @example(y=np.r_[np.ones(50), np.zeros(350)], mspec="squares", tol=0.01, target=0.0)
    # rows at 0.5 +- eps and one ulp either side, then a tail a whole unit away
    # over a long ladder; and a negated decay, whose defects lie below -eps
    @example(y=np.r_[np.tile(_edges(0.5, 0.05), 100), np.full(5000, 1.5)], mspec="cesaro", tol=0.05, target=0.5)
    @example(y=-0.5 - 0.3 / np.arange(1, 4097), mspec="weighted:1", tol=0.01, target=-0.5)
    def test_matches_the_per_epsilon_loop(self, y, mspec, tol, target) -> None:
        ideal = ideal_from_spec(f"density:{mspec}")
        assert ideal_limit(y, ideal, tol) == _reference_ideal_limit(y, ideal, tol)
        assert ideal_limit_at(y, ideal, target, tol) == _reference_ideal_limit_at(y, ideal, target, tol)

    def test_a_series_only_for_a_defect_window_of_many_runs(self) -> None:
        B = cesaro1()
        built = []
        blocks = B._blocks  # every series of a triangular matrix is read through it

        def counted(mem, n_rows, start, out=None):
            built.append(n_rows)
            return blocks(mem, n_rows, start, out)

        B._blocks = counted
        tol = 0.01

        def read(A: SummMatrix, member: np.ndarray, N: int) -> tuple[set, set, set]:
            """Extract the A-density of ``member`` under density-zero(B), and
            return the distinct nonempty defects over the default candidates,
            and those whose B-window is mixed, split by its run count: at
            most ``BLOCK_ROWS`` runs, which B reads at their ends, and more,
            which only a series can read."""
            ai_density(A, Ideal.density_zero(B), member, N, tol)
            y, w0 = a_density_partial(A, member, N), tail_start(N)
            distinct, few, many = set(), set(), set()
            seen: list[float] = []
            for c in (float(y[-1]), float(np.median(y[w0 - 1 :])), 0.0, 0.5, 1.0):
                if any(abs(c - s) <= 1e-12 for s in seen):
                    continue
                seen.append(c)
                for eps in _eps_grid(tol):
                    defect = np.abs(y - c) >= eps
                    if defect.any():
                        distinct.add(defect.tobytes())
                        window = defect[w0 - 1 :]
                        runs = 1 + np.count_nonzero(window[1:] != window[:-1])
                        if runs > 1:
                            (few if runs <= summability.BLOCK_ROWS else many).add(defect.tobytes())
            return distinct, few, many

        # each defect of EVENS lies before the window or covers it: one run
        N = 10**5
        v = ai_density(cesaro1(), Ideal.density_zero(B), EVENS, N, tol)
        assert v.converged and v.value == 0.5
        distinct, few, many = read(cesaro1(), EVENS, N)
        assert len(distinct) == 7 and not few and not many
        assert built == []

        # indices in [4^j, 2 * 4^j): the Cesaro densities swing between 1/3
        # and 2/3, so defects come and go inside the window, in a few runs
        k = np.arange(1, N + 1)
        swing = k < 2 * 4 ** (np.floor(np.log2(k)).astype(np.int64) // 2)
        distinct, few, many = read(cesaro1(), swing, N)
        assert 0 < len(few) < len(distinct) and not many
        assert built == []

        # the identity's partial densities are EVENS itself: its defects at 0
        # and 1 alternate on every row, more runs than a block has rows, but
        # repeat with period 2, so B reads them in closed form
        N = 3 * summability.BLOCK_ROWS
        distinct, few, many = read(IdentityMatrix(), EVENS.indicator(N), N)
        assert len(many) == 2 and not few
        assert built == []

        # one odd member more, in the window, and they no longer repeat
        uneven = EVENS.indicator(N)
        uneven[N - 2] = True
        distinct, few, many = read(IdentityMatrix(), uneven, N)
        assert len(many) == 2 and not few
        assert len(built) == len(many)
        assert set(built) == {N}

    @given(
        y=partial_sequences(),
        mspec=st.sampled_from([*MATRICES, "weighted:-1"]),
        tol=st.sampled_from([0.01, 0.02, 0.05]),
        target=st.sampled_from(LEVELS),
        null_of_y=st.booleans(),
    )
    # defects only before the window: the raw Cesaro reading is diverged
    @example(y=np.r_[np.ones(50), np.zeros(350)], mspec="cesaro", tol=0.01, target=0.0, null_of_y=False)
    def test_each_sub_verdict_is_the_membership_verdict(self, y, mspec, tol, target, null_of_y) -> None:
        ideal = ideal_from_spec(f"density:{mspec}")
        if null_of_y:
            # the null verdict of the set where y is above 1/2, read by cesaro
            member = y > 0.5
            v = ai_density_is_null(cesaro1(), ideal, member, len(y), tol)
            y, target = a_density_partial(cesaro1(), member, len(y)), 0.0
        else:
            v = ideal_limit_at(y, ideal, target, tol)
        defects = {f"eps={eps}": np.abs(y - target) >= eps for eps in _eps_grid(tol)}
        assert v.detail == {name: ideal.contains(d, len(y), tol) for name, d in defects.items()}

    def test_defects_are_read_on_their_compared_prefix(self) -> None:
        # the Cesaro densities of EVENS settle at 1/2 within a few rows, so
        # each defect is a short compared head and a filled suffix
        N = 10**5
        forms = []
        contains = Ideal.contains

        def recorded(ideal, member, horizon, tol=DEFAULT_TOL):
            forms.append((len(member[0]), member[1]))
            return contains(ideal, member, horizon, tol)

        with mock.patch.object(Ideal, "contains", recorded):
            v = ai_density(cesaro1(), Ideal.density_zero(cesaro1()), EVENS, N)
        assert v.converged and v.value == 0.5
        assert len(forms) == 7
        assert max(m for m, _ in forms) < 100
        assert {fill for _, fill in forms} == {False, True}

    def test_empty_defect_takes_its_closed_form(self) -> None:
        B = cesaro1()
        B.density_series = None  # any series built would raise
        v = ideal_limit_at(np.full(50, 0.5), Ideal.density_zero(B), 0.5, 0.01)
        closed = Verdict(CONVERGED, 0.0, 0.0, 0.01, 0.0, 0.0)
        assert v.converged
        assert len(v.detail) == len(_eps_grid(0.01))
        assert all(d == closed for d in v.detail.values())


def _best(verdicts: list[Verdict]) -> Verdict:
    """The documented rule: a converged verdict wins by smallest residual,
    otherwise the smallest residual wins; ties keep the earlier one."""
    best = verdicts[0]
    for v in verdicts[1:]:
        if (v.converged, -v.residual) > (best.converged, -best.residual):
            best = v
    return best


class TestSkippedWork:
    """A target that can no longer win stops early, and a defect set
    compares only the rows before the longest suffix that lies inside its
    bounds or beyond one of them; neither changes an answer."""

    IDEALS = ["fin", "density:cesaro", "density:weighted:0", "density:weighted:1", "density:weighted:0.5"]

    @given(
        y=partial_sequences(),
        shift=st.sampled_from([0.0, 0.0, 0.25, 1.0]),
        ispec=st.sampled_from(IDEALS),
        tol=st.sampled_from([0.01, 0.02, 0.05]),
        order=st.permutations(range(5)),
    )
    # the converged null target first, then last; then a series that
    # approaches 0 from below, whose null target has its defects below -eps,
    # and a long one, whose early rows cross both bounds before a settled tail
    @example(y=np.zeros(200), shift=0.0, ispec="density:cesaro", tol=0.01, order=[0, 1, 2, 3, 4])
    @example(y=np.zeros(200), shift=0.0, ispec="density:cesaro", tol=0.01, order=[4, 3, 2, 1, 0])
    @example(y=-0.3 / np.arange(1, 301), shift=0.0, ispec="density:weighted:1", tol=0.01, order=[2, 0, 1, 3, 4])
    @example(y=np.cos(np.arange(5000.0)) / np.arange(1, 5001), shift=0.0, ispec="density:cesaro", tol=0.01, order=[0, 1, 2, 3, 4])
    def test_best_of_separate_targets(self, y, shift, ispec, tol, order) -> None:
        y = y - shift
        ideal = ideal_from_spec(ispec)
        candidates = tuple(_candidates(_limit_input(y, ideal)))
        separate = [ideal_limit_at(y, ideal, t, tol) for t in candidates]
        if ideal.kind == "density":
            # each target on its own, against |y - t| built for every target
            for t, v in zip(candidates, separate):
                assert v == _reference_ideal_limit_at(y, ideal, t, tol)
        assert ideal_limit(y, ideal, tol) == _best(separate)
        ordered = [i for i in order if i < len(candidates)]
        want = _best([separate[i] for i in ordered])
        got = _ideal_limit(_limit_input(y, ideal), ideal, tuple(candidates[i] for i in ordered), tol)
        assert got == want

    @pytest.mark.parametrize("bspec", ["cesaro", "squares", "weighted:1", "weighted:-1", "block:4", "identity"])
    @pytest.mark.parametrize("aspec", ["cesaro", "squares", "weighted:0.5", "block:3", "identity", "constcol"])
    def test_density_ideal_reads_a_set_with_no_member_in_closed_form(self, aspec: str, bspec: str) -> None:
        ideal, horizon, tol = Ideal.density_zero(matrix_from_spec(bspec)), 1_000, 0.01
        A = matrix_from_spec(aspec)
        n = A.max_row_for(horizon)
        zero = A.density_series(NO_INDICES, n)
        assert not zero.any()
        # the extraction the zero series had before its closed form, and the
        # per-epsilon loop that builds a B-series for every defect
        want = json.dumps(ideal_limit_at(zero, ideal, 0.0, tol).to_json())
        assert json.dumps(_reference_ideal_limit_at(zero, ideal, 0.0, tol).to_json()) == want
        A.density_series = ideal.matrix.density_series = None  # any series built would raise
        # members only past the indices that A's rows read leave the series zero
        past = A.support_bound(n) + 1
        for member in (NO_INDICES, np.zeros(horizon, dtype=bool), index_block(past, past + 5)):
            assert json.dumps(ai_density_is_null(A, ideal, member, horizon, tol).to_json()) == want

    def test_a_last_value_that_settles_the_answer_computes_no_median(self, monkeypatch) -> None:
        def no_median(*args, **kwargs):
            raise AssertionError("the tail median was computed")

        monkeypatch.setattr(summability.np, "median", no_median)
        v = ai_density(cesaro1(), Ideal.fin(), EVENS, 10**5)
        assert v.converged and v.value == 0.5 and v.residual == 0.0

    def test_uneven_explicit_rows_bound_every_row_up_to_n(self) -> None:
        # row 2 reads indices 1..4, so horizon 2 supports row 1 alone, even
        # though row 3 is short enough
        A = ExplicitMatrix([[1.0], [0.25] * 4, [0.5, 0.5]])
        assert [A.support_bound(n) for n in (1, 2, 3)] == [1, 4, 4]
        assert (A.max_row_for(2), A.max_row_for(3), A.max_row_for(4)) == (1, 1, 3)
        ideal = Ideal.density_zero(cesaro1())
        for member in (np.array([True, False]), np.array([False, False])):
            assert ai_density_is_null(A, ideal, member, 2).to_json() == ai_density_is_null(A, ideal, member[:1], 1).to_json()
