"""Tail-window density verdicts: each verdict builds and reads only the rows it reads.

A fin limit and a B-density null verdict read only rows ``tail_start(n)..n``
of an n-row partial-density series.  These tests pin that the window form of
``density_series`` is bit-identical to a slice of the whole series, that the
tail reading from the window's extremes equals the reading over every
deviation, and that no series starts before the window where only the window
is read.
"""

from __future__ import annotations

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from pmstat import (
    ALL_INDICES,
    CONVERGED,
    DIVERGED,
    EVENS,
    INCONCLUSIVE,
    NO_INDICES,
    SQUARES,
    BlockMatrix,
    ConstantColumnMatrix,
    ExplicitMatrix,
    Ideal,
    IdentityMatrix,
    Verdict,
    ai_density,
    ai_density_is_full,
    ai_density_is_null,
    cesaro1,
    index_block,
    index_set_from_spec,
    matrix_from_spec,
    squares_rows,
    tail_start,
    weighted_mean,
)
from pmstat import summability
from pmstat.summability import SETTLE_FACTOR, _extremes_verdict

from conftest import _tail_verdict


def _whole_series_verdict(y: np.ndarray, target: float, tol: float) -> Verdict:
    """The tail reading as it was before the window form: deviations over a
    slice of the whole series, one temporary array per reading."""
    n = len(y)
    if n == 0:
        raise ValueError("empty partial-value sequence")
    w0 = tail_start(n)
    win = y[w0 - 1 :]
    dev = np.abs(win - target)
    residual = float(dev[-1])
    tail_low = float(win.min())
    tail_high = float(win.max())
    if residual <= tol and float(dev.max()) <= SETTLE_FACTOR * tol:
        status = CONVERGED
    elif float(dev.min()) > tol:
        status = DIVERGED
    else:
        status = INCONCLUSIVE
    return Verdict(status, target, residual, tol, tail_low, tail_high)


def _whole_series_fin_limit(y: np.ndarray, tol: float) -> Verdict:
    """``ideal_limit`` under fin with the default candidates, on the whole series."""
    win = y[tail_start(len(y)) - 1 :]
    seen: list[float] = []
    for c in [float(y[-1]), float(np.median(win)), 0.0, 0.5, 1.0]:
        if not any(abs(c - s) <= 1e-12 for s in seen):
            seen.append(c)
    best = None
    for c in seen:
        v = _whole_series_verdict(y, c, tol)
        if best is None or (v.converged, -v.residual) > (best.converged, -best.residual):
            best = v
    return best


def _explicit() -> ExplicitMatrix:
    """Twelve rows with uneven, non-dyadic entries, read by the generic loop."""
    return ExplicitMatrix([[(k % 3 + 1) / (7 * n) for k in range(1, 2 * n + 1)] for n in range(1, 13)], name="uneven")


WINDOW_MATRICES = {
    **{spec: (lambda spec=spec: matrix_from_spec(spec)) for spec in (
        "cesaro", "weighted:0.5", "weighted:1", "weighted:2", "squares",
        "block:1", "block:4", "block:12", "identity", "constcol",
    )},
    "explicit": _explicit,
}
SET_SPECS = ["evens", "squares", "pow2", "mod:3,1", "finite:1,2,9,40", "block:30,90", "not:cubes", "none", "all"]


def _bits(a: np.ndarray) -> tuple:
    return a.dtype.str, a.shape, a.tobytes()


class TestTailWindow:
    """A verdict builds and reads only the rows it reads, with the same bits."""

    HORIZON = 400

    @given(
        name=st.sampled_from(sorted(WINDOW_MATRICES)),
        member_kind=st.sampled_from(["array", "set"]),
        set_spec=st.sampled_from(SET_SPECS),
        seed=st.integers(0, 2**16),
        share=st.sampled_from([0.0, 0.1, 0.5, 0.97, 1.0]),
        data=st.data(),
    )
    def test_window_equals_slice_of_whole_series(self, name, member_kind, set_spec, seed, share, data) -> None:
        A = WINDOW_MATRICES[name]()
        if member_kind == "array":
            member = np.random.default_rng(seed).random(self.HORIZON) < share
        else:
            member = index_set_from_spec(set_spec)
        n = data.draw(st.integers(1, A.max_row_for(self.HORIZON)), label="n_rows")
        start = data.draw(st.sampled_from(sorted({1, tail_start(n), n, data.draw(st.integers(1, n))})), label="start")
        whole = A.density_series(member, n)
        assert _bits(A.density_series(member, n, start=start)) == _bits(whole[start - 1 :])

    @pytest.mark.parametrize("start", [0, -3, 11])
    def test_window_outside_the_rows_is_rejected(self, start: int) -> None:
        for A in (cesaro1(), weighted_mean(1), BlockMatrix(4), IdentityMatrix(), ConstantColumnMatrix(), _explicit()):
            with pytest.raises(ValueError, match="outside rows 1..10"):
                A.density_series(EVENS, 10, start=start)

    @staticmethod
    @st.composite
    def windows(draw) -> tuple[np.ndarray, float]:
        pool = draw(st.lists(st.floats(-4.0, 4.0, allow_subnormal=False), min_size=1, max_size=4))
        values = draw(st.lists(st.one_of(st.sampled_from(pool), st.floats(-4.0, 4.0)), min_size=1, max_size=40))
        y = np.array(values)
        lo, hi = float(y.min()), float(y.max())
        target = draw(
            st.one_of(
                st.sampled_from([lo, hi, float(y[-1]), (lo + hi) / 2, 0.0]),
                st.floats(lo - 1.0, lo),
                st.floats(hi, hi + 1.0),
                st.floats(lo, hi),
                st.floats(-8.0, 8.0),
            )
        )
        return y, target

    @given(wt=windows(), tol=st.sampled_from([1e-3, 0.01, 0.1, 0.5, 2.0]))
    @example(wt=(np.array([0.3, 0.3, 0.3]), 0.3), tol=0.01)
    @example(wt=(np.array([-1.0, 1.0]), 0.0), tol=0.01)
    @example(wt=(np.array([0.0, -0.0]), -0.0), tol=0.01)
    @example(wt=(np.array([0.5, 0.51]), 0.5 - 0.01), tol=0.01)
    # the nearest value exactly tol away, below and above the target
    @example(wt=(np.array([0.5, 0.75]), 0.0), tol=0.5)
    @example(wt=(np.array([-0.5, -0.75]), 0.0), tol=0.5)
    def test_extremes_reading_equals_the_deviation_pass(self, wt, tol) -> None:
        y, target = wt
        want = json.dumps(_whole_series_verdict(y, target, tol).to_json())
        assert json.dumps(_tail_verdict(y[tail_start(len(y)) - 1 :], target, tol).to_json()) == want

    @given(
        mspec=st.sampled_from(["cesaro", "weighted:1", "squares", "block:4", "identity", "constcol"]),
        set_spec=st.sampled_from(SET_SPECS),
        horizon=st.integers(10, 3000),
        tol=st.sampled_from([0.01, 0.02, 0.1]),
    )
    def test_fin_verdicts_equal_the_whole_series_reading(self, mspec, set_spec, horizon, tol) -> None:
        A, fin = matrix_from_spec(mspec), Ideal.fin()
        member = index_set_from_spec(set_spec)
        y = A.density_series(member, A.max_row_for(horizon))
        got = ai_density(A, fin, member, horizon, tol).to_json()
        assert json.dumps(got) == json.dumps(_whole_series_fin_limit(y, tol).to_json())
        for verdict, target in ((ai_density_is_null, 0.0), (ai_density_is_full, 1.0)):
            got = verdict(A, fin, member, horizon, tol).to_json()
            assert json.dumps(got) == json.dumps(_whole_series_verdict(y, target, tol).to_json())

    def test_no_series_starts_before_the_tail_window_where_only_it_is_read(self) -> None:
        A, B = cesaro1(), squares_rows()
        built: list[tuple[str, int, int]] = []
        for M in (A, B):
            blocks = M._blocks  # every series of a triangular matrix is read through it

            def counted(mem, n_rows, start, out=None, carry=None, M=M, blocks=blocks):
                built.append((M.name, n_rows, start))
                return blocks(mem, n_rows, start, out, carry)

            M._blocks = counted
        N, tol = 10**4, 0.01
        # members only in rows 5000..6000 of the window 5000..10^4: the last
        # value does not settle the answer, so the median builds the window
        for member in (EVENS, SQUARES, index_block(1, 200), index_block(5000, 6000)):
            ai_density(A, Ideal.fin(), member, N, tol)
            ai_density_is_null(A, Ideal.fin(), member, N, tol)
            ai_density_is_full(A, Ideal.fin(), member, N, tol)
        assert built and all(start == tail_start(rows) for _, rows, start in built)

        # density ideal: the first-level series is whole, and a B-series is
        # built only for a window of more runs than a block has rows, and
        # then only the window.  The defects of EVENS lie before the window
        # or cover it, and SQUARES holds every index j*j the squares rows
        # read: one run each.  EVENS holds every other one, 51 runs over the
        # window of 100 rows, so with blocks of 16 rows only its membership
        # query builds a B-series; with blocks of 64 none does.
        rows = B.max_row_for(N)
        for block, want in ((16, [("squares", rows, tail_start(rows))]), (64, [])):
            built.clear()
            with mock.patch.object(summability, "BLOCK_ROWS", block):
                ai_density(A, Ideal.density_zero(B), EVENS, N, tol)
                Ideal.density_zero(B).contains(SQUARES, N, tol)
                Ideal.density_zero(B).contains(EVENS, N, tol)
            assert [b for b in built if b[0] == "cesaro"] == [("cesaro", N, 1)]
            assert [b for b in built if b[0] == "squares"] == want


UNIT_WEIGHT_KINDS = ["cesaro", "squares", "weighted:0"]


FLOAT_WEIGHT_KINDS = ["weighted:1", "weighted:0.5", "weighted:2", "weighted:-0.5", "weighted:-1", "weighted:3.7"]


@st.composite
def unit_weight_windows(draw, kinds: list[str] = UNIT_WEIGHT_KINDS) -> tuple[str, int, np.ndarray]:
    """A kind (unit-weight by default), a row count, and a membership whose
    tail window on those rows is all out, all in, or mixed."""
    kind = draw(st.sampled_from(kinds))
    rows = draw(st.one_of(st.integers(1, 3000), st.sampled_from([1, 2, 3])))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    at = np.arange(1, rows + 1) ** (2 if kind == "squares" else 1) - 1  # the indices phi(1..rows)
    member = np.zeros(at[-1] + 1, dtype=bool)
    member[at] = rng.random(rows) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    s = tail_start(rows)
    window = draw(st.sampled_from(["out", "in", "mixed"]))
    if window == "mixed" and rows > s:
        member[at[s - 1]], member[at[-1]] = True, False
    elif window != "mixed":
        member[at[s - 1 :]] = window == "in"
    return kind, rows, member


class TestEndpointReading:
    """A null reading of a window read at its ends equals the built window's."""

    @given(wm=unit_weight_windows(), tol=st.sampled_from([1e-3, 0.01, 0.1, 0.5]))
    @example(wm=("cesaro", 1, np.array([True])), tol=0.01)
    @example(wm=("cesaro", 2, np.array([False, True])), tol=0.01)
    @example(wm=("squares", 2, np.array([True, False, False, False])), tol=0.01)
    @example(wm=("weighted:0", 2, np.array([True, False])), tol=0.01)
    def test_endpoint_verdict_equals_the_window_reading(self, wm, tol) -> None:
        kind, rows, member = wm
        B = matrix_from_spec(kind)
        got = _extremes_verdict(*B.tail_extremes(member, rows), 0.0, tol).to_json()
        want = _tail_verdict(B.density_series(member, rows, start=tail_start(rows)), 0.0, tol).to_json()
        assert json.dumps(got) == json.dumps(want)

    @given(wm=unit_weight_windows(FLOAT_WEIGHT_KINDS))
    @example(wm=("weighted:1", 1, np.array([False])))
    @example(wm=("weighted:-1", 2, np.array([True, False])))
    @example(wm=("weighted:3.7", 3, np.array([True, False, False])))
    def test_float_weights_read_an_all_out_window_at_its_ends(self, wm) -> None:
        kind, rows, member = wm
        B = matrix_from_spec(kind)
        win = B.density_series(member, rows, start=tail_start(rows))
        assert B.tail_extremes(member, rows) == (float(win.min()), float(win.max()), float(win[-1]))


NULL_READING_MATRICES = {
    **{spec: (lambda spec=spec: matrix_from_spec(spec)) for spec in (
        "cesaro", "squares", "weighted:1", "weighted:0.5", "weighted:-1", "identity", "block:4",
    )},
    "explicit": _explicit,
}


class TestNullReadingsFromExtremes:
    """A null reading builds no series that its closed forms already know."""

    @given(
        name=st.sampled_from(sorted(NULL_READING_MATRICES)),
        member_kind=st.sampled_from(["array", "set"]),
        set_spec=st.sampled_from(SET_SPECS),
        window=st.sampled_from(["as drawn", "out", "in"]),
        share=st.sampled_from([0.0, 0.3, 1.0]),
        seed=st.integers(0, 2**16),
        horizon=st.integers(24, 3000),
        tol=st.sampled_from([1e-3, 0.01, 0.1]),
    )
    @example(name="cesaro", member_kind="array", set_spec="none", window="out", share=0.3, seed=0, horizon=400, tol=0.01)
    @example(name="squares", member_kind="array", set_spec="none", window="in", share=0.0, seed=0, horizon=400, tol=0.01)
    @example(name="weighted:-1", member_kind="array", set_spec="none", window="out", share=1.0, seed=0, horizon=400, tol=0.01)
    @example(name="explicit", member_kind="set", set_spec="finite:1,2,9,40", window="as drawn", share=0.0, seed=0, horizon=24, tol=0.1)
    def test_fin_null_reading_equals_the_built_window(
        self, name, member_kind, set_spec, window, share, seed, horizon, tol
    ) -> None:
        A = NULL_READING_MATRICES[name]()
        n = A.max_row_for(horizon)
        s = tail_start(n)
        if member_kind == "array":
            member = np.random.default_rng(seed).random(horizon) < share
            if window != "as drawn":
                # every index that a row from s on reads past row s - 1
                member[A.support_bound(s - 1) if s > 1 else 0 :] = window == "in"
        else:
            member = index_set_from_spec(set_spec)
        got = ai_density_is_null(A, Ideal.fin(), member, horizon, tol).to_json()
        want = _tail_verdict(A.density_series(member, n, start=s), 0.0, tol).to_json()
        assert json.dumps(got) == json.dumps(want)

    @pytest.mark.parametrize(
        "spec, member, status",
        [
            ("cesaro", index_block(1, 100), CONVERGED),  # members before the window only
            ("cesaro", index_block(4_000, 20_000), DIVERGED),  # every row of the window
            ("cesaro", NO_INDICES, CONVERGED),
            ("squares", SQUARES, DIVERGED),
            ("squares", ~SQUARES, CONVERGED),
            ("weighted:0", ALL_INDICES, DIVERGED),
            ("weighted:1", index_block(1, 100), CONVERGED),
            ("weighted:-1", NO_INDICES, CONVERGED),
        ],
    )
    def test_fin_closed_forms_build_no_series(self, spec: str, member, status: str) -> None:
        A = matrix_from_spec(spec)
        A.density_series = A._blocks = None  # any series read would raise
        assert ai_density_is_null(A, Ideal.fin(), member, 10**4, 0.01).status == status

    def test_no_series_still_refuses_weight_sums_that_overflow(self) -> None:
        for ideal in (Ideal.fin(), Ideal.density_zero(cesaro1())):
            with pytest.raises(ValueError, match="overflow from row 6"):
                ai_density_is_null(weighted_mean(400), ideal, NO_INDICES, 1_000)
        # B's sums refuse a set with no member as they refuse one with members
        overflowing = Ideal.density_zero(weighted_mean(400))
        for member in (NO_INDICES, index_block(1, 100)):
            with pytest.raises(ValueError, match="overflow from row 6"):
                overflowing.contains(member, 1_000)
            with pytest.raises(ValueError, match="overflow from row 6"):
                ai_density_is_null(cesaro1(), overflowing, member, 1_000)
