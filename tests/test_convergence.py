"""Sequence constructors and finite-horizon convergence detectors."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pmstat import convergence

from pmstat import (
    ALL_INDICES,
    CONVERGED,
    DIVERGED,
    EPS0,
    EVENS,
    INCONCLUSIVE,
    MAXIMAL,
    ODDS,
    POWERS_OF_TWO,
    SQUARES,
    IndexedSequence,
    TriangleFn,
    ai_star_conv_detect,
    ai_stat_cauchy_detect,
    ai_stat_conv_detect,
    alternating,
    constant_sequence,
    eventually_constant,
    finite_set,
    from_table,
    from_values,
    gamma_set,
    index_block,
    lambda_set,
    lemma_cauchy_predicates,
    splice,
    stat_bounded_check,
    strong_conv_detect,
    strong_limit_point_set,
    tail_start,
    unit_step,
    visit_set,
    visit_witnesses,
)


@pytest.fixture
def except_squares(eq3) -> IndexedSequence:
    return eventually_constant(eq3, "a", SQUARES)


@pytest.fixture
def alternator(eq3) -> IndexedSequence:
    return alternating(eq3, "a", "b", EVENS)


class TestSequences:
    def test_constant(self, eq3) -> None:
        x = constant_sequence(eq3, "a")
        assert x.values(5) == ["a"] * 5
        assert np.array_equal(x.value_codes(3), np.zeros(3, dtype=np.int64))
        with pytest.raises(ValueError, match="unknown carrier point"):
            constant_sequence(eq3, "z")

    def test_values_cache_extends(self, eq3) -> None:
        x = constant_sequence(eq3, "b")
        assert x.values(3) == ["b"] * 3
        assert x.values(6) == ["b"] * 6
        assert x.values(2) == ["b"] * 2

    def test_eventually_constant_cycles_off_pool(self, eq3) -> None:
        x = eventually_constant(eq3, "a", SQUARES)
        # squares get the non-limit points in a fixed cycle, pool[k % 2]
        assert x.values(9) == ["c", "a", "a", "b", "a", "a", "a", "a", "c"]

    def test_eventually_constant_explicit_off(self, eq3) -> None:
        x = eventually_constant(eq3, "a", SQUARES, off="b")
        assert x.values(4) == ["b", "a", "a", "b"]
        with pytest.raises(ValueError, match="unknown carrier point"):
            eventually_constant(eq3, "a", SQUARES, off=("b", "c"))

    def test_alternating(self, alternator) -> None:
        assert alternator.values(6) == ["b", "a", "b", "a", "b", "a"]

    def test_from_values(self, eq3) -> None:
        x = from_values(eq3, ["b", "c"], "a")
        assert x.values(4) == ["b", "c", "a", "a"]
        with pytest.raises(ValueError):
            from_values(eq3, ["b", "nope"], "a")

    def test_splice(self, except_squares) -> None:
        y = splice(except_squares, ~POWERS_OF_TWO, "c")
        vals = y.values(8)
        assert vals[0] == "c" and vals[1] == "c" and vals[3] == "c" and vals[7] == "c"
        assert vals[2] == "a" and vals[4] == "a"

    def test_visit_sets(self, alternator) -> None:
        va = visit_set(alternator, "a")
        assert np.array_equal(va.indicator(50), EVENS.indicator(50))
        wit = visit_witnesses(alternator)
        assert set(wit) == {"a", "b", "c"}
        assert np.array_equal(wit["b"].indicator(20), (~EVENS).indicator(20))


class TestStrongConvergence:
    def test_constant_converges_immediately(self, eq3) -> None:
        v = strong_conv_detect(constant_sequence(eq3, "a"), "a")
        assert v.status == CONVERGED
        assert v.witness == 1
        assert v.residual == 0.0

    def test_finite_exceptions_converge_with_entry_index(self, eq3) -> None:
        x = eventually_constant(eq3, "a", index_block(1, 11))
        v = strong_conv_detect(x, "a", horizon=100)
        assert v.status == CONVERGED
        assert v.witness == 11

    def test_early_square_exceptions_converge(self, eq3) -> None:
        x = eventually_constant(eq3, "a", SQUARES & index_block(1, 2000))
        v = strong_conv_detect(x, "a")
        assert v.status == CONVERGED
        assert v.witness == 1937  # first index after the last square below 2000

    def test_persistent_exceptions_diverge(self, except_squares) -> None:
        v = strong_conv_detect(except_squares, "a")
        assert v.status == DIVERGED
        assert v.witness == 10_001

    def test_single_late_exception_is_inconclusive(self, eq3) -> None:
        x = eventually_constant(eq3, "a", finite_set([7000]))
        v = strong_conv_detect(x, "a")
        assert v.status == INCONCLUSIVE
        assert v.witness == 7001

    def test_alternator_diverges_at_both_values(self, alternator) -> None:
        assert strong_conv_detect(alternator, "a").status == DIVERGED
        assert strong_conv_detect(alternator, "b").status == DIVERGED

    def test_unknown_limit_rejected(self, alternator) -> None:
        with pytest.raises(ValueError, match="unknown carrier point"):
            strong_conv_detect(alternator, "z")


class TestStatisticalConvergence:
    def test_square_exceptions_are_statistically_null(self, except_squares, cesaro, fin_ideal) -> None:
        v = ai_stat_conv_detect(except_squares, "a", cesaro, fin_ideal)
        assert v.status == CONVERGED
        assert v.residual == pytest.approx(0.01)
        assert "t=0.5" in v.detail

    def test_wrong_candidate_rejected(self, except_squares, cesaro, fin_ideal) -> None:
        for wrong in ("b", "c"):
            v = ai_stat_conv_detect(except_squares, wrong, cesaro, fin_ideal)
            assert v.status == DIVERGED

    def test_alternator_has_no_statistical_limit(self, alternator, cesaro, fin_ideal) -> None:
        for cand in ("a", "b", "c"):
            assert not ai_stat_conv_detect(alternator, cand, cesaro, fin_ideal).converged

    @pytest.mark.parametrize("tol", [float("nan"), -0.5])
    def test_nan_or_negative_tol_is_refused(self, except_squares, cesaro, fin_ideal, tol: float) -> None:
        with pytest.raises(ValueError, match="tol must be a number >= 0"):
            ai_stat_conv_detect(except_squares, "a", cesaro, fin_ideal, 1000, tol)
        with pytest.raises(ValueError, match="tol must be a number >= 0"):
            ai_stat_cauchy_detect(except_squares, cesaro, fin_ideal, 1000, tol)
        with pytest.raises(ValueError, match="tol must be a number >= 0"):
            strong_conv_detect(except_squares, "a", 1000, tol)

    def test_splicing_on_null_set_preserves_verdict(self, except_squares, cesaro, fin_ideal) -> None:
        y = splice(except_squares, ~POWERS_OF_TWO, "c")
        v = ai_stat_conv_detect(y, "a", cesaro, fin_ideal, tol=0.02)
        assert v.status == CONVERGED


class TestStatisticalCauchy:
    def test_anchor_found_after_skipping_rare_point(self, except_squares, cesaro, fin_ideal) -> None:
        # the first index holds an off point, so the first anchor fails
        # and the search must move on to the dominant value
        v = ai_stat_cauchy_detect(except_squares, cesaro, fin_ideal)
        assert v.status == CONVERGED
        assert v.value == "a"
        assert v.witness == 2

    def test_constant_sequence_is_cauchy(self, eq3, cesaro, fin_ideal) -> None:
        v = ai_stat_cauchy_detect(constant_sequence(eq3, "c"), cesaro, fin_ideal)
        assert v.converged
        assert v.value == "c" and v.witness == 1

    def test_alternator_is_not_cauchy(self, alternator, cesaro, fin_ideal) -> None:
        v = ai_stat_cauchy_detect(alternator, cesaro, fin_ideal)
        assert v.status == DIVERGED

    def test_three_readings_agree(self, except_squares, alternator, cesaro, fin_ideal) -> None:
        for x, expect in ((except_squares, True), (alternator, False)):
            p1, p2, p3 = lemma_cauchy_predicates(x, cesaro, fin_ideal)
            assert p1.converged is expect
            assert p2.converged is expect
            assert p3.converged is expect

    @staticmethod
    def _removal_form(d: dict, A, ideal) -> tuple:
        # an unvalidated 3-point min-t-norm table, read on the alternator of b and c
        pts = ("a", "b", "c")
        table = {(p, q): EPS0 if p == q else unit_step(d[(p, q)]) for p in pts for q in pts}
        space = from_table(pts, table, TriangleFn("min"), validate=False)
        x = alternating(space, "b", "c", EVENS)
        return space, lemma_cauchy_predicates(x, A, ideal, horizon=2000, tol=0.02)

    @pytest.mark.parametrize(
        "d, g, p1_status, p2_residual",
        [
            # g = 0.5 is the least threshold
            ({("a", "b"): 0.0, ("b", "a"): 0.0, ("c", "b"): 0.0, ("b", "c"): 0.5, ("a", "c"): 1.0, ("c", "a"): 1.0},
             0.5, CONVERGED, 0.02),
            # g = 1.0 lies above the threshold 0.5, which the fallback must not take
            ({("a", "b"): 0.0, ("b", "a"): 0.0, ("c", "b"): 0.5, ("b", "c"): 1.0, ("a", "c"): 0.0, ("c", "a"): 0.0},
             1.0, DIVERGED, 0.5),
        ],
    )
    def test_removal_form_without_a_composition_slack(
        self, d, g, p1_status, p2_residual, cesaro, fin_ideal
    ) -> None:
        space, (p1, p2, _) = self._removal_form(d, cesaro, fin_ideal)
        with pytest.raises(ValueError, match="vicinities do not compose"):
            space.vicinity_composition_alpha(g)
        # the slack falls back to g itself; the kept pair (b, c) is g apart
        assert p1.status == p1_status and p1.detail[f"t={g}"].converged
        assert (p2.status, p2.value, p2.residual) == (DIVERGED, "c", p2_residual)
        assert (p2.detail[f"t={g}"].status, p2.detail[f"t={g}"].residual) == (DIVERGED, 0.02)

    def test_removal_form_diverges_on_a_pair_gap_where_the_row_converges(self, cesaro, fin_ideal) -> None:
        d = {("a", "b"): 0.5, ("b", "a"): 0.0, ("a", "c"): 1.0, ("b", "c"): 1.0, ("c", "a"): 0.25, ("c", "b"): 0.5}
        _, (p1, p2, _) = self._removal_form(d, cesaro, fin_ideal)
        assert p1.detail["t=1.0"].converged
        assert (p2.detail["t=1.0"].status, p2.detail["t=1.0"].residual) == (DIVERGED, 0.02)
        assert (p2.status, p2.residual) == (DIVERGED, 0.5)


class TestAnchorOrder:
    """The anchor search visits each carrier point present once, in order of first visit."""

    @staticmethod
    def _reference_visits(codes: np.ndarray, points: tuple[str, ...]) -> list[tuple[str, int]]:
        seen, first = np.unique(codes, return_index=True)
        return [(points[int(seen[i])], int(first[i]) + 1) for i in np.argsort(first)]

    @given(
        n_points=st.integers(1, 6),
        horizon=st.integers(1, 400),
        seed=st.integers(0, 2**16),
        skew=st.sampled_from([0.0, 0.9, 0.999]),
    )
    def test_visits_follow_the_sorted_first_visits(self, n_points, horizon, seed, skew) -> None:
        rng = np.random.default_rng(seed)
        points = tuple("pqrstu"[:n_points])
        # a random subset of the carrier, so some points go unvisited, and
        # the others first visited out of code order
        present = rng.permutation(n_points)[: rng.integers(1, n_points + 1)]
        codes = present[rng.integers(0, len(present), size=horizon)]
        codes[rng.random(horizon) < skew] = codes[0]
        x = SimpleNamespace(
            space=SimpleNamespace(points=points), value_codes=lambda n: codes[:n].astype(np.int64), _visited={}
        )

        def search(converge_at=None):
            # the rows of the visited points, in visit order; only converge_at's row converges
            visits = []

            def row(p):
                visits.append(p)
                hit = p == converge_at
                return {"t=1.0": convergence.Verdict(CONVERGED if hit else DIVERGED, p, 0.0 if hit else 1.0, 0.01)}

            return convergence._anchor_search(x, horizon, 0.01, row), visits

        want = self._reference_visits(codes, points)
        # the tail window's presence follows the same comparison rule
        tail = np.unique(codes[tail_start(horizon) - 1 :])
        assert convergence.strong_limit_point_set(x, horizon) == frozenset(points[int(c)] for c in tail)
        v, visits = search()
        assert visits == [p for p, _ in want]
        # every residual ties, so the first visit is reported
        assert (v.status, v.value, v.witness) == (DIVERGED, *want[0])
        for i, (p, k) in enumerate(want):
            v, visits = search(p)
            assert (v.status, v.value, v.witness) == (CONVERGED, p, k)
            assert visits == [q for q, _ in want[: i + 1]]


class TestPointSetByComparison:
    """A point set's indicator is read by comparing codes, never by a table gather."""

    @given(
        n_points=st.integers(1, 300),
        horizon=st.integers(1, 400),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_indicator_matches_the_table_gather(self, n_points, horizon, seed, data) -> None:
        rng = np.random.default_rng(seed)
        # a stand-in carrier: 300 points take the two-byte codes without building a space
        points = tuple(f"p{i}" for i in range(n_points))
        codes = rng.integers(0, n_points, size=horizon).astype(np.min_scalar_type(n_points - 1))
        x = SimpleNamespace(space=SimpleNamespace(points=points), value_codes=lambda n: codes[:n])
        # flagged sets of every size, the empty and the full set included
        n_flagged = data.draw(st.integers(0, n_points))
        flagged = set(rng.permutation(n_points)[:n_flagged].tolist())
        flags = [c in flagged for c in range(n_points)]
        got = convergence._point_set(x, "s", {points[c] for c in flagged}).indicator(horizon)
        assert got.dtype == bool
        assert np.array_equal(got, np.array(flags)[codes.astype(np.intp)])


class TestWitnessedConvergence:
    def test_witnessed_convergence(self, except_squares, cesaro, fin_ideal) -> None:
        v = ai_star_conv_detect(except_squares, "a", cesaro, fin_ideal, witness=~SQUARES)
        assert v.status == CONVERGED
        assert v.witness["kept"] == 9900
        assert v.witness["subsequence_entry"] == 1

    def test_witnessed_cauchy(self, except_squares, cesaro, fin_ideal) -> None:
        v = ai_star_conv_detect(
            except_squares, None, cesaro, fin_ideal, witness=~SQUARES, cauchy=True
        )
        assert v.status == CONVERGED
        assert v.value == "a"

    def test_missing_limit_rejected(self, except_squares, cesaro, fin_ideal) -> None:
        with pytest.raises(ValueError, match="limit point is required"):
            ai_star_conv_detect(except_squares, None, cesaro, fin_ideal, witness=~SQUARES)

    def test_inconclusive_witness_density_is_an_error(self, except_squares, cesaro, fin_ideal) -> None:
        # complement density 0.06 at the horizon but near 0 mid-window:
        # neither null nor clearly non-null, so the witness is unusable
        shaky = ~index_block(5000, 5600)
        with pytest.raises(ValueError, match="inconclusive density"):
            ai_star_conv_detect(except_squares, "a", cesaro, fin_ideal, witness=shaky)

    def test_tiny_witness_is_inconclusive(self, except_squares, cesaro, fin_ideal) -> None:
        v = ai_star_conv_detect(
            except_squares, "a", cesaro, fin_ideal, witness=finite_set(range(1, 6))
        )
        assert v.status == INCONCLUSIVE
        assert v.witness == {"kept": 5}

    def test_non_null_complement_blocks_convergence(self, except_squares, cesaro, fin_ideal) -> None:
        # the subsequence itself settles (odd non-squares all hold a), so
        # only the fat complement keeps this from converging
        wit = ~(SQUARES | EVENS)
        v = ai_star_conv_detect(except_squares, "a", cesaro, fin_ideal, witness=wit)
        assert v.status == DIVERGED
        assert v.witness["subsequence_entry"] == 1
        assert not v.converged

    def test_refuted_witness_diverges(self, eq3, cesaro, fin_ideal) -> None:
        # the complement of the odds (density 1/2) refutes the witness even
        # though the kept subsequence enters at once
        x = constant_sequence(eq3, "a")
        v = ai_star_conv_detect(x, "a", cesaro, fin_ideal, witness=ODDS, horizon=10_000)
        assert v.status == DIVERGED
        assert v.residual == 0.5
        assert v.witness == {"subsequence_entry": 1, "kept": 5000}

    def test_subsequence_that_never_settles_diverges(self, alternator, cesaro, fin_ideal) -> None:
        v = ai_star_conv_detect(alternator, "a", cesaro, fin_ideal, witness=ALL_INDICES)
        assert v.status == DIVERGED


class TestLimitAndClusterSets:
    def test_alternator_limit_and_cluster_points(self, alternator, cesaro, fin_ideal) -> None:
        assert lambda_set(alternator, cesaro, fin_ideal) == frozenset({"a", "b"})
        assert gamma_set(alternator, cesaro, fin_ideal) == frozenset({"a", "b"})

    def test_convergent_sequence_collapses_both_sets(self, except_squares, cesaro, fin_ideal) -> None:
        assert lambda_set(except_squares, cesaro, fin_ideal) == frozenset({"a"})
        assert gamma_set(except_squares, cesaro, fin_ideal) == frozenset({"a"})

    def test_visited_point_at_positive_self_distance_is_not_a_limit_point(self, cesaro, fin_ideal) -> None:
        # F_aa is not the unit step at 0 (P-1 fails), so dist(a, a) > 0 and
        # the constant subsequence at a does not converge strongly to a
        table = {("a", "a"): unit_step(0.3), ("b", "b"): EPS0, ("a", "b"): unit_step(0.5), ("b", "a"): unit_step(0.5)}
        space = from_table(("a", "b"), table, MAXIMAL, validate=False)
        assert space.dist("a", "a") > 0.0
        assert lambda_set(alternating(space, "a", "b", EVENS), cesaro, fin_ideal) == frozenset({"b"})
        assert lambda_set(constant_sequence(space, "a"), cesaro, fin_ideal) == frozenset()

    def test_gamma_warns_on_inconclusive_visit_density(self, eq3, cesaro, fin_ideal) -> None:
        x = eventually_constant(eq3, "a", index_block(5000, 5600), off="b")
        with pytest.warns(UserWarning, match="inconclusive"):
            got = gamma_set(x, cesaro, fin_ideal)
        assert got == frozenset({"a"})

    def test_tail_recurrence_set(self, alternator, except_squares) -> None:
        assert strong_limit_point_set(alternator) == frozenset({"a", "b"})
        # late squares still land in the tail window, so their off values recur
        assert strong_limit_point_set(except_squares) == frozenset({"a", "b", "c"})
        # window [12, 24] holds one square, 16, whose off value is b
        assert strong_limit_point_set(except_squares, horizon=24) == frozenset({"a", "b"})

    def test_statistical_boundedness(self, alternator, cesaro, fin_ideal) -> None:
        assert stat_bounded_check(alternator, cesaro, fin_ideal, ("a", "b")).converged
        v = stat_bounded_check(alternator, cesaro, fin_ideal, ("a",))
        assert v.status == DIVERGED
        with pytest.raises(ValueError, match="unknown carrier point"):
            stat_bounded_check(alternator, cesaro, fin_ideal, ("a", "zz"))


_HORIZON_READERS = {
    "strong_conv_detect": lambda x, A, I, n: strong_conv_detect(x, "a", horizon=n),
    "ai_stat_conv_detect": lambda x, A, I, n: ai_stat_conv_detect(x, "a", A, I, horizon=n),
    "ai_stat_cauchy_detect": lambda x, A, I, n: ai_stat_cauchy_detect(x, A, I, horizon=n),
    "lemma_cauchy_predicates": lambda x, A, I, n: lemma_cauchy_predicates(x, A, I, horizon=n),
    "lambda_set": lambda x, A, I, n: lambda_set(x, A, I, horizon=n),
    "gamma_set": lambda x, A, I, n: gamma_set(x, A, I, horizon=n),
    "strong_limit_point_set": lambda x, A, I, n: strong_limit_point_set(x, n),
    "stat_bounded_check": lambda x, A, I, n: stat_bounded_check(x, A, I, ("a",), horizon=n),
}


class TestHorizonBelowOne:
    @pytest.mark.parametrize("horizon", [0, -1])
    @pytest.mark.parametrize("name", sorted(_HORIZON_READERS))
    def test_refused(self, name, horizon, eq3, cesaro, fin_ideal) -> None:
        # a horizon below 1 has no value to read: a ValueError, never a
        # None, a ZeroDivisionError or an empty point set
        with pytest.raises(ValueError, match="horizon"):
            _HORIZON_READERS[name](constant_sequence(eq3, "a"), cesaro, fin_ideal, horizon)
