"""Step distance distribution functions and the modified Levy metric."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from pmstat import (
    EPS0,
    StepDistFn,
    build_metric_induced,
    evaluate,
    levy_distance,
    levy_distance_to_zero,
    pointwise_gap,
    pointwise_leq,
    pointwise_max,
    pointwise_min,
    unit_step,
    weakly_converges,
)

from pmstat.distfn import _levy_candidates, levy_feasible, levy_within
from pmstat.summability import CONVERGED, DIVERGED, INCONCLUSIVE, tail_start

from conftest import step_fns, wide_step_fns

F_HALF = StepDistFn.from_pairs([(0.25, 0.5), (0.75, 1.0)])


@st.composite
def float_step_fns(draw, max_jumps: int = 5) -> StepDistFn:
    # off-grid jumps: arbitrary floats, so candidate differences round
    n = draw(st.integers(1, max_jumps))
    locs = draw(st.lists(st.floats(0.0, 4.0), min_size=n, max_size=n, unique=True).map(sorted))
    vals = draw(
        st.lists(st.floats(1e-3, 1.0, exclude_max=True), min_size=n - 1, max_size=n - 1, unique=True).map(sorted)
    )
    return StepDistFn.from_pairs(zip(locs, vals + [1.0]))


def _nudge(x: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


@st.composite
def near_copies(draw, f: StepDistFn) -> StepDistFn:
    """f with each location, and each value below 1, moved by a few ulps."""
    moves = st.integers(-3, 3)
    pairs = [
        (max(0.0, _nudge(l, draw(moves))), v if v == 1.0 else _nudge(v, draw(moves)))
        for l, v in f.jumps
    ]
    try:
        return StepDistFn.from_pairs(pairs)
    except ValueError:  # two neighbours moved onto or past each other
        assume(False)


@st.composite
def levy_pairs(draw) -> tuple[StepDistFn, StepDistFn]:
    """Independent pairs, and pairs that differ by rounding only."""
    f = draw(st.one_of(step_fns(), float_step_fns()))
    g = draw(st.one_of(step_fns(), float_step_fns(), near_copies(f)))
    return f, g


def _sandwich_holds(f: StepDistFn, g: StepDistFn, a: float) -> bool:
    # the modified Levy sandwich read literally: all four inequalities at
    # the midpoint of every open interval between the breakpoints (jumps
    # of f and g shifted by 0 and +-a) in (0, 1/a)
    def at(h: StepDistFn, x: float) -> float:
        return 0.0 if x <= 0.0 else evaluate(h, x)

    bound = 1.0 / a
    cuts = sorted({s for loc in f.locations + g.locations for s in (loc - a, loc, loc + a) if 0.0 < s < bound})
    edges = [0.0, *cuts, bound]
    for lo, hi in zip(edges, edges[1:]):
        x = 0.5 * (lo + hi)
        if not at(f, x - a) - a <= at(g, x) <= at(f, x + a) + a:
            return False
        if not at(g, x - a) - a <= at(f, x) <= at(g, x + a) + a:
            return False
    return True


class TestCanonicalForm:
    def test_valid_jumps(self) -> None:
        f = StepDistFn(((0.25, 0.5), (0.75, 1.0)))
        assert f.locations == (0.25, 0.75)
        assert f.values == (0.5, 1.0)
        assert f.support_end == 0.75

    def test_empty_rejected(self) -> None:
        with pytest.raises(ValueError, match="at least one jump"):
            StepDistFn(())

    def test_final_value_must_be_one(self) -> None:
        with pytest.raises(ValueError, match="exactly 1"):
            StepDistFn(((0.5, 0.9),))

    def test_negative_zero_location_is_stored_as_zero(self) -> None:
        # built directly, from JSON, and on the diagonal of a metric-induced space
        space = build_metric_induced(("a", "b"), lambda p, q: -0.0 if p == q else 1.0)
        for f in (unit_step(-0.0), StepDistFn.from_json([[-0.0, 1.0]]), space.ddf("a", "a")):
            assert f == EPS0
            assert math.copysign(1.0, f.locations[0]) == 1.0
            assert math.copysign(1.0, levy_distance_to_zero(f)) == 1.0
            assert json.dumps(f.to_json()) == "[[0.0, 1.0]]"
        assert math.copysign(1.0, space.dist("a", "a")) == 1.0
        f = StepDistFn(((-0.0, 0.5), (1.0, 1.0)))
        assert f.jumps == ((0.0, 0.5), (1.0, 1.0)) and math.copysign(1.0, f.jumps[0][0]) == 1.0

    def test_negative_location_rejected(self) -> None:
        with pytest.raises(ValueError, match="negative"):
            StepDistFn(((-0.1, 1.0),))

    def test_nonmonotone_locations_rejected(self) -> None:
        with pytest.raises(ValueError, match="strictly increasing"):
            StepDistFn(((0.5, 0.5), (0.5, 1.0)))

    def test_nonmonotone_values_rejected(self) -> None:
        with pytest.raises(ValueError, match="strictly increasing"):
            StepDistFn(((0.2, 0.7), (0.4, 0.7), (0.6, 1.0)))

    def test_value_above_one_rejected(self) -> None:
        with pytest.raises(ValueError, match="exceeds 1"):
            StepDistFn(((0.2, 1.5),))

    def test_non_finite_rejected(self) -> None:
        with pytest.raises(ValueError):
            StepDistFn(((math.inf, 1.0),))
        with pytest.raises(ValueError):
            StepDistFn(((0.5, math.nan),))

    def test_from_pairs_drops_flat_jumps(self) -> None:
        f = StepDistFn.from_pairs([(0.1, 0.3), (0.2, 0.3), (0.5, 1.0)])
        assert f.jumps == ((0.1, 0.3), (0.5, 1.0))

    def test_from_pairs_rejects_decreasing_values(self) -> None:
        with pytest.raises(ValueError, match="nondecreasing"):
            StepDistFn.from_pairs([(0.1, 0.5), (0.2, 0.4), (0.5, 1.0)])

    @pytest.mark.parametrize(
        "pairs",
        [
            [(0.1, math.nan), (0.2, 1.0)],
            [(math.nan, 0.5), (0.2, 1.0)],
            [(0.1, 0.5), (math.inf, 1.0)],
            [(0.1, -math.inf), (0.2, 1.0)],
        ],
    )
    def test_from_pairs_rejects_non_finite_pairs(self, pairs: list[tuple[float, float]]) -> None:
        # a NaN value used to compare false against the running value and
        # drop out as a zero-height jump
        with pytest.raises(ValueError, match="non-finite"):
            StepDistFn.from_pairs(pairs)

    def test_from_pairs_rejects_repeated_locations(self) -> None:
        with pytest.raises(ValueError, match="strictly increasing"):
            StepDistFn.from_pairs([(0.1, 0.5), (0.1, 1.0)])

    def test_canonical_equality_is_function_equality(self) -> None:
        a = StepDistFn.from_pairs([(0.1, 0.5), (0.3, 0.5), (0.6, 1.0)])
        b = StepDistFn.from_pairs([(0.1, 0.5), (0.6, 1.0)])
        assert a == b

    def test_json_round_trip(self) -> None:
        f = F_HALF
        assert StepDistFn.from_json(f.to_json()) == f


class TestEvaluation:
    def test_left_continuous_at_jump(self) -> None:
        # the defining convention: a unit step vanishes at its own location
        f = unit_step(0.3)
        assert f(0.3) == 0.0
        assert f(0.30000001) == 1.0

    def test_zero_and_infinity(self) -> None:
        assert F_HALF(0.0) == 0.0
        assert F_HALF(math.inf) == 1.0

    def test_plateau_values(self) -> None:
        assert F_HALF(0.25) == 0.0
        assert F_HALF(0.5) == 0.5
        assert F_HALF(0.75) == 0.5
        assert F_HALF(0.76) == 1.0

    def test_right_value(self) -> None:
        assert F_HALF.right_value(0.25) == 0.5
        assert F_HALF.right_value(0.1) == 0.0
        assert F_HALF.right_value(2.0) == 1.0

    def test_eps0_is_maximal(self) -> None:
        assert EPS0(0.0) == 0.0
        assert EPS0(1e-12) == 1.0

    def test_negative_point_rejected(self) -> None:
        with pytest.raises(ValueError, match="outside"):
            evaluate(F_HALF, -0.1)

    def test_nan_rejected(self) -> None:
        with pytest.raises(ValueError, match="NaN"):
            evaluate(F_HALF, math.nan)

    def test_unit_step_rejects_bad_location(self) -> None:
        with pytest.raises(ValueError):
            unit_step(-1.0)
        with pytest.raises(ValueError):
            unit_step(math.inf)

    @given(step_fns())
    def test_monotone_in_t(self, f: StepDistFn) -> None:
        grid = [0.0] + [x + 1e-9 for x in f.locations] + [f.support_end + 1.0]
        vals = [f(t) for t in sorted(grid)]
        assert vals == sorted(vals)
        assert vals[-1] == 1.0


class TestLevyMetric:
    def test_identical_functions_give_exact_zero(self) -> None:
        assert levy_distance(F_HALF, F_HALF) == 0.0
        g = StepDistFn.from_pairs(F_HALF.jumps)
        assert levy_distance(F_HALF, g) == 0.0

    def test_unit_step_to_zero_is_its_location(self) -> None:
        for b in (0.1, 0.25, 0.5, 0.9):
            assert levy_distance(unit_step(b), EPS0) == b

    def test_far_unit_step_saturates_at_one(self) -> None:
        assert levy_distance_to_zero(unit_step(3.0)) == 1.0
        assert levy_distance(unit_step(3.0), EPS0) == 1.0

    def test_known_two_jump_distance_to_zero(self) -> None:
        # plateau (0.25, 0.75] at 0.5: candidate max(0.25, 0.5) = 0.5 < 0.75
        assert levy_distance_to_zero(F_HALF) == 0.5
        assert levy_distance(F_HALF, EPS0) == 0.5

    def test_nonpositive_tolerance_rejected(self) -> None:
        with pytest.raises(ValueError, match="positive"):
            levy_distance(F_HALF, EPS0, tol=0.0)

    @pytest.mark.xfail(
        strict=True,
        reason="distinct unit steps one ulp apart read 0.0 (CHANGES.md FOUND 46); "
        "the exact reference and predicate are ROADMAP items 8 and 5",
    )
    def test_unit_steps_one_ulp_apart_are_apart(self) -> None:
        assert levy_distance(unit_step(1 + 2**-52), unit_step(1 + 2**-51)) > 0.0

    def test_result_bounded_by_one(self) -> None:
        d = levy_distance(unit_step(1e5), unit_step(0.0))
        assert d <= 1.0

    @given(step_fns(), step_fns())
    def test_symmetry_exact(self, f: StepDistFn, g: StepDistFn) -> None:
        assert levy_distance(f, g) == levy_distance(g, f)

    @given(step_fns(), step_fns())
    def test_positive_for_distinct_functions(self, f: StepDistFn, g: StepDistFn) -> None:
        d = levy_distance(f, g)
        if f == g:
            assert d == 0.0
        else:
            assert d > 0.0

    @given(step_fns(), step_fns(), step_fns())
    def test_triangle_inequality(self, f: StepDistFn, g: StepDistFn, h: StepDistFn) -> None:
        # each term is a candidate difference, exact up to its rounding
        dfh = levy_distance(f, h)
        dfg = levy_distance(f, g)
        dgh = levy_distance(g, h)
        assert dfh <= dfg + dgh + 1e-12

    @given(step_fns())
    def test_closed_form_matches_bisection(self, f: StepDistFn) -> None:
        assert levy_distance(f, EPS0) == levy_distance_to_zero(f)

    @given(step_fns())
    def test_distance_to_zero_threshold_characterization(self, f: StepDistFn) -> None:
        # d(f, eps0) = inf { t : f(t) > 1 - t }; probe both sides of it
        d = levy_distance_to_zero(f)
        if d > 1e-6:
            t = d - 1e-7
            assert not f(t) > 1.0 - t
        if d < 1.0:
            t = min(d + 1e-7, 1.0)
            assert f(t) > 1.0 - t


class TestExactLevySearch:
    # reading f(x + a) at the breakpoint x = l - a, through the float sum
    # (l - a) + a, calls a = 0.781 feasible for this pair; the distance is
    # 0.804897, a plateau-value difference
    DEFECT_F = unit_step(1.992116)
    DEFECT_G = StepDistFn.from_pairs(
        [(0.104701, 0.067747), (0.771799, 0.66553), (0.99941, 0.804897), (1.261837, 1.0)]
    )

    def test_defect_pair_distance_is_exact(self) -> None:
        assert levy_distance(self.DEFECT_F, self.DEFECT_G) == 0.804897
        assert levy_distance(self.DEFECT_G, self.DEFECT_F) == 0.804897

    def test_defect_pair_feasibility_is_monotone(self) -> None:
        grid = [round(0.78 + k / 1000, 3) for k in range(31)]
        verdicts = [levy_feasible(self.DEFECT_F, self.DEFECT_G, a) for a in grid]
        assert verdicts == sorted(verdicts)
        assert verdicts.index(True) == grid.index(0.805)
        for a in (0.781, 0.785, 0.789, 0.8):
            assert not levy_feasible(self.DEFECT_F, self.DEFECT_G, a)

    def test_a_jump_exactly_at_the_range_end_is_not_tested(self) -> None:
        # a = 0.5 reads x in (0, 2): g's jump at 2.0 lies on the end, so it is
        # not read, though 1.0 - f+(2.5) = 0.6 exceeds a
        f = StepDistFn.from_pairs([(0.1, 0.4), (3.0, 1.0)])
        g = unit_step(2.0)
        assert levy_feasible(f, g, 0.5)
        assert levy_feasible(g, f, 0.5)

    @given(float_step_fns())
    def test_distance_to_eps0_is_closed_form_bit_for_bit(self, f: StepDistFn) -> None:
        assert levy_distance(f, EPS0) == levy_distance_to_zero(f)
        assert levy_distance(EPS0, f) == levy_distance_to_zero(f)

    @given(float_step_fns(), float_step_fns())
    def test_symmetry_exact_off_grid(self, f: StepDistFn, g: StepDistFn) -> None:
        assert levy_distance(f, g) == levy_distance(g, f)

    @given(step_fns(), step_fns())
    def test_result_is_the_feasibility_edge(self, f: StepDistFn, g: StepDistFn) -> None:
        # the open interval above the result is feasible, the one below is
        # not; neighbours within 1e-12 are the same real number rounded
        # another way (0.3 - 0.07 against 0.23) and are skipped
        d = levy_distance(f, g)
        cands = _levy_candidates(f, g)
        assert d in cands
        above = [c for c in cands if c > d + 1e-12]
        below = [c for c in cands if c < d - 1e-12]
        if above:
            assert levy_feasible(f, g, 0.5 * (d + above[0]))
        if below:
            assert not levy_feasible(f, g, 0.5 * (below[-1] + d))

    @given(step_fns(), step_fns(), st.integers(1, 999))
    def test_feasible_is_the_literal_sandwich(self, f: StepDistFn, g: StepDistFn, k: int) -> None:
        # an off-grid slack, so no breakpoint of the hundredths grid ties
        a = k / 1000 + 2**-20
        assert levy_feasible(f, g, a) == _sandwich_holds(f, g, a)

    @given(step_fns(), step_fns())
    def test_tolerance_does_not_change_the_answer(self, f: StepDistFn, g: StepDistFn) -> None:
        assert levy_distance(f, g, tol=1e-1) == levy_distance(f, g, tol=1e-9) == levy_distance(f, g)


class TestLevyWithin:
    """``levy_within`` may skip a candidate search only where the search would
    return at most the slack; a feasible slack that is no candidate is not enough."""

    # 8 + 2**-49 is the next float above 8: the sum 8 + a rounds onto it
    # for every a above 2**-50, half the candidate l - m
    NEAR_F, NEAR_G = unit_step(8.0 + 2**-49), unit_step(8.0)

    def test_feasible_slack_below_the_distance(self) -> None:
        assert levy_distance(self.NEAR_F, self.NEAR_G) == 2**-49
        a = 1.5 * 2**-50
        assert levy_feasible(self.NEAR_F, self.NEAR_G, a)
        assert not levy_within(self.NEAR_F, self.NEAR_G, a)
        assert levy_within(self.NEAR_F, self.NEAR_G, 2**-49)

    def test_nothing_is_within_a_nonpositive_slack(self) -> None:
        for a in (0.0, -1.0, math.nan):
            assert not levy_within(F_HALF, F_HALF, a)

    @given(levy_pairs(), st.lists(st.floats(0.0, 1.0), max_size=4))
    def test_candidate_slacks_bound_the_distance(self, pair, extra: list[float]) -> None:
        f, g = pair
        d = levy_distance(f, g)
        cands = _levy_candidates(f, g)
        slacks = sorted(
            {x for c in cands for x in (c, math.nextafter(c, 0.0), math.nextafter(c, 2.0))} | set(extra)
        )
        verdicts = [levy_feasible(f, g, a) for a in slacks]
        # float feasibility is monotone in the slack
        assert verdicts == sorted(verdicts)
        for a, feasible in zip(slacks, verdicts):
            if a in cands and feasible:
                assert d <= a
            if feasible:
                # any feasible slack bounds the distance by the next candidate
                assert d <= min((c for c in cands if c >= a), default=1.0)
            if levy_within(f, g, a):
                assert d <= a


class TestPointwiseOps:
    def test_leq_reflexive_and_eps0_maximal(self) -> None:
        assert pointwise_leq(F_HALF, F_HALF)
        assert pointwise_leq(F_HALF, EPS0)
        assert not pointwise_leq(EPS0, F_HALF)

    def test_gap_measures_violation(self) -> None:
        assert pointwise_gap(F_HALF, EPS0) == 0.0
        assert pointwise_gap(EPS0, F_HALF) == 1.0
        assert pointwise_gap(unit_step(0.25), F_HALF) == 0.5

    def test_min_max_are_envelopes(self) -> None:
        lo = pointwise_min(F_HALF, unit_step(0.5))
        hi = pointwise_max(F_HALF, unit_step(0.5))
        assert lo.jumps == ((0.5, 0.5), (0.75, 1.0))
        assert hi.jumps == ((0.25, 0.5), (0.5, 1.0))

    @given(step_fns(), step_fns())
    def test_envelope_order(self, f: StepDistFn, g: StepDistFn) -> None:
        lo = pointwise_min(f, g)
        hi = pointwise_max(f, g)
        for h in (f, g):
            assert pointwise_leq(lo, h)
            assert pointwise_leq(h, hi)

    @given(step_fns(), step_fns())
    def test_gap_zero_iff_leq(self, f: StepDistFn, g: StepDistFn) -> None:
        assert (pointwise_gap(f, g) == 0.0) == pointwise_leq(f, g)

    @given(st.one_of(step_fns(), wide_step_fns()), st.one_of(step_fns(), wide_step_fns()))
    def test_gap_equals_largest_evaluate_difference(self, f: StepDistFn, g: StepDistFn) -> None:
        # left-continuous evaluation at the merged locations, and at points
        # between and beyond them, where both functions are constant
        locs = sorted({*f.locations, *g.locations})
        probes = locs + [0.5 * (a + b) for a, b in zip(locs, locs[1:])] + [locs[-1] * 2 + 1, math.inf]
        diffs = [evaluate(f, x) - evaluate(g, x) for x in probes]
        assert pointwise_gap(f, g) == max(0.0, *diffs)
        assert pointwise_leq(f, g) == all(d <= 0.0 for d in diffs)

    @given(st.one_of(step_fns(), wide_step_fns()), st.one_of(step_fns(), wide_step_fns()), st.data())
    def test_merge_walk_reads_every_plateau(self, f: StepDistFn, h: StepDistFn, data) -> None:
        # g shares some of f's jumps (shared locations, equal plateaus) and
        # takes others from h; the walk must read both at every location
        keep = data.draw(st.lists(st.booleans(), min_size=len(f.jumps), max_size=len(f.jumps)))
        take = data.draw(st.lists(st.booleans(), min_size=len(h.jumps), max_size=len(h.jumps)))
        chosen = dict(j for j, k in zip(h.jumps, take) if k)
        chosen.update(j for j, k in zip(f.jumps, keep) if k)
        chosen[f.support_end] = 1.0
        run, pairs = 0.0, []
        for loc in sorted(chosen):
            run = max(run, chosen[loc])
            pairs.append((loc, run))
        g = StepDistFn.from_pairs(pairs)
        for a, b in ((f, g), (g, f)):
            locs = sorted({*a.locations, *b.locations})
            probes = locs + [x + 0.5 * (y - x) for x, y in zip(locs, locs[1:])] + [locs[-1] * 2 + 1]
            lo, hi = pointwise_min(a, b), pointwise_max(a, b)
            assert pointwise_gap(a, b) == max(0.0, *(evaluate(a, x) - evaluate(b, x) for x in probes))
            for x in probes:
                assert evaluate(lo, x) == min(evaluate(a, x), evaluate(b, x))
                assert evaluate(hi, x) == max(evaluate(a, x), evaluate(b, x))
            # the jump lists the earlier bisect form built, bit for bit
            for got, pick in ((lo, min), (hi, max)):
                want = StepDistFn.from_pairs((x, pick(a.right_value(x), b.right_value(x))) for x in locs)
                assert got.jumps == want.jumps


class TestWeakConvergence:
    # the ordinary-limit verdict of the Levy distances to the limit
    def test_constant_sequence_converges(self) -> None:
        v = weakly_converges([F_HALF] * 40, F_HALF, horizon=40, tol=0.01)
        assert v.converged and bool(v)
        assert (v.value, v.residual, v.tail_low, v.tail_high) == (0.0, 0.0, 0.0, 0.0)

    def test_reads_the_tail_window(self) -> None:
        # a far function just before index tail_start(40) = 20 is not read; one at 20 is
        assert tail_start(40) == 20
        far = unit_step(0.4)
        v = weakly_converges([far] * 19 + [F_HALF] * 21, F_HALF, horizon=40, tol=0.01)
        assert v.converged
        v = weakly_converges([far] * 20 + [F_HALF] * 20, F_HALF, horizon=40, tol=0.01)
        assert v.status == INCONCLUSIVE and v.tail_high == levy_distance(far, F_HALF)
        # the functions past the horizon are not read either
        assert weakly_converges([F_HALF] * 40 + [far], F_HALF, horizon=40, tol=0.01).converged

    def test_shrinking_steps_converge_to_eps0(self) -> None:
        fs = [unit_step(1.0 / k) for k in range(1, 401)]
        v = weakly_converges(fs, EPS0, horizon=400, tol=0.02)
        # the Levy distances 1/k read 1/400 last and at most 1/200 over the window
        assert v.status == CONVERGED
        assert v.residual == 1.0 / 400 and v.tail_high == 1.0 / 200

    def test_stalled_sequence_fails(self) -> None:
        v = weakly_converges([unit_step(0.4)] * 60, EPS0, horizon=60, tol=0.02)
        assert v.status == DIVERGED
        assert v.residual == 0.4

    def test_argument_validation(self) -> None:
        with pytest.raises(ValueError, match="horizon"):
            weakly_converges([], EPS0, horizon=1, tol=0.1)
        with pytest.raises(ValueError, match="horizon"):
            weakly_converges([EPS0], EPS0, horizon=5, tol=0.1)
        with pytest.raises(ValueError, match="tol"):
            weakly_converges([EPS0], EPS0, horizon=1, tol=-0.1)
        # tol 0 is accepted, as by every Verdict
        assert weakly_converges([EPS0], EPS0, horizon=1, tol=0.0).converged
