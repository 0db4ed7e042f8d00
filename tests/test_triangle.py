"""Triangle functions: t-norm sup-convolutions and the maximal operation."""

from __future__ import annotations

import json
import math
import random
from typing import Callable

import pytest
from hypothesis import given, settings, strategies as st

from conftest import step_fns, wide_step_fns
from pmstat import (
    EPS0,
    MAXIMAL,
    TNORMS,
    TRIANGLE_KINDS,
    StepDistFn,
    TriangleFn,
    apply_maximal,
    apply_supconv,
    check_triangle_axioms,
    dominates,
    evaluate,
    levy_distance,
    pointwise_gap,
    pointwise_max,
    pointwise_min,
    t_lukasiewicz,
    t_minimum,
    t_product,
    unit_step,
)
from pmstat.triangle import AxiomCheck, TriangleAxiomReport, _worst

F_HALF = StepDistFn.from_pairs([(0.25, 0.5), (0.75, 1.0)])


def _sample_fns(seed: int, count: int) -> list[StepDistFn]:
    rng = random.Random(seed)
    out = [EPS0, unit_step(0.5), F_HALF]
    while len(out) < count:
        n = rng.randint(1, 4)
        locs = sorted(rng.sample(range(0, 200), n))
        vals = sorted(rng.sample(range(1, 100), n - 1)) + [100]
        out.append(
            StepDistFn.from_pairs([(l / 100.0, v / 100.0) for l, v in zip(locs, vals)])
        )
    return out


def oracle_supconv_value(
    T: Callable[[float, float], float], f: StepDistFn, g: StepDistFn, t: float
) -> float:
    """Direct numeric sup of T(f(u), g(t - u)) over u in [0, t].

    Samples a coarse grid plus every split point where either factor can
    change plateau (jump locations of f, and t minus jump locations of g,
    each with a one-sided nudge).  On step functions this hits every
    constancy cell of the integrand, so the max equals the sup exactly.
    """
    if t <= 0.0:
        return 0.0
    # clamp: t * k / 50 can round an ulp past t, and t - u must stay >= 0
    cands = [min(t, max(0.0, t * k / 50.0)) for k in range(51)]
    for a in f.locations:
        for u in (a, a + 1e-9):
            if 0.0 <= u <= t:
                cands.append(u)
    for b in g.locations:
        for u in (t - b, t - b - 1e-9):
            if 0.0 <= u <= t:
                cands.append(u)
    return max(T(evaluate(f, u), evaluate(g, t - u)) for u in cands)


class TestTNorms:
    def test_values_on_unit_square(self) -> None:
        assert t_minimum(0.3, 0.7) == 0.3
        assert t_product(0.3, 0.7) == pytest.approx(0.21)
        assert t_lukasiewicz(0.6, 0.7) == pytest.approx(0.3)
        assert t_lukasiewicz(0.3, 0.6) == 0.0

    def test_unit_is_exactly_neutral(self) -> None:
        # 0.319358 + 1.0 - 1.0 drifts by an ulp; the guard must prevent that
        for v in (0.319358, 0.1, 0.75, 1.0, 0.0):
            assert t_lukasiewicz(1.0, v) == v
            assert t_lukasiewicz(v, 1.0) == v
            assert t_minimum(1.0, v) == v
            assert t_product(v, 1.0) == v

    def test_registry(self) -> None:
        assert set(TNORMS) == {"min", "prod", "luka"}
        assert set(TRIANGLE_KINDS) == {"maximal", "min", "prod", "luka"}

    def test_order_on_grid(self) -> None:
        for i in range(11):
            for j in range(11):
                a, b = i / 10.0, j / 10.0
                assert t_lukasiewicz(a, b) <= t_product(a, b) + 1e-12
                assert t_product(a, b) <= t_minimum(a, b)


class TestSupConvolution:
    @pytest.mark.parametrize("tag", ["min", "prod", "luka"])
    def test_matches_numeric_oracle(self, tag: str) -> None:
        T = TNORMS[tag]
        fns = _sample_fns(7, 7)
        for f in fns:
            for g in fns[:4]:
                h = apply_supconv(tag, f, g)
                end = f.support_end + g.support_end
                ts = [0.0, 0.005] + [end * k / 12.0 + 0.013 for k in range(13)]
                for t in ts:
                    want = oracle_supconv_value(T, f, g, t)
                    assert evaluate(h, t) == pytest.approx(want, abs=1e-9), (
                        f"{tag} at t={t}: f={f.jumps} g={g.jumps}"
                    )

    @pytest.mark.parametrize("tag", ["min", "prod", "luka"])
    def test_unit_steps_add(self, tag: str) -> None:
        assert apply_supconv(tag, unit_step(0.3), unit_step(0.45)) == unit_step(0.75)
        assert apply_supconv(tag, unit_step(0.0), unit_step(0.2)) == unit_step(0.2)

    def test_unknown_tag_rejected(self) -> None:
        with pytest.raises(ValueError, match="unknown t-norm"):
            apply_supconv("drastic", F_HALF, F_HALF)
        with pytest.raises(ValueError, match="unknown t-norm"):
            apply_supconv(t_product, F_HALF, F_HALF)

    @pytest.mark.parametrize("tag", ["min", "prod", "luka"])
    def test_overflowing_location_sum_is_named(self, tag: str) -> None:
        f = StepDistFn.from_pairs([(0.5, 0.5), (1e308, 1.0)])
        g = StepDistFn.from_pairs([(1.7e308, 1.0)])
        with pytest.raises(ValueError, match=r"sum overflows: 1e\+308 \+ 1\.7e\+308 "):
            apply_supconv(tag, f, g)
        with pytest.raises(ValueError, match=r"sum overflows: 1e\+308 \+ 1\.7e\+308 "):
            TriangleFn(tag).at_most(f, g, EPS0)
        assert MAXIMAL.at_most(f, g, f)

    def test_result_is_canonical(self) -> None:
        for f in _sample_fns(3, 8):
            h = apply_supconv("luka", f, F_HALF)
            assert h.values == tuple(sorted(set(h.values)))
            assert h.values[-1] == 1.0


class TestMaximalOperation:
    def test_is_pointwise_min(self) -> None:
        for f in _sample_fns(5, 6):
            assert apply_maximal(f, F_HALF) == pointwise_min(f, F_HALF)

    def test_unit_steps_take_later_location(self) -> None:
        assert apply_maximal(unit_step(0.3), unit_step(0.45)) == unit_step(0.45)

    def test_identity(self) -> None:
        for f in _sample_fns(9, 6):
            assert apply_maximal(f, EPS0) == f
            assert MAXIMAL(EPS0, f) == f


class TestTriangleFn:
    def test_dispatch(self) -> None:
        f = unit_step(0.2)
        assert TriangleFn("maximal")(f, f) == f
        assert TriangleFn("min")(f, f) == unit_step(0.4)
        assert TriangleFn("prod")(f, f) == unit_step(0.4)

    def test_unknown_kind_rejected(self) -> None:
        with pytest.raises(ValueError, match="unknown triangle function"):
            TriangleFn("sum")


def _reference_leq(f: StepDistFn, g: StepDistFn) -> bool:
    # left-continuous evaluation at the merged locations decides the order
    return all(evaluate(f, x) <= evaluate(g, x) for x in sorted({*f.locations, *g.locations}))


class TestAtMost:
    """``TriangleFn.at_most(f, g, h)`` is build-and-compare without the build."""

    @given(
        st.sampled_from(TRIANGLE_KINDS),
        st.one_of(step_fns(), wide_step_fns()),
        st.one_of(step_fns(), wide_step_fns()),
        st.one_of(step_fns(), wide_step_fns()),
        st.sampled_from(["op", "max", "min", "other"]),
    )
    @settings(max_examples=300)
    def test_equals_build_and_compare(self, kind: str, f: StepDistFn, g: StepDistFn, r: StepDistFn, how: str) -> None:
        op = TriangleFn(kind)
        try:
            built = op(f, g)
        except ValueError as exc:
            # an overflowing location sum: the same input error, built or not
            with pytest.raises(ValueError) as again:
                op.at_most(f, g, r)
            assert str(again.value) == str(exc)
            return
        h = {"op": built, "max": pointwise_max(built, r), "min": pointwise_min(built, r), "other": r}[how]
        assert op.at_most(f, g, h) == _reference_leq(built, h)
        if how in ("op", "max"):
            assert op.at_most(f, g, h)

    def test_reads_the_rounded_sum(self) -> None:
        # 0.1 + 0.2 rounds to 0.30000000000000004, just above 0.3
        f, g = unit_step(0.1), unit_step(0.2)
        assert TriangleFn("min").at_most(f, g, unit_step(0.1 + 0.2))
        assert not TriangleFn("min").at_most(f, g, unit_step(math.nextafter(0.1 + 0.2, 1.0)))
        assert TriangleFn("min").at_most(f, g, unit_step(0.3))


class TestAxiomChecks:
    # exact ops still show Levy residuals of a few ulps when float
    # regrouping shifts a sum-set location; the metric reports that gap
    TOL = 1e-12

    @pytest.mark.parametrize("tag", TRIANGLE_KINDS)
    def test_all_kinds_satisfy_axioms(self, tag: str) -> None:
        rep = check_triangle_axioms(TriangleFn(tag), _sample_fns(13, 7), tol=self.TOL)
        assert rep.ok, rep.to_json()
        assert {c.name for c in rep.checks} == {
            "commutative",
            "associative",
            "monotone",
            "identity",
        }

    def test_projection_fails(self) -> None:
        rep = check_triangle_axioms(lambda f, g: f, _sample_fns(13, 7), tol=self.TOL)
        assert not rep.ok
        assert not rep["commutative"].passed
        assert not rep["identity"].passed
        assert rep["commutative"].residual > 0.01
        assert rep["commutative"].witness

    def test_report_access(self) -> None:
        rep = check_triangle_axioms(MAXIMAL, _sample_fns(13, 4), tol=self.TOL)
        data = rep.to_json()
        assert data["ok"] is True
        assert len(data["checks"]) == 4
        with pytest.raises(KeyError):
            rep["nonexistent"]

    def test_empty_sample_rejected(self) -> None:
        with pytest.raises(ValueError, match="empty"):
            check_triangle_axioms(MAXIMAL, [])

    @pytest.mark.parametrize("tol", [-1e-12, -1.0, math.nan])
    def test_negative_or_nan_tol_rejected(self, tol: float) -> None:
        # such a tol used to report every axiom failed
        with pytest.raises(ValueError, match="tol must be a number >= 0"):
            check_triangle_axioms(MAXIMAL, _sample_fns(13, 3), tol=tol)

    def test_sample_entry_must_be_a_step_function(self) -> None:
        with pytest.raises(TypeError, match="sample entry 1 is a float, not a StepDistFn"):
            check_triangle_axioms(MAXIMAL, [F_HALF, 0.5])

    def test_op_value_must_be_a_step_function(self) -> None:
        # this op used to die with an AttributeError on 'float'.jumps
        with pytest.raises(TypeError, match="op returned a float, not a StepDistFn"):
            check_triangle_axioms(lambda f, g: 0.5, _sample_fns(13, 3))

    def test_domination_chain(self) -> None:
        sample = _sample_fns(17, 7)
        chain = [MAXIMAL, TriangleFn("min"), TriangleFn("prod"), TriangleFn("luka")]
        for hi, lo in zip(chain, chain[1:]):
            assert dominates(hi, lo, sample)
        assert not dominates(TriangleFn("luka"), MAXIMAL, sample)


def _reference_check_triangle_axioms(op, sample, tol: float = 1e-9) -> TriangleAxiomReport:
    """The axiom checker as four loops that build every op value afresh."""
    checks = []

    worst, wit = 0.0, ""
    for i, f in enumerate(sample):
        for j, g in enumerate(sample):
            d = levy_distance(op(f, g), op(g, f))
            if d > worst:
                worst, wit = d, f"pair ({i}, {j})"
    checks.append(AxiomCheck("commutative", worst <= tol, worst, wit))

    worst, wit = 0.0, ""
    trip = sample[: min(len(sample), 6)]
    for i, f in enumerate(trip):
        for j, g in enumerate(trip):
            for k, h in enumerate(trip):
                d = levy_distance(op(op(f, g), h), op(f, op(g, h)))
                if d > worst:
                    worst, wit = d, f"triple ({i}, {j}, {k})"
    checks.append(AxiomCheck("associative", worst <= tol, worst, wit))

    worst, wit = 0.0, ""
    for i, f in enumerate(sample):
        for j, f2 in enumerate(sample):
            upper = pointwise_max(f, f2)
            for k, g in enumerate(sample):
                gap = pointwise_gap(op(f, g), op(upper, g))
                if gap > worst:
                    worst, wit = gap, f"f={i} raised by {j}, g={k}"
    checks.append(AxiomCheck("monotone", worst <= tol, worst, wit))

    worst, wit = 0.0, ""
    for i, f in enumerate(sample):
        d = max(levy_distance(op(EPS0, f), f), levy_distance(op(f, EPS0), f))
        if d > worst:
            worst, wit = d, f"element {i}"
    checks.append(AxiomCheck("identity", worst <= tol, worst, wit))

    return TriangleAxiomReport(tuple(checks))


OPS = {
    **{kind: TriangleFn(kind) for kind in TRIANGLE_KINDS},
    "projection": lambda f, g: f,
    "pointwise-max": pointwise_max,
    # raising f or g moves the step later, so every monotone tuple can fail
    "antitone": lambda f, g: unit_step(evaluate(f, 1.0) + evaluate(g, 1.0)),
}


class TestOperationTable:
    """The checker builds each op value once and answers as the four loops do."""

    @pytest.mark.parametrize("name", sorted(OPS))
    @settings(max_examples=25)
    @given(
        sample=st.lists(step_fns(max_jumps=4), min_size=1, max_size=10),
        tol=st.sampled_from([0.0, 1e-12, 0.05]),
    )
    def test_matches_the_four_loops(self, name: str, sample, tol: float) -> None:
        op = OPS[name]
        got = json.dumps(check_triangle_axioms(op, sample, tol=tol).to_json())
        assert got == json.dumps(_reference_check_triangle_axioms(op, sample, tol=tol).to_json())

    @pytest.mark.parametrize("n", [1, 2, 6, 7, 10])
    def test_op_applications_per_check(self, n: int) -> None:
        calls = []

        def op(f, g):
            calls.append(None)
            return apply_supconv("prod", f, g)

        check_triangle_axioms(op, _sample_fns(13, n)[:n])
        # 1,002 for n = 10, where building every op value afresh makes 3,084
        assert len(calls) <= n * n + 2 * min(n, 6) ** 3 + n * n * (n - 1) // 2 + 2 * n


def _table_reference_check(op, sample, tol: float = 1e-9) -> TriangleAxiomReport:
    """The checker as it was before the memo and the Levy prune: one table of
    op values, every other op value built where it is used, every distance
    computed."""
    n = len(sample)
    prod = [[op(f, g) for g in sample] for f in sample]
    every, first6 = range(n), range(min(n, 6))
    commutative = _worst("commutative", tol, "pair ({}, {})", (
        ((i, j), levy_distance(prod[i][j], prod[j][i])) for i in every for j in every if i != j
    ))
    associative = _worst("associative", tol, "triple ({}, {}, {})", (
        ((i, j, k), levy_distance(op(prod[i][j], sample[k]), op(sample[i], prod[j][k])))
        for i in first6 for j in first6 for k in first6
    ))
    gaps = {}
    for i in every:
        for j in range(i + 1, n):
            upper = pointwise_max(sample[i], sample[j])
            for k, g in enumerate(sample):
                raised = op(upper, g)
                gaps[i, j, k] = pointwise_gap(prod[i][k], raised)
                gaps[j, i, k] = pointwise_gap(prod[j][k], raised)
    monotone = _worst("monotone", tol, "f={} raised by {}, g={}", sorted(gaps.items()))
    identity = _worst("identity", tol, "element {}", (
        ((i,), max(levy_distance(op(EPS0, f), f), levy_distance(op(f, EPS0), f)))
        for i, f in enumerate(sample)
    ))
    return TriangleAxiomReport((commutative, associative, monotone, identity))


def _ulp_shift(f: StepDistFn, ulps: int) -> StepDistFn:
    # every location moved up by the same number of ulps keeps the order
    pairs = []
    for loc, val in f.jumps:
        for _ in range(ulps):
            loc = math.nextafter(loc, math.inf)
        pairs.append((loc, val))
    return StepDistFn.from_pairs(pairs)


@st.composite
def axiom_samples(draw) -> list[StepDistFn]:
    """1 to 10 functions of 1 to 6 jumps, with EPS0, repeats and ulp-shifted copies."""
    out: list[StepDistFn] = []
    for _ in range(draw(st.integers(1, 10))):
        how = draw(st.sampled_from(["new", "new", "eps0", "repeat", "shift"]))
        if how == "eps0":
            out.append(EPS0)
        elif how == "repeat" and out:
            out.append(draw(st.sampled_from(out)))
        elif how == "shift" and out:
            out.append(_ulp_shift(draw(st.sampled_from(out)), draw(st.integers(1, 3))))
        else:
            out.append(draw(st.one_of(step_fns(max_jumps=6), wide_step_fns(max_jumps=6))))
    return out


SAME_REPORT_OPS = {
    **{kind: TriangleFn(kind) for kind in TRIANGLE_KINDS},
    "projection": lambda f, g: f,
    # f + 2g under the minimum t-norm: neither commutative nor associative
    "skewed": lambda f, g: apply_supconv("min", f, apply_supconv("min", g, g)),
}


class TestSameReport:
    """The memo, the Levy prune and the merge walk leave every report as it was."""

    @pytest.mark.parametrize("name", sorted(SAME_REPORT_OPS))
    @settings(max_examples=20)
    @given(sample=axiom_samples(), tol=st.sampled_from([0.0, 1e-12, 2e-6, 0.05]))
    def test_matches_the_table_reference(self, name: str, sample, tol: float) -> None:
        op = SAME_REPORT_OPS[name]
        try:
            want = json.dumps(_table_reference_check(op, sample, tol=tol).to_json())
        except ValueError as exc:
            # a location sum beyond the float range: the same first error
            with pytest.raises(ValueError) as again:
                check_triangle_axioms(op, sample, tol=tol)
            assert str(again.value) == str(exc)
            return
        assert json.dumps(check_triangle_axioms(op, sample, tol=tol).to_json()) == want

    def test_a_feasible_worst_does_not_hide_a_larger_residual(self) -> None:
        # element 0 sets the worst identity residual to 3 * 2**-51; element
        # 1 is at 2**-49, where 8 + a rounds onto 8 + 2**-49 for every
        # slack a above 2**-50, so that worst is already feasible for it
        a, b = unit_step(2.0), unit_step(8.0)
        shifted = {a: unit_step(2.0 + 3 * 2**-51), b: unit_step(8.0 + 2**-49)}

        def op(f, g):
            return shifted.get(g, g) if f == EPS0 else shifted.get(f, f) if g == EPS0 else f

        rep = check_triangle_axioms(op, [a, b], tol=0.0)
        assert rep["identity"] == AxiomCheck("identity", False, 2**-49, "element 1")
        assert rep.to_json() == _table_reference_check(op, [a, b], tol=0.0).to_json()
