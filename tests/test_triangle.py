"""Triangle functions: t-norm sup-convolutions and the maximal operation."""

from __future__ import annotations

import random
from typing import Callable

import pytest

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
    pointwise_min,
    t_lukasiewicz,
    t_minimum,
    t_product,
    unit_step,
)

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

    def test_domination_chain(self) -> None:
        sample = _sample_fns(17, 7)
        chain = [MAXIMAL, TriangleFn("min"), TriangleFn("prod"), TriangleFn("luka")]
        for hi, lo in zip(chain, chain[1:]):
            assert dominates(hi, lo, sample)
        assert not dominates(TriangleFn("luka"), MAXIMAL, sample)
