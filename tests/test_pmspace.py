"""Finite probabilistic metric spaces and their strong topology."""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import step_fns, wide_step_fns
from pmstat import (
    EPS0,
    MAXIMAL,
    TRIANGLE_KINDS,
    AxiomViolation,
    FinitePMSpace,
    StepDistFn,
    TriangleFn,
    build_equilateral,
    build_metric_induced,
    evaluate,
    from_table,
    from_values,
    unit_step,
)
from pmstat.convergence import _outside, _point_set

F_HALF = StepDistFn.from_pairs([(0.25, 0.5), (0.75, 1.0)])


def _degenerate_pair() -> FinitePMSpace:
    # off-diagonal entry equal to the unit step at 0: violates P-2
    table = {(p, q): EPS0 for p in "pq" for q in "pq"}
    return from_table(("p", "q"), table, MAXIMAL, validate=False)


def _metric(d: dict):
    """The metric callable of a table of distances: zero on the diagonal,
    and ``d[(q, p)]`` where ``(p, q)`` is not listed."""
    return lambda p, q: 0.0 if p == q else d.get((p, q), d.get((q, p)))


def _loop_triangle_violation(pts: tuple, d: dict) -> tuple | None:
    """The triangle check by a triple loop over the metric: the axiom,
    witness and message of the first (p, q, r) with d(p,r) > d(p,q) + d(q,r)."""
    dist = _metric(d)
    for p, q, r in itertools.product(pts, repeat=3):
        direct, via = dist(p, r), dist(p, q) + dist(q, r)
        if direct > via:
            detail = (
                f"d(p,r)={direct!r} exceeds d(p,q)+d(q,r)={via!r} "
                f"by {direct - via:.3g} ({(direct - via) / math.ulp(direct):.3g} ulp)"
            )
            return "triangle-inequality", (p, q, r), f"triangle-inequality violated at {(p, q, r)}: {detail}"
    return None


def _loop_metric_violation(pts: tuple, dist) -> tuple | None:
    """The metric checks by loops over the callable ``dist``: the axiom,
    witness and message of the first negative or NaN value in row order,
    else of the first nonzero self-distance, else of the first pair, in
    combinations order, with asymmetric or zero distances (asymmetry named
    first)."""

    def found(witness: tuple, detail: str) -> tuple:
        return "metric", witness, f"metric violated at {witness}: {detail}"

    vals = {(p, q): float(dist(p, q)) for p in pts for q in pts}
    for (p, q), v in vals.items():
        if math.isnan(v) or v < 0.0:
            return found((p, q), f"negative or NaN distance {v}")
    for p in pts:
        if vals[(p, p)] != 0.0:
            return found((p,), "nonzero self-distance")
    for p, q in itertools.combinations(pts, 2):
        if vals[(p, q)] != vals[(q, p)]:
            return found((p, q), "asymmetric distances")
        if vals[(p, q)] == 0.0:
            return found((p, q), "zero distance between distinct points")
    return None


@st.composite
def _distance_tables(draw) -> tuple:
    """A full table of distances over 1 to 5 points: values from a small
    pool of two scales, or 0, so pairs repeat, vanish and break the
    triangle inequality; sometimes a nonzero self-distance, an asymmetric
    pair, or a NaN or negative value.  Values stay finite and small, so no
    unit step or location sum is refused first."""
    n = draw(st.integers(1, 5))
    pts = tuple(f"x{i}" for i in range(n))
    pool = draw(st.lists(st.one_of(st.floats(1e-3, 0.1), st.floats(1.0, 10.0)), min_size=1, max_size=4))

    def value() -> float:
        return 0.0 if draw(st.integers(0, 15)) == 0 else draw(st.sampled_from(pool))

    d = {}
    for i, p in enumerate(pts):
        d[(p, p)] = value() if draw(st.integers(0, 15)) == 0 else 0.0
        for q in pts[i + 1 :]:
            d[(p, q)] = d[(q, p)] = value()
            if draw(st.integers(0, 15)) == 0:
                d[(q, p)] = value()
    if draw(st.integers(0, 7)) == 0:
        d[draw(st.sampled_from(sorted(d)))] = draw(st.sampled_from([math.nan, -1.0, -5e-324]))
    return pts, d


class TestConstruction:
    def test_equilateral_basics(self, eq3: FinitePMSpace) -> None:
        assert eq3.points == ("a", "b", "c")
        assert eq3.ddf("a", "b") == F_HALF
        assert eq3.ddf("a", "a") == EPS0
        assert eq3.dist("a", "b") == 0.5
        assert eq3.dist("c", "c") == 0.0
        assert eq3.thresholds() == (0.5,)
        assert eq3.tau.kind == "maximal"

    def test_equilateral_rejects_unit_step_at_zero(self) -> None:
        with pytest.raises(AxiomViolation) as exc:
            build_equilateral(("a", "b"), EPS0)
        assert exc.value.axiom == "P-2"
        assert isinstance(exc.value, ValueError)

    def test_equilateral_p2_comes_from_the_table_check(self) -> None:
        with pytest.raises(AxiomViolation) as exc:
            build_equilateral(("a", "b", "c"), EPS0)
        assert exc.value.witness == ("a", "b")
        assert str(exc.value) == "P-2 violated at ('a', 'b'): off-diagonal entry equals the unit step at 0"

    def test_single_point_carrier(self) -> None:
        sp = build_equilateral(("only",), EPS0)
        assert sp.validate_axioms().ok
        assert sp.thresholds() == ()

    def test_empty_carrier_rejected(self) -> None:
        with pytest.raises(ValueError, match="at least one point"):
            FinitePMSpace((), {}, MAXIMAL)

    def test_duplicate_names_rejected(self) -> None:
        with pytest.raises(ValueError, match="duplicate"):
            build_equilateral(("a", "a"), F_HALF)

    def test_missing_pair_rejected(self) -> None:
        with pytest.raises(ValueError, match="missing the pair"):
            FinitePMSpace(("p", "q"), {("p", "p"): EPS0}, MAXIMAL)

    def test_metric_induced_line(self, line4: FinitePMSpace) -> None:
        assert line4.dist("w0", "w1") == pytest.approx(0.2)
        assert line4.dist("w0", "w3") == pytest.approx(0.6)
        assert line4.ddf("w0", "w2") == unit_step(0.4)
        assert line4.thresholds() == pytest.approx((0.2, 0.4, 0.6))
        assert line4.validate_axioms().ok

    def test_metric_rejections(self) -> None:
        with pytest.raises(AxiomViolation, match="asymmetric"):
            build_metric_induced(("p", "q"), _metric({("p", "q"): 1.0, ("q", "p"): 2.0}))
        with pytest.raises(AxiomViolation, match="negative"):
            build_metric_induced(("p", "q"), lambda p, q: -1.0 if p != q else 0.0)
        with pytest.raises(AxiomViolation, match="self-distance"):
            build_metric_induced(("p", "q"), lambda p, q: 1.0)
        with pytest.raises(AxiomViolation, match="zero distance"):
            build_metric_induced(("p", "q"), _metric({("p", "q"): 0.0}))
        with pytest.raises(TypeError, match="not callable"):
            build_metric_induced(("p", "q"), {("p", "q"): 1.0})

    def test_metric_triangle_violation_has_witness(self) -> None:
        d = {("p", "q"): 1.0, ("q", "r"): 1.0, ("p", "r"): 3.0}
        with pytest.raises(AxiomViolation) as exc:
            build_metric_induced(("p", "q", "r"), _metric(d))
        assert exc.value.axiom == "triangle-inequality"
        assert set(exc.value.witness) == {"p", "q", "r"}

    def test_one_ulp_triangle_violation_caught_at_metric_check(self) -> None:
        # 0.25 + 0.25 is exactly 0.5, so one ulp more is a violation by
        # rounding alone; it is named here, not left to surface as P-4
        d = {("p", "q"): 0.25, ("q", "r"): 0.25, ("p", "r"): math.nextafter(0.5, 1.0)}
        with pytest.raises(AxiomViolation) as exc:
            build_metric_induced(("p", "q", "r"), _metric(d))
        assert exc.value.axiom == "triangle-inequality"
        assert exc.value.witness in {("p", "q", "r"), ("r", "q", "p")}
        assert "(1 ulp)" in str(exc.value)

    @given(
        st.lists(st.integers(0, 60), min_size=2, max_size=5, unique=True),
        st.sampled_from(["scaled", "coords", "table"]),
        st.sampled_from([0.1, 0.3, 0.7, 1 / 3, 0.01]),
        st.data(),
    )
    def test_metric_check_accepts_exactly_when_p4_holds(self, ks, mode, step, data) -> None:
        # s * |i - j| (the old line: spec) and differences of coordinates
        # k * s break the triangle inequality by rounding alone, often;
        # arbitrary positive tables break it outright
        pts = tuple(f"x{i}" for i in range(len(ks)))
        d = {}
        for (i, p), (j, q) in itertools.combinations(enumerate(pts), 2):
            if mode == "scaled":
                d[(p, q)] = step * abs(ks[i] - ks[j])
            elif mode == "coords":
                d[(p, q)] = abs(ks[i] * step - ks[j] * step)
            else:
                d[(p, q)] = data.draw(st.floats(1e-3, 10.0))
        expected = _loop_triangle_violation(pts, d)
        if expected is None:
            build_metric_induced(pts, _metric(d))
        else:
            with pytest.raises(AxiomViolation) as exc:
                build_metric_induced(pts, _metric(d))
            assert (exc.value.axiom, exc.value.witness, str(exc.value)) == expected
        table = {
            (p, q): EPS0 if p == q else unit_step(_metric(d)(p, q))
            for p in pts
            for q in pts
        }
        space = from_table(pts, table, TriangleFn("min"), validate=False)
        assert (expected is None) == space.validate_axioms().ok

    def test_overflow_is_raised_before_a_triangle_violation(self) -> None:
        # (a, b, c) breaks the inequality, and d(d,a) + d(a,d) overflows:
        # P-4 decides every triple before it lists one, so the overflow wins
        d = {("a", "b"): 1.0, ("b", "c"): 1.0, ("a", "c"): 3.0}
        d.update({(p, "d"): 1e308 for p in "abc"})
        assert _loop_triangle_violation(tuple("abcd"), d)[1] == ("a", "b", "c")
        with pytest.raises(ValueError, match=r"jump-location sum overflows: 1e\+308 \+ 1e\+308") as exc:
            build_metric_induced(tuple("abcd"), _metric(d))
        assert not isinstance(exc.value, AxiomViolation)
        # an infinite distance has no unit step, whatever else it breaks
        with pytest.raises(ValueError, match="step location must be finite"):
            build_metric_induced(tuple("abc"), _metric({("a", "b"): 1.0, ("b", "c"): 1.0, ("a", "c"): math.inf}))

    def test_zero_one_way_is_named_a_zero_distance(self) -> None:
        # validate_axioms lists P-2 before P-3 within a pair, so d(p,q) = 0 < d(q,p)
        # is a zero distance; d(p,q) > 0 = d(q,p) stays asymmetric
        with pytest.raises(AxiomViolation) as exc:
            build_metric_induced(("p", "q"), lambda p, q: {("p", "q"): 0.0, ("q", "p"): 1.0}.get((p, q), 0.0))
        assert str(exc.value) == "metric violated at ('p', 'q'): zero distance between distinct points"
        with pytest.raises(AxiomViolation) as exc:
            build_metric_induced(("p", "q"), lambda p, q: {("p", "q"): 1.0, ("q", "p"): 0.0}.get((p, q), 0.0))
        assert str(exc.value) == "metric violated at ('p', 'q'): asymmetric distances"

    def test_unit_step_and_overflow_refusals_come_before_metric_breaks(self) -> None:
        # every value becomes a unit step and P-4 is decided before any
        # violation is listed, so neither an infinite self-distance nor an
        # overflowing sum is named as the metric break it also is
        with pytest.raises(ValueError, match="step location must be finite") as exc:
            build_metric_induced(("p", "q"), lambda p, q: math.inf if p == q else 1.0)
        assert not isinstance(exc.value, AxiomViolation)
        with pytest.raises(ValueError, match=r"jump-location sum overflows") as exc:
            build_metric_induced(("p", "q"), lambda p, q: 1e308 if p == "p" else 0.0)
        assert not isinstance(exc.value, AxiomViolation)

    @given(_distance_tables())
    @settings(max_examples=300)
    def test_metric_rejections_match_the_loops(self, case) -> None:
        pts, d = case

        def dist(p: str, q: str) -> float:
            return d[(p, q)]

        expected = _loop_metric_violation(pts, dist) or _loop_triangle_violation(pts, d)
        if expected is not None and expected[2].endswith("asymmetric distances") and d[expected[1]] == 0.0:
            # the one renaming: zero one way is P-2, which validate_axioms lists before P-3
            expected = ("metric", expected[1], f"metric violated at {expected[1]}: zero distance between distinct points")
        if expected is None:
            space = build_metric_induced(pts, dist)
            assert space.table == {pq: unit_step(v) for pq, v in d.items()}
            assert space.validate_axioms().ok
        else:
            with pytest.raises(AxiomViolation) as exc:
                build_metric_induced(pts, dist)
            assert (exc.value.axiom, exc.value.witness, str(exc.value)) == expected

    def test_distances_above_one_saturate(self) -> None:
        sp = build_metric_induced(("p", "q"), _metric({("p", "q"): 3.0}))
        assert sp.dist("p", "q") == 1.0
        assert sp.strong_neighborhood("p", 1.0) == frozenset({"p"})
        assert sp.strong_neighborhood("p", 1.01) == frozenset({"p", "q"})


class TestAxiomValidation:
    def test_valid_spaces_report_ok(self, eq3, line4) -> None:
        for sp in (eq3, line4):
            rep = sp.validate_axioms()
            assert rep.ok
            assert rep.first is None
            assert rep.to_json()["ok"] is True

    def test_p2_detected_in_degenerate_table(self) -> None:
        rep = _degenerate_pair().validate_axioms()
        assert not rep.ok
        assert rep.first[0] == "P-2"

    def test_p1_detected(self) -> None:
        table = {
            ("p", "p"): unit_step(0.1),
            ("p", "q"): F_HALF,
            ("q", "p"): F_HALF,
            ("q", "q"): EPS0,
        }
        rep = from_table(("p", "q"), table, MAXIMAL, validate=False).validate_axioms()
        assert ("P-1", ("p",)) in [(v[0], v[1]) for v in rep.violations]

    def test_p3_detected(self) -> None:
        table = {
            ("p", "p"): EPS0,
            ("q", "q"): EPS0,
            ("p", "q"): F_HALF,
            ("q", "p"): unit_step(0.5),
        }
        with pytest.raises(AxiomViolation) as exc:
            from_table(("p", "q"), table, MAXIMAL)
        assert exc.value.axiom == "P-3"

    def test_p4_detected_under_min_supconv(self) -> None:
        # d(p,r)=3 > d(p,q)+d(q,r)=2, so tau(F_pq, F_qr) jumps before F_pr
        pts = ("p", "q", "r")
        d = {("p", "q"): 1.0, ("q", "r"): 1.0, ("p", "r"): 3.0}
        table = {}
        for a in pts:
            for b in pts:
                key = (a, b) if (a, b) in d else (b, a)
                table[(a, b)] = EPS0 if a == b else unit_step(d[key])
        sp = from_table(pts, table, TriangleFn("min"), validate=False)
        rep = sp.validate_axioms()
        assert not rep.ok
        tags = {v[0] for v in rep.violations}
        assert tags == {"P-4"}
        with pytest.raises(AxiomViolation) as exc:
            from_table(pts, table, TriangleFn("min"))
        assert exc.value.axiom == "P-4"
        assert exc.value.witness in {("p", "q", "r"), ("r", "q", "p")}


def _reference_violations(space: FinitePMSpace) -> tuple:
    """P-1 to P-4 by the definition: one tau(F_pq, F_qr) built and compared
    per point triple, in (p, q, r) order."""
    pts, table = space.points, space.table
    bad = [("P-1", (p,), "diagonal entry is not the unit step at 0") for p in pts if table[(p, p)] != EPS0]
    for p, q in itertools.combinations(pts, 2):
        if table[(p, q)] == EPS0:
            bad.append(("P-2", (p, q), "off-diagonal entry equals the unit step at 0"))
        if table[(p, q)] != table[(q, p)]:
            bad.append(("P-3", (p, q), "table is not symmetric"))
    for p, q, r in itertools.product(pts, repeat=3):
        lower, upper = space.tau(table[(p, q)], table[(q, r)]), table[(p, r)]
        if not all(evaluate(lower, x) <= evaluate(upper, x) for x in sorted({*lower.locations, *upper.locations})):
            bad.append(("P-4", (p, q, r), "tau(F_pq, F_qr) exceeds F_pr somewhere"))
    return tuple(bad)


@st.composite
def _tables(draw) -> FinitePMSpace:
    # entries from a small pool, EPS0 included, so entries repeat and any of
    # P-1 to P-4 can fail, in any mix
    n = draw(st.integers(1, 5))
    pool = [EPS0] + draw(st.lists(st.one_of(step_fns(3), wide_step_fns(3)), min_size=1, max_size=4))
    pick = st.integers(0, len(pool) - 1)
    pts = tuple(f"p{i}" for i in range(n))
    table = {}
    for i, p in enumerate(pts):
        table[(p, p)] = pool[draw(pick) if draw(st.integers(0, 3)) == 0 else 0]
        for q in pts[i + 1 :]:
            table[(p, q)] = table[(q, p)] = pool[draw(pick)]
            if draw(st.integers(0, 5)) == 0:
                table[(q, p)] = pool[draw(pick)]
    return from_table(pts, table, TriangleFn(draw(st.sampled_from(TRIANGLE_KINDS))), validate=False)


class TestValidationAgainstReference:
    @given(_tables())
    @settings(max_examples=200)
    def test_same_violations_in_the_same_order(self, space: FinitePMSpace) -> None:
        try:
            expected = _reference_violations(space)
        except ValueError as exc:
            # an overflowing location sum names the pair the triple loop meets first
            with pytest.raises(ValueError) as again:
                space.validate_axioms()
            assert str(again.value) == str(exc)
            return
        assert space.validate_axioms().violations == expected

    @pytest.mark.parametrize("kind", TRIANGLE_KINDS)
    def test_planted_violations(self, kind: str) -> None:
        pts = ("a", "b", "c", "d")
        table = {(p, q): EPS0 if p == q else F_HALF for p in pts for q in pts}
        table[("a", "a")] = F_HALF  # P-1
        table[("b", "c")] = table[("c", "b")] = EPS0  # P-2
        table[("a", "d")] = unit_step(0.5)  # P-3
        table[("c", "d")] = table[("d", "c")] = unit_step(2.0)  # P-4: 0 up to 2, below tau(F_cb, F_bd) = F_HALF
        space = from_table(pts, table, TriangleFn(kind), validate=False)
        violations = space.validate_axioms().violations
        assert violations == _reference_violations(space)
        assert {v[0] for v in violations} == {"P-1", "P-2", "P-3", "P-4"}


class TestStrongTopology:
    def test_neighborhood_at_thresholds(self, eq3: FinitePMSpace) -> None:
        assert eq3.strong_neighborhood("a", 0.5) == frozenset({"a"})
        assert eq3.strong_neighborhood("a", 0.51) == frozenset({"a", "b", "c"})
        assert eq3.strong_neighborhood("a", 0.1) == frozenset({"a"})

    def test_neighborhood_validation(self, eq3: FinitePMSpace) -> None:
        with pytest.raises(ValueError, match="positive"):
            eq3.strong_neighborhood("a", 0.0)
        with pytest.raises(ValueError, match="unknown point"):
            eq3.strong_neighborhood("z", 0.5)

    def test_neighborhoods_on_line(self, line4: FinitePMSpace) -> None:
        assert line4.strong_neighborhood("w0", 0.3) == frozenset({"w0", "w1"})
        assert line4.strong_neighborhood("w0", 0.45) == frozenset({"w0", "w1", "w2"})
        assert line4.strong_neighborhood("w1", 0.7) == frozenset(line4.points)

    def test_vicinity_is_symmetric_with_diagonal(self, line4: FinitePMSpace) -> None:
        v = line4.strong_vicinity(0.3)
        assert all((q, p) in v for (p, q) in v)
        assert all((p, p) in v for p in line4.points)
        assert ("w0", "w1") in v and ("w0", "w2") not in v
        with pytest.raises(ValueError, match="positive"):
            line4.strong_vicinity(-0.2)

    def test_parameter_refused_by_strong_neighborhood(self, eq3: FinitePMSpace) -> None:
        with pytest.raises(ValueError, match=r"^neighborhood parameter must be positive, got -0\.2$"):
            eq3.strong_vicinity(-0.2)
        with pytest.raises(ValueError, match=r"^neighborhood parameter must be positive, got 0\.0$"):
            eq3.vicinity_composition_alpha(0.0)

    def test_composition_slack_on_line(self, line4: FinitePMSpace) -> None:
        # at 0.5 the hop w0->w2->w3 escapes V(0.5), so alpha backs off to 0.4
        assert line4.vicinity_composition_alpha(0.5) == pytest.approx(0.4)
        assert line4.vicinity_composition_alpha(0.21) == pytest.approx(0.2)

    def test_composition_slack_equilateral(self, eq3: FinitePMSpace) -> None:
        assert eq3.vicinity_composition_alpha(0.6) == 0.6
        assert eq3.vicinity_composition_alpha(0.5) == 0.5
        with pytest.raises(ValueError, match="positive"):
            eq3.vicinity_composition_alpha(0.0)

    def test_closure_is_identity(self, eq3, line4) -> None:
        for sp in (eq3, line4):
            pts = sp.points
            assert sp.strong_closure(()) == frozenset()
            assert sp.strong_closure((pts[0],)) == frozenset({pts[0]})
            assert sp.strong_closure(pts) == frozenset(pts)
        with pytest.raises(ValueError, match="unknown points"):
            eq3.strong_closure(("a", "nope"))

    def test_no_set_limit_points_on_valid_space(self, eq3: FinitePMSpace) -> None:
        assert eq3.set_limit_points(("a", "b", "c")) == frozenset()
        assert eq3.set_limit_points(()) == frozenset()

    def test_degenerate_table_has_set_limit_points(self) -> None:
        sp = _degenerate_pair()
        assert sp.set_limit_points(("p", "q")) == frozenset({"p", "q"})
        assert sp.strong_closure(("p",)) == frozenset({"p", "q"})


def _reference_vicinity(space: FinitePMSpace, u: float) -> frozenset:
    """``{(p, q) : F_pq(u) > 1 - u}`` from the table."""
    return frozenset(
        (p, q) for p in space.points for q in space.points if evaluate(space.table[(p, q)], u) > 1.0 - u
    )


def _reference_alpha(space: FinitePMSpace, u: float) -> float | None:
    """The largest grid value alpha whose composed pair set V(alpha) o V(alpha)
    lies in V(u); None where there is none."""
    target = _reference_vicinity(space, u)
    for alpha in sorted({u} | {t for t in space.thresholds() if t <= u}, reverse=True):
        v = _reference_vicinity(space, alpha)
        if {(p, r) for (p, q1) in v for (q2, r) in v if q1 == q2} <= target:
            return alpha
    return None


def _reference_limit_points(space: FinitePMSpace, members: frozenset) -> frozenset:
    """Points l with ``min dist(l, e) == 0`` over the members other than l."""
    return frozenset(
        l
        for l in space.points
        if members - {l} and min(space.dist(l, e) for e in members - {l}) == 0.0
    )


class TestNeighborhoodReadersAgainstReference:
    @given(_tables(), st.data())
    @settings(max_examples=150)
    def test_readers_of_strong_neighborhood(self, space: FinitePMSpace, data) -> None:
        for u in space.thresholds() + (0.05, 0.37, 1.0):
            assert space.strong_vicinity(u) == _reference_vicinity(space, u)
            expected = _reference_alpha(space, u)
            if expected is None:
                with pytest.raises(ValueError, match="vicinities do not compose"):
                    space.vicinity_composition_alpha(u)
            else:
                assert space.vicinity_composition_alpha(u) == expected
        members = frozenset(data.draw(st.lists(st.sampled_from(space.points))))
        assert space.set_limit_points(members) == _reference_limit_points(space, members)

    @given(_tables(), st.data())
    @settings(max_examples=150)
    def test_defect_set_is_the_complement_of_the_neighborhood(self, space: FinitePMSpace, data) -> None:
        values = data.draw(st.lists(st.sampled_from(space.points), min_size=1, max_size=12))
        x = from_values(space, values, space.points[0])
        symmetric = all(space.table[(p, q)] == space.table[(q, p)] for p in space.points for q in space.points)
        for c in space.points:
            for t in space.thresholds() + (0.05, 0.37, 1.0):
                got = _point_set(x, "defect", _outside(space, c, t)).indicator(len(values)).tolist()
                near = space.strong_neighborhood(c, t)
                assert got == [v not in near for v in values]
                if symmetric:
                    # on a P-3 table this is also the F_{x_k, c} form
                    assert got == [evaluate(space.table[(v, c)], t) <= 1.0 - t for v in values]


class TestSerialization:
    def test_round_trip(self, eq3: FinitePMSpace) -> None:
        data = eq3.to_json()
        back = FinitePMSpace.from_json(data)
        assert back.points == eq3.points
        assert back.tau == eq3.tau
        assert all(
            back.table[(p, q)] == eq3.table[(p, q)]
            for p in eq3.points
            for q in eq3.points
        )

    def test_round_trip_metric_space(self, line4: FinitePMSpace) -> None:
        back = FinitePMSpace.from_json(line4.to_json())
        assert back.dist("w0", "w3") == line4.dist("w0", "w3")
        assert back.tau.kind == "min"

    def test_from_json_validates(self) -> None:
        data = _degenerate_pair().to_json()
        with pytest.raises(AxiomViolation):
            FinitePMSpace.from_json(data)
