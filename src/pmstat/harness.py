"""Seeded ground-truth instances and the theorem suite.

The suite builds a deterministic corpus of sequences over small
probabilistic metric spaces, each with ground truth known by
construction (intended limit, Cauchyness, statistical limit and cluster
point sets), runs every detector against that truth, and adds cross
checks between results that the theory forces to agree.  Negative
controls that must fail are reported alongside; the suite passes when
every regular check passes and every control fails.

Also here: deliberately slow oracles for the Levy metric, which shares
only the evaluation primitive with the library, and for matrix
densities, the generic row loop over scalar rows on a set's indicator,
which each kind's array series is checked against; tests freeze their
outputs against the fast implementations.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import warnings
from dataclasses import asdict, dataclass
from typing import Mapping, Sequence

import numpy as np

from . import convergence as conv
from .convergence import (
    IndexedSequence,
    alternating,
    constant_sequence,
    eventually_constant,
    gamma_set,
    lambda_set,
    lemma_cauchy_predicates,
    splice,
    strong_conv_detect,
    strong_limit_point_set,
    stat_bounded_check,
    visit_set,
)
from .distfn import (
    EPS0,
    StepDistFn,
    evaluate,
    levy_distance,
    levy_distance_to_zero,
    unit_step,
)
from .pmspace import FinitePMSpace, build_equilateral, build_metric_induced
from .summability import (
    CUBES,
    DEFAULT_HORIZON,
    EVENS,
    POWERS_OF_TWO,
    SQUARES,
    ConstantColumnMatrix,
    Ideal,
    IndexSet,
    SummMatrix,
    Verdict,
    ai_density_is_null,
    a_density_partial,
    check_regularity,
    finite_set,
    ideal_from_spec,
    matrix_from_spec,
    multiples,
    nonthin,
)
from .triangle import MAXIMAL, TriangleFn, check_triangle_axioms, dominates

DEFAULT_SUITE_SIZE = 24
DEFAULT_SUITE_TOL = 0.02
# Band for float rounding alone: regrouped jump-location sums in the axiom
# checks and rounded candidate differences in the metric's triangle
# inequality, both a few ulps of numbers below 10.  The metric is exact.
_ROUNDING_BAND = 1e-9


def _at_least(lo: int) -> IndexSet:
    """Indices from ``lo`` on."""

    def vec(n: int) -> np.ndarray:
        arr = np.zeros(n, dtype=bool)
        arr[max(lo, 1) - 1 :] = True
        return arr

    return IndexSet(f"from:{lo}", vec)


# density-zero ideals resolve slowly at a finite horizon: a set is only
# recognizably null when its partial densities stay below the epsilon
# floor on every row, so these start late enough to never cross it
LATE_SQUARES = SQUARES & _at_least(2500)
LATE_POW2 = POWERS_OF_TWO & _at_least(2000)


# ---------------------------------------------------------------------------
# independent oracles


def random_step_fn(rng: np.random.Generator, max_jumps: int = 5) -> StepDistFn:
    """A random step d.d.f. for property tests: at most ``max_jumps`` jumps
    at locations in [0, 2), generic shape."""
    m = int(rng.integers(1, max_jumps + 1))
    locs = np.unique(np.round(rng.uniform(0.0, 2.0, size=m), 6))
    vals = np.unique(np.round(rng.uniform(0.02, 0.98, size=len(locs) - 1), 6))
    heights = list(vals[: len(locs) - 1]) + [1.0]
    return StepDistFn.from_pairs(zip(locs[: len(heights)], heights))


def _ev(f: StepDistFn, x: float) -> float:
    # zero extension to the whole line, as the metric definition demands
    return 0.0 if x <= 0.0 else evaluate(f, x)


def oracle_levy_feasible(f: StepDistFn, g: StepDistFn, a: float) -> bool:
    """Brute-force feasibility of a in the modified Levy metric.

    Scans a point set dense enough for piecewise-constant functions: all
    jump locations of both functions, shifted by 0 and +-a, nudged just
    above each jump, clipped to (0, 1/a], plus the endpoint itself.
    """
    hi = 1.0 / a
    xs = {hi, max(hi - 1e-9, 1e-12)}
    for h in (f, g):
        for loc in h.locations:
            for base in (loc - a, loc, loc + a):
                for x in (base, base + 1e-9):
                    if 0.0 < x <= hi:
                        xs.add(x)
    for x in xs:
        if _ev(f, x - a) - a > _ev(g, x) + 1e-12:
            return False
        if _ev(g, x) > _ev(f, x + a) + a + 1e-12:
            return False
        if _ev(g, x - a) - a > _ev(f, x) + 1e-12:
            return False
        if _ev(f, x) > _ev(g, x + a) + a + 1e-12:
            return False
    return True


def oracle_levy_distance(f: StepDistFn, g: StepDistFn, step: float = 0.01) -> float:
    """Grid-scan oracle: the smallest feasible a on a uniform grid.

    Overestimates the true distance by at most one grid step; a = 1 is
    always feasible, so the scan terminates.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    n = math.ceil(1.0 / step)
    for i in range(1, n + 1):
        a = min(1.0, i * step)
        if oracle_levy_feasible(f, g, a):
            return a
    return 1.0


def oracle_density(A: SummMatrix, member: IndexSet, n_rows: int) -> np.ndarray:
    """The generic row loop of ``SummMatrix`` on ``member.indicator``: no
    kind's array series is read; small n_rows only."""
    return SummMatrix.density_series(A, member, n_rows)


# ---------------------------------------------------------------------------
# instances


@dataclass(eq=False)
class Instance:
    """One generated sequence with its ground truth.

    ``splice_null`` is an index set known to have A^I-density zero under
    this instance's matrix and ideal; equivalence checks modify the
    sequence there.  ``witness`` is an explicit subsequence index set for
    the witness-verified convergence check, present only when the recipe
    provides one.
    """

    name: str
    family: str
    space_name: str
    space: FinitePMSpace
    x: IndexedSequence
    matrix: SummMatrix
    ideal: Ideal
    expected_limit: str | None
    expected_cauchy: bool
    expected_lambda: frozenset[str]
    expected_gamma: frozenset[str]
    splice_null: IndexSet
    witness: IndexSet | None = None
    cluster_pair: tuple[str, str] | None = None

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "family": self.family,
            "space": self.space_name,
            "matrix": self.matrix.name,
            "ideal": self.ideal.name,
            "sequence": self.x.description,
            "expected_limit": self.expected_limit,
            "expected_cauchy": self.expected_cauchy,
            "expected_lambda": sorted(self.expected_lambda),
            "expected_gamma": sorted(self.expected_gamma),
        }


def space_pool() -> dict[str, FinitePMSpace]:
    """The four spaces the generated instances live on.

    Two equilateral spaces (all pairs share one d.d.f.) and two spaces
    induced by points on a line, which give a ladder of thresholds.
    """
    eq3 = build_equilateral(("a", "b", "c"), StepDistFn.from_pairs([(0.25, 0.5), (0.75, 1.0)]))
    eq4 = build_equilateral(("a", "b", "c", "d"), unit_step(0.6))
    line4 = build_metric_induced(
        ("w0", "w1", "w2", "w3"),
        lambda p, q: 0.2 * abs(int(p[1:]) - int(q[1:])),
    )
    line5 = build_metric_induced(
        ("v0", "v1", "v2", "v3", "v4"),
        lambda p, q: 0.3 * abs(int(p[1:]) - int(q[1:])),
    )
    return {"EQ3": eq3, "EQ4": eq4, "LINE4": line4, "LINE5": line5}


_RECIPES: tuple[tuple[str, str, str, str], ...] = (
    ("const", "EQ3", "cesaro", "fin"),
    ("const", "LINE5", "cesaro", "fin"),
    ("except-squares", "EQ3", "cesaro", "fin"),
    ("except-squares", "LINE4", "cesaro", "fin"),
    ("except-pow2", "EQ4", "cesaro", "fin"),
    ("except-pow2", "LINE5", "cesaro", "fin"),
    ("except-cubes", "EQ3", "cesaro", "fin"),
    ("except-cubes", "LINE4", "weighted:1", "fin"),
    ("finite-exception", "EQ3", "identity", "fin"),
    ("finite-exception", "LINE5", "identity", "fin"),
    ("alternate-evens", "EQ3", "cesaro", "fin"),
    ("alternate-evens", "LINE4", "cesaro", "fin"),
    ("alternate-mod3", "EQ4", "cesaro", "fin"),
    ("alternate-mod3", "LINE5", "cesaro", "fin"),
    ("thin-visit", "EQ3", "cesaro", "fin"),
    ("thin-visit", "LINE4", "cesaro", "fin"),
    ("splice-null", "EQ3", "cesaro", "fin"),
    ("sparse-rows-limit", "EQ3", "squares", "fin"),
    ("sparse-rows-alt", "EQ3", "cesaro", "fin"),
    ("except-late-squares-density-ideal", "EQ3", "cesaro", "density:cesaro"),
    ("alternate-evens-density-ideal", "LINE4", "cesaro", "density:cesaro"),
    ("except-squares-block", "EQ4", "block:10", "fin"),
    ("witnessed-except-squares", "LINE5", "cesaro", "fin"),
    ("bounded-pair", "EQ4", "cesaro", "fin"),
)

_EXCEPT_SETS = {
    "except-squares": SQUARES,
    "except-pow2": POWERS_OF_TWO,
    "except-cubes": CUBES,
    "except-squares-block": SQUARES,
    "witnessed-except-squares": SQUARES,
    "except-late-squares-density-ideal": LATE_SQUARES,
}


def _pick(rng: np.random.Generator, pts: Sequence[str]) -> str:
    return pts[int(rng.integers(0, len(pts)))]


def _pick_two(rng: np.random.Generator, pts: Sequence[str]) -> tuple[str, str]:
    i = int(rng.integers(0, len(pts)))
    j = int(rng.integers(0, len(pts) - 1))
    if j >= i:
        j += 1
    return pts[i], pts[j]


def _null_set_for(family: str, matrix_spec: str, ideal_spec: str) -> IndexSet:
    # a set of A^I-density zero with comfortable margin at the default
    # horizon; chosen per matrix since "null" depends on the row scheme
    if ideal_spec.startswith("density:"):
        return LATE_POW2
    if matrix_spec == "identity":
        return finite_set(range(101, 161))
    if matrix_spec == "squares":
        return finite_set((102, 103, 105, 107))
    if matrix_spec.startswith("block:"):
        return finite_set(range(1, 51))
    if family in ("except-pow2",):
        return CUBES
    return POWERS_OF_TWO


def _build_instance(
    idx: int,
    family: str,
    space_name: str,
    matrix_spec: str,
    ideal_spec: str,
    spaces: Mapping[str, FinitePMSpace],
    rng: np.random.Generator,
) -> Instance:
    space = spaces[space_name]
    pts = space.points
    A = matrix_from_spec(matrix_spec)
    ideal = ideal_from_spec(ideal_spec)
    name = f"{idx:02d}-{family}"
    splice_null = _null_set_for(family, matrix_spec, ideal_spec)
    witness: IndexSet | None = None
    cluster_pair: tuple[str, str] | None = None

    if family == "const":
        limit = _pick(rng, pts)
        x = constant_sequence(space, limit)
        expected = (limit, True, frozenset({limit}), frozenset({limit}))
    elif family in _EXCEPT_SETS:
        limit = _pick(rng, pts)
        x = eventually_constant(space, limit, _EXCEPT_SETS[family])
        if family == "except-squares-block":
            # per-row block averages of the exceptional set keep spiking,
            # so no candidate is accepted, yet the constant value is the
            # unique statistical limit point
            expected = (None, False, frozenset({limit}), frozenset({limit}))
        else:
            expected = (limit, True, frozenset({limit}), frozenset({limit}))
        if family == "witnessed-except-squares":
            witness = ~SQUARES
    elif family == "finite-exception":
        limit = _pick(rng, pts)
        members = sorted(int(v) for v in rng.choice(np.arange(1, 401), size=12, replace=False))
        x = eventually_constant(space, limit, finite_set(members))
        expected = (limit, True, frozenset({limit}), frozenset({limit}))
    elif family in ("alternate-evens", "alternate-evens-density-ideal", "bounded-pair", "alternate-mod3"):
        p, q = _pick_two(rng, pts)
        x = alternating(space, p, q, multiples(3) if family == "alternate-mod3" else EVENS)
        cluster_pair = (p, q)
        expected = (None, False, frozenset({p, q}), frozenset({p, q}))
    elif family == "thin-visit":
        p, q = _pick_two(rng, pts)
        x = eventually_constant(space, p, SQUARES, off=q)
        expected = (p, True, frozenset({p}), frozenset({p}))
    elif family == "splice-null":
        limit = _pick(rng, pts)
        fill = next(c for c in pts if c != limit)
        base = eventually_constant(space, limit, SQUARES)
        x = splice(base, ~POWERS_OF_TWO, fill)
        splice_null = CUBES
        expected = (limit, True, frozenset({limit}), frozenset({limit}))
    elif family in ("sparse-rows-limit", "sparse-rows-alt"):
        p, q = _pick_two(rng, pts)
        x = alternating(space, p, q, SQUARES)
        limit = p if family == "sparse-rows-limit" else q
        expected = (limit, True, frozenset({limit}), frozenset({limit}))
    else:
        raise ValueError(f"unknown recipe family {family!r}")

    limit, cauchy, lam, gam = expected
    return Instance(
        name=name,
        family=family,
        space_name=space_name,
        space=space,
        x=x,
        matrix=A,
        ideal=ideal,
        expected_limit=limit,
        expected_cauchy=cauchy,
        expected_lambda=lam,
        expected_gamma=gam,
        splice_null=splice_null,
        witness=witness,
        cluster_pair=cluster_pair,
    )


def generate_suite(seed: int = 1, size: int = DEFAULT_SUITE_SIZE) -> list[Instance]:
    """Deterministic instance corpus: same seed, same instances.

    Recipes cycle when ``size`` exceeds the recipe table; the generator
    draws point labels in a fixed order so any prefix is stable.
    """
    if size < 0:
        raise ValueError("size must be >= 0")
    rng = np.random.default_rng(seed)
    spaces = space_pool()
    out = []
    for i in range(size):
        family, space_name, mspec, ispec = _RECIPES[i % len(_RECIPES)]
        out.append(_build_instance(i + 1, family, space_name, mspec, ispec, spaces, rng))
    return out


# ---------------------------------------------------------------------------
# the suite


@dataclass(frozen=True)
class SuiteConfig:
    seed: int = 1
    horizon: int = DEFAULT_HORIZON
    tol: float = DEFAULT_SUITE_TOL
    size: int = DEFAULT_SUITE_SIZE

    def to_json(self) -> dict:
        return asdict(self)


def _check(
    name: str,
    group: str,
    passed: bool,
    residual: float | None = None,
    instance: str | None = None,
    control: bool = False,
    detail: object = None,
) -> dict:
    out = {
        "name": name,
        "group": group,
        "instance": instance,
        "control": control,
        "passed": bool(passed),
        "residual": None if residual is None else float(residual),
    }
    if detail is not None:
        out["detail"] = detail
    return out


def _foundation_checks(cfg: SuiteConfig) -> list[dict]:
    rng = np.random.default_rng(cfg.seed)
    sample = [random_step_fn(rng) for _ in range(8)] + [EPS0, unit_step(0.4)]
    checks: list[dict] = []

    def add(name: str, passed: bool, residual: float) -> None:
        checks.append(_check(name, "foundations", passed, residual))

    ops = {
        "maximal": MAXIMAL,
        "supconv-min": TriangleFn("min"),
        "supconv-prod": TriangleFn("prod"),
        "supconv-luka": TriangleFn("luka"),
    }
    for tag, op in ops.items():
        rep = check_triangle_axioms(op, sample, tol=_ROUNDING_BAND)
        worst = max(c.residual for c in rep.checks)
        add(f"triangle-axioms-{tag}", rep.ok, worst)

    order = [("maximal", "supconv-min"), ("supconv-min", "supconv-prod"), ("supconv-prod", "supconv-luka")]
    ok = all(dominates(ops[hi], ops[lo], sample) for hi, lo in order)
    add("triangle-operation-order", ok, 0.0 if ok else 1.0)

    worst = 0.0
    for b in (0.0, 0.3, 0.7, 1.4):
        for c in (0.0, 0.2, 1.1):
            got = TriangleFn("min")(unit_step(b), unit_step(c))
            worst = max(worst, levy_distance(got, unit_step(b + c)))
    add("unit-steps-add-under-min-supconv", worst == 0.0, worst)

    d = [[levy_distance(f, g) for g in sample] for f in sample]
    worst = max(d[i][i] for i in range(len(sample)))
    worst = max(worst, max(abs(d[i][j] - d[j][i]) for i in range(len(sample)) for j in range(len(sample))))
    tri = 0.0
    for i in range(6):
        for j in range(6):
            for k in range(6):
                tri = max(tri, d[i][k] - d[i][j] - d[j][k])
    add("levy-metric-identity-symmetry", worst == 0.0, worst)
    add("levy-metric-triangle", tri <= _ROUNDING_BAND, tri)

    worst = max(abs(levy_distance(f, EPS0) - levy_distance_to_zero(f)) for f in sample)
    add("levy-zero-distance-closed-form", worst == 0.0, worst)

    for name, space in space_pool().items():
        rep = space.validate_axioms()
        add(f"space-axioms-{name}", rep.ok, 0.0 if rep.ok else 1.0)

    for mspec in ("cesaro", "identity", "squares", "weighted:1", "block:10"):
        A = matrix_from_spec(mspec)
        rep = check_regularity(A, cfg.horizon, cfg.tol)
        worst = max(c.residual for c in rep.conditions)
        add(f"matrix-regular-{A.name}", rep.ok, worst)

    A = matrix_from_spec("cesaro")
    y = a_density_partial(A, EVENS, cfg.horizon)
    add("density-evens-one-half", abs(y[-1] - 0.5) <= 0.01, abs(float(y[-1]) - 0.5))
    v = ai_density_is_null(A, Ideal.fin(), SQUARES, cfg.horizon, cfg.tol)
    add("density-squares-null", v.converged, v.residual)
    v = ai_density_is_null(matrix_from_spec("identity"), Ideal.fin(), finite_set(range(1, 60)), cfg.horizon, cfg.tol)
    add("density-finite-null-identity", v.converged, v.residual)

    worst = 0.0
    for mspec, member in (("cesaro", EVENS), ("squares", EVENS), ("block:10", SQUARES), ("weighted:1", SQUARES)):
        A = matrix_from_spec(mspec)
        rows = min(200, A.max_row_for(cfg.horizon))
        fast = A.density_series(member, rows)
        slow = oracle_density(A, member, rows)
        worst = max(worst, float(np.abs(fast - slow).max()))
    add("density-oracle-agreement", worst <= 1e-9, worst)

    return checks


def _instance_checks(inst: Instance, cfg: SuiteConfig) -> list[dict]:
    checks: list[dict] = []
    space, x, A, ideal = inst.space, inst.x, inst.matrix, inst.ideal
    N, tol = cfg.horizon, cfg.tol
    pts = space.points
    grid = conv._grid(space)

    def add(name: str, passed: bool, residual: float | None = None, detail: object = None) -> None:
        checks.append(_check(name, "theorems", passed, residual, inst.name, detail=detail))

    convs = {c: conv.ai_stat_conv_detect(x, c, A, ideal, N, tol) for c in pts}
    mism = [c for c in pts if convs[c].converged != (c == inst.expected_limit)]
    add(
        "detects-expected-limit-and-rejects-others",
        not mism,
        max((convs[c].residual for c in mism), default=0.0),
        {c: convs[c].status for c in pts},
    )

    # the lemma's anchor reading is the Cauchy detector's verdict, so the
    # suite asks the Cauchy question once
    p1, p2, p3 = lemma_cauchy_predicates(x, A, ideal, N, tol)
    cauchy = p1
    add("cauchy-verdict-matches-expected", cauchy.converged == inst.expected_cauchy, cauchy.residual)

    conv_points = [c for c in pts if convs[c].converged]
    add(
        "statistical-convergence-implies-cauchy",
        (not conv_points) or cauchy.converged,
        cauchy.residual if conv_points else 0.0,
    )

    agree = p1.converged == p2.converged == p3.converged
    add(
        "cauchy-three-readings-agree",
        agree,
        max(p1.residual, p2.residual, p3.residual),
        {"anchor": p1.converged, "removal": p2.converged, "double-density": p3.converged},
    )

    target = inst.expected_limit or pts[0]
    strong = strong_conv_detect(x, target, N, tol)
    add(
        "strong-convergence-implies-statistical",
        (not strong.converged) or convs[target].converged,
        0.0 if not strong.converged else convs[target].residual,
    )

    fill = next(c for c in pts if c != (inst.expected_limit or pts[0]))
    y = splice(x, ~inst.splice_null, fill)
    convs_y = {c: conv.ai_stat_conv_detect(y, c, A, ideal, N, tol) for c in pts}
    mism = [c for c in pts if convs_y[c].converged != convs[c].converged]
    add(
        "splice-on-null-set-preserves-limit-verdicts",
        not mism,
        max((convs_y[c].residual for c in mism), default=0.0),
    )

    gx = gamma_set(x, A, ideal, N, tol)
    gy = gamma_set(y, A, ideal, N, tol)
    add("splice-on-null-set-preserves-cluster-points", gx == gy, detail=sorted(gy))

    dist_mat = np.array([[space.dist(p, q) for q in pts] for p in pts])
    pd = dist_mat[x.value_codes(N), y.value_codes(N)]
    v = Verdict.all_of({f"t={t}": ai_density_is_null(A, ideal, pd >= t, N, tol) for t in grid}, 0.0, tol)
    add("pointwise-gap-to-spliced-sequence-is-null", v.converged, v.residual)

    lam = lambda_set(x, A, ideal, N, tol)
    add("statistical-limit-points-match-expected", lam == inst.expected_lambda, detail=sorted(lam))
    add("statistical-cluster-points-match-expected", gx == inst.expected_gamma, detail=sorted(gx))
    add("limit-points-within-cluster-points", lam <= gx)
    add("cluster-points-tail-recurrent", gx <= strong_limit_point_set(x, N))

    if inst.expected_limit is not None and convs[inst.expected_limit].converged:
        L = inst.expected_limit
        add("convergence-collapses-limit-point-sets", lam == gx == frozenset({L}))

    add("cluster-set-strongly-closed", space.strong_closure(gx) == gx)

    thin_ok = all(
        not nonthin(conv._points_null(x, {c}, A, ideal, N, tol))
        for c in pts
        if c not in gx
    )
    add("off-cluster-visit-sets-thin", thin_ok)

    bounded = stat_bounded_check(x, A, ideal, pts, N, tol)
    add("statistically-bounded-with-nonempty-clusters", bounded.converged and bool(gx), bounded.residual)

    if inst.cluster_pair is not None:
        p, q = inst.cluster_pair
        inside = stat_bounded_check(x, A, ideal, (p, q), N, tol)
        only_p = stat_bounded_check(x, A, ideal, (p,), N, tol)
        add(
            "bounded-exactly-at-cluster-pair",
            inside.converged and not only_p.converged,
            max(inside.residual, 0.0),
        )

    if inst.witness is not None:
        star = conv.ai_star_conv_detect(
            x, inst.expected_limit, A, ideal, inst.witness, N, tol, cauchy=inst.expected_limit is None
        )
        add("declared-witness-certifies-convergence", star.converged, star.residual)

    if inst.expected_limit is not None and convs[inst.expected_limit].converged:
        L = inst.expected_limit
        star = conv.ai_star_conv_detect(x, L, A, ideal, visit_set(x, L), N, tol)
        add("visit-set-witness-upgrades-convergence", star.converged, star.residual)

    if cauchy.converged:
        anchor = cauchy.value
        parts = {}
        for t in grid:
            for eps in (0.25, tol):
                far = {p for p in pts if 1.0 - space.ddf(p, anchor)(t) >= eps}
                parts[f"t={t},eps={eps}"] = conv._points_null(x, far, A, ideal, N, tol)
        v = Verdict.all_of(parts, anchor, tol)
        add("ddf-at-anchor-statistically-one", v.converged, v.residual)

    return checks


def _control_checks(cfg: SuiteConfig) -> list[dict]:
    checks: list[dict] = []

    def add(name: str, passed: bool, residual: float) -> None:
        checks.append(_check(name, "controls", passed, residual, control=True))

    rng = np.random.default_rng(cfg.seed + 7)
    sample = [random_step_fn(rng) for _ in range(5)] + [unit_step(0.5)]

    rep = check_triangle_axioms(lambda f, g: f, sample, tol=_ROUNDING_BAND)
    add("control-first-argument-projection-passes-axioms", rep.ok, max(c.residual for c in rep.checks))

    space = build_equilateral(("a", "b", "c"), StepDistFn.from_pairs([(0.25, 0.5), (0.75, 1.0)]))
    A = matrix_from_spec("cesaro")
    ideal = Ideal.fin()

    alt = alternating(space, "a", "b", EVENS)
    verdicts = [conv.ai_stat_conv_detect(alt, c, A, ideal, cfg.horizon, cfg.tol) for c in space.points]
    add(
        "control-alternating-sequence-admits-a-limit",
        any(v.converged for v in verdicts),
        min(v.residual for v in verdicts),
    )

    noisy = eventually_constant(space, "a", SQUARES)
    v = conv.ai_stat_conv_detect(noisy, "a", A, ideal, cfg.horizon, tol=1e-9)
    add("control-zero-tolerance-accepts-sparse-noise", v.converged, v.residual)

    rep = check_regularity(ConstantColumnMatrix(), cfg.horizon, cfg.tol)
    add("control-constant-column-matrix-is-regular", rep.ok, max(c.residual for c in rep.conditions))
    return checks


def run_theorem_suite(instances: Sequence[Instance], cfg: SuiteConfig | None = None) -> dict:
    """Run every check against the given instances and build the report.

    The report is a plain JSON-ready dict; with a fixed config it is
    byte-identical across runs (no timestamps, no set ordering, no
    environment probes).  An empty instance list yields an empty report
    that passes vacuously.
    """
    cfg = cfg or SuiteConfig()
    checks: list[dict] = []
    if instances:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            checks.extend(_foundation_checks(cfg))
            for inst in instances:
                checks.extend(_instance_checks(inst, cfg))
            checks.extend(_control_checks(cfg))

    regular = [c for c in checks if not c["control"]]
    controls = [c for c in checks if c["control"]]
    n_pass = sum(1 for c in regular if c["passed"])
    controls_failing = sum(1 for c in controls if not c["passed"])
    ok = n_pass == len(regular) and controls_failing == len(controls)
    return {
        "suite": "pmstat-theorem-suite",
        "version": "0.1.0",
        "config": cfg.to_json(),
        "instances": [inst.to_json() for inst in instances],
        "checks": checks,
        "summary": {
            "total": len(regular),
            "passed": n_pass,
            "failed": len(regular) - n_pass,
            "controls": len(controls),
            "controls_failing_as_expected": controls_failing,
            "ok": ok,
        },
    }


def suite_passed(report: Mapping) -> bool:
    return bool(report["summary"]["ok"])


REPORT_SCHEMA: dict = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["suite", "version", "config", "instances", "checks", "summary"],
    "properties": {
        "suite": {"type": "string"},
        "version": {"type": "string"},
        "config": {
            "type": "object",
            "required": ["seed", "horizon", "tol", "size"],
            "properties": {
                "seed": {"type": "integer"},
                "horizon": {"type": "integer", "minimum": 10},
                "tol": {"type": "number", "exclusiveMinimum": 0},
                "size": {"type": "integer", "minimum": 0},
            },
        },
        "instances": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "family", "space", "matrix", "ideal", "sequence"],
            },
        },
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "group", "instance", "control", "passed", "residual"],
                "properties": {
                    "name": {"type": "string"},
                    "group": {"type": "string"},
                    "instance": {"type": ["string", "null"]},
                    "control": {"type": "boolean"},
                    "passed": {"type": "boolean"},
                    "residual": {"type": ["number", "null"]},
                },
            },
        },
        "summary": {
            "type": "object",
            "required": [
                "total",
                "passed",
                "failed",
                "controls",
                "controls_failing_as_expected",
                "ok",
            ],
        },
    },
}


class ReportSchemaError(ValueError):
    """A report that does not match ``REPORT_SCHEMA``."""


_JSON_TYPES = {"object": dict, "array": list, "string": str, "null": type(None), "number": numbers.Number}


def _is_type(value: object, kind: str) -> bool:
    """JSON Schema draft-7 typing: bools are not numbers, and 1.0 is an integer."""
    if isinstance(value, bool) or kind == "boolean":
        return isinstance(value, bool) and kind == "boolean"
    if kind == "integer":
        return isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    return isinstance(value, _JSON_TYPES[kind])


def _check_schema(value: object, schema: Mapping, path: str) -> None:
    """Check the keywords ``REPORT_SCHEMA`` uses: type, required,
    properties, items, minimum and exclusiveMinimum."""
    kinds = schema.get("type", [])
    kinds = [kinds] if isinstance(kinds, str) else kinds
    if kinds and not any(_is_type(value, k) for k in kinds):
        raise ReportSchemaError(f"{path}: {value!r} is not of type {' or '.join(kinds)}")
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                raise ReportSchemaError(f"{path}: {key!r} is a required property")
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                _check_schema(value[key], sub, f"{path}.{key}")
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            _check_schema(item, schema["items"], f"{path}[{i}]")
    low, above = schema.get("minimum"), schema.get("exclusiveMinimum")
    if _is_type(value, "number") and (
        (low is not None and value < low) or (above is not None and value <= above)
    ):
        raise ReportSchemaError(f"{path}: {value!r} is below the schema's bound")


def validate_report(report: Mapping) -> None:
    """Raise ``ReportSchemaError`` unless the report matches ``REPORT_SCHEMA``."""
    _check_schema(report, REPORT_SCHEMA, "report")


def report_to_json(report: Mapping) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def write_report(report: Mapping, path: str) -> None:
    validate_report(report)
    with open(path, "w") as fh:
        fh.write(report_to_json(report))


def write_csv(report: Mapping, path: str) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["name", "group", "instance", "control", "passed", "residual"])
        for c in report["checks"]:
            w.writerow(
                [
                    c["name"],
                    c["group"],
                    c["instance"] or "",
                    int(c["control"]),
                    int(c["passed"]),
                    "" if c["residual"] is None else repr(c["residual"]),
                ]
            )


def render_text(report: Mapping) -> str:
    """Human-readable one-line-per-check rendering of a report."""
    lines = []
    cfg = report["config"]
    lines.append(
        f"{report['suite']} seed={cfg['seed']} horizon={cfg['horizon']} "
        f"tol={cfg['tol']} instances={len(report['instances'])}"
    )
    for c in report["checks"]:
        if c["control"]:
            # controls are expected to fail; a passing control is the problem
            word = "XPASS" if c["passed"] else "XFAIL"
        else:
            word = "PASS" if c["passed"] else "FAIL"
        where = f" [{c['instance']}]" if c["instance"] else ""
        res = "" if c["residual"] is None else f" residual={c['residual']:.6g}"
        lines.append(f"{word:5s} {c['group']}:{c['name']}{where}{res}")
    s = report["summary"]
    lines.append(
        f"summary: {s['passed']}/{s['total']} checks passed, "
        f"{s['controls_failing_as_expected']}/{s['controls']} controls failing as expected, "
        f"ok={s['ok']}"
    )
    return "\n".join(lines) + "\n"
