"""Triangle functions: binary operations on distance distribution functions.

A triangle function is a binary operation on d.d.f.s that is
commutative, associative, nondecreasing in each place, and has the unit
step at 0 as identity.  It generalizes "adding distances" to the
probabilistic setting.  Two realizations are provided:

* ``apply_maximal``: the pointwise minimum of the two d.d.f.s, the
  largest triangle function of all;
* ``apply_supconv``: the sup-convolution
  ``(f, g)(t) = sup_{u+v=t} T(f(u), g(v))`` for a t-norm ``T``
  (minimum, product, or Lukasiewicz).

For step inputs the sup-convolution is computed exactly: between jumps
both plateaus are constant and every t-norm here is nondecreasing, so
the supremum at ``t`` is the best t-norm value over jump pairs whose
locations sum below ``t``.  The result is a step function on the sum-set
of jump locations; in particular the sup-convolution under the minimum
t-norm sends unit steps at b and c to the unit step at b + c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .distfn import (
    DEFAULT_DL_TOL,
    EPS0,
    StepDistFn,
    levy_distance,
    pointwise_gap,
    pointwise_leq,
    pointwise_max,
    pointwise_min,
)


def t_minimum(a: float, b: float) -> float:
    return a if a < b else b

def t_product(a: float, b: float) -> float:
    return a * b

def t_lukasiewicz(a: float, b: float) -> float:
    # keep the unit exactly neutral; a + 1.0 - 1.0 can drift by one ulp
    if a == 1.0:
        return b
    if b == 1.0:
        return a
    s = a + b - 1.0
    return s if s > 0.0 else 0.0


TNORMS: dict[str, Callable[[float, float], float]] = {
    "min": t_minimum,
    "prod": t_product,
    "luka": t_lukasiewicz,
}

TRIANGLE_KINDS = ("maximal", "min", "prod", "luka")


def apply_maximal(f: StepDistFn, g: StepDistFn) -> StepDistFn:
    """The maximal triangle function: pointwise minimum of f and g."""
    return pointwise_min(f, g)


def apply_supconv(tnorm: str, f: StepDistFn, g: StepDistFn) -> StepDistFn:
    """Sup-convolution of f and g under a t-norm, exact on the sum-set.

    ``tnorm`` is a tag from ``TNORMS``; an unknown tag, or a t-norm
    function, is a ValueError.  A jump whose location l + m overflows the
    float range is an input error that names l and m.
    """
    try:
        T = TNORMS[tnorm]
    except KeyError:
        raise ValueError(f"unknown t-norm tag {tnorm!r}, expected one of {sorted(TNORMS)}") from None
    pairs = sorted(
        (fl + gl, T(fv, gv)) for fl, fv in f.jumps for gl, gv in g.jumps
    )
    out: list[tuple[float, float]] = []
    run = 0.0
    for s, v in pairs:
        if v > run:
            run = v
            if out and out[-1][0] == s:
                out[-1] = (s, run)
            else:
                out.append((s, run))
    if out and out[-1][0] == math.inf:
        fl, gl = next(
            (fl, gl) for fl, fv in f.jumps for gl, gv in g.jumps if fl + gl == math.inf and T(fv, gv) == run
        )
        raise ValueError(f"jump-location sum overflows: {fl!r} + {gl!r} is beyond the float range")
    return StepDistFn.from_pairs(out)


@dataclass(frozen=True)
class TriangleFn:
    """A named triangle function; calling it applies the operation.

    ``kind`` is "maximal" or a t-norm tag for the sup-convolution.
    """

    kind: str

    def __post_init__(self) -> None:
        if self.kind not in TRIANGLE_KINDS:
            raise ValueError(f"unknown triangle function {self.kind!r}, expected one of {TRIANGLE_KINDS}")

    def __call__(self, f: StepDistFn, g: StepDistFn) -> StepDistFn:
        if self.kind == "maximal":
            return apply_maximal(f, g)
        return apply_supconv(self.kind, f, g)


MAXIMAL = TriangleFn("maximal")


@dataclass(frozen=True)
class AxiomCheck:
    name: str
    passed: bool
    residual: float
    witness: str = ""


@dataclass(frozen=True)
class TriangleAxiomReport:
    checks: tuple[AxiomCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, name: str) -> AxiomCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "checks": [
                {"name": c.name, "passed": c.passed, "residual": c.residual, "witness": c.witness}
                for c in self.checks
            ],
        }


def check_triangle_axioms(
    op: Callable[[StepDistFn, StepDistFn], StepDistFn],
    sample: Sequence[StepDistFn],
    tol: float = 1e-9,
    dl_tol: float = DEFAULT_DL_TOL,
) -> TriangleAxiomReport:
    """Check the four triangle-function axioms on a sample of d.d.f.s.

    Commutativity, associativity, and the identity law are measured in
    the exact Levy metric; monotonicity is measured as the worst
    pointwise order violation on comparable pairs built from the sample
    with pointwise max.  Pass means residual <= tol for every sampled
    tuple.  Exact implementations report residual 0 up to float
    rounding: regrouped jump-location sums can put a jump of
    ``((f, g), h)`` one ulp from that of ``(f, (g, h))``.  ``dl_tol`` is
    accepted for callers of the earlier bisection metric and has no
    effect.
    """
    if not sample:
        raise ValueError("empty sample")
    checks: list[AxiomCheck] = []

    worst = 0.0
    wit = ""
    for i, f in enumerate(sample):
        for j, g in enumerate(sample):
            d = levy_distance(op(f, g), op(g, f))
            if d > worst:
                worst, wit = d, f"pair ({i}, {j})"
    checks.append(AxiomCheck("commutative", worst <= tol, worst, wit))

    worst = 0.0
    wit = ""
    trip = sample[: min(len(sample), 6)]
    for i, f in enumerate(trip):
        for j, g in enumerate(trip):
            for k, h in enumerate(trip):
                d = levy_distance(op(op(f, g), h), op(f, op(g, h)))
                if d > worst:
                    worst, wit = d, f"triple ({i}, {j}, {k})"
    checks.append(AxiomCheck("associative", worst <= tol, worst, wit))

    worst = 0.0
    wit = ""
    for i, f in enumerate(sample):
        for j, f2 in enumerate(sample):
            upper = pointwise_max(f, f2)
            for k, g in enumerate(sample):
                gap = pointwise_gap(op(f, g), op(upper, g))
                if gap > worst:
                    worst, wit = gap, f"f={i} raised by {j}, g={k}"
    checks.append(AxiomCheck("monotone", worst <= tol, worst, wit))

    worst = 0.0
    wit = ""
    for i, f in enumerate(sample):
        d = max(
            levy_distance(op(EPS0, f), f),
            levy_distance(op(f, EPS0), f),
        )
        if d > worst:
            worst, wit = d, f"element {i}"
    checks.append(AxiomCheck("identity", worst <= tol, worst, wit))

    return TriangleAxiomReport(tuple(checks))


def dominates(op_hi: Callable, op_lo: Callable, sample: Sequence[StepDistFn]) -> bool:
    """Whether op_hi(f, g) >= op_lo(f, g) pointwise on all sampled pairs."""
    return all(
        pointwise_leq(op_lo(f, g), op_hi(f, g)) for f in sample for g in sample
    )
