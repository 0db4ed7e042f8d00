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
t-norm sends unit steps at b and c to the unit step at b + c.  The same
jump pairs decide the order ``tau(f, g) <= h`` (``TriangleFn.at_most``)
without building ``tau(f, g)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .distfn import (
    DEFAULT_DL_TOL,
    EPS0,
    StepDistFn,
    levy_distance,
    levy_within,
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


def _tnorm(tag: str) -> Callable[[float, float], float]:
    try:
        return TNORMS[tag]
    except KeyError:
        raise ValueError(f"unknown t-norm tag {tag!r}, expected one of {sorted(TNORMS)}") from None


def _check_location_sums(f: StepDistFn, g: StepDistFn) -> None:
    # the last locations have the largest sum, and their values (both 1)
    # make the last jump of the result there, so the result has a jump at an
    # overflowing sum exactly when that sum overflows
    fl, gl = f.support_end, g.support_end
    if fl + gl == math.inf:
        raise ValueError(f"jump-location sum overflows: {fl!r} + {gl!r} is beyond the float range")


def apply_supconv(tnorm: str, f: StepDistFn, g: StepDistFn) -> StepDistFn:
    """Sup-convolution of f and g under a t-norm, exact on the sum-set.

    ``tnorm`` is a tag from ``TNORMS``; an unknown tag, or a t-norm
    function, is a ValueError.  A jump whose location l + m overflows the
    float range is an input error that names l and m.  The jump list is
    built canonical (strictly increasing rounded sums and running
    maxima), so the result is validated once, by ``StepDistFn`` itself.
    """
    T = _tnorm(tnorm)
    _check_location_sums(f, g)
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
    return StepDistFn(tuple(out))


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

    def at_most(self, f: StepDistFn, g: StepDistFn, h: StepDistFn) -> bool:
        """Whether ``self(f, g) <= h`` everywhere, without building ``self(f, g)``.

        A sup-convolution is ``max{T(v, w) : l + m < t}`` over jump pairs
        ``(l, v)`` of f and ``(m, w)`` of g, so it stays below h exactly
        when ``T(v, w) <= h.right_value(l + m)`` for every pair, on the
        same rounded sums ``apply_supconv`` builds.  An overflowing sum
        raises as ``apply_supconv`` does.  The maximal kind builds its
        pointwise minimum and compares.
        """
        if self.kind == "maximal":
            return pointwise_leq(apply_maximal(f, g), h)
        T = _tnorm(self.kind)
        _check_location_sums(f, g)
        bound = h.right_value
        for l, v in f.jumps:
            for m, w in g.jumps:
                if T(v, w) > bound(l + m):
                    return False
        return True


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


def _worst(
    name: str, tol: float, witness: str, residuals: Iterable[tuple[tuple[int, ...], float]]
) -> AxiomCheck:
    """The axiom check for ``(indices, residual)`` pairs in sampling order.

    The first strictly largest residual wins; ``witness`` is formatted
    with its indices, and is empty when no residual exceeds 0.
    """
    worst, at = 0.0, None
    for key, d in residuals:
        if d > worst:
            worst, at = d, key
    return AxiomCheck(name, worst <= tol, worst, "" if at is None else witness.format(*at))


def _levy_residuals(
    pairs: Iterable[tuple[tuple[int, ...], StepDistFn, StepDistFn]]
) -> Iterator[tuple[tuple[int, ...], float]]:
    """``(indices, levy_distance(f, g))`` for the pairs that can win ``_worst``.

    Only the first strictly largest residual wins, so a pair whose
    distance ``levy_within`` proves at most the largest one so far is
    skipped without its candidate search.
    """
    worst = 0.0
    for key, f, g in pairs:
        if levy_within(f, g, worst):
            continue
        d = levy_distance(f, g)
        if d > worst:
            worst = d
        yield key, d


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
    effect.  A negative or NaN ``tol`` is a ValueError; a sample entry
    or op value that is not a ``StepDistFn`` is a TypeError.

    ``op`` must be pure: its value depends only on the two functions.
    Every op application goes through a memo keyed by the two jump lists,
    so each distinct op value is built once per pass.  The table
    ``prod[i][j] = op(f_i, f_j)`` stays for the whole check: it serves
    commutativity, the inner op of associativity and the lower side of
    monotonicity.  The associativity values are dropped when that pass
    ends.  The raised side ``op(max(f_i, f_j), g)`` is one function for
    (i, j) and (j, i), and when ``max(f_i, f_j)`` is f_i it is the table
    entry, found without a build.

    The diagonal is skipped where its answer is known: ``max(f, f)`` is
    f, so the raised side for i = j is ``prod[i][k]`` with gap 0, and
    ``prod[i][i]`` is at Levy distance 0 from itself.  A Levy distance is
    computed only where ``levy_within`` cannot prove it at most the
    largest residual so far.  A residual of 0, or one no larger than an
    earlier one, never wins the worst case, so the report is the one
    every tuple and every distance would give.
    """
    if not sample:
        raise ValueError("empty sample")
    if not tol >= 0.0:
        raise ValueError(f"tol must be a number >= 0, got {tol!r}")
    for i, f in enumerate(sample):
        if not isinstance(f, StepDistFn):
            raise TypeError(f"sample entry {i} is a {type(f).__name__}, not a StepDistFn")
    memo: dict[tuple, StepDistFn] = {}

    def apply(f: StepDistFn, g: StepDistFn) -> StepDistFn:
        key = (f.jumps, g.jumps)
        h = memo.get(key)
        if h is None:
            h = op(f, g)
            if not isinstance(h, StepDistFn):
                raise TypeError(f"op returned a {type(h).__name__}, not a StepDistFn")
            memo[key] = h
        return h

    n = len(sample)
    prod = [[apply(f, g) for g in sample] for f in sample]
    table = dict(memo)
    every, first6 = range(n), range(min(n, 6))
    commutative = _worst("commutative", tol, "pair ({}, {})", _levy_residuals(
        ((i, j), prod[i][j], prod[j][i]) for i in every for j in every if i != j
    ))
    associative = _worst("associative", tol, "triple ({}, {}, {})", _levy_residuals(
        ((i, j, k), apply(prod[i][j], sample[k]), apply(sample[i], prod[j][k]))
        for i in first6 for j in first6 for k in first6
    ))
    # later passes rarely ask for an associativity value: keep the table only
    memo.clear()
    memo.update(table)
    gaps: dict[tuple[int, int, int], float] = {}
    for i in every:
        for j in range(i + 1, n):
            upper = pointwise_max(sample[i], sample[j])
            for k, g in enumerate(sample):
                raised = apply(upper, g)
                gaps[i, j, k] = pointwise_gap(prod[i][k], raised)
                gaps[j, i, k] = pointwise_gap(prod[j][k], raised)
    monotone = _worst("monotone", tol, "f={} raised by {}, g={}", sorted(gaps.items()))
    identity = _worst("identity", tol, "element {}", _levy_residuals(
        ((i,), h, f) for i, f in enumerate(sample) for h in (apply(EPS0, f), apply(f, EPS0))
    ))
    return TriangleAxiomReport((commutative, associative, monotone, identity))


def dominates(op_hi: Callable, op_lo: Callable, sample: Sequence[StepDistFn]) -> bool:
    """Whether op_hi(f, g) >= op_lo(f, g) pointwise on all sampled pairs."""
    return all(
        pointwise_leq(op_lo(f, g), op_hi(f, g)) for f in sample for g in sample
    )
