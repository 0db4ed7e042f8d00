"""Distance distribution functions represented as finite step functions.

A distance distribution function (d.d.f.) is a nondecreasing map
``f : [0, inf] -> [0, 1]`` with ``f(0) = 0`` and ``f(inf) = 1``,
left-continuous on ``(0, inf)``.  Read ``f(t)`` as "the probability that
the distance in question is less than ``t``".  The family of d.d.f.s,
ordered pointwise and metrized by the modified Levy metric, is the value
space for probabilistic metric spaces.

This module implements the piecewise-constant members of the family:

* left-continuous evaluation, so ``unit_step(b)`` evaluates to 0 at ``b``
  and to 1 strictly above ``b``;
* the modified Levy metric ``levy_distance``, computed exactly by a
  binary search over a finite candidate set of slacks, with one
  feasibility test (``levy_feasible``) per step, and a one-test bound
  ``levy_within`` that can prove the distance at most a given slack;
* an exact closed form ``levy_distance_to_zero`` for the distance to the
  unit step at 0 (the maximal d.d.f.);
* the pointwise partial order and pointwise min / max;
* a finite-horizon weak-convergence ``Verdict``, read on the Levy
  distances to the limit, since weak convergence of d.d.f.s is
  convergence in the modified Levy metric.

A d.d.f. that reaches 1 only in the limit has no exact finite-jump
representation; approximate it with a final jump at a large declared
location.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

if TYPE_CHECKING:
    from .summability import Verdict

# Tolerance of the earlier bisection metric.  Kept for callers that still
# pass it: ``levy_distance`` accepts and ignores it.
DEFAULT_DL_TOL = 1e-6


@dataclass(frozen=True)
class StepDistFn:
    """A d.d.f. with finitely many jumps.

    ``jumps`` holds ``(location, value)`` pairs with strictly increasing
    locations (first one >= 0) and strictly increasing values in
    ``(0, 1]`` ending at exactly 1.  ``value`` is the plateau just above
    the location; by left-continuity the function evaluated at the
    location itself still returns the previous plateau.

    The representation is canonical (no zero-height jumps), so ``==`` on
    instances coincides with equality as functions.
    """

    jumps: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.jumps:
            raise ValueError("a step d.d.f. needs at least one jump")
        prev_loc = -math.inf
        prev_val = 0.0
        for loc, val in self.jumps:
            if not (math.isfinite(loc) and math.isfinite(val)):
                raise ValueError(f"non-finite jump ({loc}, {val})")
            if loc < 0.0:
                raise ValueError(f"jump location {loc} is negative")
            if loc <= prev_loc:
                raise ValueError("jump locations must be strictly increasing")
            if val <= prev_val:
                raise ValueError("jump values must be strictly increasing")
            if val > 1.0:
                raise ValueError(f"jump value {val} exceeds 1")
            prev_loc, prev_val = loc, val
        if prev_val != 1.0:
            raise ValueError("final jump value must be exactly 1")
        loc, val = self.jumps[0]
        if loc == 0.0 and math.copysign(1.0, loc) < 0.0:  # store -0.0 as 0.0, or it comes back as a distance of -0.0
            object.__setattr__(self, "jumps", ((0.0, val), *self.jumps[1:]))
        # cached parallel lists for bisect lookups, not dataclass fields
        object.__setattr__(self, "_locs", [j[0] for j in self.jumps])
        object.__setattr__(self, "_vals", [j[1] for j in self.jumps])

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[float, float]]) -> "StepDistFn":
        """Build from ``(location, value)`` pairs, dropping zero-height jumps.

        Pairs must be finite, locations strictly increasing and values
        nondecreasing; a pair whose value does not exceed the running
        value is redundant and is removed, which makes the result
        canonical.
        """
        kept: list[tuple[float, float]] = []
        prev_loc = -math.inf
        run = 0.0
        for loc, val in pairs:
            loc = float(loc)
            val = float(val)
            if not (math.isfinite(loc) and math.isfinite(val)):
                raise ValueError(f"non-finite jump ({loc}, {val})")
            if loc <= prev_loc:
                raise ValueError("jump locations must be strictly increasing")
            if val < run - 0.0:
                raise ValueError("jump values must be nondecreasing")
            prev_loc = loc
            if val > run:
                kept.append((loc, val))
                run = val
        return cls(tuple(kept))

    @property
    def locations(self) -> tuple[float, ...]:
        return tuple(self._locs)

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(self._vals)

    @property
    def support_end(self) -> float:
        """Location of the last jump; the function is 1 strictly above it."""
        return self._locs[-1]

    def __call__(self, t: float) -> float:
        return evaluate(self, t)

    def right_value(self, t: float) -> float:
        """Value just above ``t``, i.e. the plateau of the last jump at or below ``t``."""
        i = bisect_right(self._locs, t)
        return self._vals[i - 1] if i else 0.0

    def to_json(self) -> list[list[float]]:
        return [[loc, val] for loc, val in self.jumps]

    @classmethod
    def from_json(cls, data: object) -> "StepDistFn":
        """Inverse of ``to_json``; any other shape or a number beyond the float range is a ValueError."""
        if not is_list_of(data, lambda p: is_list_of(p, is_number) and len(p) == 2):
            raise ValueError("a distribution function is a list of [location, value] number pairs")
        try:
            return cls.from_pairs((float(p[0]), float(p[1])) for p in data)
        except OverflowError:
            raise ValueError("a jump lies beyond the float range") from None


def is_list_of(value: object, of: Callable[[object], bool]) -> bool:
    """Whether a decoded JSON value is a list whose items all satisfy ``of``."""
    return isinstance(value, Sequence) and not isinstance(value, (str, bytes)) and all(map(of, value))


def is_number(value: object) -> bool:
    """Whether a decoded JSON value is a number (a bool is not)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def unit_step(b: float) -> StepDistFn:
    """The d.d.f. that is 0 on [0, b] and 1 on (b, inf).

    ``unit_step(0)`` is the maximal d.d.f. (identity for triangle
    functions); ``unit_step(b)`` with b > 0 plays the role of the exact
    distance b.
    """
    if b < 0.0 or not math.isfinite(b):
        raise ValueError(f"step location must be finite and >= 0, got {b}")
    return StepDistFn(((float(b), 1.0),))


EPS0 = unit_step(0.0)


def evaluate(f: StepDistFn, t: float) -> float:
    """Left-continuous evaluation of ``f`` at ``t`` in [0, inf]."""
    if math.isnan(t):
        raise ValueError("cannot evaluate at NaN")
    if t == math.inf:
        return 1.0
    if t < 0.0:
        raise ValueError(f"evaluation point {t} outside [0, inf]")
    i = bisect_left(f._locs, t)  # count of jumps strictly below t
    return f._vals[i - 1] if i else 0.0


def levy_feasible(f: StepDistFn, g: StepDistFn, a: float) -> bool:
    """Whether slack ``a`` satisfies the two-sided Levy sandwich.

    The sandwich asks ``f(x - a) - a <= g(x) <= f(x + a) + a``, and the
    same with f and g swapped, for all x in (-1/a, 1/a).  For x <= 0
    every inequality holds, since both functions vanish there.  The left
    inequality, written at y = x - a, is the right one with f and g
    swapped on the smaller range (0, 1/a - a), so the sandwich holds
    exactly when ``g(x) <= f(x + a) + a`` and ``f(x) <= g(x + a) + a``
    for all x in (0, 1/a).

    The breakpoints of ``g(x) - f(x + a)`` split (0, 1/a) into open
    intervals on which both terms are constant; by left-continuity a
    breakpoint takes the values of the interval to its left.  On the
    plateau of g that starts at a jump ``(m, w)``, ``f(x + a)`` is
    smallest on the open interval just right of m, where it equals the
    right value of f at ``m + a``.  So each inequality is decided exactly
    by one test per jump below 1/a, reading that interval by its right
    value rather than at a breakpoint such as ``x = l - a``, where the
    float sum ``(l - a) + a`` can land on either side of l.
    """
    if a >= 1.0:
        return True
    if a <= 0.0:
        return False
    bound = 1.0 / a
    return _dominated(g, f, a, bound) and _dominated(f, g, a, bound)


def _dominated(g: StepDistFn, f: StepDistFn, a: float, bound: float) -> bool:
    # g(x) <= f(x + a) + a for all x in (0, bound), one test per jump of g;
    # w - f(..) is the subtraction the value candidates |v - w| are made of
    for m, w in g.jumps:
        if m >= bound:
            break
        if w - f.right_value(m + a) > a:
            return False
    return True


def _levy_candidates(f: StepDistFn, g: StepDistFn) -> list[float]:
    """Sorted slacks in [0, 1] at which ``levy_feasible(f, g, .)`` can change."""
    cands = {0.0, 1.0}
    cands.update(abs(l - m) for l in f._locs for m in g._locs)
    cands.update(1.0 / l for l in f._locs + g._locs if l > 1.0)
    cands.update(abs(v - w) for v in [0.0, *f._vals] for w in [0.0, *g._vals])
    return sorted(c for c in cands if c <= 1.0)


def levy_distance(f: StepDistFn, g: StepDistFn, tol: float = DEFAULT_DL_TOL) -> float:
    """Modified Levy metric between two step d.d.f.s, exact.

    By ``levy_feasible`` the slack a is feasible exactly when, for every
    jump ``(m, w)`` of g with ``m < 1/a``, ``w <= f+(m + a) + a`` (f+ the
    right value), and the same with f and g swapped.  As a moves, that
    test changes only where ``m + a`` crosses a jump location l of the
    other function (a = l - m), where a jump location crosses the range
    end 1/a (a = 1/l), or where ``w - v`` crosses a for plateau values v,
    w of the two functions, 0 included.  Between consecutive members of
    the candidate set

        {0, 1} u {|l - m|} u {1/l : l > 1} u {|v - w|}

    feasibility is therefore constant, and it is monotone in a (a = 1 is
    always feasible).  The breakpoints ``l - a`` and ``l + a`` meet 0 and
    1/a only in the two implied inequalities of the sandwich, so neither
    the locations l nor the roots of ``a (l +- a) = 1`` are needed.  The distance is the smallest candidate whose next
    open interval is feasible; a binary search over the sorted candidates
    finds it with one feasibility test per step, at the midpoint of that
    interval.  In exact arithmetic feasible slacks form the closed
    interval [distance, 1], so when two candidates are adjacent floats and
    no float lies between them, the test is made at the lower one instead;
    in floats a slack just below a candidate can already be feasible (see
    ``levy_within``).  The result is exact up to the rounding of the
    candidate arithmetic (a difference or reciprocal of floats), and it is
    symmetric in f and g because the candidate set and the test are.

    ``tol`` is kept for callers of the earlier bisection; it must be
    positive and does not change the answer.
    """
    if tol <= 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if f.jumps == g.jumps:
        return 0.0
    cands = _levy_candidates(f, g)
    lo, hi = 0, len(cands) - 1  # the interval above cands[-1] = 1 is feasible
    while lo < hi:
        mid = (lo + hi) // 2
        a = cands[mid] + 0.5 * (cands[mid + 1] - cands[mid])
        if levy_feasible(f, g, cands[mid] if a == cands[mid + 1] else a):
            hi = mid
        else:
            lo = mid + 1
    return cands[lo]


def levy_within(f: StepDistFn, g: StepDistFn, a: float) -> bool:
    """A sufficient test of ``levy_distance(f, g) <= a``, far cheaper than the distance.

    True proves the bound; False proves nothing.  In float arithmetic
    ``levy_feasible`` is monotone in the slack (the sums ``m + a``, the
    right values read there and the range end ``1/a`` each move one way
    as a grows), so the search in ``levy_distance`` returns the first
    candidate whose test point, at or above it, is feasible.  A feasible
    candidate c therefore bounds the distance by c.  A feasible slack
    that is not a candidate does not: ``m + a`` can round up onto a jump
    location l while ``a < l - m``, so the distance between unit steps at
    8 and 8 + 2**-49 is 2**-49, although 1.5 * 2**-50 is feasible.

    The candidate tried is the largest ``|l - m|`` or ``|v - w|`` at most
    a over jumps paired by position, when f and g have as many jumps.
    For two functions that differ by rounding, as regrouped
    sup-convolutions do, that is usually their distance.
    """
    if not a > 0.0 or len(f.jumps) != len(g.jumps):
        return False
    c = 0.0
    for (l, v), (m, w) in zip(f.jumps, g.jumps):
        for d in (abs(l - m), abs(v - w)):
            if c < d <= a:
                c = d
    return levy_feasible(f, g, c)


def levy_distance_to_zero(f: StepDistFn) -> float:
    """Exact Levy distance from ``f`` to ``unit_step(0)``.

    Equals ``inf { t > 0 : f(t) > 1 - t }``.  On each plateau (a, b] with
    value v the condition reads ``t > max(a, 1 - v)``, so the infimum is
    the smallest such candidate that actually lies inside its plateau:
    the first one, since a later candidate is at least its plateau start,
    past this plateau.  For a unit step at b this gives ``min(b, 1)``.
    """
    a, v = 0.0, 0.0
    for b, w in f.jumps:
        c = max(a, 1.0 - v)
        if c < b:
            return c
        a, v = b, w
    return a


def pointwise_leq(f: StepDistFn, g: StepDistFn) -> bool:
    """Whether ``f(t) <= g(t)`` for every t: ``pointwise_gap(f, g) == 0``."""
    return pointwise_gap(f, g) == 0.0


def pointwise_gap(f: StepDistFn, g: StepDistFn) -> float:
    """Largest violation ``max_t (f(t) - g(t))``, clipped below at 0.

    Both functions are constant on each open interval between consecutive
    merged jump locations, 0 below the first and 1 above the last.  So the
    right values at the merged locations are the plateaus that
    left-continuous evaluation reads at the next location, and the largest
    of their differences is the exact gap.  One merge walk of the two jump
    lists reads those right values in order.
    """
    worst = 0.0
    fl, fv, gl, gv = f._locs, f._vals, g._locs, g._vals
    nf, ng = len(fl), len(gl)
    i = j = 0
    v = w = 0.0
    while i < nf or j < ng:
        l = fl[i] if i < nf else math.inf
        m = gl[j] if j < ng else math.inf
        if l <= m:
            v = fv[i]
            i += 1
        if m <= l:
            w = gv[j]
            j += 1
        d = v - w
        if d > worst:
            worst = d
    return worst


def _pointwise(f: StepDistFn, g: StepDistFn, pick: Callable[[float, float], float]) -> StepDistFn:
    # the merge walk of pointwise_gap
    pairs: list[tuple[float, float]] = []
    fl, fv, gl, gv = f._locs, f._vals, g._locs, g._vals
    nf, ng = len(fl), len(gl)
    i = j = 0
    v = w = 0.0
    while i < nf or j < ng:
        l = fl[i] if i < nf else math.inf
        m = gl[j] if j < ng else math.inf
        if l <= m:
            v = fv[i]
            i += 1
        if m <= l:
            w = gv[j]
            j += 1
        pairs.append((l if l <= m else m, pick(v, w)))
    return StepDistFn.from_pairs(pairs)


def pointwise_min(f: StepDistFn, g: StepDistFn) -> StepDistFn:
    """Pointwise minimum, again a step d.d.f."""
    return _pointwise(f, g, min)


def pointwise_max(f: StepDistFn, g: StepDistFn) -> StepDistFn:
    """Pointwise maximum, again a step d.d.f."""
    return _pointwise(f, g, max)


def weakly_converges(fs: Sequence[StepDistFn], f: StepDistFn, horizon: int, tol: float) -> Verdict:
    """Weak convergence of ``fs`` to ``f`` at a finite horizon, as a ``Verdict``.

    Weak convergence of d.d.f.s is convergence in the modified Levy
    metric (Schweizer and Sklar, *Probabilistic Metric Spaces*, 1983,
    section 4.2), so this is the ordinary-limit verdict of the Levy
    distances ``levy_distance(fs_k, f)``, k = 1..horizon, to 0: it reads
    the tail window ``tail_start(horizon)..horizon``.
    """
    from .summability import Ideal, ideal_limit_at  # summability imports this module

    if not 1 <= horizon <= len(fs):
        raise ValueError(f"horizon {horizon} outside [1, {len(fs)}]")
    return ideal_limit_at([levy_distance(h, f) for h in fs[:horizon]], Ideal.fin(), 0.0, tol)
