"""Finite-horizon detectors for strong and matrix-ideal statistical convergence.

A sequence over a finite probabilistic metric space is examined through
the strong neighborhoods ``N_L(t) = { q : F_Lq(t) > 1 - t }``.  Strong
convergence to L means the sequence eventually stays in every N_L(t);
A^I-statistical convergence relaxes "eventually" to "outside an index
set of A^I-density zero".  On a finite carrier the neighborhoods change
only at the finitely many exact gap values ``dist(p, q)``, so the
quantifier over all t > 0 reduces to that threshold grid and every
detector below is exact in t.

All detectors are pure functions of (sequence, matrix, ideal, horizon,
tolerance) and return ``Verdict`` values; nothing here claims an actual
limit, only tail behavior up to the horizon.  Membership of an index k
in a neighborhood is read from ``FinitePMSpace.strong_neighborhood``,
``F_{L x_k}(t) > 1 - t``, and cross-checked against the equivalent exact
Levy gap ``dist(L, x_k) < t``; a disagreement away from the float knife
edge is an internal error.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import AbstractSet, Callable, Iterable, Sequence

import numpy as np

from .pmspace import FinitePMSpace
from .summability import (
    CONVERGED,
    DEFAULT_HORIZON,
    DEFAULT_TOL,
    DIVERGED,
    INCONCLUSIVE,
    Ideal,
    IndexSet,
    SummMatrix,
    Verdict,
    ai_density_is_null,
    nonthin,
    tail_start,
)

_KNIFE_EDGE = 1e-9


@dataclass(eq=False)
class IndexedSequence:
    """A sequence of carrier points, worked with as an array at the horizon.

    The one form is ``value_codes(n)``: the positions in
    ``space.points`` of x_1..x_n as one array of the smallest unsigned
    type that holds a point index (one byte up to 256 points), which
    ``codes`` computes in a few array passes; it is checked once, cached
    and sliced for shorter horizons.

    The sequence also keeps, per horizon asked, its first visits
    (``_first_visits``), scanned once and read by the anchor search, the
    memo key and the lemma's kept set; and the null verdicts of its point
    sets (``_points_null``): a set is decided once per sequence for each
    visited point set it names, per matrix, ideal, horizon and tol.
    Nothing the size of the horizon is kept.
    """

    space: FinitePMSpace
    description: str
    codes: Callable[[int], np.ndarray] = field(repr=False)
    _codes: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.uint8), init=False, repr=False)
    _visited: dict[int, list[tuple[int, int]]] = field(default_factory=dict, init=False, repr=False)
    _nulls: dict[tuple, Verdict] = field(default_factory=dict, init=False, repr=False)

    def values(self, n: int) -> list[str]:
        return [self.space.points[c] for c in self.value_codes(n).tolist()]

    def value_codes(self, n: int) -> np.ndarray:
        if n < 1:
            raise ValueError(f"horizon must be at least 1, got {n}")
        if n > len(self._codes):
            # a code that does not fit would wrap when narrowed, so every row is checked first
            codes, m, d = np.asarray(self.codes(n)), len(self.space.points), self.description
            if codes.dtype.kind not in "iu":
                raise ValueError(f"{d}: codes must be integers, got {codes.dtype}")
            if codes.ndim != 1:
                raise ValueError(f"{d}: codes({n}) must be one code per row, got shape {codes.shape}")
            if len(codes) != n:
                row = min(len(codes), n) + 1
                where = "missing" if row <= n else "past the horizon"
                raise ValueError(f"{d}: codes({n}) has {len(codes)} rows; row {row} is {where}")
            if codes.min() < 0 or codes.max() >= m:
                k = int(np.argmax((codes < 0) | (codes >= m)))
                raise ValueError(f"{d}: row {k + 1} has code {codes[k]}, not a point of the {m}-point carrier")
            codes = codes.astype(_code_type(self.space), copy=False)
            codes.flags.writeable = False
            self._codes = codes
        return self._codes[:n]


def _code_type(space: FinitePMSpace) -> np.dtype:
    """The smallest unsigned type that holds a point index."""
    return np.min_scalar_type(len(space.points) - 1)


def _code(space: FinitePMSpace, p: str) -> np.unsignedinteger:
    _check_point(space, p)
    return _code_type(space).type(space.points.index(p))


def constant_sequence(space: FinitePMSpace, point: str) -> IndexedSequence:
    c = _code(space, point)
    return IndexedSequence(space, f"const:{point}", lambda n: np.full(n, c))


def eventually_constant(
    space: FinitePMSpace,
    limit: str,
    exceptional: IndexSet,
    off: str | None = None,
) -> IndexedSequence:
    """``x_k = limit`` off the exceptional set, other points on it.

    ``off`` names the one point used on the exceptional indices; by
    default the other carrier points are cycled, index k taking
    ``pool[k % len(pool)]``.  An ``off`` that is not a carrier point is
    a ValueError.
    """
    lc = _code(space, limit)
    if off is None:
        pool = tuple(p for p in space.points if p != limit) or (limit,)
    else:
        pool = (off,)
    pool_codes = np.array([_code(space, p) for p in pool], dtype=_code_type(space))

    def codes(n: int) -> np.ndarray:
        out = np.full(n, lc)
        ks = np.flatnonzero(exceptional.indicator(n)) + 1
        out[ks - 1] = pool_codes[ks % len(pool)]
        return out

    return IndexedSequence(space, f"except:{limit}:{exceptional.name}", codes)


def alternating(
    space: FinitePMSpace, p: str, q: str, selector: IndexSet
) -> IndexedSequence:
    """``x_k = p`` on the selector set, ``q`` off it."""
    pc, qc = _code(space, p), _code(space, q)
    return IndexedSequence(space, f"alternate:{p},{q}:{selector.name}", lambda n: _choose(selector.indicator(n), pc, qc))


def _choose(sel: np.ndarray, a, b) -> np.ndarray:
    """``a`` where ``sel`` holds, else ``b``, in the codes' type; by arithmetic, since
    ``np.where`` on one-byte codes branches on every row (25 times slower when alternating)."""
    return sel * a + ~sel * b


def from_values(space: FinitePMSpace, values: Sequence[str], tail: str) -> IndexedSequence:
    """Explicit prefix, then the constant ``tail``."""
    prefix = np.array([_code(space, v) for v in values], dtype=_code_type(space))
    tc = _code(space, tail)

    def codes(n: int) -> np.ndarray:
        out = np.full(n, tc)
        out[: len(prefix)] = prefix[:n]
        return out

    return IndexedSequence(space, f"list[{len(prefix)}]-then-{tail}", codes)


def splice(x: IndexedSequence, keep: IndexSet, fill: str) -> IndexedSequence:
    """``y_k = x_k`` on the kept set and ``fill`` elsewhere."""
    fc = _code(x.space, fill)
    return IndexedSequence(
        x.space,
        f"splice({x.description}|{keep.name}|{fill})",
        lambda n: _choose(keep.indicator(n), x.value_codes(n), fc),
    )


def _among(codes: np.ndarray, points: Sequence[str], members: AbstractSet[str]) -> np.ndarray:
    """Indicator of ``{ k : points[codes[k]] in members }``: the OR of ``codes == c``
    over the smaller side of the carrier, negated when that side is the non-members.
    Two such comparisons of one-byte codes cost a fourteenth of a table gather."""
    flags = [p in members for p in points]
    negate = 2 * sum(flags) > len(flags)
    side = [c for c, f in enumerate(flags) if f != negate]
    if not side:
        return np.full(len(codes), negate)
    out = codes == side[0]
    for c in side[1:]:
        out |= codes == c
    if negate:
        np.logical_not(out, out=out)
    return out


def _first_visits(x: IndexedSequence, horizon: int) -> list[tuple[int, int]]:
    """``(position, code)`` of the first visit in 1..horizon of each code present,
    in increasing code order, scanned once per sequence and horizon: one comparison
    per carrier point, with no sort and no ``np.bincount``, which would widen the codes."""
    if horizon not in x._visited:
        codes = x.value_codes(horizon)
        firsts = (int(np.argmax(codes == c)) for c in range(len(x.space.points)))
        x._visited[horizon] = [(k, c) for c, k in enumerate(firsts) if codes[k] == c]
    return x._visited[horizon]


def _point_set(x: IndexedSequence, name: str, members: AbstractSet[str]) -> IndexSet:
    """Index set ``{ k : x_k in members }``, read from the cached codes."""
    points = x.space.points
    return IndexSet(name, lambda n: _among(x.value_codes(n), points, members))


def _points_null(
    x: IndexedSequence, members: AbstractSet[str], A: SummMatrix, ideal: Ideal, horizon: int, tol: float
) -> Verdict:
    """``ai_density_is_null`` of ``{ k : x_k in members }``, decided once per
    sequence for each visited point set it names.

    Two point sets that agree on the points x visits in 1..horizon give the
    same indicator on 1..horizon, and a null reading reads no index past
    ``A.support_bound(A.max_row_for(horizon)) <= horizon``, so the visited
    members, with A, the ideal, the horizon and tol, key the verdict.  A
    refused input raises on every ask; nothing is kept for it.  Members are
    tested, never iterated: their order depends on the hash seed.
    """
    points = x.space.points
    key = (frozenset(c for _, c in _first_visits(x, horizon) if points[c] in members), A, ideal, horizon, tol)
    v = x._nulls.get(key)
    if v is None:
        member = _among(x.value_codes(horizon), points, members)
        v = x._nulls[key] = ai_density_is_null(A, ideal, member, horizon, tol)
    return v


def visit_set(x: IndexedSequence, point: str) -> IndexSet:
    """Indices where the sequence visits the point."""
    _check_point(x.space, point)
    return _point_set(x, f"visits:{point}", {point})


def visit_witnesses(x: IndexedSequence) -> dict[str, IndexSet]:
    """Visit sets of every carrier point.

    On a finite carrier a subsequence can converge strongly to c only by
    eventually sitting at c, so the visit set is the canonical witness:
    a nonthin witness exists for c exactly when the visit set is nonthin.
    """
    return {p: visit_set(x, p) for p in x.space.points}


def _check_point(space: FinitePMSpace, p: str) -> None:
    if p not in space.points:
        raise ValueError(f"unknown carrier point {p!r}")


def _outside(space: FinitePMSpace, target: str, t: float) -> frozenset[str]:
    """The points outside N_target(t).

    Read from ``space.strong_neighborhood(target, t)``, the one definition
    of ``F_{target, x_k}(t) > 1 - t``, and cross-checked against the exact
    gap form ``dist(target, x_k) >= t``; the two agree by construction
    except possibly one float ulp at the knife edge.
    """
    near = space.strong_neighborhood(target, t)
    for p in space.points:
        by_gap = space.dist(target, p) >= t
        if (p not in near) != by_gap and abs(space.dist(target, p) - t) > _KNIFE_EDGE:
            raise RuntimeError(
                f"neighborhood forms disagree for ({p}, {target}) at t={t}"
            )
    return frozenset(space.points) - near


def _grid(space: FinitePMSpace) -> tuple[float, ...]:
    ts = space.thresholds()
    # single-point carrier: any positive t behaves the same
    return ts if ts else (1.0,)


def _entry_index(space: FinitePMSpace, codes: np.ndarray, target: str) -> tuple[int, str]:
    """First 1-based position j0 from which the coded points stay in every
    N_target(t), and the status of that entry.

    ``codes`` is a sequence or subsequence of n points.  A point leaves some
    N_target(t) exactly when its gap to the target reaches the smallest
    threshold, so one comparison against that threshold decides all t.
    The entry converges when j0 <= n/2, so violations in the late tail
    cannot hide behind the horizon; it diverges when j0 lies in the last
    tenth, and is inconclusive in between.
    """
    n, t = len(codes), min(_grid(space))
    far = {p for p in space.points if space.dist(p, target) >= t}
    bad = np.flatnonzero(_among(codes, space.points, far))
    j0 = int(bad[-1]) + 2 if len(bad) else 1
    if j0 <= n // 2:
        return j0, CONVERGED
    return j0, DIVERGED if j0 > n - max(1, n // 10) else INCONCLUSIVE


def _null_row(
    x: IndexedSequence, c: str, A: SummMatrix, ideal: Ideal, horizon: int, tol: float
) -> dict[str, Verdict]:
    """Null verdicts of the defect sets ``{ k : x_k not in N_c(t) }``, keyed
    ``t=<t>`` over the threshold grid in increasing t."""
    return {
        f"t={t}": _points_null(x, _outside(x.space, c, t), A, ideal, horizon, tol)
        for t in _grid(x.space)
    }


# ---------------------------------------------------------------------------
# detectors


def strong_conv_detect(
    x: IndexedSequence, limit: str, horizon: int = DEFAULT_HORIZON, tol: float = DEFAULT_TOL
) -> Verdict:
    """Strong convergence at a finite horizon.

    Reads the entry index k0 from which the sequence stays inside every
    N_limit(t), for all t on the exact threshold grid, by the entry rule
    of ``_entry_index``.
    """
    _check_point(x.space, limit)
    k0, status = _entry_index(x.space, x.value_codes(horizon), limit)
    residual = 0.0 if status == CONVERGED else (k0 - 1) / horizon
    return Verdict(status, limit, residual, tol, witness=k0)


def ai_stat_conv_detect(
    x: IndexedSequence,
    limit: str,
    A: SummMatrix,
    ideal: Ideal,
    horizon: int = DEFAULT_HORIZON,
    tol: float = DEFAULT_TOL,
) -> Verdict:
    """Strong A^I-statistical convergence to a candidate limit.

    For every threshold t the defect set ``{ k : x_k not in N_limit(t) }``
    must have A^I-density zero within tol.
    """
    _check_point(x.space, limit)
    return Verdict.all_of(_null_row(x, limit, A, ideal, horizon, tol), limit, tol)


def ai_stat_cauchy_detect(
    x: IndexedSequence,
    A: SummMatrix,
    ideal: Ideal,
    horizon: int = DEFAULT_HORIZON,
    tol: float = DEFAULT_TOL,
) -> Verdict:
    """Strong A^I-statistical Cauchy condition at a finite horizon.

    Searches for an anchor index k0 (equivalently an anchor point, since
    only the value at k0 matters) such that for every threshold t the set
    ``{ k : x_k not in N_{x_k0}(t) }`` has A^I-density zero.
    """
    return _anchor_search(x, horizon, tol, lambda c: _null_row(x, c, A, ideal, horizon, tol))


def _anchor_search(
    x: IndexedSequence, horizon: int, tol: float, row: Callable[[str], dict[str, Verdict]]
) -> Verdict:
    """The Cauchy anchor search over the null-verdict rows ``row(c)``, in
    order of first visit: the first converged anchor, else the earliest
    with the smallest residual."""
    best: Verdict | None = None
    for k, c in sorted(_first_visits(x, horizon)):
        p = x.space.points[c]
        v = Verdict.all_of(row(p), p, tol, witness=k + 1)
        if v.converged:
            return v
        if best is None or v.residual < best.residual:
            best = v
    return best


def lemma_cauchy_predicates(
    x: IndexedSequence,
    A: SummMatrix,
    ideal: Ideal,
    horizon: int = DEFAULT_HORIZON,
    tol: float = DEFAULT_TOL,
) -> tuple[Verdict, Verdict, Verdict]:
    """Three equivalent finite-horizon readings of the Cauchy condition.

    The distance used is the exact Levy gap ``dist``, which on a
    metric-induced space is the metric capped at 1.

    1. anchor form: some x_k0 has null defect sets at every threshold;
    2. removal form: for every threshold g there is a null index set M
       (built from the anchor at the composition slack of g) off which
       all pairwise gaps stay below g;
    3. double-density form: the rows j whose defect set
       ``{ k : dist(x_k, x_j) >= g }`` is not null themselves form a null
       set, for every threshold g.

    The three readings share one table of per-threshold null verdicts,
    read through the sequence's null memo (``_points_null``), so each
    visited point set is decided once per sequence.
    """
    space = x.space

    def row(c: str) -> dict[str, Verdict]:
        return _null_row(x, c, A, ideal, horizon, tol)

    p1 = _anchor_search(x, horizon, tol, row)
    anchor = p1.value

    per_g2: dict[str, Verdict] = {}
    for g in _grid(space):
        try:
            slack = space.vicinity_composition_alpha(g)
        except ValueError:
            slack = g
        # the slack is g or a threshold below it, so it is on the grid
        null_v = row(anchor)[f"t={slack}"]
        kept = _kept(x, _outside(space, anchor, slack), horizon)
        gaps = [space.dist(a, b) for a in kept for b in kept]
        pair_gap = max((d - g + tol for d in gaps if d >= g), default=0.0)
        if pair_gap > 0.0 and null_v.converged:
            per_g2[f"t={g}"] = Verdict(DIVERGED, anchor, max(null_v.residual, pair_gap), tol)
        else:
            per_g2[f"t={g}"] = null_v
    p2 = Verdict.all_of(per_g2, anchor, tol)

    per_g3: dict[str, Verdict] = {}
    for g in _grid(space):
        bad = {c for c in space.points if not row(c)[f"t={g}"].converged}
        per_g3[f"t={g}"] = _points_null(x, bad, A, ideal, horizon, tol)
    p3 = Verdict.all_of(per_g3, anchor, tol)

    return p1, p2, p3


def _kept(x: IndexedSequence, removal: AbstractSet[str], horizon: int) -> list[str]:
    """The points of ``{ k : x_k not in removal }`` in 1..horizon, in code order."""
    points = x.space.points
    return [points[c] for _, c in _first_visits(x, horizon) if points[c] not in removal]


def ai_star_conv_detect(
    x: IndexedSequence,
    limit: str | None,
    A: SummMatrix,
    ideal: Ideal,
    witness: IndexSet,
    horizon: int = DEFAULT_HORIZON,
    tol: float = DEFAULT_TOL,
    cauchy: bool = False,
) -> Verdict:
    """Witness-verified A^I*-statistical convergence (or Cauchyness).

    The caller supplies the index set K; the detector verifies that the
    complement of K has A^I-density zero and that the subsequence indexed
    by K converges strongly to the limit (or is strongly Cauchy when
    ``cauchy=True``).  No search over witness sets is attempted, and a
    witness whose density verdict is inconclusive is rejected as an
    error, not a negative.  The status combines the two checks, so a
    witness whose complement is shown not to be null diverges.  A
    complement that is a union of visit sets, where no point is visited
    both on K and off it, is read through the sequence's null memo
    (``_points_null``) as the set of the points visited off K.
    """
    points, codes, keep = x.space.points, x.value_codes(horizon), witness.indicator(horizon)
    off = {points[c] for k, c in _first_visits(x, horizon) if not keep[k]}  # the points first visited off K
    if (_among(codes, points, off) != keep).all():  # and every visit to them, and only those, is off K
        comp_v = _points_null(x, off, A, ideal, horizon, tol)
    else:
        comp_v = ai_density_is_null(A, ideal, ~witness, horizon, tol)
    if comp_v.status == INCONCLUSIVE:
        raise ValueError(
            f"witness set {witness.name} has inconclusive density (residual {comp_v.residual})"
        )
    kept = int(keep.sum())
    if kept < 10:
        return Verdict(INCONCLUSIVE, limit, 1.0, tol, witness={"kept": kept})
    sub = codes[keep]
    target = x.space.points[int(sub[-1])] if cauchy else limit
    if target is None:
        raise ValueError("a limit point is required unless cauchy=True")
    _check_point(x.space, target)
    j0, inner = _entry_index(x.space, sub, target)
    entry_v = Verdict(inner, target, 0.0 if inner == CONVERGED else (j0 - 1) / kept, tol)
    parts = {"complement-null": comp_v, "entry": entry_v}
    return Verdict.all_of(parts, target, tol, witness={"subsequence_entry": j0, "kept": kept})


# ---------------------------------------------------------------------------
# limit and cluster point sets


def lambda_set(
    x: IndexedSequence,
    A: SummMatrix,
    ideal: Ideal,
    horizon: int = DEFAULT_HORIZON,
    tol: float = DEFAULT_TOL,
) -> frozenset[str]:
    """Points reached by a nonthin subsequence that strongly converges.

    The witness of a carrier point c is its visit set (see
    ``visit_witnesses``), which on a finite carrier loses no generality.
    c is admitted when its visit set is nonthin (its null verdict fails
    and the tail densities stay above tol) and the subsequence it indexes
    converges strongly to c.  That subsequence is constant at c, so it
    converges exactly when ``dist(c, c) == 0``, which P-1 asserts of a
    valid space.
    """
    return frozenset(
        c
        for c in x.space.points
        if x.space.dist(c, c) == 0.0 and nonthin(_points_null(x, {c}, A, ideal, horizon, tol))
    )


def gamma_set(
    x: IndexedSequence,
    A: SummMatrix,
    ideal: Ideal,
    horizon: int = DEFAULT_HORIZON,
    tol: float = DEFAULT_TOL,
) -> frozenset[str]:
    """Statistical cluster points: the hit sets stay nonthin at every level.

    A carrier point c belongs when for every threshold t the index set
    ``{ k : F_{c x_k}(t) > 1 - t }`` fails to have A^I-density zero.
    Inconclusive density verdicts are flagged with a warning and treated
    as thin, matching the finite-horizon reading of nonthin.
    """
    out, points = set(), frozenset(x.space.points)
    for c in x.space.points:
        for t in _grid(x.space):
            v = _points_null(x, points - _outside(x.space, c, t), A, ideal, horizon, tol)
            if not nonthin(v):
                if v.status == INCONCLUSIVE:
                    warnings.warn(
                        f"cluster check for {c!r} at t={t} is inconclusive (residual {v.residual})",
                        stacklevel=2,
                    )
                break
        else:
            out.add(c)
    return frozenset(out)


def strong_limit_point_set(x: IndexedSequence, horizon: int = DEFAULT_HORIZON) -> frozenset[str]:
    """Points that recur in the tail window [horizon/2, horizon].

    On a finite carrier a subsequence converges strongly to c exactly
    when it eventually sits at c, so at a finite horizon the honest
    stand-in for "visited infinitely often" is recurrence in the tail.
    """
    w0 = tail_start(horizon)
    tail = x.value_codes(horizon)[w0 - 1 :]
    return frozenset(p for c, p in enumerate(x.space.points) if (tail == c).any())


def stat_bounded_check(
    x: IndexedSequence,
    A: SummMatrix,
    ideal: Ideal,
    inside: Iterable[str],
    horizon: int = DEFAULT_HORIZON,
    tol: float = DEFAULT_TOL,
) -> Verdict:
    """Whether the sequence stays inside the given point set off a null set.

    Every subset of a finite carrier is strongly compact, so this is the
    finite-horizon statistical boundedness test against that subset.
    """
    allowed = frozenset(inside)
    for p in allowed:
        _check_point(x.space, p)
    return _points_null(x, frozenset(x.space.points) - allowed, A, ideal, horizon, tol)
