"""Finite probabilistic metric spaces and their strong topology.

A probabilistic metric space assigns to each pair of points a distance
distribution function ``F_pq`` instead of a number, subject to:

* P-1: ``F_pp`` is the unit step at 0;
* P-2: ``F_pq`` differs from the unit step at 0 when p != q;
* P-3: ``F_pq = F_qp``;
* P-4: ``F_pr >= tau(F_pq, F_qr)`` pointwise, for a triangle function tau.

The strong topology is generated by the neighborhoods
``N_p(t) = { q : F_pq(t) > 1 - t }``.  ``strong_neighborhood`` is the one
place that evaluates this inequality; vicinities, the composition slack
and the defect sets of ``convergence`` read it.  Membership is
equivalent to ``levy_distance(F_pq, unit_step(0)) < t``, so on a finite
carrier the whole topology is controlled by the finite set of exact
pairwise values ``dist(p, q) = levy_distance_to_zero(F_pq)`` ("gap
values").  By P-2 every off-diagonal gap is positive, which makes the
strong topology on a finite carrier discrete: every subset is closed and
strongly compact and no subset has limit points.  The methods below
still compute these notions from their definitions, so degenerate tables
built with ``validate=False`` are handled honestly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .distfn import (
    EPS0,
    StepDistFn,
    evaluate,
    is_list_of,
    levy_distance_to_zero,
    unit_step,
)
from .triangle import MAXIMAL, TriangleFn


class AxiomViolation(ValueError):
    """A space axiom failed; carries the axiom tag and a witness tuple."""

    def __init__(self, axiom: str, witness: tuple, detail: str):
        self.axiom = axiom
        self.witness = witness
        super().__init__(f"{axiom} violated at {witness}: {detail}")


@dataclass(frozen=True)
class SpaceAxiomReport:
    violations: tuple[tuple[str, tuple, str], ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def first(self) -> tuple[str, tuple, str] | None:
        return self.violations[0] if self.violations else None

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "violations": [
                {"axiom": a, "witness": list(w), "detail": d} for a, w, d in self.violations
            ],
        }


@dataclass(frozen=True, eq=False)
class FinitePMSpace:
    """A finite carrier with a symmetric d.d.f. table and a triangle function.

    ``table`` maps ordered point pairs to d.d.f.s and contains every
    ordered pair including the diagonal.  Exact pairwise gap values and
    the threshold grid are precomputed.
    """

    points: tuple[str, ...]
    table: Mapping[tuple[str, str], StepDistFn]
    tau: TriangleFn

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("a space needs at least one point")
        if len(set(self.points)) != len(self.points):
            raise ValueError("duplicate point names")
        for p in self.points:
            for q in self.points:
                if (p, q) not in self.table:
                    raise ValueError(f"table is missing the pair ({p}, {q})")
        dist = {
            (p, q): levy_distance_to_zero(self.table[(p, q)])
            for p in self.points
            for q in self.points
        }
        thresholds = tuple(sorted({d for d in dist.values() if d > 0.0}))
        object.__setattr__(self, "_dist", dist)
        object.__setattr__(self, "_thresholds", thresholds)

    # -- basic queries ----------------------------------------------------

    def ddf(self, p: str, q: str) -> StepDistFn:
        """The distance distribution function of the pair (p, q)."""
        return self.table[(p, q)]

    def dist(self, p: str, q: str) -> float:
        """Exact Levy distance from F_pq to the unit step at 0.

        This is the numeric gap that drives every strong-topology test:
        q lies in N_p(t) exactly when dist(p, q) < t.
        """
        return self._dist[(p, q)]

    def thresholds(self) -> tuple[float, ...]:
        """Sorted distinct positive gap values.

        As t crosses a threshold the vicinity V(t) changes; between
        thresholds nothing moves, so quantifiers over all t > 0 reduce
        to this finite grid.
        """
        return self._thresholds

    # -- validation --------------------------------------------------------

    def validate_axioms(self) -> SpaceAxiomReport:
        """Check P-1 through P-4 exhaustively and report all violations.

        P-4 gives each distinct d.d.f. of the table a code and enumerates
        the code triples ``(F_pq, F_qr, F_pr)`` of all point triples as one
        integer array.  Each distinct triple is decided once, by
        ``TriangleFn.at_most``, in the order the (p, q, r) loop meets it, so
        an overflowing jump-location sum names the pair that loop meets
        first; violations are listed in (p, q, r) order.
        """
        bad: list[tuple[str, tuple, str]] = []
        for p in self.points:
            if self.table[(p, p)] != EPS0:
                bad.append(("P-1", (p,), "diagonal entry is not the unit step at 0"))
        for p, q in itertools.combinations(self.points, 2):
            if self.table[(p, q)] == EPS0:
                bad.append(("P-2", (p, q), "off-diagonal entry equals the unit step at 0"))
            if self.table[(p, q)] != self.table[(q, p)]:
                bad.append(("P-3", (p, q), "table is not symmetric"))
        distinct: dict[StepDistFn, int] = {}
        pts = self.points
        codes = np.array(
            [[distinct.setdefault(self.table[(p, q)], len(distinct)) for q in pts] for p in pts], dtype=np.int64
        )
        fns = list(distinct)
        n, k = len(pts), len(fns)
        # the code triple (F_pq, F_qr, F_pr) of every point triple, one base-k key each
        triples = np.broadcast_arrays(codes[:, :, None], codes[None, :, :], codes[:, None, :])
        pq, qr, pr = (c.ravel() for c in triples)
        _, first, inverse = np.unique((pq * k + qr) * k + pr, return_index=True, return_inverse=True)
        order = np.argsort(first)  # distinct triples in the order the (p, q, r) loop meets them
        at = first[order]
        holds = np.empty(len(first), dtype=bool)
        holds[order] = [
            self.tau.at_most(fns[a], fns[b], fns[c])
            for a, b, c in zip(pq[at].tolist(), qr[at].tolist(), pr[at].tolist())
        ]
        for p, q, r in np.argwhere(~holds[inverse].reshape(n, n, n)):
            bad.append(("P-4", (pts[p], pts[q], pts[r]), "tau(F_pq, F_qr) exceeds F_pr somewhere"))
        return SpaceAxiomReport(tuple(bad))

    # -- strong topology ----------------------------------------------------

    def strong_neighborhood(self, p: str, t: float) -> frozenset[str]:
        """``N_p(t) = { q : F_pq(t) > 1 - t }`` for t > 0."""
        if t <= 0.0:
            raise ValueError(f"neighborhood parameter must be positive, got {t}")
        if p not in self.points:
            raise ValueError(f"unknown point {p!r}")
        return frozenset(
            q for q in self.points if evaluate(self.table[(p, q)], t) > 1.0 - t
        )

    def strong_vicinity(self, u: float) -> frozenset[tuple[str, str]]:
        """All ordered pairs within strong distance u: ``{(p,q) : q in N_p(u)}``."""
        return frozenset((p, q) for p in self.points for q in self.strong_neighborhood(p, u))

    def vicinity_composition_alpha(self, u: float) -> float:
        """A slack alpha in (0, u] with ``V(alpha) o V(alpha) <= V(u)``.

        The composition stays inside V(u) exactly when ``N_q(alpha)`` lies
        in ``N_p(u)`` for every p and every q in ``N_p(alpha)``.  Searches
        the candidate grid {u} plus all thresholds at or below u in
        descending order and returns the first (largest) value that
        works.  On a valid space the smallest positive gap always works,
        because every neighborhood at that level is a singleton.
        """
        target = {p: self.strong_neighborhood(p, u) for p in self.points}
        cands = sorted({u} | {t for t in self._thresholds if t <= u}, reverse=True)
        for alpha in cands:
            near = {p: self.strong_neighborhood(p, alpha) for p in self.points}
            if all(near[q] <= target[p] for p in self.points for q in near[p]):
                return alpha
        raise ValueError(
            f"no composition slack found down to {cands[-1]}; vicinities do not compose"
        )

    def strong_closure(self, members: Iterable[str]) -> frozenset[str]:
        """Points c such that every N_c(t) meets the set.

        For finite sets the condition collapses to ``min over members of
        dist(c, e) == 0``; on a valid space only points of the set itself
        qualify, so every subset is strongly closed.
        """
        m = self._point_set(members)
        if not m:
            return frozenset()
        return frozenset(
            c for c in self.points if min(self._dist[(c, e)] for e in m) == 0.0
        )

    def set_limit_points(self, members: Iterable[str]) -> frozenset[str]:
        """Points l in the strong closure of the set without l.

        Empty on every valid finite space (off-diagonal gaps are
        positive); nonempty only for degenerate unvalidated tables.
        """
        m = self._point_set(members)
        return frozenset(l for l in self.points if l in self.strong_closure(m - {l}))

    def _point_set(self, members: Iterable[str]) -> frozenset[str]:
        m = frozenset(members)
        unknown = m - set(self.points)
        if unknown:
            raise ValueError(f"unknown points {sorted(unknown)}")
        return m

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        pairs = []
        for i, p in enumerate(self.points):
            for q in self.points[i + 1 :]:
                pairs.append([p, q, self.table[(p, q)].to_json()])
        return {"points": list(self.points), "tnorm": self.tau.kind, "F": pairs}

    @classmethod
    def from_json(cls, data: object) -> "FinitePMSpace":
        """Inverse of ``to_json``; the shape is checked here, the axioms by ``from_table``.

        ``F`` lists ``[p, q, jumps]`` triples over two distinct points of
        ``points``, each pair at most once; any other shape is a ValueError.
        """
        if not isinstance(data, dict) or not {"points", "tnorm", "F"} <= data.keys():
            raise ValueError("a space is a JSON object with keys points, tnorm and F")
        points = data["points"]
        if not is_list_of(points, lambda p: isinstance(p, str)):
            raise ValueError("space points must be a list of strings")
        if not is_list_of(data["F"], lambda e: isinstance(e, list) and len(e) == 3):
            raise ValueError("space F must be a list of [p, q, jumps] triples")
        tau = TriangleFn(data["tnorm"])
        table: dict[tuple[str, str], StepDistFn] = {(p, p): EPS0 for p in points}
        for p, q, jumps in data["F"]:
            if p not in points or q not in points or p == q:
                raise ValueError(f"space F entry ({p!r}, {q!r}) does not name two distinct known points")
            if (p, q) in table:
                raise ValueError(f"space F gives the pair ({p}, {q}) twice")
            table[(p, q)] = table[(q, p)] = StepDistFn.from_json(jumps)
        return from_table(points, table, tau)


def from_table(
    points: Sequence[str],
    table: Mapping[tuple[str, str], StepDistFn],
    tau: TriangleFn,
    validate: bool = True,
) -> FinitePMSpace:
    """Build a space from an explicit table; raise on the first axiom violation.

    ``validate=False`` skips the axiom check and is meant for negative
    tests against degenerate tables.
    """
    space = FinitePMSpace(tuple(points), dict(table), tau)
    if validate:
        report = space.validate_axioms()
        if not report.ok:
            axiom, witness, detail = report.first
            raise AxiomViolation(axiom, witness, detail)
    return space


def build_equilateral(points: Sequence[str], f: StepDistFn) -> FinitePMSpace:
    """The space where every distinct pair shares the d.d.f. ``f``.

    Uses the maximal triangle function; valid for any f other than the
    unit step at 0 (with two or more points), which ``from_table``
    refuses as P-2.  A single-point carrier is valid for every f.
    """
    pts = tuple(points)
    table = {(p, q): EPS0 if p == q else f for p in pts for q in pts}
    return from_table(pts, table, MAXIMAL)


# how build_metric_induced names the violations that are not P-4
_METRIC_DETAIL = {
    "P-1": "nonzero self-distance",
    "P-2": "zero distance between distinct points",
    "P-3": "asymmetric distances",
}


def build_metric_induced(
    points: Sequence[str],
    d: Callable[[str, str], float],
) -> FinitePMSpace:
    """The space with ``F_pq = unit_step(d(p, q))``.

    ``d`` must be a metric on the points.  Each value is read once and a
    negative or NaN one is rejected here; ``from_table`` decides the rest,
    and its first P-1 to P-3 violation is re-raised as ``metric`` with the
    same witness and ``_METRIC_DETAIL``'s message.  The triangle function
    is the sup-convolution under the minimum t-norm, under which unit
    steps add their locations, so P-4 is the triangle inequality itself:
    it decides ``d(p,r) <= d(p,q) + d(q,r)`` on the float sum, with no
    slack, in (p, q, r) order.  Its first violation is re-raised as
    ``triangle-inequality``, with the size in ulps of d(p,r), so a
    violation by rounding alone is named.
    """
    pts = tuple(points)
    vals: dict[tuple[str, str], float] = {}
    for p in pts:
        for q in pts:
            v = float(d(p, q))
            if math.isnan(v) or v < 0.0:
                raise AxiomViolation("metric", (p, q), f"negative or NaN distance {v}")
            vals[(p, q)] = v
    try:
        return from_table(pts, {pq: unit_step(v) for pq, v in vals.items()}, TriangleFn("min"))
    except AxiomViolation as exc:
        if exc.axiom in _METRIC_DETAIL:
            raise AxiomViolation("metric", exc.witness, _METRIC_DETAIL[exc.axiom]) from None
        p, q, r = exc.witness
        direct, via = vals[(p, r)], vals[(p, q)] + vals[(q, r)]
        raise AxiomViolation(
            "triangle-inequality",
            exc.witness,
            f"d(p,r)={direct!r} exceeds d(p,q)+d(q,r)={via!r} "
            f"by {direct - via:.3g} ({(direct - via) / math.ulp(direct):.3g} ulp)",
        ) from None
