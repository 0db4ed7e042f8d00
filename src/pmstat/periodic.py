"""Triangular series of weights 1 whose member rows repeat with a short period.

``TriangularMatrix._series`` reads such a series through ``_PeriodicSeries``
when its rows read number at least ``BLOCK_ROWS``: in closed form, one
residue class at a time, with no float row built.  Spans shorter than
``BLOCK_ROWS`` are built from the closed form and read as ``_Series`` reads
them, which costs less.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import summability
from .summability import _member_array, _Series

_PERIOD_MAX = 64  # the longest period of member rows that a series of weights 1 is read in closed form at
_PROBES = 64  # rows probed per residue and step of a search along residues
_EXACT_PRODUCTS = 1 << 62  # D_i * x below this is exact in int64, with room for the rank arithmetic


def _period(rows: tuple[np.ndarray, bool], r: int, n: int) -> np.ndarray | None:
    """The marks of rows r..r+p-1 for the least period 2 <= p <= ``_PERIOD_MAX``
    with which the member ``rows`` (``_member_head``) repeat over rows r..n,
    or None.  The least period of the first 2 * ``_PERIOD_MAX`` rows divides
    every period up to ``_PERIOD_MAX`` of them (Fine and Wilf), so it is the
    one checked over every row, one shifted compare a block.  Rows that
    repeat with period 1, one run, or that are fewer than 2 * ``_PERIOD_MAX``
    are left to run ends, which read them for less; so is a fill of at least
    ``_PERIOD_MAX`` rows, which repeats only as one run.
    """
    head, fill = rows
    if n - min(len(head), n) >= _PERIOD_MAX:
        return None
    seg = _member_array(rows, n)[r - 1 :]
    if len(seg) < 2 * _PERIOD_MAX:
        return None
    pre = seg[: 2 * _PERIOD_MAX].tobytes()
    p = pre.find(pre[:_PERIOD_MAX], 1)  # the prefix's first half recurs at each of its periods
    while 1 < p <= _PERIOD_MAX and pre[p:] != pre[:-p]:
        p = pre.find(pre[:_PERIOD_MAX], p + 1)
    if not 1 < p <= _PERIOD_MAX:
        return None
    for lo in range(0, len(seg) - p, summability.BLOCK_ROWS):
        hi = min(lo + summability.BLOCK_ROWS, len(seg) - p)
        if not np.array_equal(seg[lo + p : hi + p], seg[lo:hi]):
            return None
    return seg[:p].copy()


class _PeriodicSeries(_Series):
    """A series of weights 1, row x = K_x / x, whose member rows repeat with
    period p from row r = starts[0] on, read in closed form one residue
    class at a time; no float row is built.

    Row x = r + i + q p of residue i has K_x = B_i + c q, where c counts
    the members of a period and B_i = K_{r+i}.  So p K_x = c x + D_i with
    D_i = p B_i - c (r + i) an integer fixed per residue, and
    K_x / x = c/p + D_i / (p x) rises in q when D_i < 0, falls when
    D_i > 0 and is constant when D_i = 0.  K_x and x are integers below
    2**53, so their quotient is the series' value bit for bit, and rounding
    is monotone, so each residue's values are monotone too: a segment's
    extremes sit at each residue's first and last row in it, a defect set
    is a prefix and a suffix of each residue (``_search``), keyed by their
    lengths, and the median is the least value of rank at least the middle,
    selected on exact ranks of D_i / x and rounded once.
    """

    def __init__(self, pattern: np.ndarray, carry: int, n: int, starts: list[int]) -> None:
        p, r = len(pattern), starts[0]
        self.p, self.c = p, int(np.count_nonzero(pattern))
        self.first = np.arange(r, r + p, dtype=np.int64)  # each residue's row at q = 0
        self.base = carry + np.cumsum(pattern, dtype=np.int64)  # and K there
        self.D = p * self.base - self.c * self.first
        a, b = np.array(starts)[:, None], np.array(starts[1:] + [n + 1])[:, None] - 1
        # each residue's first and last row in each segment, or a row of the segment when it has none
        rows = np.concatenate([np.minimum(a + (self.first - a) % p, b), np.maximum(b - (b - self.first) % p, a)], axis=1)
        values = self._at(rows)
        super().__init__(
            n, starts, values.min(1).tolist(), values.max(1).tolist(), float(self._at(np.int64(n))),
            lambda lo, hi: self._at(np.arange(lo, hi + 1)),
        )

    def _tail(self) -> tuple[np.ndarray, np.ndarray]:
        """Each residue's first q in the tail window, and its count of rows there."""
        q0 = -((self.first - self.starts[-1]) // self.p)
        return q0, np.maximum(0, (self.n - self.first) // self.p - q0 + 1)

    def _at(self, x: np.ndarray) -> np.ndarray:
        """The values of rows x."""
        q, i = np.divmod(x - self.first[0], self.p)
        return (self.base[i] + self.c * q) / x

    def _value(self, q: np.ndarray) -> np.ndarray:
        """The values of rows q of each residue, one residue a row of ``q``."""
        return (self.base[:, None] + self.c * q) / (self.first[:, None] + self.p * q)

    def _search(self, q0: np.ndarray, span: np.ndarray, trail: np.ndarray, holds: Callable, probes: int = _PROBES) -> np.ndarray:
        """Per residue, the length of the run of its rows q0..q0+span-1 where
        ``holds`` (of an array of rows q, one residue a row) is true: a run that
        leads in q, or trails where ``trail`` is set.  The run's end is
        bracketed and narrowed ``probes``-fold a step."""
        lo, hi, steps = np.zeros(self.p, dtype=np.int64), span.astype(np.int64), np.arange(probes)
        last = np.maximum(span - 1, 0)[:, None]
        while (width := hi - lo).any():
            j = lo[:, None] + width[:, None] * steps // probes  # probes of lo..hi-1, in order
            q = q0[:, None] + np.where(trail[:, None], last - np.minimum(j, last), np.minimum(j, last))
            a = holds(q).sum(axis=1)  # the probes that hold lead
            after = np.take_along_axis(j, np.minimum(a, probes - 1)[:, None], 1)[:, 0]
            before = np.take_along_axis(j, np.maximum(a - 1, 0)[:, None], 1)[:, 0]
            lo, hi = np.where((width > 0) & (a > 0), before + 1, lo), np.where((width > 0) & (a < probes), after, hi)
        return lo

    def compares(self, m: int) -> None:
        if m < summability.BLOCK_ROWS:
            super().compares(m)

    def defects(self, lo: float, hi: float, m: int) -> tuple[tuple, Callable[[], np.ndarray]]:
        """Rows at most ``lo`` lead a residue that rises, rows at least ``hi``
        one that falls, and the others trail; a side that no row reaches is
        read as empty.  Keyed by the run lengths, built by strided assignment;
        fewer rows than a block are built and compared, which costs less."""
        if m < summability.BLOCK_ROWS:
            return super().defects(lo, hi, m)
        span = np.maximum(0, (m - np.arange(self.p) + self.p - 1) // self.p)
        zero, falls = np.zeros(self.p, dtype=np.int64), self.D > 0
        low = self._search(zero, span, falls, lambda q: self._value(q) <= lo) if min(self.lows) <= lo else zero
        high = self._search(zero, span, self.D < 0, lambda q: self._value(q) >= hi) if max(self.highs) >= hi else zero
        lead, trail = np.where(falls, high, low), np.where(falls, low, high)

        def head() -> np.ndarray:
            out = np.zeros(m, dtype=bool)
            for i, (a, b) in enumerate(zip(lead.tolist(), trail.tolist())):
                rows = out[i :: self.p]
                rows[:a] = True
                rows[len(rows) - b :] = True
            return out

        return (m, lead.tobytes(), trail.tobytes()), head

    def _ranked(self, k: int) -> float:
        """The window's value of rank k, from 0: per residue in increasing
        order, the count of its rows below rank k, those whose count of
        window rows at most them is at most k, compared as D_i / x exactly;
        the least row past them is one of rank k or above, and the least of
        those is of rank k."""
        (q0, span), first, D = self._tail(), self.first, self.D
        q1 = q0 + span - 1

        def holds(q: np.ndarray) -> np.ndarray:
            # pivots, row x of residue j (rows of q), against the rows x_i of every residue i (last axis):
            # x_i is at most x in value exactly when D_i / x_i <= D_j / x, that is D_i x <= D_j x_i
            Dj, x = D[:, None, None], (first[:, None] + self.p * q)[..., None]
            prod, div = D * x, np.where(Dj == 0, 1, Dj)
            below = np.clip(q1 + 1 - np.maximum(-((first + prod // -div) // self.p), q0), 0, span)  # D_j > 0: x_i >= D_i x / D_j
            above = np.clip(np.minimum((prod // div - first) // self.p, q1) + 1 - q0, 0, span)  # D_j < 0: x_i <= D_i x / D_j
            at = np.where(Dj > 0, below, np.where(Dj < 0, above, np.where(D <= 0, span, 0)))
            return at.sum(axis=-1) <= k

        falls = D > 0
        t = self._search(q0, span, falls, holds, max(2, _PROBES // self.p))
        q = q0 + np.where(falls, np.maximum(span - 1 - t, 0), t)
        return float(self._value(q[:, None])[t < span].min())

    def median(self) -> float:
        """``np.median`` of the window's values: the middle one, or ``np.mean``
        of the two middle ones; built, as for ``nearest``, for a window of fewer
        rows than a block, and where D_i * x may pass int64."""
        size = self.n - self.starts[-1] + 1
        if size < summability.BLOCK_ROWS or int(np.abs(self.D).max()) * self.n >= _EXACT_PRODUCTS:
            return super().median()
        mid = size // 2
        return self._ranked(mid) if size % 2 else float(np.mean([self._ranked(mid - 1), self._ranked(mid)]))

    def nearest(self, t: float) -> float:
        """fl(y - t) is monotone in y, so the least |fl(y - t)| of a residue is
        at one of the two rows where it crosses t."""
        if self.n - self.starts[-1] + 1 < summability.BLOCK_ROWS:
            return super().nearest(t)
        q0, span = self._tail()
        up = self._search(q0, span, self.D < 0, lambda q: self._value(q) >= t)
        k = np.where(self.D < 0, span - up, up)  # the first row past the crossing
        q = q0[:, None] + np.clip(k[:, None] + np.array([-1, 0]), 0, np.maximum(span - 1, 0)[:, None])
        return float(np.abs(self._value(q) - t)[span > 0].min())
