"""Regular summability matrices, ideals on the index set, and densities.

A summability matrix A = (a_nk) transforms a bounded sequence into the
row sums ``(Ay)_n = sum_k a_nk y_k``.  A is regular (limit-preserving)
exactly under the Silverman-Toeplitz conditions:

(i)   sup_n sum_k |a_nk| is finite,
(ii)  every column tends to 0,
(iii) the row sums tend to 1.

For a set M of indices, the A-density is the limit of
``y_n = sum_{m in M} a_nm`` when it exists; replacing the ordinary limit
by an ideal limit gives the A^I-density.  Every matrix here is
non-negative, and what it computes is that partial-density series,
``density_series(M, n_rows, start=1)`` on rows start..n_rows.  The
regularity conditions are read off it: the row sums are the series of
all indices (non-negative entries make them the absolute row sums), and
column k is the series of {k}, so vanishing columns say that finite sets
have A-density 0.

An ideal is a family of "small" index sets closed under subsets and
finite unions; the two kinds here are the finite sets ("fin") and the
sets of B-density zero for a second regular matrix B.

Everything here is finite-horizon and verdict-valued: a computation at
horizon N returns a ``Verdict`` carrying the estimate, a residual, and a
status, with the invariant that a converged status implies
residual <= tol.  Emptiness has density zero: the partial densities of
the empty set vanish identically, so its verdict converges to 0.

A limit reading looks only at the tail window, rows ``tail_start(n)..n``
of an n-row series, and only the rows a verdict reads are built: a fin
limit reads the window of its A-series, a density ideal reads its
A-series whole and the window of each B-series (``Ideal.reads_from``).
A window equals that slice of the whole series bit for bit.  A series is
read through one reader, ``SummMatrix._series``: segment extremes, the
last value, and rows only when asked.  A triangular matrix of exact
weights reads few runs at their run ends
(``TriangularMatrix._run_extremes``), so a null verdict builds no series
where its extremes can be read without one, and a limit search computes
a candidate only when it can still win.

Membership of a set in a density ideal is decided in one place,
``Ideal.contains``; limit extraction under a density ideal asks it and
adds no rule.  Fin has one reading: a fin limit is tail stabilization,
read from the window's extremes (``_extremes_verdict``), and
``contains`` refuses fin.
"""

from __future__ import annotations

import json
import math
import operator
import struct
import sys
from bisect import bisect_right
from dataclasses import dataclass, replace
from itertools import accumulate
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .distfn import is_list_of, is_number

DEFAULT_HORIZON = 10_000
DEFAULT_TOL = 1e-2
TAIL_FRACTION = 0.5
SETTLE_FACTOR = 4.0
REGULARITY_COLUMNS = 25

CONVERGED = "converged"
INCONCLUSIVE = "inconclusive"
DIVERGED = "diverged"


@dataclass(frozen=True)
class Verdict:
    """Outcome of a finite-horizon limit or density computation.

    ``value`` is the estimate (a number for densities, a point name for
    convergence detectors), ``residual`` the worst deviation over the
    tail window, and ``status`` one of converged / inconclusive /
    diverged.  ``tail_low`` and ``tail_high`` bracket the raw partial
    values over the tail window and serve as liminf / limsup proxies.
    ``detail`` holds the named sub-verdicts that ``all_of`` combined.
    """

    status: str
    value: object
    residual: float
    tol: float
    tail_low: float | None = None
    tail_high: float | None = None
    witness: object = None
    detail: Mapping[str, "Verdict"] | None = None

    def __post_init__(self) -> None:
        if self.status not in (CONVERGED, INCONCLUSIVE, DIVERGED):
            raise ValueError(f"unknown status {self.status!r}")
        if not self.tol >= 0.0:  # NaN too: it would make every comparison against it false
            raise ValueError(f"tol must be a number >= 0, got {self.tol!r}")
        if self.status == CONVERGED and not self.residual <= self.tol:  # NaN too
            raise ValueError(
                f"converged verdict with residual {self.residual} above tol {self.tol}"
            )

    @property
    def converged(self) -> bool:
        return self.status == CONVERGED

    def __bool__(self) -> bool:
        return self.converged

    def to_json(self) -> dict:
        out = {
            "status": self.status,
            "value": self.value,
            "residual": self.residual,
            "tol": self.tol,
        }
        if self.tail_low is not None:
            out["tail_low"] = self.tail_low
            out["tail_high"] = self.tail_high
        if self.witness is not None:
            out["witness"] = self.witness
        if self.detail is not None:
            out["detail"] = {name: v.to_json() for name, v in self.detail.items()}
        return out

    @classmethod
    def all_of(cls, parts: Mapping[str, "Verdict"], value: object, tol: float, **fields: object) -> "Verdict":
        """The conjunction of named sub-verdicts, kept as its ``detail``.

        Converged when every part is, diverged when any part is, else
        inconclusive; the residual is the largest part residual (0.0 with
        no parts).  ``fields`` are the other ``Verdict`` fields.
        """
        statuses = [v.status for v in parts.values()]
        if all(s == CONVERGED for s in statuses):
            status = CONVERGED
        else:
            status = DIVERGED if DIVERGED in statuses else INCONCLUSIVE
        residual = max((v.residual for v in parts.values()), default=0.0)
        return cls(status, value, residual, tol, detail=parts, **fields)


def tail_start(n: int) -> int:
    """First index (1-based) of the tail window [TAIL_FRACTION * n, n]."""
    return max(1, math.ceil(n * TAIL_FRACTION))


def _extremes_verdict(
    low: float,
    high: float,
    last: float,
    target: float,
    tol: float,
    nearest_inside: Callable[[], float] | None = None,
) -> Verdict:
    """Tail-stabilization verdict from a window's extremes and last value.

    Converged when the final deviation is within tol and the whole window
    stays within SETTLE_FACTOR * tol; diverged when the window never
    comes within tol of the target; inconclusive otherwise.

    Rounding is monotone, so x -> fl(x - t) is nondecreasing and the
    largest deviation |fl(x - t)| over the window is exactly
    ``max(t - low, high - t)``.  The smallest is ``low - t`` when
    t <= low and ``t - high`` when t >= high.  Only a target strictly
    inside (low, high) needs the window itself: ``nearest_inside`` gives
    the smallest deviation there.  A null reading of a non-negative
    series has t = 0 <= low and needs nothing more.
    """
    residual = abs(last - target)
    if residual <= tol and max(target - low, high - target) <= SETTLE_FACTOR * tol:
        status = CONVERGED
    else:
        if target <= low:
            nearest = low - target
        elif target >= high:
            nearest = target - high
        else:
            nearest = nearest_inside()
        status = DIVERGED if nearest > tol else INCONCLUSIVE
    return Verdict(status, target, residual, tol, low, high)


# ---------------------------------------------------------------------------
# index sets


@dataclass(frozen=True)
class IndexSet:
    """A set of positive integers, worked with as an array at the horizon.

    The working form is ``indicator(n)``, the boolean array for indices
    1..n, which ``vec`` computes in one array pass.  ``fn`` is the scalar
    membership predicate that defines the set; it is the reference the
    oracles and equivalence tests compare ``vec`` against, and nothing
    else reads it.  Sets compose with ~, | and &.
    """

    name: str
    fn: Callable[[int], bool]
    vec: Callable[[int], np.ndarray]

    def __call__(self, k: int) -> bool:
        return bool(self.fn(k))

    def indicator(self, n: int) -> np.ndarray:
        arr = self.vec(n)
        if len(arr) != n:
            raise ValueError(f"indicator for {self.name} returned length {len(arr)}, wanted {n}")
        return arr

    def __invert__(self) -> "IndexSet":
        return IndexSet(f"not({self.name})", lambda k: not self.fn(k), lambda n: ~self.indicator(n))

    def __or__(self, other: "IndexSet") -> "IndexSet":
        return IndexSet(
            f"({self.name})|({other.name})",
            lambda k: self.fn(k) or other.fn(k),
            lambda n: self.indicator(n) | other.indicator(n),
        )

    def __and__(self, other: "IndexSet") -> "IndexSet":
        return IndexSet(
            f"({self.name})&({other.name})",
            lambda k: self.fn(k) and other.fn(k),
            lambda n: self.indicator(n) & other.indicator(n),
        )


def _marked(n: int, members: Iterable[int]) -> np.ndarray:
    """Indicator over indices 1..n of the given members; those above n drop out."""
    arr = np.zeros(n, dtype=bool)
    arr[np.fromiter((m for m in members if m <= n), dtype=np.int64) - 1] = True
    return arr


SQUARES = IndexSet(
    "squares",
    lambda k: math.isqrt(k) ** 2 == k,
    lambda n: _marked(n, (j * j for j in range(1, math.isqrt(n) + 1))),
)
CUBES = IndexSet(
    "cubes",
    lambda k: round(k ** (1 / 3)) ** 3 == k or (round(k ** (1 / 3)) + 1) ** 3 == k,
    lambda n: _marked(n, (j ** 3 for j in range(1, round(n ** (1 / 3)) + 2))),
)
POWERS_OF_TWO = IndexSet(
    "pow2",
    lambda k: k & (k - 1) == 0,
    lambda n: _marked(n, (1 << i for i in range(n.bit_length()))),
)
ALL_INDICES = IndexSet("all", lambda k: True, lambda n: np.ones(n, dtype=bool))
NO_INDICES = IndexSet("none", lambda k: False, lambda n: np.zeros(n, dtype=bool))


def finite_set(members: Iterable[int]) -> IndexSet:
    ms = set()
    for m in members:
        try:
            ms.add(operator.index(m))
        except TypeError:
            raise ValueError(f"finite-set member {m!r} is not an integer") from None
    if any(m < 1 for m in ms):
        raise ValueError("indices start at 1")
    label = ",".join(str(m) for m in sorted(ms))
    return IndexSet(f"finite:{label}", lambda k: k in ms, lambda n: _marked(n, ms))


def multiples(m: int, r: int = 0) -> IndexSet:
    if m < 1 or not 0 <= r < m:
        raise ValueError(f"need m >= 1 and 0 <= r < m, got m={m}, r={r}")

    def vec(n: int) -> np.ndarray:
        arr = np.zeros(n, dtype=bool)
        first = r if r >= 1 else m
        arr[first - 1 :: m] = True
        return arr

    return IndexSet(f"mod:{m},{r}", lambda k: k % m == r, vec)


EVENS = replace(multiples(2, 0), name="evens")
ODDS = replace(multiples(2, 1), name="odds")


def index_block(lo: int, hi: int) -> IndexSet:
    """Indices k with lo <= k < hi."""
    if not 1 <= lo < hi:
        raise ValueError(f"need 1 <= lo < hi, got {lo}, {hi}")

    def vec(n: int) -> np.ndarray:
        arr = np.zeros(n, dtype=bool)
        arr[lo - 1 : min(hi - 1, n)] = True
        return arr

    return IndexSet(f"block:{lo},{hi}", lambda k: lo <= k < hi, vec)


_NAMED_SETS = {
    "all": ALL_INDICES,
    "none": NO_INDICES,
    "evens": EVENS,
    "odds": ODDS,
    "squares": SQUARES,
    "cubes": CUBES,
    "pow2": POWERS_OF_TWO,
}


def index_set_from_spec(spec: str) -> IndexSet:
    """Parse an index-set spec string.

    Grammar: ``all | none | evens | odds | squares | cubes | pow2 |
    finite:1,2,3 | mod:m,r | block:lo,hi | not:<spec>``.  Leading
    ``not:`` prefixes are read in a loop and cancel in pairs, so any
    nesting depth parses.
    """
    spec = spec.strip()
    negate = False
    while spec.startswith("not:"):
        spec = spec[4:].strip()
        negate = not negate
    if negate:
        return ~index_set_from_spec(spec)
    if spec in _NAMED_SETS:
        return _NAMED_SETS[spec]
    if spec.startswith("finite:"):
        return finite_set(int(s) for s in spec[7:].split(",") if s)
    if spec.startswith("mod:"):
        m, r = (int(s) for s in spec[4:].split(","))
        return multiples(m, r)
    if spec.startswith("block:"):
        lo, hi = (int(s) for s in spec[6:].split(","))
        return index_block(lo, hi)
    raise ValueError(f"cannot parse index-set spec {spec!r}")


Membership = IndexSet | np.ndarray | tuple[np.ndarray, bool]


def _member_head(member: Membership, n: int) -> tuple[np.ndarray, bool]:
    """A membership over indices 1..n as ``(head, fill)``: the marks of
    indices 1..len(head) <= n, and the membership of every later index."""
    if isinstance(member, tuple):
        head, fill = member
        return head[:n], fill
    return _member_array(member, n), False


def _member_array(member: Membership, n: int) -> np.ndarray:
    """Boolean indicator of a membership over indices 1..n, read-only: a
    boolean array comes back as a view, not a copy, and a pair
    ``(head, fill)`` is expanded."""
    if isinstance(member, IndexSet):
        return member.indicator(n)
    if isinstance(member, tuple):
        head, fill = member
        return head[:n] if len(head) >= n else np.concatenate([head, np.full(n - len(head), fill)])
    if len(member) < n:
        raise ValueError(f"membership array of length {len(member)} does not cover index {n}")
    return member[:n].astype(bool, copy=False)


def _check_window(n_rows: int, start: int) -> None:
    if not 1 <= start <= n_rows:
        raise ValueError(f"start row {start} outside rows 1..{n_rows}")


class _Series:
    """Rows ``starts[0]..n`` of an n-row series, as a limit reads them: the
    least and greatest row of each segment, rows ``starts[i]..starts[i + 1] - 1``
    and, last, the tail window ``starts[-1]..n``; the last row; and rows
    themselves only when asked, each span built once by ``build(lo, hi)``,
    rows lo..hi: ``head(m)``, the first m, and ``window()``."""

    def __init__(
        self, n: int, starts: list[int], lows: list[float], highs: list[float], last: float, build: Callable[[int, int], np.ndarray]
    ) -> None:
        self.n, self.starts, self.lows, self.highs, self.last, self._build = n, starts, lows, highs, last, build
        self._head = self._window = None

    @classmethod
    def of(cls, part: np.ndarray, n: int, starts: list[int]) -> "_Series":
        """The series whose rows starts[0]..n are the array ``part``."""
        at = [s - starts[0] for s in starts]
        lows, highs = np.minimum.reduceat(part, at).tolist(), np.maximum.reduceat(part, at).tolist()
        return cls(n, starts, lows, highs, float(part[-1]), lambda lo, hi: part[lo - starts[0] : hi - starts[0] + 1])

    def head(self, m: int) -> np.ndarray:
        if self._head is None or len(self._head) < m:
            self._head = self._build(self.starts[0], self.starts[0] + m - 1) if m else np.empty(0)
        return self._head[:m]

    def window(self) -> np.ndarray:
        if self._window is None:
            self._window = self._build(self.starts[-1], self.n)
        return self._window


# ---------------------------------------------------------------------------
# summability matrices


class SummMatrix:
    """Base class: a matrix given by its rows, each of finite support.

    ``row`` is the scalar form that oracles and tests compare against; the
    generic fallbacks loop over it, and subclasses override them with arrays.
    """

    name: str = "abstract"

    def row(self, n: int) -> Iterable[tuple[int, float]]:
        """The entries ``(k, a_nk)`` of row n, in increasing column order."""
        raise NotImplementedError

    def support_bound(self, n: int) -> int:
        """Largest column index that row n touches (nondecreasing in n)."""
        raise NotImplementedError

    def max_row_for(self, horizon: int) -> int:
        """Largest row whose support fits inside indices 1..horizon: the
        horizon itself when its own row fits, else found by bisection."""
        if self.support_bound(1) > horizon:
            raise ValueError(f"horizon {horizon} below the support of the first row")
        if self.support_bound(horizon) <= horizon:
            return horizon
        lo, hi = 1, max(1, horizon)
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self.support_bound(mid) <= horizon:
                lo = mid
            else:
                hi = mid - 1
        return lo

    def density_series(self, member: Membership, n_rows: int, start: int = 1) -> np.ndarray:
        """Partial A-densities ``y_n = sum_{m in M} a_nm`` for rows n = start..n_rows."""
        _check_window(n_rows, start)
        mem = _member_array(member, self.support_bound(n_rows))
        return np.array([sum((a for k, a in self.row(n) if mem[k - 1]), 0.0) for n in range(start, n_rows + 1)])

    def _series(self, member: Membership, n_rows: int, starts: list[int]) -> _Series:
        """Rows ``starts[0]..n_rows`` of the series as a limit reads them,
        split at ``starts``: here those rows, built whole."""
        return _Series.of(self.density_series(member, n_rows, start=starts[0]), n_rows, starts)

    def tail_extremes(self, member: Membership, n_rows: int) -> tuple[float, float, float]:
        """The least, greatest and last partial A-density over the tail
        window, rows ``tail_start(n_rows)..n_rows``: what a null reading
        reads, the one-segment case of ``_series``."""
        read = self._series(member, n_rows, [tail_start(n_rows)])
        return read.lows[0], read.highs[0], read.last

    def nonvanishing_column(self) -> int | None:
        """A column that does not tend to 0, where the kind's closed form
        shows one; such a B makes a finite set B-dense, so its density
        ideal is not admissible.  None when no column is known to persist."""
        return None


BLOCK_ROWS = 1 << 16  # rows per block of a triangular series: a block's buffers stay near 1 MiB
_EXACT_ROWS = 1 << 26  # weights j up to this row have sums m(m + 1)/2 below 2**53
_LOG_NEAR_MAX = math.log(sys.float_info.max) - 1.0  # a factor e below the float range


class TriangularMatrix(SummMatrix):
    """Rows that average the first n terms of a mapped subsequence.

    ``a_{n, phi(j)} = w_j / (w_1 + ... + w_n)`` for j <= n, with a
    strictly increasing index map phi and weights ``w_j = j ** power``.
    Covers the Cesaro matrix (phi = identity, power 0), weighted means,
    and matrices supported on sparse index sets such as the squares.
    ``index_map`` acts elementwise on an integer array of j values.
    Row m of the series of a set is K_m / W_m, the running sums of the
    member weights and of all weights, read in blocks of ``BLOCK_ROWS``
    rows (``_sums``, ``_blocks``); nothing the size of the horizon is kept.
    Weights 1, and weights j on at most ``_EXACT_ROWS`` rows, are exact
    (``_exact``): every running sum is an integer below 2**53, so it equals
    the sequential float sum in any order, W_m is m or m(m + 1)/2, and a
    window is read from row s on and, with few runs, at its run ends
    (``_run_extremes``).
    """

    def __init__(
        self,
        name: str,
        power: float = 0.0,
        index_map: Callable[[np.ndarray], np.ndarray] | None = None,
    ):
        if not math.isfinite(power):
            raise ValueError(f"weight power must be finite, got {power}")
        self.name = name
        self.power = power
        self._map = index_map

    def _weights(self, hi: int, lo: int = 0) -> np.ndarray:
        """The weights w_j of rows j = lo+1..hi."""
        w = np.arange(lo + 1, hi + 1, dtype=float)
        w **= self.power
        return w

    def _exact(self, n_rows: int) -> bool:
        """Whether the running sums up to row n_rows are integers below 2**53:
        weights 1, or weights j on at most ``_EXACT_ROWS`` rows."""
        return self.power == 0 or (self.power == 1 and n_rows <= _EXACT_ROWS)

    def _totals(self, m: np.ndarray) -> np.ndarray:
        """W_m of exact weights at float row numbers m, an array in place or
        a float: m, or m(m + 1)/2, whose product is exact below 2**53."""
        if self.power == 1:
            m *= m + 1.0
            m *= 0.5
        return m

    def _carry(self, head: np.ndarray, fill: bool, rows: int) -> int:
        """K at row ``rows`` of exact weights, for member rows ``head`` and
        then ``fill``: the filled rows' W_rows - W_h, plus the member weight
        of the head's rows, counted, or for weights j summed in blocks."""
        h = min(len(head), rows)
        K = int(self._totals(float(rows)) - self._totals(float(h))) if fill else 0
        if self.power == 0:
            return K + int(np.count_nonzero(head[:h]))
        for lo in range(0, h, BLOCK_ROWS):
            block = head[lo : min(lo + BLOCK_ROWS, h)]
            K += int(np.flatnonzero(block).sum()) + (lo + 1) * int(np.count_nonzero(block))
        return K

    def _sums(
        self, mem: np.ndarray | None, n_rows: int, start: int = 1, carry: float | None = None
    ) -> Iterator[tuple[np.ndarray | None, np.ndarray]]:
        """The running sums (K_m, W_m) of the member weights and of all
        weights up to row m, for rows m = start..n_rows, in blocks of at most
        ``BLOCK_ROWS`` rows.  ``mem`` marks the member rows 1..len(mem); K
        runs over those rows only, and is None in a block past them or
        without ``mem``.

        A block adds the sums carried from the row before it into its first
        element and then sums in sequence, so every value is the sequential
        running sum bit for bit: fl(carry + x) = fl(x + carry).  Exact
        weights start at row start, from K summed exactly over the rows
        before it (``_carry``, or ``carry`` when the caller has it), and take
        W_m as m or m(m + 1)/2, with no power and no sum; other weights carry
        their sums from row 1.  Weight
        sums that overflow are an input error, raised at the first block
        that reaches them.
        """
        exact = self._exact(n_rows)
        before = start - 1
        covered = 0 if mem is None else len(mem)
        K = float(self._carry(mem, False, before) if carry is None else carry) if exact and mem is not None else 0.0
        W = 0.0
        for lo in range(before if exact else 0, n_rows, BLOCK_ROWS):
            hi = min(lo + BLOCK_ROWS, n_rows)
            k = None
            if exact:
                w = np.arange(lo + 1, hi + 1, dtype=float)
                if lo < covered:
                    k = mem[lo:hi].astype(float) if self.power == 0 else w[: covered - lo] * mem[lo:hi]
                self._totals(w)
            else:
                with np.errstate(over="ignore", invalid="ignore"):  # sums that overflow raise below
                    w = self._weights(hi, lo)
                    if lo < covered:
                        k = w[: covered - lo] * mem[lo:hi]
                    w[0] += W
                    W = np.cumsum(w, out=w)[-1]
                if not math.isfinite(W):
                    first = lo + int(np.argmin(np.isfinite(w))) + 1
                    raise ValueError(f"weight sums for power {self.power} overflow from row {first}")
            if k is not None:
                k[0] += K
                K = np.cumsum(k, out=k)[-1]
            if hi > before:
                cut = max(0, before - lo)
                yield (None if k is None else k[cut:]), w[cut:]

    def _blocks(
        self, mem: np.ndarray, n_rows: int, start: int, out: np.ndarray | None = None, carry: float | None = None
    ) -> Iterator[np.ndarray]:
        """Rows start..n_rows of the series K_m / W_m of the member rows
        ``mem``, in the blocks of ``_sums``; each block is divided into its
        place in ``out`` (rows start..n_rows) when that is given."""
        at = 0
        for k, w in self._sums(mem, n_rows, start, carry):
            yield np.divide(k, w, out=k if out is None else out[at : at + len(k)])
            at += len(k)

    def _mapped(self, n: int) -> np.ndarray:
        j = np.arange(1, n + 1, dtype=np.int64)
        return j if self._map is None else self._map(j)

    def support_bound(self, n: int) -> int:
        return int(self._map(n)) if self._map is not None else n

    def row(self, n: int) -> list[tuple[int, float]]:
        for _, w in self._sums(None, n):  # raises before the power can overflow
            total = w[-1]
        # scalar powers: NumPy's array power rounds some fractional powers differently
        return [(k, float(np.float64(j) ** self.power / total)) for j, k in enumerate(self._mapped(n).tolist(), 1)]

    def _row_head(self, member: Membership, n: int) -> tuple[np.ndarray, bool]:
        """Whether phi(j) is a member, for rows j = 1..n, as ``(head, fill)``:
        rows whose phi(j) lies past the membership's head take its fill."""
        head, fill = _member_head(member, self.support_bound(n))
        if self._map is None:
            return head, fill
        phi = self._mapped(n)
        return head[phi[: np.searchsorted(phi, len(head), side="right")] - 1], fill

    def max_row_for(self, horizon: int) -> int:
        """The base class's row, with the weight sums up to it checked, so a
        reading that needs no series still refuses sums that overflow.

        W_n <= n * max(w_1, w_n) = n ** (1 + max(0, power)) bounds them in
        closed form, read in logs (``float(n) ** 400`` raises).  A bound a
        factor e below the float range leaves room for the rounding of the
        weights and of their sequential sum; only a bound past that runs the
        exact pass, which names the first row whose sum overflows.
        """
        n = super().max_row_for(horizon)
        if math.log(n) * (1.0 + max(0.0, self.power)) >= _LOG_NEAR_MAX:
            for _ in self._sums(None, n):
                pass
        return n

    def density_series(self, member: Membership, n_rows: int, start: int = 1) -> np.ndarray:
        _check_window(n_rows, start)
        series = np.empty(n_rows - start + 1)
        for _ in self._blocks(_member_array(self._row_head(member, n_rows), n_rows), n_rows, start, out=series):
            pass
        return series

    def _run_extremes(self, rows: Membership, n_rows: int, starts: list[int]) -> tuple[list, list, float, float] | None:
        """Per segment of ``_Series`` the least and greatest value, then the
        last value and K before the last segment, of exact weights read at
        their run ends; None when these reach ``BLOCK_ROWS``, or for several
        segments a sixteenth of the rows.  ``rows``, a pair ``(head, fill)``
        or an array, marks the member rows.

        Row m is K_m / W_m.  A member row adds w to both sums, and
        (K + w)/(W + w) >= K/W because K <= W, so the series rises through a
        run of members; it falls through a run of non-members, where only W
        grows.  So a segment's extremes sit at its first row, its last row or
        the last row of a run inside it, where K is the carry K_{r-1} before
        row r = starts[0] plus the member runs' weights, W_b - W_a for member
        rows a+1..b.  The sums are exact integers, rounding is monotone, and
        each quotient is the correctly rounded one that the series divides
        out, so the values are the series' own, bit for bit.  One pass finds
        the run ends, in the head only; one run of one segment needs none.
        """
        head, fill = _member_head(rows, n_rows)
        r, s, h = starts[0], starts[-1], len(head)
        # a defect set of several segments builds the rows before its fill, so
        # their run ends pay only while few against the rows
        limit = BLOCK_ROWS if r == s else min(BLOCK_ROWS, (n_rows - r) // 16)
        ends, count = [], 0
        for lo in range(r - 1, h - 1, BLOCK_ROWS):
            hi = min(lo + BLOCK_ROWS, h - 1)
            change = head[lo:hi] != head[lo + 1 : hi + 1]
            if lo == r - 1 and hi - lo >= limit and np.count_nonzero(change) >= limit:  # most many-run sets show it here
                return None
            at = np.flatnonzero(change)
            count += len(at)
            if count >= limit:
                return None
            at += lo + 1
            ends.append(at)
        if r <= h < n_rows and head[h - 1] != fill:  # the head's last run ends at row h
            ends.append(np.array([h]))
            count += 1
        K_before = self._carry(head, fill, r - 1)
        first = bool(head[r - 1]) if r <= h else fill  # row r and the rest of its run
        if count == 0 and r == s:  # one run, monotone: its extremes are at rows s and n_rows
            W_before, W_s, W_n = (self._totals(float(m)) for m in (s - 1, s, n_rows))
            K_s = K_before + (W_s - W_before if first else 0.0)
            at_s, at_n = K_s / W_s, (K_s + (W_n - W_s if first else 0.0)) / W_n
            return [min(at_s, at_n)], [max(at_s, at_n)], at_n, K_before
        # row r - 1, then in order each segment's first and last row, twice, the
        # last row of each run and row n_rows: W there, and the weight K gains
        # over each step between them
        twice = [m for t in starts[1:] for m in (t - 1, t - 1, t, t)]
        W = np.concatenate([[r - 1, r, r], *ends, twice + [n_rows]], dtype=float)
        del ends  # so no more than three run arrays are alive
        if twice:
            W.sort(kind="stable")  # merges sorted runs in one pass
        segs = np.searchsorted(W[1:], starts) if twice else [0]
        self._totals(W)
        K = W[1:] - W[:-1]
        # the steps alternate from row r's membership: a row set twice adds a step of no rows
        K[1 if first else 0 :: 2] = 0.0
        K[0] += K_before
        np.cumsum(K, out=K)
        carry = float(K[segs[-1] - 1]) if segs[-1] else float(K_before)
        values = np.divide(K, W[1:], out=K)
        return np.minimum.reduceat(values, segs).tolist(), np.maximum.reduceat(values, segs).tolist(), float(values[-1]), carry

    def _series(self, member: Membership, n_rows: int, starts: list[int]) -> _Series:
        """Rows of exact weights and few run ends are read at them
        (``_run_extremes``), other rows of one segment block by block
        (``_block_extremes``), each with rows built only when asked; other
        rows of several segments are built whole."""
        several, exact = len(starts) > 1, self._exact(n_rows)
        # several segments of other weights, or of fewer rows than a sixteenth of a block, cost less built whole
        if several and (not exact or n_rows - starts[0] < BLOCK_ROWS // 16):
            return super()._series(member, n_rows, starts)
        rows = self._row_head(member, n_rows)
        read = self._run_extremes(rows, n_rows, starts) if exact else None
        if read is None and several:
            return super()._series(member, n_rows, starts)
        if read is None:
            low, high, last = self._block_extremes(rows, n_rows)
            read = [low], [high], last, None
        lows, highs, last, carry = read

        def build(lo: int, hi: int) -> np.ndarray:
            out = np.empty(hi - lo + 1)
            for _ in self._blocks(_member_array(rows, hi), hi, lo, out, carry if lo == starts[-1] else None):
                pass
            return out

        return _Series(n_rows, starts, lows, highs, last, build)

    def _block_extremes(self, rows: tuple[np.ndarray, bool], n_rows: int) -> tuple[float, float, float]:
        """The least, greatest and last value of the tail window, read block
        by block from the member ``rows`` expanded to every row, or for other
        weights and no member in closed form.

        With K_s the members' weight before the window's first row s, a
        window with no member reads K_s / W_m, not rising in m because W is
        nondecreasing.  Rounding is monotone and each quotient is the
        correctly rounded one that the series divides out (zero terms leave
        its sequential running sum at K_s), so the window's extremes and
        last value are its values at rows s and n_rows, bit for bit.
        """
        mem = _member_array(rows, n_rows)
        s = tail_start(n_rows)
        if not mem[s - 1 :].any():  # only other weights: a window of many runs has members
            sums = self._sums(mem[:s], n_rows, s)  # member weights up to row s only
            k, w = next(sums)  # row s adds 0: K_s as the series sums it
            before, at_s = k[0], w[0]
            for _, w in sums:
                pass
            return float(before / w[-1]), float(before / at_s), float(before / w[-1])
        low, high = math.inf, -math.inf
        for block in self._blocks(mem, n_rows, s):
            low, high = min(low, float(block.min())), max(high, float(block.max()))
        return low, high, float(block[-1])

    def nonvanishing_column(self) -> int | None:
        """Column phi(1) keeps the share w_1 / (w_1 + ... + w_n), which tends
        to 1 / sum_j j**power > 0 when that sum converges, for power < -1."""
        return self.support_bound(1) if self.power < -1 else None


class IdentityMatrix(SummMatrix):
    """a_nk = 1 when n = k; A-density of M is just the indicator of M."""

    name = "identity"

    def row(self, n: int) -> tuple[tuple[int, float], ...]:
        return ((n, 1.0),)

    def support_bound(self, n: int) -> int:
        return n

    def density_series(self, member: Membership, n_rows: int, start: int = 1) -> np.ndarray:
        _check_window(n_rows, start)
        return _member_array(member, n_rows)[start - 1 :].astype(float)


class ConstantColumnMatrix(SummMatrix):
    """a_nk = 1 for k = col = 1 in every row; fails the vanishing-column condition."""

    col = 1
    name = "constcol:1"

    def row(self, n: int) -> tuple[tuple[int, float], ...]:
        return ((self.col, 1.0),)

    def support_bound(self, n: int) -> int:
        return self.col

    def density_series(self, member: Membership, n_rows: int, start: int = 1) -> np.ndarray:
        _check_window(n_rows, start)
        return np.full(n_rows - start + 1, 1.0 if _member_array(member, self.col)[-1] else 0.0)

    def nonvanishing_column(self) -> int | None:
        return self.col


class BlockMatrix(SummMatrix):
    """Row n averages uniformly over the block ((n-1) m, n m]."""

    def __init__(self, m: int):
        if m < 1:
            raise ValueError("block length must be >= 1")
        self.m = m
        self.name = f"block:{m}"

    def row(self, n: int) -> list[tuple[int, float]]:
        return [(k, 1.0 / self.m) for k in range((n - 1) * self.m + 1, n * self.m + 1)]

    def support_bound(self, n: int) -> int:
        return n * self.m

    def density_series(self, member: Membership, n_rows: int, start: int = 1) -> np.ndarray:
        _check_window(n_rows, start)
        mem = _member_array(member, n_rows * self.m)
        return np.count_nonzero(mem[(start - 1) * self.m :].reshape(-1, self.m), axis=1) / self.m


class ExplicitMatrix(SummMatrix):
    """A matrix given by literal rows (small horizons only).

    Entries must be finite and non-negative, as for every matrix here.
    """

    def __init__(self, rows: Sequence[Sequence[float]], name: str = "explicit"):
        if not is_list_of(rows, lambda row: is_list_of(row, is_number)):
            raise ValueError(f"{name}: rows must be lists of numbers")
        if not rows:
            raise ValueError("no rows given")
        try:
            self.rows = tuple(tuple(float(v) for v in row) for row in rows)
        except OverflowError:
            raise ValueError(f"{name}: entries must be finite, got an integer beyond the float range") from None
        bad = [v for row in self.rows for v in row if not 0.0 <= v < math.inf]
        if bad:
            raise ValueError(f"{name}: entries must be finite and non-negative, got {bad[0]}")
        self.name = name
        self._bounds = tuple(accumulate(map(len, self.rows), max))

    def row(self, n: int) -> Iterable[tuple[int, float]]:
        if n > len(self.rows):
            raise ValueError(f"row {n} beyond the {len(self.rows)} given rows")
        return enumerate(self.rows[n - 1], 1)

    def support_bound(self, n: int) -> int:
        """The longest of rows 1..n, so rows of uneven length still give a
        bound that never falls."""
        self.row(n)
        return self._bounds[n - 1]

    def max_row_for(self, horizon: int) -> int:
        best = bisect_right(self._bounds, horizon)
        if best == 0:
            raise ValueError(f"horizon {horizon} below the support of the first row")
        return best

    @classmethod
    def from_file(cls, path: str) -> "ExplicitMatrix":
        with open(path) as fh:
            rows = json.load(fh)
        return cls(rows, name=f"file:{path}")


def cesaro1() -> TriangularMatrix:
    """The Cesaro matrix: a_nk = 1/n for k <= n."""
    return TriangularMatrix("cesaro")


def weighted_mean(p: float) -> TriangularMatrix:
    """Weighted means with weights w_j = j**p."""
    return TriangularMatrix(f"weighted:{p}", power=float(p))


def squares_rows() -> TriangularMatrix:
    """Row n uniform on the first n squares; gives the squares density 1."""
    return TriangularMatrix("squares", index_map=lambda j: j * j)


def matrix_from_spec(spec: str) -> SummMatrix:
    """Parse a matrix spec: ``cesaro | identity | constcol | squares |
    block:<m> | weighted:<p> | file:<path>``."""
    spec = spec.strip()
    if spec == "cesaro":
        return cesaro1()
    if spec == "identity":
        return IdentityMatrix()
    if spec == "constcol":
        return ConstantColumnMatrix()
    if spec == "squares":
        return squares_rows()
    if spec.startswith("block:"):
        return BlockMatrix(int(spec[6:]))
    if spec.startswith("weighted:"):
        return weighted_mean(float(spec[9:]))
    if spec.startswith("file:"):
        return ExplicitMatrix.from_file(spec[5:])
    raise ValueError(f"cannot parse matrix spec {spec!r}")


# ---------------------------------------------------------------------------
# Silverman-Toeplitz check


@dataclass(frozen=True)
class RegularityCondition:
    name: str
    passed: bool
    residual: float
    value: float


@dataclass(frozen=True)
class RegularityReport:
    matrix: str
    horizon: int
    tol: float
    conditions: tuple[RegularityCondition, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.conditions)

    def __getitem__(self, name: str) -> RegularityCondition:
        for c in self.conditions:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_json(self) -> dict:
        return {
            "matrix": self.matrix,
            "horizon": self.horizon,
            "tol": self.tol,
            "ok": self.ok,
            "conditions": [
                {"name": c.name, "passed": c.passed, "residual": c.residual, "value": c.value}
                for c in self.conditions
            ],
        }


def check_regularity(
    A: SummMatrix,
    horizon: int = DEFAULT_HORIZON,
    tol: float = DEFAULT_TOL,
) -> RegularityReport:
    """Finite-horizon Silverman-Toeplitz check, read off the partial A-densities.

    The row sums are the series of all indices, and column k is read as
    ``A.tail_extremes({k}, rows)[1]``, the tail-window maximum of the
    series of {k}.  Entries are non-negative, so row sums are the absolute
    row sums and that maximum is the largest absolute entry.  (i) the
    running sup of the row sums must not grow over the tail window, (ii)
    each of the first ``REGULARITY_COLUMNS`` columns must vanish there, so
    finite sets have A-density 0, (iii) row sums must sit within tol of 1.
    """
    if horizon < 10:
        raise ValueError(f"horizon must be at least 10, got {horizon}")
    if not tol >= 0.0:
        raise ValueError(f"tol must be a number >= 0, got {tol!r}")
    rows = min(horizon, A.max_row_for(horizon))
    w0 = tail_start(rows)

    conditions = []

    rsums = A.density_series(ALL_INDICES, rows)
    running = np.maximum.accumulate(rsums)
    growth = float(running[-1] - running[w0 - 1])
    conditions.append(
        RegularityCondition("bounded-row-norms", growth <= tol, growth, float(running[-1]))
    )

    worst = 0.0
    for k in range(1, min(REGULARITY_COLUMNS, rows) + 1):
        worst = max(worst, A.tail_extremes(finite_set((k,)), rows)[1])
    conditions.append(RegularityCondition("columns-vanish", worst <= tol, worst, worst))

    res = float(np.abs(rsums[w0 - 1 :] - 1.0).max())
    conditions.append(RegularityCondition("row-sums-to-one", res <= tol, res, float(rsums[-1])))

    return RegularityReport(A.name, rows, tol, tuple(conditions))


# ---------------------------------------------------------------------------
# ideals


@dataclass(frozen=True)
class Ideal:
    """An admissible ideal of index sets, determined by its B alone.

    ``matrix`` is None for fin (finite sets) and B for the sets of
    B-density zero; ``kind`` and ``name`` are read from it.  Both contain
    every finite set and not the whole index set, hence are admissible,
    and both support limit extraction.  A density ideal also gives
    membership verdicts (``contains``, which holds every membership
    rule); a fin limit is tail stabilization and asks no membership.
    Building a density ideal on a B whose closed form shows a column that
    does not vanish is a ValueError: that column's finite set would have
    positive B-density.
    """

    matrix: SummMatrix | None = None

    def __post_init__(self) -> None:
        col = None if self.matrix is None else self.matrix.nonvanishing_column()
        if col is not None:
            raise ValueError(
                f"density ideal of {self.matrix.name} is not admissible: column {col} does not tend to 0, "
                f"so the finite set {{{col}}} does not have B-density zero"
            )

    @property
    def kind(self) -> str:
        return "fin" if self.matrix is None else "density"

    @property
    def name(self) -> str:
        return "fin" if self.matrix is None else f"density-zero({self.matrix.name})"

    @classmethod
    def fin(cls) -> "Ideal":
        return cls()

    @classmethod
    def density_zero(cls, matrix: SummMatrix) -> "Ideal":
        """The sets of B-density zero."""
        return cls(matrix)

    def reads_from(self, n_rows: int) -> int:
        """First row of an n_rows partial series that a limit under this ideal reads.

        A fin limit is tail stabilization, so it reads only the tail window
        ``tail_start(n_rows)..n_rows``; the defect rows of a density ideal
        span every row.
        """
        return tail_start(n_rows) if self.kind == "fin" else 1

    def contains(self, member: Membership, horizon: int, tol: float = DEFAULT_TOL) -> Verdict:
        """Finite-horizon membership verdict in a density ideal for a set: an
        ``IndexSet``, an indicator array covering indices 1..horizon, or a
        pair ``(head, fill)`` (``_member_head``).

        The verdict is the null reading of B's tail window on the rows
        that fit the horizon (``SummMatrix.tail_extremes``), under three
        rules in order, once B has found its rows, so a B whose weight sums
        overflow is refused for every set.  A set with no member reads
        (0, 0, 0) with no series built.  One that does not converge and has
        no member from ``tail_start(horizon)`` on converges with residual
        0: Fin is a subset of every admissible ideal.  A diverged set whose
        tail minimum is within SETTLE_FACTOR * tol is inconclusive.  The
        rules, and B where it reads run ends, scan only a pair's head.
        A horizon below 1 is a ValueError, and so is fin: a fin limit is
        tail stabilization, read by ``ideal_limit_at`` and
        ``ai_density_is_null``, not a membership verdict.
        """
        if horizon < 1:
            raise ValueError(f"horizon must be at least 1, got {horizon}")
        if self.kind == "fin":
            raise ValueError(
                "fin has no membership verdict: a fin limit is tail stabilization, "
                "read by ideal_limit_at and ai_density_is_null"
            )
        head, fill = _member_head(member, horizon)
        filled = fill and len(head) < horizon  # so index horizon, in every window, is a member
        n = self.matrix.max_row_for(horizon)
        if not filled and not head.any():
            return _extremes_verdict(0.0, 0.0, 0.0, 0.0, tol)
        v = _extremes_verdict(*self.matrix.tail_extremes((head, fill), n), 0.0, tol)
        if not v.converged and not filled and not head[tail_start(horizon) - 1 :].any():
            return replace(v, status=CONVERGED, residual=0.0)
        if v.status == DIVERGED and v.tail_low <= SETTLE_FACTOR * tol:
            return replace(v, status=INCONCLUSIVE)
        return v


def ideal_from_spec(spec: str) -> Ideal:
    """Parse an ideal spec: ``fin | density:<matrix spec>``."""
    spec = spec.strip()
    if spec == "fin":
        return Ideal.fin()
    if spec.startswith("density:"):
        return Ideal.density_zero(matrix_from_spec(spec[8:]))
    raise ValueError(f"cannot parse ideal spec {spec!r}")


# ---------------------------------------------------------------------------
# densities and ideal limits


def a_density_partial(A: SummMatrix, member: Membership, n_rows: int) -> np.ndarray:
    """Partial A-densities ``y_n = sum_{m in M} a_nm`` for n = 1..n_rows."""
    if n_rows < 1:
        raise ValueError("need at least one row")
    if isinstance(member, np.ndarray) and A.support_bound(n_rows) > len(member):
        usable = A.max_row_for(len(member))
        raise ValueError(
            f"membership array of length {len(member)} covers only {usable} rows of {A.name}"
        )
    return A.density_series(member, n_rows)


def _eps_grid(tol: float) -> tuple[float, ...]:
    grid = {0.25, 0.1, 0.05, min(1.0, 2 * tol), min(1.0, tol)}
    return tuple(sorted((g for g in grid if g > 0.0), reverse=True))


_F64, _I64 = struct.Struct("<d"), struct.Struct("<q")
_INF_PLACE = 0x7FF0_0000_0000_0000  # the bits of inf, its place in float order; -inf is at -_INF_PLACE


def _defect_bounds(target: float, eps: float) -> tuple[float, float]:
    """(lo, hi) with |fl(y - target)| >= eps exactly when y <= lo or y >= hi,
    for finite y and target and eps > 0; a side no finite y reaches is -inf
    or inf.  fl(y - t) is nondecreasing in y, so hi, the least float with
    fl(hi - t) >= eps, is fl(t + eps) or a neighbour when one ulp around it
    brackets the bound, and else bisected over float order; fl(y - t) =
    -fl(-y + t) makes lo the negated hi of -t.
    """

    def at(k: int) -> float:  # the float at place k of float order, 0.0 at 0
        return _F64.unpack(_I64.pack(k if k >= 0 else -k | -(1 << 63)))[0]

    def least(t: float) -> float:
        c = t + eps
        below, above = math.nextafter(c, -math.inf), math.nextafter(c, math.inf)
        if below - t < eps <= above - t:
            return c if c - t >= eps else above
        lo, hi = -_INF_PLACE, _INF_PLACE  # -inf fails, inf holds
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if at(mid) - t >= eps else (mid, hi)
        return at(hi)

    return -least(-target), least(target)


def ideal_limit_at(
    y: np.ndarray,
    ideal: Ideal,
    target: float,
    tol: float = DEFAULT_TOL,
) -> Verdict:
    """Verdict for I-convergence of the real sequence ``y`` to ``target``.

    fin: ordinary tail stabilization.  density-zero(B): for each epsilon
    on a coarse grid down to tol, the sub-verdict is the membership
    verdict ``ideal.contains`` of the defect rows where
    ``|y - target| >= eps``, passed as the head of rows compared and the
    fill past it (``_ideal_limit``), once per distinct pair in an
    extraction, across the epsilon grid and, in ``ideal_limit``, across
    the candidate limits.  A non-finite target is a ValueError.
    """
    return _ideal_limit(_limit_input(y, ideal), ideal, (target,), tol)


def _limit_input(y: np.ndarray, ideal: Ideal) -> _Series:
    """The rows of ``y`` that a limit under ``ideal`` reads, as the series
    ``_ideal_limit`` reads; ``y`` is checked to be a nonempty sequence of
    finite reals."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or len(y) == 0:
        raise ValueError("y must be a nonempty one-dimensional sequence")
    finite = np.isfinite(y)
    if not finite.all():
        first = int(np.argmin(finite)) + 1
        raise ValueError(f"y must be finite, got {y[first - 1]} at row {first}")
    starts = _segments(len(y), ideal)
    return _Series.of(y[starts[0] - 1 :], len(y), starts)


def _segments(n: int, ideal: Ideal) -> list[int]:
    """First rows of the segments of an n-row series that a limit under
    ``ideal`` reads: from ``ideal.reads_from(n)``, each segment as long as
    all before it, and last the tail window.  Under fin, the window alone."""
    first, w = ideal.reads_from(n), tail_start(n) - ideal.reads_from(n)
    return [first + (w >> j) for j in range(w.bit_length(), -1, -1)]


def _ideal_limit(series: _Series, ideal: Ideal, targets: Iterable[float], tol: float) -> Verdict:
    """The best ``ideal_limit_at`` verdict over ``targets`` on ``series``,
    an n-row series as ``_Series`` reads it, split at ``_segments(n, ideal)``.

    A converged target wins by smallest residual; otherwise the smallest
    residual wins with its status, and ties keep the earlier target.  So
    the targets, which may be a lazy iterable, are read only until one
    converges with residual 0: no later target can beat it.  The tail
    window's extremes are read once and shared by every target; a fin
    target reads them (``_extremes_verdict``) and asks for the window only
    when it lies strictly inside their range.  Under a density ideal a
    defect set is read against ``_defect_bounds`` with no deviation built:
    the longest suffix, from the tail window back to row 1 segment by
    segment, inside or beyond the bounds is its fill, and only the m rows
    before it are built and compared, into its head.  It goes to
    ``Ideal.contains`` as ``(head, fill)``, so no row past the head is
    built or scanned, and is decided once per call, keyed by (m, fill,
    packed head): equal keys are equal sets.  A target is converged only
    if every epsilon is, and a non-converged target never beats a
    converged one, so once some target has converged a later one stops at
    its first non-converged epsilon.
    """
    n, low, high = series.n, series.lows[-1], series.highs[-1]
    # the least and greatest rows of each suffix from a segment's first row on, the window's first
    offsets = [start - series.starts[0] for start in reversed(series.starts)]
    lows, highs = list(accumulate(reversed(series.lows), min)), list(accumulate(reversed(series.highs), max))
    decided: dict[tuple[int, bool, bytes], Verdict] = {}

    def cut(lo: float, hi: float) -> tuple[int, bool]:
        # the longest suffix inside (lo, hi) or beyond one bound: the rows before it, and whether it is all defects
        m, fill = n - series.starts[0] + 1, False
        for start, s_low, s_high in zip(offsets, lows, highs):
            beyond = s_low >= hi or s_high <= lo
            if not (beyond or lo < s_low and s_high < hi):
                break
            m, fill = start, beyond
        return m, fill

    # a nested function, so a target that can no longer win returns at its first unsettled epsilon
    def density_limit_at(target: float, must_converge: bool) -> Verdict | None:
        sub: dict[str, Verdict] = {}
        bounds = ((eps, *_defect_bounds(target, eps)) for eps in _eps_grid(tol))
        reads: Iterable[tuple[float, float, float, int, bool]] = ((eps, lo, hi, *cut(lo, hi)) for eps, lo, hi in bounds)
        if not must_converge:  # every epsilon is read: build the rows the longest head compares, once
            reads = list(reads)
            series.head(max(m for *_, m, _ in reads))
        for eps, lo, hi, m, fill in reads:
            part, head = series.head(m), np.zeros(m, dtype=bool)  # the head: the rows compared
            if highs[-1] >= hi:
                np.greater_equal(part, hi, out=head)
            if lows[-1] <= lo:
                head |= part <= lo
            key = (m, fill, np.packbits(head).tobytes())  # equal keys, equal sets
            v = decided.get(key)
            if v is None:
                v = decided[key] = ideal.contains((head, fill), n, tol)
            if must_converge and not v.converged:
                return None
            sub[f"eps={eps}"] = v
        return Verdict.all_of(sub, target, tol, tail_low=low, tail_high=high)

    best: Verdict | None = None
    for target in targets:
        if not math.isfinite(target):
            raise ValueError(f"target must be finite, got {target}")
        if ideal.kind == "fin":
            v = _extremes_verdict(low, high, series.last, target, tol, lambda t=target: float(np.abs(series.window() - t).min()))
        else:
            v = density_limit_at(target, best is not None and best.converged)
        if v is not None and (best is None or (v.converged, -v.residual) > (best.converged, -best.residual)):
            best = v
        if best.converged and best.residual == 0.0:
            break
    return best


def _candidates(series: _Series) -> Iterator[float]:
    """The default limit candidates of ``ideal_limit`` for ``series``, each
    computed only when it is reached: the tail median builds the window
    (``_Series.window``) and copies and partitions it."""

    def raw() -> Iterator[float]:
        yield series.last
        yield float(np.median(series.window()))
        yield from (0.0, 0.5, 1.0)

    seen: list[float] = []
    for c in raw():
        if not any(abs(c - s) <= 1e-12 for s in seen):
            seen.append(c)
            yield c


def ideal_limit(y: np.ndarray, ideal: Ideal, tol: float = DEFAULT_TOL) -> Verdict:
    """Search candidate limits and return the best verdict.

    The candidates are the last partial value, the tail median, and the
    landmarks 0, 1/2, 1, with near-duplicates dropped.  Converged
    candidates win by smallest residual; otherwise the smallest residual
    is reported with its (non-converged) status.  The candidates share
    their density-ideal sub-verdicts (see ``ideal_limit_at``), and each is
    computed only when reached: once one converges with residual 0 no
    later one can win, so the tail median is not computed after a last
    value that settles the answer.
    """
    series = _limit_input(y, ideal)
    return _ideal_limit(series, ideal, _candidates(series), tol)


def ai_density(
    A: SummMatrix,
    ideal: Ideal,
    member: Membership,
    horizon: int = DEFAULT_HORIZON,
    tol: float = DEFAULT_TOL,
) -> Verdict:
    """A^I-density verdict for a set at a finite horizon.

    Forms the partial A-densities on as many rows as the horizon's worth
    of indices supports, then extracts the I-limit over the candidates
    of ``ideal_limit``.  The first candidate, the last value, settles the
    answer under fin when the window's extremes converge it (its residual
    is 0).  A triangular A of exact weights reads those extremes, and a
    density ideal's segment extremes, at run ends (``SummMatrix._series``),
    so it builds the tail window only for the median or a fin target inside
    the window's range, and of the rows before it only those a defect set
    compares.
    """
    if horizon < 10:
        raise ValueError(f"horizon must be at least 10, got {horizon}")
    n = A.max_row_for(horizon)
    series = A._series(member, n, _segments(n, ideal))
    return _ideal_limit(series, ideal, _candidates(series), tol)


def ai_density_is_null(
    A: SummMatrix,
    ideal: Ideal,
    member: Membership,
    horizon: int = DEFAULT_HORIZON,
    tol: float = DEFAULT_TOL,
) -> Verdict:
    """Verdict for "the set has A^I-density zero".

    fin: the null reading of A's tail window from its extremes
    (``SummMatrix.tail_extremes``), so a window read without its series
    (at its run ends under exact weights, or with no member) builds
    none.  density-zero(B): a set with no member among the indices A's
    rows read has the zero series, and reads as the extraction of that
    series does, with no series built: converged at 0 on every epsilon, as
    rule 1 of ``Ideal.contains`` reads each zero defect once B has found
    its rows.  Any other set reads A's series through ``SummMatrix._series``
    and extracts its null limit: under exact triangular weights and few
    runs no A-series is built but the rows a defect set compares.
    """
    n = A.max_row_for(horizon)
    if ideal.kind == "fin":
        return _extremes_verdict(*A.tail_extremes(member, n), 0.0, tol)
    marks = _member_array(member, A.support_bound(n))
    if not marks.any():
        ideal.matrix.max_row_for(n)  # refuses a B that a defect reading refuses
        v = _extremes_verdict(0.0, 0.0, 0.0, 0.0, tol)
        return Verdict.all_of({f"eps={eps}": v for eps in _eps_grid(tol)}, 0.0, tol, tail_low=0.0, tail_high=0.0)
    return _ideal_limit(A._series(marks, n, _segments(n, ideal)), ideal, (0.0,), tol)


def ai_density_is_full(
    A: SummMatrix,
    ideal: Ideal,
    member: Membership,
    horizon: int = DEFAULT_HORIZON,
    tol: float = DEFAULT_TOL,
) -> Verdict:
    """Verdict for "the set has A^I-density one"."""
    n = A.max_row_for(horizon)
    return _ideal_limit(A._series(member, n, _segments(n, ideal)), ideal, (1.0,), tol)


def ai_nonthin(
    A: SummMatrix,
    ideal: Ideal,
    member: Membership,
    horizon: int = DEFAULT_HORIZON,
    tol: float = DEFAULT_TOL,
) -> bool:
    """Whether a set fails to have A^I-density zero at the horizon, by ``nonthin``."""
    return nonthin(ai_density_is_null(A, ideal, member, horizon, tol))


def nonthin(null_v: Verdict) -> bool:
    """The finite-horizon reading of "does not have density zero" on a null verdict.

    True when the null verdict is not converged and the tail of the
    partial densities stays above its tol (a liminf proxy); a set whose
    null verdict converges is thin.
    """
    return not null_v.converged and null_v.tail_low is not None and null_v.tail_low > null_v.tol
