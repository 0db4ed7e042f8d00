"""Array forms of sequences and index sets against scalar references.

The library writes each sequence and index set once, as the array form
(``codes(n)`` or ``vec(n)``) the detectors read.  The scalar reference
lives here: each strategy draws a pair of the object and a test-local
definition, built side by side from the same draws (``gen(k)`` for a
sequence, a membership predicate for a set).  These tests require the
two to agree at every index, for the built-ins, their combinations and
the sets the harness builds from ``from:k``.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import MEMBERSHIP, reference_indicator
from pmstat import (
    ALL_INDICES,
    CUBES,
    EVENS,
    NO_INDICES,
    ODDS,
    POWERS_OF_TWO,
    SQUARES,
    IndexedSequence,
    IndexSet,
    alternating,
    constant_sequence,
    eventually_constant,
    finite_set,
    from_values,
    index_block,
    multiples,
    space_pool,
    splice,
    visit_set,
)
from pmstat.harness import _at_least

SPACES = space_pool()
BUILT_IN = [EVENS, ODDS, SQUARES, CUBES, POWERS_OF_TWO, ALL_INDICES, NO_INDICES]


def _finite(ms: list[int]) -> tuple[IndexSet, object]:
    members = set(ms)
    return finite_set(ms), lambda k: k in members


def _mod(m: int, r: int) -> tuple[IndexSet, object]:
    return multiples(m, r), lambda k: k % m == r


def _block(lo: int, hi: int) -> tuple[IndexSet, object]:
    return index_block(lo, hi), lambda k: lo <= k < hi


def _from(lo: int) -> tuple[IndexSet, object]:
    return _at_least(lo), lambda k: k >= lo


def _not(a: tuple) -> tuple[IndexSet, object]:
    return ~a[0], lambda k: not a[1](k)


def _or(a: tuple, b: tuple) -> tuple[IndexSet, object]:
    return a[0] | b[0], lambda k: a[1](k) or b[1](k)


def _and(a: tuple, b: tuple) -> tuple[IndexSet, object]:
    return a[0] & b[0], lambda k: a[1](k) and b[1](k)


built_in_sets = st.sampled_from(BUILT_IN).map(lambda s: (s, MEMBERSHIP[s.name]))
from_sets = st.integers(1, 3000).map(_from)

# pairs (index set, membership predicate)
base_sets = st.one_of(
    built_in_sets,
    st.lists(st.integers(1, 3000), max_size=8).map(_finite),
    st.integers(1, 7).flatmap(lambda m: st.integers(0, m - 1).map(lambda r: _mod(m, r))),
    st.tuples(st.integers(1, 2500), st.integers(1, 600)).map(lambda t: _block(t[0], t[0] + t[1])),
    from_sets,
    # a built-in set from index k on, as the harness's late sets are built
    st.tuples(built_in_sets, from_sets).map(lambda t: _and(*t)),
)

index_sets = st.recursive(
    base_sets,
    lambda inner: st.one_of(
        inner.map(_not),
        st.tuples(inner, inner).map(lambda t: _or(*t)),
        st.tuples(inner, inner).map(lambda t: _and(*t)),
    ),
    max_leaves=4,
)


def except_gen(points, limit: str, member, off: str | None = None):
    """The scalar definition of ``eventually_constant``: the other points
    cycled on the exceptional indices, index k taking ``pool[k % len(pool)]``."""
    pool = (off,) if off is not None else tuple(p for p in points if p != limit) or (limit,)
    return lambda k: pool[k % len(pool)] if member(k) else limit


def alternate_gen(p: str, q: str, member):
    return lambda k: p if member(k) else q


def values_gen(vals: list[str], tail: str):
    return lambda k: vals[k - 1] if k <= len(vals) else tail


def splice_gen(base, member, fill: str):
    return lambda k: base(k) if member(k) else fill


@st.composite
def sequences(draw, depth: int = 2) -> tuple[IndexedSequence, object]:
    """Pairs (sequence, scalar generator ``gen(k)`` on k >= 1)."""
    space = SPACES[draw(st.sampled_from(sorted(SPACES)))]
    pts = space.points
    point = st.sampled_from(pts)
    kind = draw(st.sampled_from(["const", "except", "alternate", "values", "splice"] if depth else ["const", "except"]))
    if kind == "const":
        c = draw(point)
        return constant_sequence(space, c), lambda k: c
    if kind == "except":
        off = draw(st.one_of(st.none(), point))
        limit, (s, member) = draw(point), draw(index_sets)
        return eventually_constant(space, limit, s, off=off), except_gen(pts, limit, member, off)
    if kind == "alternate":
        p, q, (s, member) = draw(point), draw(point), draw(index_sets)
        return alternating(space, p, q, s), alternate_gen(p, q, member)
    if kind == "values":
        vals, tail = draw(st.lists(point, max_size=40)), draw(point)
        return from_values(space, vals, tail), values_gen(vals, tail)
    base, gen = draw(sequences(depth - 1))
    (s, member), fill = draw(index_sets), draw(st.sampled_from(base.space.points))
    return splice(base, s, fill), splice_gen(gen, member, fill)


def scalar_codes(x: IndexedSequence, gen, n: int) -> np.ndarray:
    return np.array([x.space.points.index(gen(k)) for k in range(1, n + 1)], dtype=np.int64)


@given(index_sets, st.integers(1, 3000))
def test_index_set_indicator_matches_predicate(pair: tuple, n: int) -> None:
    s, member = pair
    assert np.array_equal(s.indicator(n), reference_indicator(member, n))


@given(sequences(), st.integers(1, 3000), st.integers(1, 3000))
def test_sequence_codes_match_generator(pair: tuple, n: int, m: int) -> None:
    x, gen = pair
    # two horizons in either order: the cache grows and slices
    for h in (n, m):
        assert np.array_equal(x.value_codes(h), scalar_codes(x, gen, h))
        assert x.value_codes(h).dtype == np.min_scalar_type(len(x.space.points) - 1)
    assert x.values(n) == [gen(k) for k in range(1, n + 1)]
    p = x.space.points[0]
    assert np.array_equal(visit_set(x, p).indicator(m), reference_indicator(lambda k: gen(k) == p, m))


@pytest.mark.parametrize("n_points", [1, 2, 256, 257, 300])
def test_codes_take_the_smallest_unsigned_type(n_points: int) -> None:
    # a stand-in carrier reaches two-byte codes without building a 257-point space
    pts = tuple(f"p{i}" for i in range(n_points))
    space = SimpleNamespace(points=pts)
    first, last = pts[0], pts[-1]
    base = eventually_constant(space, last, SQUARES)
    base_gen = except_gen(pts, last, MEMBERSHIP["squares"])
    for x, gen in (
        (constant_sequence(space, last), lambda k: last),
        (base, base_gen),
        (eventually_constant(space, first, EVENS, off=last), except_gen(pts, first, MEMBERSHIP["evens"], last)),
        (alternating(space, first, last, ODDS), alternate_gen(first, last, MEMBERSHIP["odds"])),
        (from_values(space, pts[::-1], first), values_gen(pts[::-1], first)),
        (splice(base, ~CUBES, first), splice_gen(base_gen, lambda k: not MEMBERSHIP["cubes"](k), first)),
    ):
        assert x.value_codes(500).dtype == np.min_scalar_type(n_points - 1), x.description
        assert np.array_equal(x.value_codes(500), scalar_codes(x, gen, 500)), x.description


masks = st.one_of(
    st.lists(st.booleans(), min_size=1, max_size=500).map(np.array),
    # alternating masks, the case on which np.where branches on every row
    st.tuples(st.integers(1, 500), st.booleans()).map(lambda t: (np.arange(t[0]) % 2 == 0) ^ t[1]),
)


@given(sequences(), masks, st.data())
def test_alternating_and_splice_match_where(pair: tuple, mask: np.ndarray, data) -> None:
    base, _ = pair
    space, n = base.space, len(mask)
    p, q, fill = (data.draw(st.sampled_from(space.points)) for _ in range(3))
    sel = IndexSet("mask", lambda m: mask[:m])
    alt = alternating(space, p, q, sel).value_codes(n)
    spliced = splice(base, sel, fill).value_codes(n)
    assert alt.dtype == spliced.dtype == np.min_scalar_type(len(space.points) - 1)
    idx = space.points.index
    assert np.array_equal(alt, np.where(mask, idx(p), idx(q)))
    assert np.array_equal(spliced, np.where(mask, base.value_codes(n), idx(fill)))


def test_array_form_is_required(eq3) -> None:
    # a scalar form next to the array form is one argument too many
    with pytest.raises(TypeError):
        IndexSet("x", lambda k: True, lambda n: np.ones(n, dtype=bool))
    with pytest.raises(TypeError):
        IndexedSequence(eq3, lambda k: "a", "d", lambda n: np.zeros(n, np.uint8))
    with pytest.raises(TypeError, match="codes"):
        IndexedSequence(eq3, "d")
    # a membership predicate in place of vec is taken, and fails at its first indicator, named
    evens = IndexSet("evens", lambda k: k % 2 == 0)
    with pytest.raises(ValueError, match="indicator for evens must be a 1-D bool array of length 5, got bool"):
        evens.indicator(5)
    # so does an array of another kind or shape
    for vec, got in ((lambda n: np.ones(n, dtype=np.uint8), "uint8 array of shape"), (lambda n: np.ones((n, 1), dtype=bool), r"bool array of shape \(5, 1\)")):
        with pytest.raises(ValueError, match=f"indicator for x must be a 1-D bool array of length 5, got {got}"):
            IndexSet("x", vec).indicator(5)


def test_cached_codes_are_not_an_input(eq3) -> None:
    # a cache passed in would be read unchecked in place of codes(n)
    with pytest.raises(TypeError, match="_codes"):
        IndexedSequence(eq3, "d", lambda n: np.zeros(n, np.uint8), _codes=np.full(100, 7, np.uint8))


@pytest.mark.parametrize(
    "codes, message",
    [
        (lambda n: np.full(n, 256), "row 1 has code 256, not a point of the 3-point carrier"),
        (lambda n: np.r_[np.zeros(n - 1, dtype=np.int64), -1], "row 5 has code -1, not a point"),
        (lambda n: np.r_[np.zeros(n - 2, dtype=np.uint8), 3, 0], "row 4 has code 3, not a point"),
        (lambda n: np.zeros(n - 2, dtype=np.int64), r"codes\(5\) has 3 rows; row 4 is missing"),
        (lambda n: np.zeros(n + 1, dtype=np.int64), r"codes\(5\) has 6 rows; row 6 is past the horizon"),
        (lambda n: np.zeros(n), "codes must be integers, got float64"),
        (lambda n: np.zeros((n, 1), dtype=np.int64), "one code per row"),
    ],
)
def test_bad_codes_are_refused_before_narrowing(eq3, codes, message: str) -> None:
    # 256 would wrap to code 0 in one byte, a silently wrong sequence
    x = IndexedSequence(eq3, "bad", codes)
    with pytest.raises(ValueError, match=message):
        x.value_codes(5)


def test_cached_codes_are_read_only(eq3) -> None:
    codes = eventually_constant(eq3, "a", SQUARES).value_codes(20)
    with pytest.raises(ValueError):
        codes[0] = 1
