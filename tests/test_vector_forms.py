"""Array forms of sequences and index sets against their scalar definitions.

Every built-in sequence constructor and index set has two forms: the
scalar ``fn(k)`` that defines it and the array form (``codes(n)`` or
``vec(n)``) the detectors read.  These tests require the two to agree at
every index, for the built-ins, their combinations, and the sequences of
the seeded instance corpus.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

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
    generate_suite,
    index_block,
    multiples,
    space_pool,
    splice,
    visit_set,
)

SPACES = space_pool()

base_sets = st.one_of(
    st.sampled_from([EVENS, ODDS, SQUARES, CUBES, POWERS_OF_TWO, ALL_INDICES, NO_INDICES]),
    st.lists(st.integers(1, 3000), max_size=8).map(finite_set),
    st.integers(1, 7).flatmap(lambda m: st.integers(0, m - 1).map(lambda r: multiples(m, r))),
    st.tuples(st.integers(1, 2500), st.integers(1, 600)).map(lambda t: index_block(t[0], t[0] + t[1])),
)

index_sets = st.recursive(
    base_sets,
    lambda inner: st.one_of(
        inner.map(lambda s: ~s),
        st.tuples(inner, inner).map(lambda t: t[0] | t[1]),
        st.tuples(inner, inner).map(lambda t: t[0] & t[1]),
    ),
    max_leaves=4,
)


@st.composite
def sequences(draw, depth: int = 2) -> IndexedSequence:
    space = SPACES[draw(st.sampled_from(sorted(SPACES)))]
    pts = space.points
    point = st.sampled_from(pts)
    kind = draw(st.sampled_from(["const", "except", "alternate", "values", "splice"] if depth else ["const", "except"]))
    if kind == "const":
        return constant_sequence(space, draw(point))
    if kind == "except":
        off = draw(st.one_of(st.none(), point))
        return eventually_constant(space, draw(point), draw(index_sets), off=off)
    if kind == "alternate":
        return alternating(space, draw(point), draw(point), draw(index_sets))
    if kind == "values":
        return from_values(space, draw(st.lists(point, max_size=40)), draw(point))
    base = draw(sequences(depth - 1))
    return splice(base, draw(index_sets), draw(st.sampled_from(base.space.points)))


def scalar_codes(x: IndexedSequence, n: int) -> np.ndarray:
    return np.array([x.space.points.index(x.fn(k)) for k in range(1, n + 1)], dtype=np.int64)


@given(index_sets, st.integers(1, 3000))
def test_index_set_indicator_matches_predicate(s: IndexSet, n: int) -> None:
    want = np.array([bool(s.fn(k)) for k in range(1, n + 1)])
    assert np.array_equal(s.indicator(n), want)


@given(sequences(), st.integers(1, 3000), st.integers(1, 3000))
def test_sequence_codes_match_generator(x: IndexedSequence, n: int, m: int) -> None:
    # two horizons in either order: the cache grows and slices
    for h in (n, m):
        assert np.array_equal(x.value_codes(h), scalar_codes(x, h))
        assert x.value_codes(h).dtype == np.min_scalar_type(len(x.space.points) - 1)
    assert x.values(n) == [x.fn(k) for k in range(1, n + 1)]
    p = x.space.points[0]
    vs = visit_set(x, p)
    assert np.array_equal(vs.indicator(m), np.array([vs.fn(k) for k in range(1, m + 1)]))


@pytest.mark.parametrize("n_points", [1, 2, 256, 257, 300])
def test_codes_take_the_smallest_unsigned_type(n_points: int) -> None:
    # a stand-in carrier reaches two-byte codes without building a 257-point space
    pts = tuple(f"p{i}" for i in range(n_points))
    space = SimpleNamespace(points=pts)
    first, last = pts[0], pts[-1]
    base = eventually_constant(space, last, SQUARES)
    for x in (
        constant_sequence(space, last),
        base,
        eventually_constant(space, first, EVENS, off=last),
        alternating(space, first, last, ODDS),
        from_values(space, pts[::-1], first),
        splice(base, ~CUBES, first),
    ):
        assert x.value_codes(500).dtype == np.min_scalar_type(n_points - 1), x.description
        assert np.array_equal(x.value_codes(500), scalar_codes(x, 500)), x.description


masks = st.one_of(
    st.lists(st.booleans(), min_size=1, max_size=500).map(np.array),
    # alternating masks, the case on which np.where branches on every row
    st.tuples(st.integers(1, 500), st.booleans()).map(lambda t: (np.arange(t[0]) % 2 == 0) ^ t[1]),
)


@given(sequences(), masks, st.data())
def test_alternating_and_splice_match_where(base: IndexedSequence, mask: np.ndarray, data) -> None:
    space, n = base.space, len(mask)
    p, q, fill = (data.draw(st.sampled_from(space.points)) for _ in range(3))
    sel = IndexSet("mask", lambda k: bool(mask[k - 1]), lambda m: mask[:m])
    alt = alternating(space, p, q, sel).value_codes(n)
    spliced = splice(base, sel, fill).value_codes(n)
    assert alt.dtype == spliced.dtype == np.min_scalar_type(len(space.points) - 1)
    idx = space.points.index
    assert np.array_equal(alt, np.where(mask, idx(p), idx(q)))
    assert np.array_equal(spliced, np.where(mask, base.value_codes(n), idx(fill)))


def test_suite_instance_codes_match_generator() -> None:
    n = 10_000
    for inst in generate_suite(1):
        assert np.array_equal(inst.x.value_codes(n), scalar_codes(inst.x, n)), inst.name


def test_array_form_is_required(eq3) -> None:
    with pytest.raises(TypeError, match="vec"):
        IndexSet("x", lambda k: True)
    with pytest.raises(TypeError, match="codes"):
        IndexedSequence(eq3, lambda k: "a", "d")


def test_cached_codes_are_not_an_input(eq3) -> None:
    # a cache passed in would be read unchecked in place of codes(n)
    with pytest.raises(TypeError, match="_codes"):
        IndexedSequence(eq3, lambda k: "a", "d", lambda n: np.zeros(n, np.uint8), _codes=np.full(100, 7, np.uint8))


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
    x = IndexedSequence(eq3, lambda k: "a", "bad", codes)
    with pytest.raises(ValueError, match=message):
        x.value_codes(5)


def test_cached_codes_are_read_only(eq3) -> None:
    codes = eventually_constant(eq3, "a", SQUARES).value_codes(20)
    with pytest.raises(ValueError):
        codes[0] = 1
