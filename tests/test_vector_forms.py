"""Array forms of sequences and index sets against their scalar definitions.

Every built-in sequence constructor and index set has two forms: the
scalar ``fn(k)`` that defines it and the array form (``codes(n)`` or
``vec(n)``) the detectors read.  These tests require the two to agree at
every index, for the built-ins, their combinations, and the sequences of
the seeded instance corpus.
"""

from __future__ import annotations

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
    assert x.values(n) == [x.fn(k) for k in range(1, n + 1)]
    p = x.space.points[0]
    vs = visit_set(x, p)
    assert np.array_equal(vs.indicator(m), np.array([vs.fn(k) for k in range(1, m + 1)]))


def test_suite_instance_codes_match_generator() -> None:
    n = 10_000
    for inst in generate_suite(1):
        assert np.array_equal(inst.x.value_codes(n), scalar_codes(inst.x, n)), inst.name


def test_array_form_is_required(eq3) -> None:
    with pytest.raises(TypeError, match="vec"):
        IndexSet("x", lambda k: True)
    with pytest.raises(TypeError, match="codes"):
        IndexedSequence(eq3, lambda k: "a", "d")


def test_cached_codes_are_read_only(eq3) -> None:
    codes = eventually_constant(eq3, "a", SQUARES).value_codes(20)
    with pytest.raises(ValueError):
        codes[0] = 1
