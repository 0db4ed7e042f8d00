"""Relations that every pair of density readings must keep, found without ground truth.

A is non-negative and regular and every ideal here is admissible, so it
contains fin.  Hence, for sets S and T and a finite set F:

- R1, ideal inclusion: a fin limit is a density-ideal limit with the same value;
- R2, complement: d(S) + d(not S) = 1, since the row sums tend to 1;
- R3, monotonicity: S within T gives d(S) <= d(T);
- R4, finite change: d(S) = d(S xor F), since the columns tend to 0.

At a finite horizon a converged reading is within tol of what it reads, so
values are compared within 2 * tol, and only readings that converge are
compared (R2 to R4).  The horizon is 10^6, where none of these breaks for the
sets drawn here.
"""

from __future__ import annotations

from hypothesis import given, strategies as st

from pmstat import (
    IndexSet,
    Verdict,
    ai_density,
    finite_set,
    ideal_from_spec,
    index_set_from_spec,
    matrix_from_spec,
)

N = 10**6
TOL = 0.01
MATRICES = ["cesaro", "squares", "block:12", "identity"]
IDEALS = ["fin", "density:cesaro"]

leaves = st.one_of(
    st.sampled_from(["all", "none", "evens", "odds", "squares", "cubes", "pow2"]).map(index_set_from_spec),
    st.integers(1, 12).flatmap(lambda m: st.integers(0, m - 1).map(lambda r: index_set_from_spec(f"mod:{m},{r}"))),
)
index_sets = st.recursive(
    leaves,
    lambda inner: st.one_of(
        inner.map(lambda s: ~s),
        st.tuples(inner, inner).map(lambda p: p[0] | p[1]),
        st.tuples(inner, inner).map(lambda p: p[0] & p[1]),
    ),
    max_leaves=3,
)
finite_changes = st.lists(st.integers(1, 2000), min_size=1, max_size=5).map(finite_set)


def _density(mspec: str, ispec: str, member: IndexSet) -> Verdict:
    return ai_density(matrix_from_spec(mspec), ideal_from_spec(ispec), member, N, TOL)


def _xor(s: IndexSet, f: IndexSet) -> IndexSet:
    return (s & ~f) | (~s & f)


@given(s=index_sets, t=index_sets, f=finite_changes, mspec=st.sampled_from(MATRICES), ispec=st.sampled_from(IDEALS))
def test_readings_keep_the_relations(s: IndexSet, t: IndexSet, f: IndexSet, mspec: str, ispec: str) -> None:
    d = _density(mspec, ispec, s)
    # R1: a fin limit is an I-limit with the same value
    fin = _density(mspec, "fin", s)
    if fin.converged:
        under = _density(mspec, "density:cesaro", s)
        assert under.converged and abs(float(under.value) - float(fin.value)) <= 2 * TOL, (fin, under)
    # R2: the complement
    c = _density(mspec, ispec, ~s)
    if d.converged and c.converged:
        assert abs(float(d.value) + float(c.value) - 1.0) <= 2 * TOL, (d, c)
    # R3: monotonicity, for s within s | t
    u = _density(mspec, ispec, s | t)
    if d.converged and u.converged:
        assert float(d.value) <= float(u.value) + 2 * TOL, (d, u)
    # R4: a finite change
    g = _density(mspec, ispec, _xor(s, f))
    if d.converged and g.converged:
        assert abs(float(d.value) - float(g.value)) <= 2 * TOL, (d, g)

