"""Each detector concept has one definition that every detector reads.

* the per-threshold null verdicts of the defect sets ``{ k : x_k not in
  N_c(t) }``, shared by the convergence, Cauchy and lemma detectors;
* the entry rule (first half / last tenth) of the strong and witnessed
  checks, which is also the reference for the lambda check's reading of
  ``dist(c, c) == 0`` on visit sets;
* the nonthin rule on a null verdict.

The counting test pins the sharing; the equivalence guard and the
property tests pin that sharing changed no answer.
"""

from __future__ import annotations

import collections
import functools
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

import pmstat.convergence as conv
from pmstat import (
    ALL_INDICES,
    NO_INDICES,
    ODDS,
    Ideal,
    build_metric_induced,
    cesaro1,
    finite_set,
    ideal_from_spec,
)
from pmstat.harness import DEFAULT_SUITE_SIZE, generate_suite
from pmstat.summability import CONVERGED, DIVERGED, INCONCLUSIVE, ai_density_is_null, ai_nonthin

LINE4 = build_metric_induced(("w0", "w1", "w2", "w3"), lambda p, q: 0.2 * abs(int(p[1:]) - int(q[1:])))
TOL = 1e-2


def _old_entry(space, codes: np.ndarray, target: str) -> int:
    """1-based index after the last point outside some N_target(t), one index at a time."""
    j0 = 1
    for i, c in enumerate(codes.tolist()):
        if space.dist(space.points[c], target) >= min(conv._grid(space)):
            j0 = i + 2
    return j0


def _visited_part(codes: np.ndarray, member: np.ndarray) -> frozenset[int]:
    """The codes a set's members visit: the part of a point set a null reading sees."""
    return frozenset(np.unique(codes[member]).tolist())


@functools.cache
def _suite_instances() -> list:
    return [inst for seed in (1, 2, 3) for inst in generate_suite(seed)]


def _counting(monkeypatch: pytest.MonkeyPatch, count) -> None:
    def counting(A, ideal, member, horizon, tol):
        count(member, horizon)
        return ai_density_is_null(A, ideal, member, horizon, tol)

    monkeypatch.setattr(conv, "ai_density_is_null", counting)


class TestSharedNullVerdicts:
    def test_lemma_decides_each_visited_point_set_once(self, monkeypatch: pytest.MonkeyPatch) -> None:
        inst = next(i for i in generate_suite(1) if i.space_name == "LINE4")
        x, N = inst.x, 2000
        codes = x.value_codes(N)
        asked: collections.Counter[frozenset[int]] = collections.Counter()
        _counting(monkeypatch, lambda member, horizon: asked.update([_visited_part(codes, member[:horizon])]))
        conv.lemma_cauchy_predicates(x, inst.matrix, inst.ideal, N, TOL)
        grid, points = conv._grid(inst.space), inst.space.points
        defects = {
            _visited_part(codes, conv._among(codes, points, conv._outside(inst.space, c, t))) for c in points for t in grid
        }
        # the double-density reading needs every point's row
        assert defects <= set(asked)
        # each distinct visited point set is decided once: the call count is the number of distinct keys
        assert set(asked.values()) == {1}
        # here some of the defect and outer sets share a visited part
        assert sum(asked.values()) < len(inst.space.points) * len(grid) + len(grid)

    @given(number=st.integers(0, 3 * DEFAULT_SUITE_SIZE - 1), N=st.sampled_from([1000, 2000]), data=st.data())
    def test_memoized_verdict_matches_a_fresh_reading(self, number: int, N: int, data: st.DataObject) -> None:
        # the instances persist across examples, so later asks also read verdicts kept by earlier ones
        inst = _suite_instances()[number]
        x, A, ideal, points = inst.x, inst.matrix, inst.ideal, inst.space.points
        codes = x.value_codes(N)
        for table in data.draw(st.lists(st.lists(st.booleans(), min_size=len(points), max_size=len(points)), max_size=4)):
            got = conv._points_null(x, {p for p, f in zip(points, table) if f}, A, ideal, N, TOL)
            fresh = ai_density_is_null(A, ideal, np.isin(codes, np.flatnonzero(table)), N, TOL)
            assert got.to_json() == fresh.to_json(), (inst.name, table)

    def test_a_point_first_visited_between_two_horizons_is_read_at_each(self, monkeypatch: pytest.MonkeyPatch) -> None:
        x = conv.eventually_constant(LINE4, "w0", finite_set([1500]))
        A, ideal = cesaro1(), Ideal.fin()
        code = int(x.value_codes(2000)[1499])
        late = {LINE4.points[code]}
        calls = []
        _counting(monkeypatch, lambda member, horizon: calls.append(horizon))
        assert conv._points_null(x, late, A, ideal, 1000, TOL).to_json() == ai_density_is_null(
            A, ideal, NO_INDICES, 1000, TOL
        ).to_json()
        # at 2000, the set with no member first: read with the points visited up to 1000, both would be empty
        none = conv._points_null(x, set(), A, ideal, 2000, TOL)
        v = conv._points_null(x, late, A, ideal, 2000, TOL)
        assert v.to_json() == ai_density_is_null(A, ideal, finite_set([1500]), 2000, TOL).to_json()
        assert v.to_json() != none.to_json()
        assert calls == [1000, 2000, 2000]

    def test_no_entry_is_shared_across_matrices_ideals_or_tols(self, monkeypatch: pytest.MonkeyPatch) -> None:
        x = conv.alternating(LINE4, "w0", "w1", ODDS)
        A, twin = cesaro1(), cesaro1()
        asks = [(A, Ideal.fin(), TOL), (twin, Ideal.fin(), TOL), (A, Ideal.density_zero(A), TOL), (A, Ideal.fin(), 0.02)]
        calls = []
        _counting(monkeypatch, lambda member, horizon: calls.append(member))
        for _ in range(2):
            for B, ideal, tol in asks:
                got = conv._points_null(x, {"w1"}, B, ideal, 1000, tol)
                assert got == ai_density_is_null(B, ideal, ~ODDS, 1000, tol)
        assert len(calls) == len(asks)

    @pytest.mark.parametrize("point", ["w1", "w3"])
    def test_a_refused_input_raises_on_every_ask(self, monkeypatch: pytest.MonkeyPatch, point: str) -> None:
        # w1 is visited and w3 is not: a set with members and one without
        x = conv.alternating(LINE4, "w0", "w1", ODDS)
        ideal = ideal_from_spec("density:weighted:400")
        calls = []
        _counting(monkeypatch, lambda member, horizon: calls.append(member))
        for _ in range(2):
            with pytest.raises(ValueError, match="overflow"):
                conv._points_null(x, {point}, cesaro1(), ideal, 1000, TOL)
        assert len(calls) == 2

    def test_lemma_readings_follow_the_shared_table(self) -> None:
        N = 2000
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for inst in generate_suite(1):
                x, A, ideal, space = inst.x, inst.matrix, inst.ideal, inst.space
                p1, p2, p3 = conv.lemma_cauchy_predicates(x, A, ideal, N, TOL)
                assert p1 == conv.ai_stat_cauchy_detect(x, A, ideal, N, TOL), inst.name
                convs = {c: conv.ai_stat_conv_detect(x, c, A, ideal, N, TOL) for c in space.points}
                codes = x.value_codes(N)
                for g in conv._grid(space):
                    key = f"t={g}"
                    bad = [i for i, c in enumerate(space.points) if not convs[c].detail[key].converged]
                    outer = ai_density_is_null(A, ideal, np.isin(codes, bad), N, TOL)
                    assert p3.detail[key] == outer, (inst.name, g)
                    try:
                        slack = space.vicinity_composition_alpha(g)
                    except ValueError:
                        slack = g
                    removal = convs[p1.value].detail[f"t={slack}"]
                    assert p2.detail[key] == removal or p2.detail[key].status == DIVERGED, (inst.name, g)


# a random prefix, then a run of one point, so that every entry status occurs
codes_st = st.builds(
    lambda prefix, c, run: (prefix + [c] * run) or [c],
    st.lists(st.integers(0, len(LINE4.points) - 1), max_size=30),
    st.integers(0, len(LINE4.points) - 1),
    st.integers(0, 30),
)


def _sequence(codes: list[int]) -> conv.IndexedSequence:
    values = [LINE4.points[c] for c in codes]
    return conv.from_values(LINE4, values, values[-1])


class TestFirstVisits:
    """One first-visit scan per sequence and horizon, read by the anchor search, the memo key and the lemma."""

    def test_cauchy_then_lemma_scan_once(self, monkeypatch: pytest.MonkeyPatch) -> None:
        inst = next(i for i in generate_suite(1) if i.space_name == "LINE4")
        x, A, ideal, N = inst.x, inst.matrix, inst.ideal, 2000
        reads, misses = [], []
        codes = x.value_codes
        monkeypatch.setattr(x, "value_codes", lambda n: reads.append(n) or codes(n))
        _counting(monkeypatch, lambda member, horizon: misses.append(horizon))
        conv.ai_stat_cauchy_detect(x, A, ideal, N, TOL)
        # one read for the scan, then one per null reading decided
        assert (len(reads), list(x._visited)) == (1 + len(misses), [N])
        reads.clear()
        misses.clear()
        conv.lemma_cauchy_predicates(x, A, ideal, N, TOL)
        # the lemma's anchor search and kept sets read the scan already made
        assert len(reads) == len(misses)

    @staticmethod
    def _assert_kept_as_masked(x: conv.IndexedSequence, N: int) -> None:
        space, codes = x.space, x.value_codes(N)
        # every anchor and every threshold, so every (anchor, slack) the removal form can ask
        for anchor in space.points:
            for slack in conv._grid(space):
                # the masked path: the codes present off the removal set, in increasing code order
                masked = codes[~conv._among(codes, space.points, conv._outside(space, anchor, slack))]
                want = [space.points[c] for c in np.unique(masked).tolist()]
                assert conv._kept(x, conv._outside(space, anchor, slack), N) == want, (anchor, slack)

    @given(number=st.integers(0, 3 * DEFAULT_SUITE_SIZE - 1), N=st.sampled_from([1000, 2000]))
    def test_kept_points_match_the_masked_codes_on_suite_instances(self, number: int, N: int) -> None:
        self._assert_kept_as_masked(_suite_instances()[number].x, N)

    @given(codes=codes_st)
    def test_kept_points_match_the_masked_codes_on_random_sequences(self, codes: list[int]) -> None:
        self._assert_kept_as_masked(_sequence(codes), len(codes))


class TestOneEntryRule:
    @given(codes=codes_st, target=st.sampled_from(LINE4.points))
    def test_strong_convergence(self, codes: list[int], target: str) -> None:
        n = len(codes)
        x = _sequence(codes)
        k0 = _old_entry(LINE4, np.array(codes), target)
        v = conv.strong_conv_detect(x, target, n, TOL)
        if k0 <= n // 2:
            expected = (CONVERGED, 0.0)
        else:
            late = k0 > n - max(1, n // 10)
            expected = (DIVERGED if late else INCONCLUSIVE, (k0 - 1) / n)
        assert (v.status, v.residual, v.witness) == (*expected, k0)

    @given(codes=codes_st, target=st.sampled_from(LINE4.points), witness=st.sampled_from([ALL_INDICES, ODDS]))
    def test_witnessed_convergence(self, codes: list[int], target: str, witness) -> None:
        n = len(codes)
        x = _sequence(codes)
        A, ideal = cesaro1(), Ideal.fin()
        comp_v = ai_density_is_null(A, ideal, ~witness, n, TOL)
        if comp_v.status == INCONCLUSIVE:
            with pytest.raises(ValueError, match="inconclusive"):
                conv.ai_star_conv_detect(x, target, A, ideal, witness, n, TOL)
            return
        v = conv.ai_star_conv_detect(x, target, A, ideal, witness, n, TOL)
        sub = np.array(codes)[witness.indicator(n)]
        kept = len(sub)
        if kept < 10:
            assert (v.status, v.witness) == (INCONCLUSIVE, {"kept": kept})
            return
        j0 = _old_entry(LINE4, sub, target)
        inner_ok = j0 <= kept // 2
        ok = comp_v.converged and inner_ok
        residual = comp_v.residual if inner_ok else max(comp_v.residual, (j0 - 1) / kept)
        late = not inner_ok and j0 > kept - kept // 10
        status = CONVERGED if ok else (DIVERGED if comp_v.status == DIVERGED or late else INCONCLUSIVE)
        assert (v.status, v.value, v.residual, v.tol, v.tail_low, v.witness) == (
            status,
            target,
            min(residual, TOL) if ok else residual,
            TOL,
            None,
            {"subsequence_entry": j0, "kept": kept},
        )
        # its parts: the complement's null verdict and the entry reading
        assert v.detail["complement-null"] == comp_v
        assert v.detail["entry"].converged == inner_ok

    @given(codes=codes_st)
    def test_lambda_admission(self, codes: list[int]) -> None:
        n = len(codes)
        x = _sequence(codes)
        A, ideal = cesaro1(), Ideal.fin()
        witnesses = {
            c: finite_set(k for k, code in enumerate(codes, 1) if LINE4.points[code] == c) for c in LINE4.points
        }
        expected = set()
        for c, wit in witnesses.items():
            sub = np.array(codes)[wit.indicator(n)]
            if not ai_nonthin(A, ideal, wit, n, TOL) or len(sub) == 0:
                continue
            j0 = _old_entry(LINE4, sub, c)
            if j0 == 1 or j0 <= len(sub) // 2:
                expected.add(c)
        assert conv.lambda_set(x, A, ideal, n, TOL) == expected
