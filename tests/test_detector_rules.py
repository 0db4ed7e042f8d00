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
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

import pmstat.convergence as conv
from pmstat import (
    ALL_INDICES,
    ODDS,
    Ideal,
    build_metric_induced,
    cesaro1,
    finite_set,
)
from pmstat.harness import generate_suite
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


class TestSharedNullVerdicts:
    def test_lemma_decides_each_point_threshold_once(self, monkeypatch: pytest.MonkeyPatch) -> None:
        inst = next(i for i in generate_suite(1) if i.space_name == "LINE4")
        counts: collections.Counter[str] = collections.Counter()

        def counting(A, ideal, member, horizon, tol):
            counts[getattr(member, "name", "array")] += 1
            return ai_density_is_null(A, ideal, member, horizon, tol)

        monkeypatch.setattr(conv, "ai_density_is_null", counting)
        conv.lemma_cauchy_predicates(inst.x, inst.matrix, inst.ideal, 2000, TOL)
        defects = {name: n for name, n in counts.items() if name.startswith("defect(")}
        grid = conv._grid(inst.space)
        # the double-density reading needs every point's row
        assert set(defects) == {f"defect({c},t={t})" for c in inst.space.points for t in grid}
        assert set(defects.values()) == {1}

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
