"""Fin readings at N = 10^6 against recorded digests.

``tests/golden_horizon_1e6.json`` pins the answers under ``density:cesaro``.
These are the fin answers, read from tail windows: ``ai_density`` and
``ai_density_is_null`` of the benchmark's density sets under cesaro,
weighted:1 and squares, and the conv, lambda, gamma and bounded detectors on
fin instances 03, 08, 13, 15 and 17 of ``generate_suite(5)``, with every
null verdict of their neighborhood defect sets.  Each answer is kept as the
sha256 of its JSON, whose floats round-trip, so a digest changes with any
bit of any reading.

Regenerate the recorded file (only on purpose, from code whose answers are
known to be right) with

    PYTHONPATH=src python tests/test_golden_fin.py > tests/golden_fin_1e6_sha256.json
"""

from __future__ import annotations

import hashlib
import json
import sys
import warnings
from pathlib import Path

import pmstat as pm
from pmstat.convergence import _grid, _outside, _point_set

GOLDEN = Path(__file__).with_name("golden_fin_1e6_sha256.json")
HORIZON = 10**6
DENSITY_TOL = pm.DEFAULT_TOL
DETECTOR_TOL = 0.02  # the tolerance the generator's ground truth is calibrated for
MATRICES = ("cesaro", "weighted:1", "squares")
INSTANCES = (3, 8, 13, 15, 17)  # 1-based recipe numbers, all under fin
# the set names of the benchmark's density queries
DENSITY_SETS = {
    "evens": lambda: pm.EVENS,
    "odds": lambda: pm.ODDS,
    "mod:3,1": lambda: pm.multiples(3, 1),
    "mod:4,0": lambda: pm.multiples(4, 0),
    "squares": lambda: pm.SQUARES,
    "cubes": lambda: pm.CUBES,
    "pow2": lambda: pm.POWERS_OF_TWO,
    "finite:3,17,40,99,250": lambda: pm.finite_set((3, 17, 40, 99, 250)),
    "not:squares": lambda: ~pm.SQUARES,
    "evens|squares": lambda: pm.EVENS | pm.SQUARES,
    "mod:3,1&evens": lambda: pm.multiples(3, 1) & pm.EVENS,
}


def _sha(answer: object) -> str:
    return hashlib.sha256(json.dumps(answer, sort_keys=True).encode()).hexdigest()


def answers() -> dict:
    fin = pm.Ideal.fin()
    out: dict = {}
    for mspec in MATRICES:
        A = pm.matrix_from_spec(mspec)
        for name, make in DENSITY_SETS.items():
            key = f"{name} --matrix {mspec} --ideal fin"
            out[f"density {key}"] = _sha(pm.ai_density(A, fin, make(), HORIZON, DENSITY_TOL).to_json())
            out[f"null {key}"] = _sha(pm.ai_density_is_null(A, fin, make(), HORIZON, DENSITY_TOL).to_json())
    instances = pm.generate_suite(5)
    for number in INSTANCES:
        inst = instances[number - 1]
        x, A, I, points = inst.x, inst.matrix, inst.ideal, inst.space.points
        assert I.kind == "fin"
        for c in points:
            out[f"{inst.name} conv {c}"] = _sha(pm.ai_stat_conv_detect(x, c, A, I, HORIZON, DETECTOR_TOL).to_json())
            for t in _grid(x.space):
                v = pm.ai_density_is_null(A, I, ~_point_set(x, "defect", _outside(x.space, c, t)), HORIZON, DETECTOR_TOL)
                out[f"{inst.name} cluster-null {c} t={t}"] = _sha(v.to_json())
        out[f"{inst.name} lambda"] = _sha(sorted(pm.lambda_set(x, A, I, HORIZON, DETECTOR_TOL)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            gamma = pm.gamma_set(x, A, I, HORIZON, DETECTOR_TOL)
        out[f"{inst.name} gamma"] = _sha([sorted(gamma), [str(w.message) for w in caught]])
        for inside in (sorted(inst.expected_gamma), points):
            v = pm.stat_bounded_check(x, A, I, inside, HORIZON, DETECTOR_TOL)
            out[f"{inst.name} bounded {','.join(inside)}"] = _sha(v.to_json())
    return out


def test_fin_answers_match_the_recorded_digests() -> None:
    recorded = json.loads(GOLDEN.read_text())
    got = answers()
    assert sorted(got) == sorted(recorded)
    assert [k for k in got if got[k] != recorded[k]] == []


if __name__ == "__main__":
    sys.stdout.write(json.dumps(answers(), indent=1) + "\n")
