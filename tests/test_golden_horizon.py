"""Density-ideal answers at N = 10^6 against recorded bytes.

The suite's byte-identity check runs at N = 10^4.  These are the horizon
queries whose limit extraction reads 10^6 rows under ``density:cesaro``:
densities under cesaro, weighted:1 and identity A, and the Cauchy and
cluster detectors on instances 20 and 21 of ``generate_suite(5)``, with
every null verdict the cluster detector reads and every warning it gives.

Regenerate the recorded file (only on purpose, from code whose answers
are known to be right) with

    PYTHONPATH=src python tests/test_golden_horizon.py > tests/golden_horizon_1e6.json
"""

from __future__ import annotations

import json
import sys
import warnings
from pathlib import Path

import pmstat as pm
from pmstat.convergence import _grid, _outside, _point_set

GOLDEN = Path(__file__).with_name("golden_horizon_1e6.json")
HORIZON = 10**6
DENSITY_MATRICES = ("cesaro", "weighted:1", "identity")
DENSITY_SETS = ("mod:3,1", "not:squares", "cubes", "pow2")
IDEAL = "density:cesaro"
DETECTOR_TOL = 0.02  # the tolerance the generator's ground truth is calibrated for
INSTANCES = (20, 21)  # 1-based recipe numbers: a cluster and a Cauchy recipe


def answers() -> dict:
    ideal = pm.ideal_from_spec(IDEAL)
    out: dict = {"density": {}, "instances": {}}
    for mspec in DENSITY_MATRICES:
        A = pm.matrix_from_spec(mspec)
        for sspec in DENSITY_SETS:
            v = pm.ai_density(A, ideal, pm.index_set_from_spec(sspec), HORIZON)
            out["density"][f"{sspec} --matrix {mspec} --ideal {IDEAL}"] = v.to_json()
    instances = pm.generate_suite(5)
    for number in INSTANCES:
        inst = instances[number - 1]
        x, A, I = inst.x, inst.matrix, inst.ideal
        nulls = {
            f"{c} t={t}": pm.ai_density_is_null(A, I, ~_point_set(x, "defect", _outside(x.space, c, t)), HORIZON, DETECTOR_TOL).to_json()
            for c in x.space.points
            for t in _grid(x.space)
        }
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            gamma = pm.gamma_set(x, A, I, HORIZON, DETECTOR_TOL)
        out["instances"][inst.name] = {
            "cauchy": pm.ai_stat_cauchy_detect(x, A, I, HORIZON, DETECTOR_TOL).to_json(),
            "gamma": sorted(gamma),
            "gamma_warnings": [str(w.message) for w in caught],
            "cluster_null_verdicts": nulls,
        }
    return out


def dump(obj: dict) -> str:
    return json.dumps(obj, indent=1) + "\n"


def test_answers_match_the_recorded_bytes() -> None:
    assert dump(answers()) == GOLDEN.read_text()


if __name__ == "__main__":
    sys.stdout.write(dump(answers()))
