"""Theorem-suite reports for seeds 1, 2 and 3 at N = 10^6 against recorded digests.

``tests/test_golden_suite.py`` pins the reports at the default horizon
10^4, where a density-ideal defect set rarely has a suffix of more than a
few thousand rows.  At 10^6 the tail windows, the suffix ladder of the
limit extraction and the run-end reader all work at the sizes that the
benchmark's horizon queries reach, so this pins the report bytes there:
the sha256 of ``report_to_json`` for the default suite of each seed, run
in process with ``SuiteConfig(seed=s, horizon=10**6)``, is the same
report the ``pmstat suite --seed s --N 1000000 --out`` file holds.

Regenerate the recorded file (only on purpose, from code whose reports
are known to be right) with

    PYTHONPATH=src python tests/test_golden_suite_1e6.py > tests/golden_suite_1e6_sha256.json
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from pmstat.harness import SuiteConfig, generate_suite, report_to_json, run_theorem_suite

GOLDEN = Path(__file__).with_name("golden_suite_1e6_sha256.json")
SEEDS = (1, 2, 3)
HORIZON = 10**6


def digest(seed: int) -> str:
    report = run_theorem_suite(generate_suite(seed), SuiteConfig(seed=seed, horizon=HORIZON))
    return hashlib.sha256(report_to_json(report).encode()).hexdigest()


@pytest.mark.parametrize("seed", SEEDS)
def test_suite_report_at_1e6_matches_the_recorded_digest(seed: int) -> None:
    assert digest(seed) == json.loads(GOLDEN.read_text())[str(seed)]


if __name__ == "__main__":
    sys.stdout.write(json.dumps({str(s): digest(s) for s in SEEDS}, indent=1) + "\n")
