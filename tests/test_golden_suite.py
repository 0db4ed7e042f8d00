"""Theorem-suite reports for seeds 1, 2 and 3 against recorded digests.

Criterion 7 compares two runs of the same tree.  This pins the report
bytes across trees: the sha256 of ``report_to_json`` for the default
suite of each seed, run in process with ``SuiteConfig(seed=s)``, is the
same report the ``pmstat suite --seed s --out`` file holds.

Regenerate the recorded file (only on purpose, from code whose reports
are known to be right) with

    PYTHONPATH=src python tests/test_golden_suite.py > tests/golden_suite_sha256.json
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from pmstat.harness import SuiteConfig, generate_suite, report_to_json, run_theorem_suite

GOLDEN = Path(__file__).with_name("golden_suite_sha256.json")
SEEDS = (1, 2, 3)


def digest(seed: int) -> str:
    report = run_theorem_suite(generate_suite(seed), SuiteConfig(seed=seed))
    return hashlib.sha256(report_to_json(report).encode()).hexdigest()


@pytest.mark.parametrize("seed", SEEDS)
def test_suite_report_matches_the_recorded_digest(seed: int) -> None:
    assert digest(seed) == json.loads(GOLDEN.read_text())[str(seed)]


if __name__ == "__main__":
    sys.stdout.write(json.dumps({str(s): digest(s) for s in SEEDS}, indent=1) + "\n")
