"""Byte-for-byte lock on the `pbracket verify paper` report.

The files under tests/golden/ are the stdout of `pbracket verify paper
--seed N` and `pbracket --json verify paper --seed N`.  Any change to the
exact arithmetic that alters a single character of either rendering fails
here; regenerate the files only for an intended change of output.
"""

import json
from pathlib import Path

import pytest

from pbracket.verify import run_verify

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("seed", [2024, 99])
def test_verify_paper_matches_golden(seed):
    report = run_verify(seed=seed)
    text = report.render() + "\n"
    as_json = json.dumps(report.to_json(), sort_keys=True) + "\n"
    assert text == (GOLDEN / f"verify_paper_seed{seed}.txt").read_text()
    assert as_json == (GOLDEN / f"verify_paper_seed{seed}.json").read_text()
