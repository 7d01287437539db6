"""Byte-for-byte lock on the `pbracket verify paper` report.

The files under tests/golden/ are the stdout of `pbracket verify paper
--seed N` and `pbracket --json verify paper --seed N`, and of the same
commands with `--signature n=2` for the `dof2` files.  Any change to the
exact arithmetic that alters a single character of either rendering fails
here; regenerate the files only for an intended change of output.
"""

import json
from pathlib import Path

import pytest

from pbracket.config import EngineConfig
from pbracket.verify import run_verify

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("seed", [2024, 99])
def test_verify_paper_matches_golden(seed):
    report = run_verify(seed=seed)
    text = report.render() + "\n"
    as_json = json.dumps(report.to_json(), sort_keys=True) + "\n"
    assert text == (GOLDEN / f"verify_paper_seed{seed}.txt").read_text()
    assert as_json == (GOLDEN / f"verify_paper_seed{seed}.json").read_text()


def test_verify_paper_dof2_matches_golden():
    config = EngineConfig(EngineConfig.default().convention, dof=2)
    report = run_verify(seed=2024, config=config)
    text = report.render() + "\n"
    as_json = json.dumps(report.to_json(), sort_keys=True) + "\n"
    assert report.ok
    assert text.endswith("summary: 12 of 12 items pass\n")
    assert text == (GOLDEN / "verify_paper_dof2_seed2024.txt").read_text()
    assert as_json == (GOLDEN / "verify_paper_dof2_seed2024.json").read_text()
