"""Byte-for-byte lock on the `pbracket verify paper` report and on the
output of `scripts/explore_conventions.py`.

The verify_paper files under tests/golden/ are the stdout of `pbracket
verify paper --seed N` and `pbracket --json verify paper --seed N`, and of
`pbracket [--json] --signature n=2 verify paper` for the `dof2` files and
`pbracket [--json] --signature n=3 verify paper` for the `dof3` files.  The
explore_conventions files are the script's stdout at `--dof 1` and
`--dof 2`; it mechanises, brackets and takes the classicality gap for
every passing convention tuple.  The calibrate files are the stdout of
`pbracket [--json] --signature n=DOF calibrate` at dof 1 and 2, and the
oracle_check files that of `pbracket [--json] oracle check --seed 2024`
at dof 1.  Any change to the exact arithmetic that
alters a single character of these outputs fails here; regenerate the files
only for an intended change of output.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pbracket.cli import main
from pbracket.config import EngineConfig
from pbracket.verify import run_verify

GOLDEN = Path(__file__).parent / "golden"
ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("seed", [2024, 99])
def test_verify_paper_matches_golden(seed):
    report = run_verify(seed=seed)
    text = report.render() + "\n"
    as_json = json.dumps(report.to_json(), sort_keys=True) + "\n"
    assert text == (GOLDEN / f"verify_paper_seed{seed}.txt").read_text()
    assert as_json == (GOLDEN / f"verify_paper_seed{seed}.json").read_text()


@pytest.mark.parametrize("dof", [2, 3])
def test_verify_paper_at_higher_dof_matches_golden(dof):
    config = EngineConfig(EngineConfig.default().convention, dof=dof)
    report = run_verify(seed=2024, config=config)
    text = report.render() + "\n"
    as_json = json.dumps(report.to_json(), sort_keys=True) + "\n"
    assert report.ok
    assert text.endswith("summary: 12 of 12 items pass\n")
    assert text == (GOLDEN / f"verify_paper_dof{dof}_seed2024.txt").read_text()
    assert as_json == (GOLDEN / f"verify_paper_dof{dof}_seed2024.json").read_text()


@pytest.mark.parametrize("dof", [1, 2])
def test_explore_conventions_matches_golden(dof):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "explore_conventions.py"), "--dof", str(dof)],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == (GOLDEN / f"explore_conventions_dof{dof}.txt").read_text()


def _cli_stdout(capsys, *argv):
    assert main(list(argv)) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("dof", [1, 2])
def test_calibrate_matches_golden(capsys, dof):
    for flags, ext in (((), "txt"), (("--json",), "json")):
        out = _cli_stdout(capsys, *flags, "--signature", f"n={dof}", "calibrate")
        assert out == (GOLDEN / f"calibrate_dof{dof}.{ext}").read_text()


def test_oracle_check_matches_golden(capsys):
    for flags, ext in (((), "txt"), (("--json",), "json")):
        out = _cli_stdout(capsys, *flags, "oracle", "check", "--seed", "2024")
        assert out == (GOLDEN / f"oracle_check_seed2024.{ext}").read_text()
