"""The benchmark's stored CLI reference, replayed in process.

perfbench/reference/cli_cold_seed2024.jsonl holds the arguments and exact
stdout of the first cli_cold invocations.  The benchmark compares every
fresh process with it; replaying the same arguments through `cli.main`
here shows any drift of the printed output in the tests, not only as a
failed benchmark run.  The file is read, never written.
"""

import json
from pathlib import Path

import pytest

from pbracket.cli import main

REFERENCE = (Path(__file__).resolve().parents[1] / "perfbench" / "reference"
             / "cli_cold_seed2024.jsonl")


RECORDS = [json.loads(line) for line in REFERENCE.read_text().splitlines()]


def test_reference_holds_the_benchmark_invocations():
    assert len(RECORDS) == 80


@pytest.mark.parametrize("record", RECORDS, ids=[f"line{i}" for i in range(1, len(RECORDS) + 1)])
def test_cli_output_matches_the_benchmark_reference(record, capsys, monkeypatch):
    monkeypatch.delenv("PBRACKET_CONFIG", raising=False)
    assert main(list(record["argv"])) == 0
    assert capsys.readouterr().out == record["stdout"]
