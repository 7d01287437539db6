"""The benchmark's stored CLI reference, replayed in process.

perfbench/reference/cli_cold_seed2024.jsonl holds the arguments and exact
stdout of the first cli_cold invocations.  The benchmark compares every
fresh process with it; replaying the same arguments through `cli.main`
here shows any drift of the printed output in the tests, not only as a
failed benchmark run.  The file is read, never written.

The inputs-hashes of the oracle suites are computed from their sizes, not
from what they draw, so a changed draw stream passes every golden; the
draw-stream test below pins the samplers' output itself.
"""

import hashlib
import importlib.util
import itertools
import json
import random
import types
from pathlib import Path

import pytest

from pbracket import sampling
from pbracket.cli import main
from pbracket.group_algebra import GroupSignature

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
REFERENCE = PERFBENCH / "reference" / "cli_cold_seed2024.jsonl"


RECORDS = [json.loads(line) for line in REFERENCE.read_text().splitlines()]


def test_reference_holds_the_benchmark_invocations():
    assert len(RECORDS) == 80


@pytest.mark.parametrize("record", RECORDS, ids=[f"line{i}" for i in range(1, len(RECORDS) + 1)])
def test_cli_output_matches_the_benchmark_reference(record, capsys, monkeypatch):
    monkeypatch.delenv("PBRACKET_CONFIG", raising=False)
    assert main(list(record["argv"])) == 0
    assert capsys.readouterr().out == record["stdout"]


def _draws_digest(dof: int) -> str:
    """sha256 of seeded rand_element, rand_classical and rand_group_monomial
    draws at ``dof``, and of the next number the generator gives after them."""
    sig = GroupSignature(dof)
    rng = random.Random(29 + dof)
    drawn = []
    for max_degree in (0, 2, 4, 6):
        drawn += [sampling.rand_element(rng, sig, max_degree, terms) for terms in (1, 3, 5)]
        drawn += [sampling.rand_classical(rng, dof, max_degree=max_degree, sectors=sectors)
                  for sectors in ((1, 2), (1,), (2,))]
        drawn.append(sampling.rand_group_monomial(rng, sig, max_degree))
    text = "\n".join(repr(x) if isinstance(x, tuple) else
                     repr(sorted((m, str(c)) for m, c in x.terms.items())) for x in drawn)
    return hashlib.sha256(f"{text}\n{rng.getrandbits(64)}".encode()).hexdigest()


def test_seeded_draws_are_the_stored_ones(monkeypatch):
    """The samplers draw what they drew when the references were made: the
    benchmark's cli_plan still gives the stored reference's arguments, else
    a cli_cold run stops with "stored reference is for other arguments",
    and fixed seeded draws still hash to the recorded digests."""
    monkeypatch.syspath_prepend(str(PERFBENCH))   # workloads imports its siblings
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    plan = workloads.cli_plan(types.SimpleNamespace(sampling=sampling), 2024)
    assert [inv["argv"] for inv in itertools.islice(plan, len(RECORDS))] == \
        [record["argv"] for record in RECORDS]
    assert [_draws_digest(dof) for dof in (1, 2)] == [
        "7afe25eb003652df7e13ef8aba3d84639e08f041689f95b44f1108514285a3b8",
        "88cfec09d89420e5a7c54995f7572e8f6d5a0589d0c5ec7e275e4bdf54234e1a",
    ]
