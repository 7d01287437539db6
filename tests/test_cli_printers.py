"""Byte-for-byte lock on the term printers and the JSON coefficient schemas.

tests/golden/cli_printers.jsonl holds one record per fixed invocation: the
argv given to `cli.main` (or, for outputs the CLI cannot reach, the name of a
library call in LIBRARY below), the exit code and the exact stdout.  The
inputs cover every printer branch: zero results, constant terms (`I`, `-I`,
`(c)*I`), coefficients of +1 and -1, `delta[...]` kernels at dof 1 and 2,
and Scalars with Planck symbols in the denominator, in text and `--json`.

Regenerate only for an intended change of output:

    PYTHONPATH=src python tests/test_cli_printers.py > tests/golden/cli_printers.jsonl
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from pbracket.cli import main
from pbracket.group_algebra import GroupSignature
from pbracket.expressions import evaluate
from pbracket.pmech import mechanise_weyl, universal_bracket
from pbracket.representations import rep_qc, rep_qq
from pbracket.scalars import Scalar

GOLDEN = Path(__file__).parent / "golden" / "cli_printers.jsonl"

INVOCATIONS = [
    ["mechanise", "0"],
    ["mechanise", "2"],
    ["mechanise", "--", "-1/2"],
    ["mechanise", "q1"],
    ["mechanise", "-q1 + p2"],
    ["mechanise", "q1*p1"],
    ["mechanise", "(1+i)*q1*p1 - 3*q2^2"],
    ["--json", "mechanise", "q1*p1 - 2"],
    ["--signature", "n=2", "mechanise", "q12*p12 - q21 + 1/3"],
    ["--json", "--signature", "n=2", "mechanise", "q11*p11*p22"],
    ["bracket", "universal", "q1", "q1"],
    ["bracket", "universal", "q1", "p1"],
    ["bracket", "universal", "q1^2", "p1^2"],
    ["bracket", "universal", "q1*q2", "p1*p2"],
    ["--json", "bracket", "universal", "q1*q2", "p1*p2"],
    ["--signature", "n=2", "bracket", "universal", "q11*q22", "p11^2*p22"],
    ["--json", "--signature", "n=2", "bracket", "universal", "q12^2", "p12"],
    ["bracket", "qc", "q1", "q1"],
    ["bracket", "qc", "q1", "p1"],
    ["bracket", "qc", "p1", "q1"],
    ["bracket", "qc", "q2", "p2"],
    ["bracket", "qc", "q1^2", "p1^2"],
    ["bracket", "qc", "q1^2", "p1^2", "--hbar", "1/2"],
    ["bracket", "qc", "q1*q2^2", "p1*p2"],
    ["--json", "bracket", "qc", "q1*q2^2", "p1*p2"],
    ["--signature", "n=2", "bracket", "qc", "q11*q21", "p11*p21 + q12"],
    ["--json", "--signature", "n=2", "bracket", "qc", "q11^2", "p11*q22"],
    ["rep", "qq", "0"],
    ["rep", "qq", "1"],
    ["rep", "qq", "-1"],
    ["rep", "qq", "1/2"],
    ["rep", "qq", "delta[s1]"],
    ["rep", "qq", "delta[s1] - delta[s2] + 2*delta[s1,s2]"],
    ["rep", "qq", "q1*p1"],
    ["rep", "qq", "q1*p1 + q2^2*p2", "--h1", "2", "--h2", "1/3"],
    ["--json", "rep", "qq", "q1*p1 - i*q2"],
    ["--signature", "n=2", "rep", "qq", "q11*p12 - p21^2"],
    ["--json", "--signature", "n=2", "rep", "qq", "delta[x12,y12,s2]"],
    ["rep", "qc", "0"],
    ["rep", "qc", "1"],
    ["rep", "qc", "-1"],
    ["rep", "qc", "3/2"],
    ["rep", "qc", "q2*p2"],
    ["rep", "qc", "-q1*q2 + p1*p2^2"],
    ["--json", "rep", "qc", "q1*p1*q2*p2"],
    ["--signature", "n=2", "rep", "qc", "q11*p12*q21 - p22"],
    ["--json", "--signature", "n=2", "rep", "qc", "delta[x12,y22,y22] - delta[s1,s2]"],
]


def _universal(f, g, dof=1):
    sig = GroupSignature(dof=dof)
    return universal_bracket(mechanise_weyl(sig, evaluate(f, sig).value),
                             mechanise_weyl(sig, evaluate(g, sig).value))


# Outputs with Planck symbols in a denominator: only antiderivative factors
# make them, and the CLI never represents an antiderivative-carrying result.
LIBRARY = {
    "str(rep_qq(universal(q1, p1)))": lambda: str(rep_qq(_universal("q1", "p1"))),
    "json(rep_qq(universal(q1, p1)))": lambda: json.dumps(
        rep_qq(_universal("q1", "p1")).to_json(), sort_keys=True),
    "str(rep_qq(universal(q1*p1, p1^2)))": lambda: str(rep_qq(_universal("q1*p1", "p1^2"))),
    "str(rep_qc(universal(q1*q2, p1*p2)))": lambda: str(rep_qc(_universal("q1*q2", "p1*p2"))),
    "json(rep_qc(universal(q1*q2, p1*p2)))": lambda: json.dumps(
        rep_qc(_universal("q1*q2", "p1*p2")).to_json(), sort_keys=True),
    "str(rep_qq(universal(q11*q21, p11*p21), dof 2))": lambda: str(
        rep_qq(_universal("q11*q21", "p11*p21", dof=2))),
    "str((h1 + h2)/(h*h1^2))": lambda: str(
        (Scalar.symbol("h1") + Scalar.symbol("h2"))
        / (Scalar.symbol("h") * Scalar.symbol("h1", 2))),
}


def _records():
    for argv in INVOCATIONS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(list(argv))
        yield {"argv": argv, "code": code, "stdout": out.getvalue()}
    for name, fn in LIBRARY.items():
        yield {"library": name, "code": 0, "stdout": fn() + "\n"}


def _golden():
    return [json.loads(line) for line in GOLDEN.read_text().splitlines()]


def test_golden_covers_every_invocation():
    golden = _golden()
    assert [r.get("argv") for r in golden if "argv" in r] == INVOCATIONS
    assert [r["library"] for r in golden if "library" in r] == list(LIBRARY)


@pytest.mark.parametrize("record", _golden(),
                         ids=lambda r: " ".join(r["argv"]) if "argv" in r else r["library"])
def test_printer_output_matches_golden(record, capsys):
    if "argv" in record:
        code = main(list(record["argv"]))
        out = capsys.readouterr().out
    else:
        code, out = 0, LIBRARY[record["library"]]() + "\n"
    assert code == record["code"]
    assert out == record["stdout"]


if __name__ == "__main__":
    for rec in _records():
        sys.stdout.write(json.dumps(rec, sort_keys=True) + "\n")
