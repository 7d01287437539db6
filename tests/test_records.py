"""The frozen value records (terms.Record): a signature, a convention tuple,
a Weyl algebra, an engine configuration and the four reports.  Each compares
by type and fields, hashes as the tuple of its fields, copies and pickles
through its constructor, refuses assignment and prints as
``Name(field=value, ...)``."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from pbracket.calibration import CalibrationReport
from pbracket.config import EngineConfig
from pbracket.group_algebra import ConventionTuple, GroupSignature
from pbracket.oracle import OracleReport
from pbracket.representations import WeylAlgebra
from pbracket.scalars import CR_I, CR_MINUS_ONE, CR_ONE, Scalar
from pbracket.terms import Record
from pbracket.verify import VerifyItem, VerifyReport

SRC = str(Path(__file__).resolve().parents[1] / "src")

STD = ConventionTuple.standard()
OTHER = ConventionTuple(CR_I, CR_ONE, CR_MINUS_ONE, CR_ONE, 1, -1)


def _records():
    """Two separately built, equal instances of each of the eight records."""
    def build():
        item = VerifyItem("oracle", "pass", "0 failures", "0 failures", ("seed 1",))
        return [
            ConventionTuple(CR_I, CR_ONE, CR_MINUS_ONE, CR_ONE, 1, -1),
            GroupSignature(2, ConventionTuple.from_json(OTHER.to_json())),
            WeylAlgebra(("1", "2"), (Scalar.symbol("h"), CR_I * Scalar.symbol("h1"))),
            EngineConfig(ConventionTuple.standard(), 3),
            CalibrationReport(STD, (STD, OTHER), 1024, "Q then P", "ok", "ok", ("a", "b"), True),
            OracleReport("vector-field", "0123456789abcdef", "fail", 0.0, 2, "x1*y1"),
            item,
            VerifyReport(2024, EngineConfig.default(), (item,)),
        ]
    return list(zip(build(), build()))


RECORDS = _records()
IDS = [type(a).__name__ for a, _ in RECORDS]


def _fields(rec):
    return tuple(getattr(rec, name) for name in rec._fields)


def test_there_are_eight_record_classes():
    assert len({type(a) for a, _ in RECORDS}) == 8
    assert all(isinstance(a, Record) for a, _ in RECORDS)


@pytest.mark.parametrize("rec, twin", RECORDS, ids=IDS)
def test_equality_is_by_type_and_fields_never_a_tuple(rec, twin):
    assert rec is not twin and rec == twin and not rec != twin
    values = _fields(rec)
    assert rec != values and values != rec
    assert rec != list(values)


def test_records_of_different_types_with_equal_fields_differ():
    class Pair(Record):
        _fields = ("dof", "convention")

        def __init__(self, dof, convention):
            self._freeze(dof, convention)

    sig = GroupSignature(1, STD)
    assert Pair(1, STD) != sig and sig != Pair(1, STD)
    assert GroupSignature(1, STD) != GroupSignature(1, OTHER)


@pytest.mark.parametrize("rec, twin", RECORDS, ids=IDS)
def test_hash_is_the_hash_of_the_field_tuple(rec, twin):
    assert hash(rec) == hash(twin) == hash(_fields(rec))


@pytest.mark.parametrize("rec, twin", RECORDS, ids=IDS)
def test_copy_deepcopy_and_pickle_round_trip(rec, twin):
    for back in (copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
        assert type(back) is type(rec)
        assert back == rec and hash(back) == hash(rec)
        assert _fields(back) == _fields(rec)


@pytest.mark.parametrize("rec, twin", RECORDS, ids=IDS)
def test_assignment_and_deletion_are_refused(rec, twin):
    name = rec._fields[0]
    with pytest.raises(AttributeError):
        setattr(rec, name, None)
    with pytest.raises(AttributeError):
        delattr(rec, name)
    with pytest.raises(AttributeError):
        rec.extra = 1
    assert rec == twin


def test_repr_is_the_dataclass_text():
    conv = ("ConventionTuple(eps_comm=CRat(re=Fraction(-1, 1), im=Fraction(0, 1)), "
            "kappa_x=CRat(re=Fraction(1, 1), im=Fraction(0, 1)), "
            "kappa_y=CRat(re=Fraction(1, 1), im=Fraction(0, 1)), "
            "kappa_s=CRat(re=Fraction(1, 1), im=Fraction(0, 1)), orient=-1, rep_s_sign=-1)")
    assert repr(GroupSignature(1)) == f"GroupSignature(dof=1, convention={conv})"
    item = VerifyItem("h_eff", "pass", "1/2", "1/2", ("at 1, 1",))
    assert repr(item) == ("VerifyItem(name='h_eff', status='pass', expected='1/2', "
                          "actual='1/2', detail=('at 1, 1',))")


def test_defaults_are_kept():
    assert GroupSignature(1).convention == STD
    assert EngineConfig(STD).dof == 1
    report = OracleReport("c", "h", "pass", 0.0)
    assert (report.failures, report.counterexample) == (0, "")
    assert VerifyItem("n", "pass", "e", "a").detail == ()


@pytest.mark.parametrize("build", [
    lambda: GroupSignature(1, "x"),
    lambda: GroupSignature(1, None),
    lambda: GroupSignature(2, STD.to_json()),
    lambda: EngineConfig("x", 1),
    lambda: EngineConfig(None),
], ids=["signature-str", "signature-None", "signature-json", "config-str", "config-None"])
def test_a_convention_that_is_not_a_convention_tuple_is_refused(build):
    with pytest.raises(ValueError, match=r"^convention must be a ConventionTuple, got "):
        build()


def _fresh(code: str) -> str:
    """stdout of code in a fresh interpreter, with no configuration file set."""
    env = {k: v for k, v in os.environ.items() if k != "PBRACKET_CONFIG"}
    done = subprocess.run([sys.executable, "-c", code, SRC],
                          capture_output=True, text=True, timeout=60, env=env)
    assert done.stderr == ""
    return done.stdout


def test_no_dataclasses_or_inspect_on_any_import():
    """Neither the CLI's import nor the verification layer's loads the
    dataclasses machinery (or inspect, which it pulls in)."""
    out = _fresh("import sys; sys.path.insert(0, sys.argv[1])\n"
                 "loaded = lambda: sorted({'dataclasses', 'inspect'} & set(sys.modules))\n"
                 "print(loaded())\n"
                 "import pbracket.cli\n"
                 "print(loaded())\n"
                 "import pbracket.verify, pbracket.oracle, pbracket.calibration\n"
                 "print(loaded())\n")
    lines = out.splitlines()
    if lines[0] != "[]":
        pytest.skip(f"the interpreter's startup already imports {lines[0]}")
    assert lines[1:] == ["[]", "[]"]


def test_a_plain_command_does_not_load_json():
    """json loads for --json output and config files only."""
    out = _fresh("import sys; sys.path.insert(0, sys.argv[1])\n"
                 "print('json' in sys.modules)\n"
                 "import pbracket.cli\n"
                 "code = pbracket.cli.main(['heff', '1', '1'])\n"
                 "print(code, 'json' in sys.modules)\n")
    lines = out.splitlines()
    if lines[0] == "True":
        pytest.skip("the interpreter's startup already imports json")
    assert lines[1:] == ["1/2", "0 False"]
