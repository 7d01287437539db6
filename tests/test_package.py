"""The package namespace: the core modules load with the package, the
verification modules (oracle, calibration, verify) on first use, and every
public name resolves either way."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import pbracket

_LAZY_MODULES = ("pbracket.calibration", "pbracket.oracle", "pbracket.sampling",
                 "pbracket.verify")


def test_public_api_on_a_fresh_import():
    """In a fresh interpreter: nothing of the verification layer loads with
    the package, dir() lists every public name, and a star import binds them
    all and loads the layer."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import pbracket\n"
            f"loaded = lambda: [m for m in {_LAZY_MODULES!r} if m in sys.modules]\n"
            "print(loaded())\n"
            "print(sorted(set(pbracket.__all__) - set(dir(pbracket))))\n"
            "ns = {}; exec('from pbracket import *', ns)\n"
            "print(sorted(set(pbracket.__all__) - set(ns)))\n"
            "print(loaded())\n")
    done = subprocess.run([sys.executable, "-c", code, src],
                          capture_output=True, text=True, timeout=60)
    assert done.stderr == ""
    assert done.stdout.splitlines() == ["[]", "[]", "[]", str(list(_LAZY_MODULES))]


def test_lazy_names_are_the_defining_modules_objects():
    """pbracket.run_verify is pbracket.verify.run_verify, and so on."""
    for name, module in pbracket._LAZY.items():
        owner = importlib.import_module(f"pbracket.{module}")
        assert getattr(pbracket, name) is getattr(owner, name), name
        assert name in dir(pbracket) and name in pbracket.__all__


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        pbracket.no_such_name
    assert not hasattr(pbracket, "run_verify_")


def test_core_names_stay_functions_after_the_verification_layer_loads():
    import pbracket.verify  # noqa: F401  (imports the qc_bracket module too)
    module = sys.modules["pbracket.qc_bracket"]
    assert pbracket.qc_bracket is module.qc_bracket
    assert callable(pbracket.qc_bracket)
