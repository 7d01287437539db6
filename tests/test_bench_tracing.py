"""The benchmark's tracing contract: every function perfbench/tracing.py
traces exists under the name it expects, so a renamed function fails here
instead of reading 0 for its layer in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pbracket.pmech as pmech

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_objects(tracing) -> dict:
    """Span name -> the object it wraps, as the package binds it now."""
    out = {}
    for name, (modname, attr) in tracing.TRACED.items():
        owner = importlib.import_module(modname)
        for part in attr.split("."):
            owner = getattr(owner, part)
        out[name] = owner
    return out


def test_tracer_finds_every_traced_function_and_restores_them():
    tracing = _load_tracing()
    before = _traced_objects(tracing)
    weyl_rule = pmech._RULES["weyl"]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
        during = _traced_objects(tracing)
        for name, original in before.items():
            assert during[name] is not original, name
            assert during[name].__wrapped__ is original, name
        # mechanise_plugin dispatches through the registry, traced as well
        assert pmech._RULES["weyl"].__wrapped__ is weyl_rule
    finally:
        tracer.uninstall()
    assert all(_traced_objects(tracing)[name] is obj for name, obj in before.items())
    assert pmech._RULES["weyl"] is weyl_rule
