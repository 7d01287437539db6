"""Spans recorded around calls into the program's public functions.

Tracing works from outside the program: ``Tracer.install`` replaces each
traced function with a timing wrapper in every ``pbracket`` module that binds
it (and a method on its class), and ``uninstall`` puts the originals back.
A span carries its name, start, end and the index of its parent span; self
time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

# Prefix of the stderr line on which a traced CLI child reports its spans.
SPAN_MARKER = "PERFBENCH-SPANS "

# Span name -> (module, attribute).  A dotted attribute is a method.
TRACED = {
    "group_algebra.commutator": ("pbracket.group_algebra", "commutator"),
    "pmech.mechanise_weyl": ("pbracket.pmech", "mechanise_weyl"),
    "pmech.apply_antiderivative": ("pbracket.pmech", "apply_antiderivative"),
    "representations.rep_qc": ("pbracket.representations", "rep_qc"),
    "representations.rep_qq": ("pbracket.representations", "rep_qq"),
    "representations.weyl_mul": ("pbracket.representations", "WeylOperator.__mul__"),
    "qc_bracket.qc_bracket": ("pbracket.qc_bracket", "qc_bracket"),
    "calibration.calibration_report": ("pbracket.calibration", "calibration_report"),
    "oracle.check_vector_field_suite": ("pbracket.oracle", "check_vector_field_suite"),
    "oracle.check_algebra_laws": ("pbracket.oracle", "check_algebra_laws"),
    "oracle.check_matrix_suite": ("pbracket.oracle", "check_matrix_suite"),
    "verify.run_verify": ("pbracket.verify", "run_verify"),
    "expressions.evaluate": ("pbracket.expressions", "evaluate"),
    "cli.main": ("pbracket.cli", "main"),
}


def _terms(value) -> int:
    """Number of terms in an engine result, summed over AObservable parts."""
    if hasattr(value, "terms"):
        return len(value.terms)
    return sum(len(getattr(value, part).terms) for part in ("plain", "a1_part", "a2_part"))


# Span name -> what its results add to the span's counters.
COUNTERS: Dict[str, Callable[[object], Dict[str, int]]] = {
    "group_algebra.commutator": lambda r: {"terms_out": _terms(r)},
    "pmech.mechanise_weyl": lambda r: {"terms_out": _terms(r)},
    "representations.rep_qc": lambda r: {"terms_out": _terms(r)},
    "representations.rep_qq": lambda r: {"terms_out": _terms(r)},
    "qc_bracket.qc_bracket": lambda r: {"terms_out": _terms(r)},
    "calibration.calibration_report": lambda r: {"candidates": r.candidates,
                                                 "passing": len(r.passing)},
}


class Tracer:
    def __init__(self, on_result: Optional[Callable[[str, tuple, object], None]] = None):
        self.spans: List[list] = []          # [name, start, end, parent]
        self.counters: Dict[str, Dict[str, int]] = {}
        self._stack: List[int] = []
        self._patched: List[tuple] = []
        self._on_result = on_result
        self.missing: List[str] = []

    # -- recording -------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        count = COUNTERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if count is not None:
                acc = tracer.counters.setdefault(name, {})
                for key, n in count(result).items():
                    acc[key] = acc.get(key, 0) + n
            if tracer._on_result is not None:
                tracer._on_result(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installing wrappers --------------------------------------------

    def install(self) -> None:
        """Wrap every traced function that exists; the rest are listed in
        ``missing`` and their layers read 0."""
        import pbracket.pmech as pmech
        for name, (modname, attr) in TRACED.items():
            owner = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name, None)
                original = getattr(cls, meth, None)
                if original is None:
                    self.missing.append(name)
                    continue
                self._patched.append((cls, meth, cls.__dict__.get(meth)))
                setattr(cls, meth, self.wrap(name, original))
                continue
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapped = self.wrap(name, original)
            for modname2, module in list(sys.modules.items()):
                if modname2 != "pbracket" and not modname2.startswith("pbracket."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapped)
        # mechanise_plugin dispatches through the rule registry.
        pmech.register_rule("weyl", pmech.mechanise_weyl)

    def uninstall(self) -> None:
        import pbracket.pmech as pmech
        for owner, key, original in reversed(self._patched):
            if original is None:
                delattr(owner, key)         # the method was inherited
            else:
                setattr(owner, key, original)
        self._patched.clear()
        pmech.register_rule("weyl", pmech.mechanise_weyl)

    # -- summaries -------------------------------------------------------

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive and self seconds, counters."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, Dict[str, float]] = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[i]
        for name, counts in self.counters.items():
            out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}).update(counts)
        return out


def merge(into: Dict[str, Dict[str, float]], summary: Dict[str, Dict[str, float]]) -> None:
    for name, row in summary.items():
        acc = into.setdefault(name, {})
        for key, value in row.items():
            acc[key] = acc.get(key, 0) + value
