"""End-to-end verification suite behind the `verify paper` command.

Runs every anchored identity in a fixed order, renders pass/fail per item
with the expected and computed expressions, and never raises: any exception
inside an item becomes that item's failure.  For a fixed seed the rendered
report is identical byte for byte across runs; nothing time- or
machine-dependent is printed.
"""

from __future__ import annotations

import math
import os
import random
import traceback
from fractions import Fraction
from typing import Callable, Optional, Sequence, Tuple

from .errors import DivisionByZero, SingularTransformation, UnsupportedConvention
from .scalars import Scalar
from .group_algebra import Element, GroupSignature, commutator
from .pmech import ClassicalPoly, mechanise_weyl, poisson_classical, universal_bracket
from .representations import (WeylOperator, commutator_hybrid, qc_algebra,
                              qq_algebra, rep_qc, rep_qq)
from .qc_bracket import (INV_IH, bracket_via_universal, h_eff, qc_bracket,
                         qc_bracket_terms)
from .oracle import (ALGEBRA_LAWS, MATRIX_DIM, MATRIX_TOL, VF_PAIRS, OracleReport,
                     check_algebra_laws, check_matrix_suite, check_vector_field_suite,
                     matrix_max_error)
from .calibration import (bracket_target, calibration_report, commutator_target,
                          ordered_image)
from .config import EngineConfig
from .terms import Record
from . import sampling

__all__ = ["VerifyItem", "VerifyReport", "run_verify"]

# Instances each sampled item draws from its seed.
_DECOUPLING_INSTANCES = 50
_PATH_PAIRS = 50
_REDUCTION_PAIRS = 25


class VerifyItem(Record):
    _fields = ("name", "status", "expected", "actual", "detail")

    def __init__(self, name: str, status: str, expected: str, actual: str,
                 detail: Tuple[str, ...] = ()):
        self._freeze(name, status, expected, actual, detail)

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "expected": self.expected,
            "actual": self.actual,
            "detail": list(self.detail),
        }


class VerifyReport(Record):
    _fields = ("seed", "config", "items")

    def __init__(self, seed: int, config: EngineConfig, items: Tuple[VerifyItem, ...]):
        self._freeze(seed, config, items)

    @property
    def ok(self) -> bool:
        return all(item.ok for item in self.items)

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "config": self.config.to_json(),
            "items": [item.to_json() for item in self.items],
            "ok": self.ok,
        }

    def render(self) -> str:
        lines = [
            "verify paper",
            "============",
            f"configuration: dof={self.config.dof}, convention {self.config.convention}",
            f"seed: {self.seed}",
            "",
        ]
        for item in self.items:
            tag = "PASS" if item.ok else "FAIL"
            lines.append(f"[{tag}] {item.name}")
            lines.append(f"       expected: {item.expected}")
            lines.append(f"       actual:   {item.actual}")
            for d in item.detail:
                lines.append(f"       - {d}")
            lines.append("")
        passed = sum(1 for item in self.items if item.ok)
        lines.append(f"summary: {passed} of {len(self.items)} items pass")
        return "\n".join(lines)


def _run(name: str, check: Callable[[GroupSignature, int], tuple], sig: GroupSignature,
         seed: int) -> VerifyItem:
    """The item of ``check(sig, seed)``, which returns ``(ok, expected, actual,
    *detail)``; an exception inside the check is the item's failure."""
    try:
        ok, expected, actual, *detail = check(sig, seed)
    except Exception as exc:                          # noqa: BLE001 - report, never panic
        return VerifyItem(name, "fail", expected="computation completes",
                          actual=f"{type(exc).__name__}: {exc}",
                          detail=(_raised_at(exc),))
    return VerifyItem(name, "pass" if ok else "fail", expected, actual, tuple(detail))


def _raised_at(exc: Exception) -> str:
    """Where an exception was raised: the innermost traceback frame inside
    this package, by file basename so the report stays machine-independent."""
    package = os.path.dirname(os.path.abspath(__file__))
    inside = [(frame, line) for frame, line in traceback.walk_tb(exc.__traceback__)
              if os.path.dirname(os.path.abspath(frame.f_code.co_filename)) == package]
    frame, line = inside[-1]          # _run's own frame is always there
    return (f"raised at {os.path.basename(frame.f_code.co_filename)}:{line} "
            f"in {frame.f_code.co_name}")


def _failure_detail(rep: OracleReport) -> Tuple[str, ...]:
    """How many instances of an oracle row failed and the first of them."""
    return ((f"failing instances: {rep.failures}",
             f"first counterexample: {rep.counterexample}") if rep.failures else ())


def _oracle(expected: str, suite: Callable[[GroupSignature, int], OracleReport],
            sig: GroupSignature, seed: int) -> tuple:
    """The result of an exact oracle suite run from ``seed``."""
    rep = suite(sig, seed)
    return (rep.ok, expected, f"status {rep.status}, max deviation {rep.max_abs_error:.3e}",
            f"seed: {seed}", f"inputs-hash: {rep.inputs_hash}", *_failure_detail(rep))


def _holds(rng: random.Random, n: int, dof: int, shapes: Sequence[Tuple[int, Sequence[int]]],
           check: Callable[..., bool]) -> int:
    """How many of n seeded instances pass ``check``.  Each instance draws
    one classical polynomial per ``(max_degree, sectors)`` shape, in order."""
    return sum(1 for _ in range(n)
               if check(*[sampling.rand_classical(rng, dof, max_degree=degree, sectors=sectors)
                          for degree, sectors in shapes]))


# the arguments of h_eff and its value, or the error it raises
_H_EFF_CASES = (((1, 1), Fraction(1, 2)), ((2, 2), Fraction(1)),
                ((Fraction(1, 2), Fraction(1, 3)), Fraction(1, 5)),
                ((1, 0), SingularTransformation), ((0, 1), SingularTransformation),
                ((0, 0), SingularTransformation), ((1, -1), DivisionByZero))


def _h_eff_case(args: Tuple, expected: object) -> Tuple[str, bool]:
    """One h_eff case's label and whether it holds; catches only the expected error."""
    call = "h_eff({}, {})".format(*args)
    if not isinstance(expected, type):
        return f"{call} = {expected}", h_eff(*args) == expected
    label = f"{call} raises {expected.__name__}"
    try:
        h_eff(*args)
    except expected:
        return label, True
    return label, False


def _biquadratic(sig: GroupSignature) -> Tuple[Element, Element]:
    """The mechanised q1^2 and p1^2."""
    return tuple(mechanise_weyl(sig, ClassicalPoly.var(sig.dof, name, 1) ** 2)
                 for name in "qp")


def _calibration(sig: GroupSignature, seed: int) -> tuple:
    rep = calibration_report(sig.dof)
    return (rep.chosen == sig.convention, f"chosen tuple {sig.convention}",
            f"{rep.chosen} ({len(rep.passing)} of {rep.candidates} candidates pass)",
            f"calibrated order: {rep.matched_order}",
            f"passing tuples downstream-equivalent: "
            f"{'yes' if rep.downstream_equivalent else 'no'}")


def _commutator(sig: GroupSignature, seed: int) -> tuple:
    actual, target = commutator(*_biquadratic(sig)), commutator_target(sig)
    return actual == target, str(target), str(actual)


def _universal_bracket(sig: GroupSignature, seed: int) -> tuple:
    actual, target = universal_bracket(*_biquadratic(sig)), bracket_target(sig)
    return actual == target, str(target), str(actual)


def _qc_image(sig: GroupSignature, seed: int) -> tuple:
    k1, k2 = _biquadratic(sig)
    image = bracket_via_universal(k1, k2)
    image_w = image.as_weyl()
    order_name = "PQ" if sig.convention.anti_normal_order else "QP"
    closed = ordered_image(qc_algebra(sig), order_name)
    comm_ok = commutator_hybrid(rep_qc(k1), rep_qc(k2)).scale(INV_IH) == image
    try:
        deviation = matrix_max_error(image_w, closed)
        measured = f"{deviation:.3e}"
    except UnsupportedConvention as exc:
        deviation, measured = math.inf, f"not computed (UnsupportedConvention: {exc})"
    return (image_w == closed and comm_ok and deviation <= MATRIX_TOL, str(closed), str(image_w),
            f"calibrated order: {order_name}",
            f"matches quantum commutator divided by i*hbar: {'yes' if comm_ok else 'no'}",
            f"matrix realization deviation at dimension {MATRIX_DIM}: {measured}")


def _scaling(sig: GroupSignature, seed: int) -> tuple:
    alg = qq_algebra(sig)
    targets, images = [], []
    for j in (1, 2):
        kq, kp = (mechanise_weyl(sig, ClassicalPoly.var(sig.dof, name, j)) for name in "qp")
        images.append(rep_qq(universal_bracket(kq, kp)))
        factor = (Scalar.symbol("h1") + Scalar.symbol("h2")) / Scalar.symbol(f"h{3 - j}")
        targets.append(WeylOperator.identity(alg).scale(factor))
    return (images == targets,
            "; ".join(f"sector {j}: {t}" for j, t in zip((1, 2), targets)),
            "; ".join(f"sector {j}: {w}" for j, w in zip((1, 2), images)))


def _decoupling(sig: GroupSignature, seed: int) -> tuple:
    def decouples(h1: ClassicalPoly, h2: ClassicalPoly, b: ClassicalPoly) -> bool:
        mb, mh1, mh2 = (mechanise_weyl(sig, f) for f in (b, h1, h2))
        comm_ok = commutator(mb, mh1).is_zero
        ub_ok = universal_bracket(mb, mh1 + mh2) == universal_bracket(mb, mh2)
        wb = rep_qc(mb)
        qc_ok = qc_bracket(wb, rep_qc(mh1 + mh2)) == qc_bracket(wb, rep_qc(mh2))
        return comm_ok and ub_ok and qc_ok

    n = _DECOUPLING_INSTANCES
    holds = _holds(random.Random(seed), n, sig.dof, ((4, (1,)), (4, (2,)), (4, (2,))),
                   decouples)
    return (holds == n,
            f"sector-1 terms leave sector-2 dynamics unchanged on {n} seeded instances",
            f"{holds} of {n} instances hold", f"seed: {seed}")


def _path_equivalence(sig: GroupSignature, seed: int) -> tuple:
    def agree(f: ClassicalPoly, g: ClassicalPoly) -> bool:
        k1, k2 = mechanise_weyl(sig, f), mechanise_weyl(sig, g)
        return bracket_via_universal(k1, k2) == qc_bracket(rep_qc(k1), rep_qc(k2))

    n, seed = _PATH_PAIRS, seed + 1
    holds = _holds(random.Random(seed), n, sig.dof, ((3, (1, 2)), (3, (1, 2))), agree)
    return (holds == n,
            f"universal-bracket route equals bracket-of-images route on {n} mechanised pairs",
            f"{holds} of {n} pairs agree", f"seed: {seed}",
            "compared at vanishing second Planck parameter (jet order 0)")


def _reductions(sig: GroupSignature, seed: int) -> tuple:
    def localizes(f: ClassicalPoly, g: ClassicalPoly) -> bool:
        _, t2, t3 = qc_bracket_terms(rep_qc(mechanise_weyl(sig, f)),
                                     rep_qc(mechanise_weyl(sig, g)))
        return t2.is_zero and t3.is_zero

    def is_classical(f: ClassicalPoly, g: ClassicalPoly) -> bool:
        # the image of the Poisson bracket, which is the polynomial
        # itself only when kx = ky = 1
        return (qc_bracket(rep_qc(mechanise_weyl(sig, f)), rep_qc(mechanise_weyl(sig, g)))
                == rep_qc(mechanise_weyl(sig, poisson_classical(f, g))).jet_part(0))

    n, seed = _REDUCTION_PAIRS, seed + 2
    rng = random.Random(seed)
    localized = _holds(rng, n, sig.dof, ((3, (1,)), (3, (1,))), localizes)
    classical = _holds(rng, n, sig.dof, ((3, (2,)), (3, (2,))), is_classical)
    return (localized == n and classical == n,
            f"correction terms vanish on {n} quantum-sector pairs; "
            f"bracket equals the Poisson bracket on {n} classical-sector pairs",
            f"{localized} of {n} localized, {classical} of {n} classical", f"seed: {seed}")


def _h_eff(sig: GroupSignature, seed: int) -> tuple:
    checks = [_h_eff_case(args, expected) for args, expected in _H_EFF_CASES]
    failing = [label for label, holds in checks if not holds]
    return (not failing, "; ".join(label for label, _ in checks),
            "failing: " + "; ".join(failing) if failing else "all cases hold")


def _vector_field(sig: GroupSignature, seed: int) -> tuple:
    return _oracle(f"convolution acts as composed differential operators "
                   f"on {VF_PAIRS} random pairs",
                   check_vector_field_suite, sig, seed + 3)


def _laws(sig: GroupSignature, seed: int) -> tuple:
    return _oracle(f"associativity, Jacobi, antisymmetry and normal-form idempotence "
                   f"on {sum(count for _, count, *_ in ALGEBRA_LAWS)} random instances",
                   check_algebra_laws, sig, seed + 4)


def _matrix(sig: GroupSignature, seed: int) -> tuple:
    reps = check_matrix_suite(sig)
    return (all(r.ok for r in reps),
            "operator identities hold on truncated ladder matrices "
            f"(tolerance {MATRIX_TOL} at dimension {MATRIX_DIM})",
            f"{sum(1 for r in reps if r.ok)} of {len(reps)} checks pass, "
            f"max deviation {max(r.max_abs_error for r in reps):.3e}",
            *(line for r in reps
              for line in (f"{r.check}: {r.status} ({r.max_abs_error:.3e}), "
                           f"inputs-hash {r.inputs_hash}", *_failure_detail(r))))


# The report's items, in order.
_ITEMS = (
    ("convention calibration", _calibration),
    ("biquadratic commutator", _commutator),
    ("biquadratic universal bracket", _universal_bracket),
    ("biquadratic quantum-classical image", _qc_image),
    ("two-sector scaling identity", _scaling),
    ("sector decoupling", _decoupling),
    ("path equivalence", _path_equivalence),
    ("localized and classical reductions", _reductions),
    ("effective planck constant", _h_eff),
    ("vector-field oracle", _vector_field),
    ("algebra-law suite", _laws),
    ("matrix oracle", _matrix),
)


def run_verify(seed: int = 2024, config: Optional[EngineConfig] = None) -> VerifyReport:
    cfg = config if config is not None else EngineConfig.default()
    sig = cfg.signature()
    return VerifyReport(seed=seed, config=cfg,
                        items=tuple(_run(name, check, sig, seed) for name, check in _ITEMS))
