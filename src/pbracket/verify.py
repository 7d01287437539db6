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
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

from .errors import DivisionByZero, SingularTransformation, UnsupportedConvention
from .scalars import Scalar
from .group_algebra import Element, GroupSignature, commutator
from .pmech import ClassicalPoly, mechanise_weyl, poisson_classical, universal_bracket
from .representations import (WeylOperator, commutator_hybrid, qc_algebra,
                              qq_algebra, rep_qc, rep_qq)
from .qc_bracket import (INV_IH, bracket_via_universal, h_eff, qc_bracket,
                         qc_bracket_terms)
from .oracle import (OracleReport, check_algebra_laws, check_matrix_suite,
                     check_vector_field_suite, matrix_max_error)
from .calibration import (bracket_target, calibration_report, commutator_target,
                          ordered_image)
from .config import EngineConfig
from . import sampling

__all__ = ["VerifyItem", "VerifyReport", "run_verify"]


@dataclass(frozen=True)
class VerifyItem:
    name: str
    status: str
    expected: str
    actual: str
    detail: Tuple[str, ...] = ()

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


@dataclass(frozen=True)
class VerifyReport:
    seed: int
    config: EngineConfig
    items: Tuple[VerifyItem, ...]

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


def _guard(name: str, fn: Callable[[], VerifyItem]) -> VerifyItem:
    try:
        return fn()
    except Exception as exc:                          # noqa: BLE001 - report, never panic
        return VerifyItem(name, "fail", expected="computation completes",
                          actual=f"{type(exc).__name__}: {exc}",
                          detail=(_raised_at(exc),))


def _raised_at(exc: Exception) -> str:
    """Where an exception was raised: the innermost traceback frame inside
    this package, by file basename so the report stays machine-independent."""
    package = os.path.dirname(os.path.abspath(__file__))
    inside = [(frame, line) for frame, line in traceback.walk_tb(exc.__traceback__)
              if os.path.dirname(os.path.abspath(frame.f_code.co_filename)) == package]
    frame, line = inside[-1]          # _guard's own frame is always there
    return (f"raised at {os.path.basename(frame.f_code.co_filename)}:{line} "
            f"in {frame.f_code.co_name}")


def _status(ok: bool) -> str:
    return "pass" if ok else "fail"


def _oracle_item(name: str, expected: str, check: Callable[..., OracleReport],
                 sig: GroupSignature, seed: int, **options) -> VerifyItem:
    """The item of an exact oracle suite run from ``seed``; its detail
    names the failures, if any."""
    rep = check(sig, seed, **options)
    failures = ((f"failing instances: {rep.failures}",
                 f"first counterexample: {rep.counterexample}") if rep.failures else ())
    return VerifyItem(name, rep.status, expected=expected,
                      actual=f"status {rep.status}, max deviation {rep.max_abs_error:.3e}",
                      detail=(f"seed: {seed}", f"inputs-hash: {rep.inputs_hash}") + failures)


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


def run_verify(seed: int = 2024, config: Optional[EngineConfig] = None,
               decoupling_instances: int = 50, path_pairs: int = 50,
               reduction_pairs: int = 25, oracle_pairs: int = 100) -> VerifyReport:
    cfg = config if config is not None else EngineConfig.default()
    sig = cfg.signature()
    dof = cfg.dof

    def mech(f: ClassicalPoly) -> Element:
        return mechanise_weyl(sig, f)

    q1sq = ClassicalPoly.var(dof, "q", 1) ** 2
    p1sq = ClassicalPoly.var(dof, "p", 1) ** 2

    def item_calibration() -> VerifyItem:
        rep = calibration_report(dof)
        ok = rep.chosen == cfg.convention
        eq = "yes" if rep.downstream_equivalent else "no"
        return VerifyItem(
            "convention calibration", _status(ok),
            expected=f"chosen tuple {cfg.convention}",
            actual=f"{rep.chosen} ({len(rep.passing)} of {rep.candidates} candidates pass)",
            detail=(f"calibrated order: {rep.matched_order}",
                    f"passing tuples downstream-equivalent: {eq}"),
        )

    def item_commutator() -> VerifyItem:
        actual = commutator(mech(q1sq), mech(p1sq))
        target = commutator_target(sig)
        return VerifyItem("biquadratic commutator", _status(actual == target),
                          expected=str(target), actual=str(actual))

    def item_universal_bracket() -> VerifyItem:
        actual = universal_bracket(mech(q1sq), mech(p1sq))
        target = bracket_target(sig)
        return VerifyItem("biquadratic universal bracket",
                          _status(actual == target),
                          expected=str(target), actual=str(actual))

    def item_qc_image() -> VerifyItem:
        k1, k2 = mech(q1sq), mech(p1sq)
        image = bracket_via_universal(k1, k2)
        image_w = image.as_weyl()
        order_name = "PQ" if sig.convention.anti_normal_order else "QP"
        closed = ordered_image(qc_algebra(sig), order_name)
        comm_ok = commutator_hybrid(rep_qc(k1), rep_qc(k2)).scale(INV_IH) == image
        try:
            deviation = matrix_max_error(image_w, closed, 1.0, 32)
            measured = f"{deviation:.3e}"
        except UnsupportedConvention as exc:
            deviation, measured = math.inf, f"not computed (UnsupportedConvention: {exc})"
        ok = image_w == closed and comm_ok and deviation <= 1e-10
        return VerifyItem(
            "biquadratic quantum-classical image", _status(ok),
            expected=str(closed), actual=str(image_w),
            detail=(f"calibrated order: {order_name}",
                    f"matches quantum commutator divided by i*hbar: "
                    f"{'yes' if comm_ok else 'no'}",
                    f"matrix realization deviation at dimension 32: {measured}"),
        )

    def item_scaling() -> VerifyItem:
        rendered_exp: List[str] = []
        rendered_act: List[str] = []
        ok = True
        alg = qq_algebra(sig)
        for j in (1, 2):
            kq = mech(ClassicalPoly.var(dof, "q", j))
            kp = mech(ClassicalPoly.var(dof, "p", j))
            image = rep_qq(universal_bracket(kq, kp))
            other = 3 - j
            factor = ((Scalar.symbol("h1") + Scalar.symbol("h2"))
                      / Scalar.symbol(f"h{other}"))
            target = WeylOperator.identity(alg).scale(factor)
            ok = ok and image == target
            rendered_exp.append(f"sector {j}: {target}")
            rendered_act.append(f"sector {j}: {image}")
        return VerifyItem("two-sector scaling identity", _status(ok),
                          expected="; ".join(rendered_exp),
                          actual="; ".join(rendered_act))

    def item_decoupling() -> VerifyItem:
        def decouples(h1: ClassicalPoly, h2: ClassicalPoly, b: ClassicalPoly) -> bool:
            mb, mh1, mh2 = mech(b), mech(h1), mech(h2)
            comm_ok = commutator(mb, mh1).is_zero
            ub_ok = universal_bracket(mb, mh1 + mh2) == universal_bracket(mb, mh2)
            wb = rep_qc(mb)
            qc_ok = qc_bracket(wb, rep_qc(mh1 + mh2)) == qc_bracket(wb, rep_qc(mh2))
            return comm_ok and ub_ok and qc_ok

        n = decoupling_instances
        holds = _holds(random.Random(seed), n, dof, ((4, (1,)), (4, (2,)), (4, (2,))),
                       decouples)
        return VerifyItem(
            "sector decoupling", _status(holds == n),
            expected=f"sector-1 terms leave sector-2 dynamics unchanged "
                     f"on {n} seeded instances",
            actual=f"{holds} of {n} instances hold",
            detail=(f"seed: {seed}",),
        )

    def item_path_equivalence() -> VerifyItem:
        def agree(f: ClassicalPoly, g: ClassicalPoly) -> bool:
            k1, k2 = mech(f), mech(g)
            return bracket_via_universal(k1, k2) == qc_bracket(rep_qc(k1), rep_qc(k2))

        n = path_pairs
        holds = _holds(random.Random(seed + 1), n, dof, ((3, (1, 2)), (3, (1, 2))), agree)
        return VerifyItem(
            "path equivalence", _status(holds == n),
            expected=f"universal-bracket route equals bracket-of-images route "
                     f"on {n} mechanised pairs",
            actual=f"{holds} of {n} pairs agree",
            detail=(f"seed: {seed + 1}",
                    "compared at vanishing second Planck parameter (jet order 0)"),
        )

    def item_reductions() -> VerifyItem:
        def localizes(f: ClassicalPoly, g: ClassicalPoly) -> bool:
            _, t2, t3 = qc_bracket_terms(rep_qc(mech(f)), rep_qc(mech(g)))
            return t2.is_zero and t3.is_zero

        def is_classical(f: ClassicalPoly, g: ClassicalPoly) -> bool:
            actual = qc_bracket(rep_qc(mech(f)), rep_qc(mech(g)))
            # the image of the Poisson bracket, which is the polynomial
            # itself only when kx = ky = 1
            return actual == rep_qc(mech(poisson_classical(f, g))).jet_part(0)

        rng = random.Random(seed + 2)
        n = reduction_pairs
        localized = _holds(rng, n, dof, ((3, (1,)), (3, (1,))), localizes)
        classical = _holds(rng, n, dof, ((3, (2,)), (3, (2,))), is_classical)
        return VerifyItem(
            "localized and classical reductions", _status(localized == n and classical == n),
            expected=f"correction terms vanish on {n} quantum-sector pairs; "
                     f"bracket equals the Poisson bracket on {n} classical-sector pairs",
            actual=f"{localized} of {n} localized, {classical} of {n} classical",
            detail=(f"seed: {seed + 2}",),
        )

    def item_h_eff() -> VerifyItem:
        checks = [_h_eff_case(args, expected) for args, expected in _H_EFF_CASES]
        failing = [label for label, flag in checks if not flag]
        return VerifyItem(
            "effective planck constant", _status(not failing),
            expected="; ".join(label for label, _ in checks),
            actual="failing: " + "; ".join(failing) if failing else "all cases hold",
        )

    def item_vector_field() -> VerifyItem:
        return _oracle_item("vector-field oracle",
                            f"convolution acts as composed differential operators "
                            f"on {oracle_pairs} random pairs",
                            check_vector_field_suite, sig, seed + 3, pairs=oracle_pairs)

    def item_laws() -> VerifyItem:
        return _oracle_item("algebra-law suite",
                            "associativity, Jacobi, antisymmetry and normal-form "
                            "idempotence on 200 random instances",
                            check_algebra_laws, sig, seed + 4)

    def item_matrix() -> VerifyItem:
        reps = check_matrix_suite(sig)
        ok = all(r.ok for r in reps)
        worst = max(r.max_abs_error for r in reps)
        return VerifyItem(
            "matrix oracle", _status(ok),
            expected="operator identities hold on truncated ladder matrices "
                     "(tolerance 1e-10 at dimension 32)",
            actual=f"{sum(1 for r in reps if r.ok)} of {len(reps)} checks pass, "
                   f"max deviation {worst:.3e}",
            detail=tuple(f"{r.check}: {r.status} ({r.max_abs_error:.3e}), "
                         f"inputs-hash {r.inputs_hash}" for r in reps),
        )

    items = (
        _guard("convention calibration", item_calibration),
        _guard("biquadratic commutator", item_commutator),
        _guard("biquadratic universal bracket", item_universal_bracket),
        _guard("biquadratic quantum-classical image", item_qc_image),
        _guard("two-sector scaling identity", item_scaling),
        _guard("sector decoupling", item_decoupling),
        _guard("path equivalence", item_path_equivalence),
        _guard("localized and classical reductions", item_reductions),
        _guard("effective planck constant", item_h_eff),
        _guard("vector-field oracle", item_vector_field),
        _guard("algebra-law suite", item_laws),
        _guard("matrix oracle", item_matrix),
    )
    return VerifyReport(seed=seed, config=cfg, items=items)
