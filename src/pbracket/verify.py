"""End-to-end verification suite behind the `verify paper` command.

Runs every anchored identity in a fixed order, renders pass/fail per item
with the expected and computed expressions, and never raises: any exception
inside an item becomes that item's failure.  For a fixed seed the rendered
report is identical byte for byte across runs; nothing time- or
machine-dependent is printed.
"""

from __future__ import annotations

import os
import random
import traceback
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Tuple

from .errors import DivisionByZero, SingularTransformation
from .scalars import Scalar
from .group_algebra import Element, commutator
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


def _failure_detail(rep: OracleReport) -> Tuple[str, ...]:
    """Detail lines naming an exact oracle's failures; empty on a pass."""
    if not rep.failures:
        return ()
    return (f"failing instances: {rep.failures}",
            f"first counterexample: {rep.counterexample}")


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
        w1, w2 = rep_qc(k1), rep_qc(k2)
        comm = commutator_hybrid(w1, w2).scale(INV_IH)
        comm_ok = comm == image
        deviation = matrix_max_error(image_w, closed, 1.0, 32)
        ok = image_w == closed and comm_ok and deviation <= 1e-10
        return VerifyItem(
            "biquadratic quantum-classical image", _status(ok),
            expected=str(closed), actual=str(image_w),
            detail=(f"calibrated order: {order_name}",
                    f"matches quantum commutator divided by i*hbar: "
                    f"{'yes' if comm_ok else 'no'}",
                    f"matrix realization deviation at dimension 32: {deviation:.3e}"),
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
        rng = random.Random(seed)
        holds = 0
        n = decoupling_instances
        for _ in range(n):
            h1 = sampling.rand_classical(rng, dof, max_degree=4, sectors=(1,))
            h2 = sampling.rand_classical(rng, dof, max_degree=4, sectors=(2,))
            b = sampling.rand_classical(rng, dof, max_degree=4, sectors=(2,))
            mb, mh1, mh2 = mech(b), mech(h1), mech(h2)
            comm_ok = commutator(mb, mh1).is_zero
            ub_ok = (universal_bracket(mb, mh1 + mh2)
                     == universal_bracket(mb, mh2))
            wb = rep_qc(mb)
            qc_ok = (qc_bracket(wb, rep_qc(mh1 + mh2))
                     == qc_bracket(wb, rep_qc(mh2)))
            if comm_ok and ub_ok and qc_ok:
                holds += 1
        return VerifyItem(
            "sector decoupling", _status(holds == n),
            expected=f"sector-1 terms leave sector-2 dynamics unchanged "
                     f"on {n} seeded instances",
            actual=f"{holds} of {n} instances hold",
            detail=(f"seed: {seed}",),
        )

    def item_path_equivalence() -> VerifyItem:
        rng = random.Random(seed + 1)
        holds = 0
        n = path_pairs
        for _ in range(n):
            f = sampling.rand_classical(rng, dof, max_degree=3)
            g = sampling.rand_classical(rng, dof, max_degree=3)
            k1, k2 = mech(f), mech(g)
            if bracket_via_universal(k1, k2) == qc_bracket(rep_qc(k1), rep_qc(k2)):
                holds += 1
        return VerifyItem(
            "path equivalence", _status(holds == n),
            expected=f"universal-bracket route equals bracket-of-images route "
                     f"on {n} mechanised pairs",
            actual=f"{holds} of {n} pairs agree",
            detail=(f"seed: {seed + 1}",
                    "compared at vanishing second Planck parameter (jet order 0)"),
        )

    def item_reductions() -> VerifyItem:
        rng = random.Random(seed + 2)
        n = reduction_pairs
        localized = 0
        for _ in range(n):
            f = sampling.rand_classical(rng, dof, max_degree=3, sectors=(1,))
            g = sampling.rand_classical(rng, dof, max_degree=3, sectors=(1,))
            _, t2, t3 = qc_bracket_terms(rep_qc(mech(f)), rep_qc(mech(g)))
            if t2.is_zero and t3.is_zero:
                localized += 1
        classical = 0
        for _ in range(n):
            f = sampling.rand_classical(rng, dof, max_degree=3, sectors=(2,))
            g = sampling.rand_classical(rng, dof, max_degree=3, sectors=(2,))
            actual = qc_bracket(rep_qc(mech(f)), rep_qc(mech(g)))
            # the image of the Poisson bracket, which is the polynomial
            # itself only when kx = ky = 1
            target = rep_qc(mech(poisson_classical(f, g))).jet_part(0)
            if actual == target:
                classical += 1
        ok = localized == n and classical == n
        return VerifyItem(
            "localized and classical reductions", _status(ok),
            expected=f"correction terms vanish on {n} quantum-sector pairs; "
                     f"bracket equals the Poisson bracket on {n} classical-sector pairs",
            actual=f"{localized} of {n} localized, {classical} of {n} classical",
            detail=(f"seed: {seed + 2}",),
        )

    def item_h_eff() -> VerifyItem:
        checks: List[Tuple[str, bool]] = []
        checks.append(("h_eff(1, 1) = 1/2", h_eff(1, 1) == Fraction(1, 2)))
        checks.append(("h_eff(2, 2) = 1", h_eff(2, 2) == Fraction(1)))
        checks.append(("h_eff(1/2, 1/3) = 1/5",
                       h_eff(Fraction(1, 2), Fraction(1, 3)) == Fraction(1, 5)))
        for a, b in ((1, 0), (0, 1), (0, 0)):
            try:
                h_eff(a, b)
                checks.append((f"h_eff({a}, {b}) raises SingularTransformation", False))
            except SingularTransformation:
                checks.append((f"h_eff({a}, {b}) raises SingularTransformation", True))
        try:
            h_eff(1, -1)
            checks.append(("h_eff(1, -1) raises DivisionByZero", False))
        except DivisionByZero:
            checks.append(("h_eff(1, -1) raises DivisionByZero", True))
        ok = all(flag for _, flag in checks)
        failing = [label for label, flag in checks if not flag]
        return VerifyItem(
            "effective planck constant", _status(ok),
            expected="; ".join(label for label, _ in checks),
            actual="all cases hold" if ok else "failing: " + "; ".join(failing),
        )

    def item_vector_field() -> VerifyItem:
        rep = check_vector_field_suite(sig, seed + 3, pairs=oracle_pairs)
        return VerifyItem(
            "vector-field oracle", rep.status,
            expected=f"convolution acts as composed differential operators "
                     f"on {oracle_pairs} random pairs",
            actual=f"status {rep.status}, max deviation {rep.max_abs_error:.3e}",
            detail=(f"seed: {seed + 3}", f"inputs-hash: {rep.inputs_hash}")
            + _failure_detail(rep),
        )

    def item_laws() -> VerifyItem:
        rep = check_algebra_laws(sig, seed + 4)
        return VerifyItem(
            "algebra-law suite", rep.status,
            expected="associativity, Jacobi, antisymmetry and normal-form "
                     "idempotence on 200 random instances",
            actual=f"status {rep.status}, max deviation {rep.max_abs_error:.3e}",
            detail=(f"seed: {seed + 4}", f"inputs-hash: {rep.inputs_hash}")
            + _failure_detail(rep),
        )

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
