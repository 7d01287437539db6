"""Exhaustive calibration of the free sign and unit conventions.

The algebraic relations leave six choices open: the structure constant
eps_comm in [X, Y] = eps_comm*S, the three kappa factors translating delta
derivatives into generators, the commutator orientation, and the sign of the
scalar image of the central generators.  None of them is forced individually,
but two anchor identities pin the physically meaningful combinations:

(i)  the biquadratic commutator identity
         commutator(delta''[x1,x1], delta''[y1,y1])
             = 4*delta[x1,y1,s1] + 2*delta[s1,s1]

(ii) the full biquadratic pipeline: mechanise q1^2 and p1^2, take the
     universal bracket, and push through the quantum-quantum-side
     representation of sector 1.  Three checkpoints, all quoted forms:
       (a) the bracket has plain part 4*delta[x1,y1] + 2*delta[s1] and
           second-antiderivative part equal to the commutator above;
       (b) the represented image equals 4*(ordered product of Q and P)
           + 2i*hbar*Identity for one of the two written orders, which
           becomes the calibrated order;
       (c) the image equals (1/(i*hbar)) * [Q^2 image, P^2 image].

calibrate_conventions decides all 1024 candidate tuples by class (see
calibration_report), returns the lexicographically first tuple satisfying
both identities, and reports every passing tuple.  The search is
deterministic, so the report renders byte for byte identically across runs.
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Tuple

from .errors import NoConsistentConvention
from .scalars import CRat, CR_I, CR_ONE, Scalar, scalar, UNIT_VALUES
from .group_algebra import ConventionTuple, Element, GroupSignature, commutator
from .pmech import AObservable, ClassicalPoly, mechanise_weyl, universal_bracket
from .representations import (HybridObservable, WeylAlgebra, WeylOperator,
                              commutator_hybrid, qc_algebra, rep_qc)
from .qc_bracket import INV_IH, classicality_gap
from .terms import Record

__all__ = ["CalibrationReport", "calibrate_conventions", "calibration_report"]

_SIGNS = (1, -1)


class CalibrationReport(Record):
    _fields = ("chosen", "passing", "candidates", "matched_order", "commutator_line",
               "pipeline_line", "downstream_fingerprints", "downstream_equivalent")

    def __init__(self, chosen: ConventionTuple, passing: Tuple[ConventionTuple, ...],
                 candidates: int, matched_order: str, commutator_line: str, pipeline_line: str,
                 downstream_fingerprints: Tuple[str, ...], downstream_equivalent: bool):
        self._freeze(chosen, passing, candidates, matched_order, commutator_line,
                     pipeline_line, downstream_fingerprints, downstream_equivalent)

    def to_json(self) -> dict:
        return {
            "chosen": self.chosen.to_json(),
            "passing": [t.to_json() for t in self.passing],
            "candidates": self.candidates,
            "matched_order": self.matched_order,
            "commutator_identity": self.commutator_line,
            "pipeline_identity": self.pipeline_line,
            "downstream_fingerprints": list(self.downstream_fingerprints),
            "downstream_equivalent": self.downstream_equivalent,
        }

    def render(self) -> str:
        lines = [
            "convention calibration",
            f"  candidates searched : {self.candidates}",
            f"  tuples passing      : {len(self.passing)}",
        ]
        lines += [f"    {t}{' (chosen)' if t == self.chosen else ''}" for t in self.passing]
        lines.append(f"  calibrated order    : {self.matched_order}")
        lines.append(f"  commutator identity : {self.commutator_line}")
        lines.append(f"  pipeline identity   : {self.pipeline_line}")
        lines.append("  downstream bracket fingerprints (gap of q1^2 against p1):")
        lines += [f"    {t} -> {fp}" for t, fp in zip(self.passing, self.downstream_fingerprints)]
        eq = "yes" if self.downstream_equivalent else "no"
        lines.append(f"  passing tuples downstream-equivalent: {eq}")
        return "\n".join(lines)


def _kernels(sig: GroupSignature, weights: dict) -> Element:
    """Sum of sector-1 delta kernels {(s, x, y): weight}: the weight times
    S1^s X11^x Y11^y (a key's first four exponents) and its kappa factor."""
    keys = {(s, 0, x, y) + (0,) * (sig.width - 4): w for (s, x, y), w in weights.items()}
    return Element(sig, {k: scalar(w * sig.unit_factor(k)) for k, w in keys.items()})


def commutator_target(sig: GroupSignature) -> Element:
    """4*delta[x1,y1,s1] + 2*delta[s1,s1], the commutator of the mechanised
    q1^2 and p1^2 (anchor (i))."""
    return _kernels(sig, {(1, 1, 1): 4, (2, 0, 0): 2})


def bracket_target(sig: GroupSignature) -> AObservable:
    """The universal bracket of the mechanised q1^2 and p1^2 (checkpoint
    (a)): plain part 4*delta[x1,y1] + 2*delta[s1], no A1 part, and the
    commutator target as the A2 part."""
    plain = _kernels(sig, {(0, 1, 1): 4, (1, 0, 0): 2})
    return AObservable(plain, Element.zero(sig), commutator_target(sig))


def ordered_image(alg: WeylAlgebra, order: str) -> WeylOperator:
    """4*(Q*P or P*Q) + 2i*h*Identity on sector 1, the closed form of the
    biquadratic image for the written order "QP" or "PQ" (checkpoint (b))."""
    q, p = WeylOperator.generator(alg, "Q", 0), WeylOperator.generator(alg, "P", 0)
    product = q * p if order == "QP" else p * q
    return (product.scale(CRat.of(4))
            + WeylOperator.identity(alg).scale(scalar(CR_I * CRat.of(2)) * Scalar.symbol("h")))


def _commutator_classes(dof: int) -> set:
    """The (eps, orient, u) for which anchor (i) holds, u = ks/(kx*ky).
    delta''[x1,x1] is kx^2*X^2 and delta''[y1,y1] is ky^2*Y^2, so their
    commutator is kx^2*ky^2*base(eps, orient), the commutator of X^2 and Y^2,
    and the target over kx^2*ky^2 is 4u*XYS + 2u^2*S^2, the target of the
    tuple with kx = ky = 1 and ks = u: 8 bases meet 4 targets."""
    targets = {u: commutator_target(GroupSignature(
        dof, ConventionTuple(CR_ONE, CR_ONE, CR_ONE, u, 1, 1))).flat for u in UNIT_VALUES}
    holds = set()
    for eps, orient in itertools.product(UNIT_VALUES, _SIGNS):
        sig = GroupSignature(dof, ConventionTuple(eps, CR_ONE, CR_ONE, CR_ONE, orient, 1))
        base = commutator(_kernels(sig, {(0, 2, 0): 1}), _kernels(sig, {(0, 0, 2): 1})).flat
        holds.update((eps, orient, u) for u, target in targets.items() if base == target)
    return holds


def _pipeline_identity(sig: GroupSignature) -> Optional[Tuple[str, HybridObservable]]:
    """Run the biquadratic pipeline; return (matched order, image) or None."""
    dof = sig.dof
    k1 = mechanise_weyl(sig, ClassicalPoly.var(dof, "q", 1) ** 2)
    k2 = mechanise_weyl(sig, ClassicalPoly.var(dof, "p", 1) ** 2)
    ub = universal_bracket(k1, k2)
    if ub != bracket_target(sig):
        return None
    image = rep_qc(ub)
    try:
        image_w = image.as_weyl()
    except ValueError:
        return None
    matched = next((order for order in ("QP", "PQ")
                    if image_w == ordered_image(qc_algebra(sig), order)), None)
    if matched is None or commutator_hybrid(rep_qc(k1), rep_qc(k2)).scale(INV_IH) != image:
        return None
    return matched, image


def calibration_report(dof: int = 1) -> CalibrationReport:
    """Decide all 1024 tuples in enumeration order, each by its class.
    Anchor (i) is read from _commutator_classes.  Anchor (ii) runs once per
    class (eps, orient, rep_s_sign, ks, kx*ky) of the tuples passing (i):
    they differ only by the canonical rescaling X -> aX, Y -> Y/a, which
    scales the mechanised q1^2 by a^2 and p1^2 by a^-2 and so changes no
    bilinear result and no target.  A class's first member in enumeration
    order runs it: the first passing tuple reports its own image and order."""
    holds, results = _commutator_classes(dof), {}
    # each passing tuple with its class's pipeline (matched order, image)
    passing: List[Tuple[ConventionTuple, Tuple[str, HybridObservable]]] = []
    candidates = list(itertools.product(*[UNIT_VALUES] * 4, _SIGNS, _SIGNS))
    for eps, kx, ky, ks, orient, rss in candidates:
        if (eps, orient, ks / (kx * ky)) not in holds:
            continue
        conv, key = ConventionTuple(eps, kx, ky, ks, orient, rss), (eps, orient, rss, ks, kx * ky)
        if key not in results:
            results[key] = _pipeline_identity(GroupSignature(dof, conv))
        if results[key] is not None:
            passing.append((conv, results[key]))
    if not passing:
        raise NoConsistentConvention("no convention tuple satisfies both anchor identities")

    chosen, (matched, image) = passing[0]
    # a passing tuple's commutator equals the target structurally
    target = commutator_target(GroupSignature(dof, chosen))
    tuples = tuple(conv for conv, _ in passing)
    q2, p1 = ClassicalPoly.var(dof, "q", 1) ** 2, ClassicalPoly.var(dof, "p", 1)
    fingerprints = [str(classicality_gap(mechanise_weyl(s, q2), mechanise_weyl(s, p1)))
                    for s in (GroupSignature(dof, conv) for conv in tuples)]
    return CalibrationReport(
        chosen=chosen,
        passing=tuples,
        candidates=len(candidates),
        matched_order=matched,
        commutator_line=f"{target} == {target}",
        pipeline_line=f"image {image.as_weyl()} matches order {matched}",
        downstream_fingerprints=tuple(fingerprints),
        downstream_equivalent=len(set(fingerprints)) <= 1,
    )


def calibrate_conventions(dof: int = 1) -> ConventionTuple:
    """Lexicographically first convention tuple passing both anchor
    identities; raises NoConsistentConvention when the passing set is empty."""
    return calibration_report(dof).chosen
