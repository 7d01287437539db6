"""The quantum-classical bracket on hybrid observables, the bracket computed
through the universal route, the classicality gap, and the effective Planck
constant.

For hybrid K1, K2 write [K1,K2] for the star commutator and c_j for its
h2^j coefficient.  qc_bracket evaluates (1/(i h)) c_0 - i c_1 directly from
commutator_hybrid.  qc_bracket_terms is for inspection: it splits the same
value into three terms,

    term1 = (1/(i h)) * c_0([K1, K2])
    term2 = (1/2) * (po(K1,K2) - po(K2,K1))      at h2 = 0
    term3 = -i * c_1([K1, K2]) - term2

where po is the ordered Poisson sum below.  The h2-linear part of the star
commutator already contains the full antisymmetrized Poisson content plus
the genuine jet correction, so term3 is that coefficient with the ordered
Poisson part split out, and the three terms sum to qc_bracket.

Only qc_bracket takes a value for h, the one the CLI's --hbar sets; every
other route stays symbolic in h, and a caller substitutes on its result.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Tuple, Union

from .errors import (DivisionByZero, NotLocalized, SignatureMismatch, SingularTransformation,
                     ZeroPlanck)
from .scalars import CR_I, CR_MINUS_I, CRat, Scalar, S_ONE, flat_value, scalar
from .group_algebra import Element, require_rational
from .terms import accumulate, normal_order, pair_halves
from .pmech import ClassicalPoly, poisson_classical, universal_bracket, weyl_symbol
from .representations import HybridObservable, WeylOperator, commutator_hybrid, qc_algebra, rep_qc

__all__ = [
    "poisson_ordered",
    "qc_bracket",
    "qc_bracket_terms",
    "bracket_via_universal",
    "classicality_gap",
    "h_eff",
]


def poisson_ordered(K1: HybridObservable, K2: HybridObservable) -> HybridObservable:
    """One ordering of the hybrid Poisson sum:

        sum_i dK1/dq_i * dK2/dp_i - dK1/dp_i * dK2/dq_i,

    derivatives on the classical parts only, operator factors multiplied in
    the written order.  The classical parts multiply commutatively, without
    the star correction: the hybrid product by the Weyl pairs' rules alone."""
    K1._check(K2)
    weyl = qc_algebra(K1.signature).contraction_rules

    def flat(k1: tuple, k2: tuple) -> list:
        return [] if k1[-4] + k2[-4] > 1 else normal_order(k1, k2, 0, weyl)

    out = K1._like({})
    for i in range(K1.dof):
        out = out + K1.derivative_q(i)._product(K2.derivative_p(i), flat)
        out = out - K1.derivative_p(i)._product(K2.derivative_q(i), flat)
    return out


# The factor 1/(i*h) of term1.
INV_IH = S_ONE / (scalar(CR_I) * Scalar.symbol("h"))


def qc_bracket_terms(K1: HybridObservable, K2: HybridObservable
                     ) -> Tuple[HybridObservable, HybridObservable, HybridObservable]:
    """The three bracket terms separately, each at jet degree zero."""
    comm = commutator_hybrid(K1, K2)
    term1 = comm.jet_part(0).scale(INV_IH)
    term2 = (poisson_ordered(K1, K2) - poisson_ordered(K2, K1)).jet_part(0).scale(Fraction(1, 2))
    term3 = comm.jet_part(1).scale(CR_MINUS_I) - term2
    return term1, term2, term3


def qc_bracket(K1: HybridObservable, K2: HybridObservable,
               hbar: Optional[Union[int, Fraction]] = None) -> HybridObservable:
    """(1/(i h)) c_0 - i c_1 of the star commutator, at jet degree zero,
    symbolic in h, or with h set to ``hbar``, an int or a Fraction, when
    one is given: zero raises ZeroPlanck, as the bracket carries 1/(i*h)."""
    h = None if hbar is None else require_rational(hbar, "hbar")
    if h == 0:
        raise ZeroPlanck("hbar must be nonzero")
    c = commutator_hybrid(K1, K2)
    out = c.jet_part(0).scale(INV_IH) + c.jet_part(1).scale(CR_MINUS_I)
    return out if h is None else out.substitute(h=h)


def bracket_via_universal(k1: Element, k2: Element) -> HybridObservable:
    """Quantum-classical image of the universal bracket, evaluated at h2 = 0."""
    if k1.signature != k2.signature:
        raise SignatureMismatch("elements built over different signatures")
    return rep_qc(universal_bracket(k1, k2)).jet_part(0)


def _ordered_weyl_transport(k_sig, f: ClassicalPoly) -> WeylOperator:
    """Replace each commuting monomial q^a p^b of a sector-1 polynomial with
    the Weyl monomial in the calibrated order, Q^a P^b or P^b Q^a, in
    normal form."""
    alg = qc_algebra(k_sig)
    conv = k_sig.convention
    anti = conv.anti_normal_order
    if not anti and conv.gamma_unit != CRat.of(-1):
        raise ValueError("ordered transport is undefined for this convention tuple")
    out: dict = {}
    for mono, c in f.terms.items():
        qs, ps = (half + (0, 0, 0) for half in pair_halves(mono[:alg.width]))
        c = flat_value(c)
        for key, u in normal_order(*((ps, qs) if anti else (qs, ps)), 0,
                                   alg.contraction_rules):
            accumulate(out, key, c if u is None else u * c)
    return WeylOperator._over(out, alg)


def classicality_gap(k1: Element, k2: Element) -> HybridObservable:
    """Difference between the quantum-classical bracket image and the naive
    ordered transport of the classical Poisson bracket.

    Both inputs must be sector-1 localized and in the image of the symmetric
    mechanisation.  A nonzero result exhibits operator content of the
    bracket that no relabeling of commuting monomials reproduces.
    """
    if k1.signature != k2.signature:
        raise SignatureMismatch("elements built over different signatures")
    for k in (k1, k2):
        if k.uses_sector(2):
            raise NotLocalized("classicality_gap requires sector-1-only inputs")
    f1 = weyl_symbol(k1)
    f2 = weyl_symbol(k2)
    pb = poisson_classical(f1, f2)
    surrogate = HybridObservable.from_weyl(_ordered_weyl_transport(k1.signature, pb),
                                           k1.signature)
    return bracket_via_universal(k1, k2) - surrogate


def h_eff(h1: Union[int, Fraction], h2: Union[int, Fraction]) -> Fraction:
    """Effective Planck constant: 1/h_eff = 1/h1 + 1/h2.

    h1 and h2 are ints or Fractions.  The transformation is singular when
    h1*h2 = 0, and the formula divides by zero when h1 + h2 = 0; both raise."""
    a, b = require_rational(h1, "h1"), require_rational(h2, "h2")
    if a * b == 0:
        raise SingularTransformation("h_eff is singular when h1*h2 = 0")
    if a + b == 0:
        raise DivisionByZero("h_eff denominator h1 + h2 is zero")
    return a * b / (a + b)
