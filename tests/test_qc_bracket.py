"""Quantum-classical bracket: term structure, universal route agreement,
classicality gap and the effective Planck constant."""

import importlib
import random
from fractions import Fraction

import pytest

from pbracket.errors import (DivisionByZero, NotLocalized, SignatureMismatch,
                             SingularTransformation, ZeroPlanck)
from pbracket.scalars import CR_I, S_ONE, Scalar
from pbracket.group_algebra import Element, GroupSignature
from pbracket.pmech import ClassicalPoly, mechanise_weyl, poisson_classical
from pbracket.qc_bracket import (bracket_via_universal, classicality_gap,
                                 h_eff, poisson_ordered, qc_bracket,
                                 qc_bracket_terms)
from pbracket.sampling import rand_classical
from pbracket.representations import (HybridObservable, hybrid_from_sector2_poly,
                                      multiply_hybrid, rep_qc, rep_qq)

SIG = GroupSignature(dof=1)


def mech(f):
    return mechanise_weyl(SIG, f)


def q(sector):
    return ClassicalPoly.var(1, "q", sector)


def p(sector):
    return ClassicalPoly.var(1, "p", sector)


def rep(f):
    return rep_qc(mech(f))


def test_biquadratic_bracket_image():
    out = qc_bracket(rep(q(1) ** 2), rep(p(1) ** 2))
    assert str(out) == "4*Q1*P1 - 2i*h*I"
    # same through the universal route
    assert bracket_via_universal(mech(q(1) ** 2), mech(p(1) ** 2)) == out


def test_biquadratic_bracket_at_numeric_hbar():
    out = qc_bracket(rep(q(1) ** 2), rep(p(1) ** 2), hbar=1)
    assert str(out) == "4*Q1*P1 - 2i*I"


@pytest.mark.parametrize("hbar", [0, Fraction(0), Fraction(0, 7)])
def test_a_zero_hbar_is_refused(hbar):
    """The bracket carries 1/(i*h): its value at h = 0 would be the
    semiclassical limit, not the bracket, so qc_bracket, the one route that
    takes a value for h, refuses it."""
    k1, k2 = mech(q(1) ** 2), mech(p(1) ** 2)
    with pytest.raises(ZeroPlanck, match="hbar must be nonzero"):
        qc_bracket(rep_qc(k1), rep_qc(k2), hbar=hbar)


def test_classical_pair_bracket_is_identity():
    out = qc_bracket(rep(q(2)), rep(p(2)))
    assert str(out) == "I"
    t1, t2, t3 = qc_bracket_terms(rep(q(2)), rep(p(2)))
    assert t1.is_zero
    assert str(t2) == "I"
    assert t3.is_zero


def test_quantum_pair_term_split():
    t1, t2, t3 = qc_bracket_terms(rep(q(1)), rep(p(1)))
    assert str(t1) == "I"
    assert t2.is_zero and t3.is_zero


def test_term3_carries_the_jet_defect():
    # mixed-sector pair with genuinely ordered operator content
    K1 = rep(q(1) * q(2))
    K2 = rep(p(1) * p(2))
    t1, t2, t3 = qc_bracket_terms(K1, K2)
    total = qc_bracket(K1, K2)
    assert total == t1 + t2 + t3
    assert not t3.is_zero


@pytest.mark.parametrize("dof", [1, 2, 3])
def test_qc_bracket_is_the_sum_of_its_terms(dof):
    sig = GroupSignature(dof=dof)
    rng = random.Random(4300 + dof)
    for _ in range(12):
        K1 = rep_qc(mechanise_weyl(sig, rand_classical(rng, dof, max_degree=4)))
        K2 = rep_qc(mechanise_weyl(sig, rand_classical(rng, dof, max_degree=4)))
        t1, t2, t3 = qc_bracket_terms(K1, K2)
        assert qc_bracket(K1, K2) == t1 + t2 + t3, (K1, K2)
        for hbar in (3, Fraction(-1, 2)):
            assert qc_bracket(K1, K2, hbar) == (t1 + t2 + t3).substitute(h=hbar), (K1, K2, hbar)


def test_qc_bracket_skips_the_ordered_poisson_sum(monkeypatch):
    K1, K2 = rep(q(1) * q(2) + p(2) ** 2), rep(p(1) * p(2) + q(2))
    t1, t2, t3 = qc_bracket_terms(K1, K2)
    expected = {None: t1 + t2 + t3, 2: (t1 + t2 + t3).substitute(h=2)}

    def refuse(*args):
        raise AssertionError("poisson_ordered called")

    # the package binds the name qc_bracket to the function, not the module
    monkeypatch.setattr(importlib.import_module("pbracket.qc_bracket"), "poisson_ordered", refuse)
    for hbar, value in expected.items():
        assert qc_bracket(K1, K2, hbar) == value
    with pytest.raises(AssertionError, match="poisson_ordered called"):
        qc_bracket_terms(K1, K2)


def test_bracket_is_antisymmetric_and_bilinear():
    K1 = rep(q(1) ** 2 + q(2) * p(2))
    K2 = rep(p(1) * q(2))
    K3 = rep(p(2) ** 2)
    assert qc_bracket(K1, K2) == -qc_bracket(K2, K1)
    assert qc_bracket(K1 + K3, K2) == qc_bracket(K1, K2) + qc_bracket(K3, K2)
    assert qc_bracket(K1.scale(3), K2) == qc_bracket(K1, K2).scale(3)


def test_bracket_with_identity_vanishes():
    one = HybridObservable.identity(rep(q(1)).signature)
    K = rep(q(1) ** 2 * p(2) + q(2))
    assert qc_bracket(K, one).is_zero
    assert qc_bracket(one, K).is_zero


def test_poisson_ordered_reduces_to_classical_on_sector2():
    K1 = rep(q(2) ** 2 * p(2))
    K2 = rep(q(2) * p(2) ** 2)
    po = (poisson_ordered(K1, K2) - poisson_ordered(K2, K1)).scale(Fraction(1, 2))
    pb = poisson_classical(q(2) ** 2 * p(2), q(2) * p(2) ** 2)
    expected = hybrid_from_sector2_poly(K1, pb)
    assert po.jet_part(0) == expected
    t1, t2, t3 = qc_bracket_terms(K1, K2)
    assert t1.is_zero and t3.is_zero
    assert qc_bracket(K1, K2) == expected


def test_poisson_ordered_is_star_free():
    """The ordered Poisson sum multiplies classical parts commutatively:
    multiply_hybrid of the same derivatives would add a star correction."""
    t = rep(q(2))
    K1 = hybrid_from_sector2_poly(t, q(2) * p(2) ** 2)
    K2 = hybrid_from_sector2_poly(t, q(2) ** 2 * p(2))

    def hybrid(terms):
        return HybridObservable(t.signature,
                                {(0, 0) + cm + (jet,): c for (cm, jet), c in terms.items()})

    assert poisson_ordered(K1, K2) == hybrid({((2, 2), 0): -3})
    assert str(poisson_ordered(K1, K2)) == "-3*q^2*p^2"
    assert poisson_ordered(K2, K1) == hybrid({((2, 2), 0): 3})
    correction = hybrid({((1, 1), 1): -4 * CR_I})
    assert (multiply_hybrid(K1.derivative_q(0), K2.derivative_p(0))
            == hybrid({((2, 2), 0): 1}) + correction)
    starred = (multiply_hybrid(K2.derivative_q(0), K1.derivative_p(0))
               - multiply_hybrid(K2.derivative_p(0), K1.derivative_q(0)))
    assert starred == poisson_ordered(K2, K1) + correction


def test_universal_route_matches_direct_on_mixed_pairs():
    pairs = [
        (q(1) ** 2, p(1) ** 2),
        (q(1) * q(2), p(1) * p(2)),
        (q(2) ** 2 * p(2), q(2) * p(2) ** 2),
        (q(1) * p(1), q(1) ** 2),
        (q(1) + q(2), p(1) + p(2)),
    ]
    for f, g in pairs:
        k1, k2 = mech(f), mech(g)
        assert bracket_via_universal(k1, k2) == qc_bracket(rep_qc(k1), rep_qc(k2))


def test_bracket_via_universal_signature_mismatch():
    other = GroupSignature(dof=2)
    with pytest.raises(SignatureMismatch):
        bracket_via_universal(mech(q(1)), Element.one(other))


def test_classicality_gap_vanishes_when_transport_suffices():
    assert classicality_gap(mech(q(1) ** 2), mech(p(1))).is_zero
    assert classicality_gap(mech(q(1) * p(1)), mech(q(1) ** 2)).is_zero


def test_classicality_gap_detects_operator_content():
    # transporting {q^2, p^2} = 4qp in the calibrated order gives 4QP - 4ih,
    # while the bracket image is 4QP - 2ih: the gap is the 2ih defect
    gap = classicality_gap(mech(q(1) ** 2), mech(p(1) ** 2))
    assert str(gap) == "2i*h*I"
    assert str(gap.substitute(h=1)) == "2i*I"
    cubic_gap = classicality_gap(mech(q(1) ** 3), mech(p(1) ** 3))
    assert str(cubic_gap) == "18i*h*Q1*P1 + 12*h^2*I"


def test_classicality_gap_requires_sector1():
    with pytest.raises(NotLocalized):
        classicality_gap(mech(q(2)), mech(p(1)))


def test_h_eff_values():
    assert h_eff(1, 1) == Fraction(1, 2)
    assert h_eff(2, 2) == Fraction(1)
    assert h_eff(Fraction(1, 2), Fraction(1, 3)) == Fraction(1, 5)
    assert h_eff(3, 6) == Fraction(2)


def test_h_eff_singularities():
    with pytest.raises(SingularTransformation):
        h_eff(1, 0)
    with pytest.raises(SingularTransformation):
        h_eff(0, 1)
    with pytest.raises(SingularTransformation):
        h_eff(0, 0)
    with pytest.raises(DivisionByZero):
        h_eff(1, -1)


def test_numeric_entry_points_take_only_ints_and_fractions():
    """qc_bracket's hbar, rep_qq's h1 and h2 and h_eff's h1 and h2 refuse a
    float, a bool, a string and a NaN with a ValueError that names the
    argument, where Fraction() would have read each as a number."""
    K1, K2 = rep(q(1) ** 2), rep(p(1) ** 2)
    k = mech(q(1) * p(2))
    calls = [("hbar", lambda v: qc_bracket(K1, K2, hbar=v)),
             ("h1", lambda v: rep_qq(k, h1=v)), ("h2", lambda v: rep_qq(k, h2=v)),
             ("h1", lambda v: h_eff(v, 1)), ("h2", lambda v: h_eff(1, v))]
    for name, call in calls:
        call(Fraction(1, 2))
        for bad in (0.1, True, "1/2", float("nan")):
            with pytest.raises(ValueError, match=f"^{name} must be an int or a Fraction"):
                call(bad)
