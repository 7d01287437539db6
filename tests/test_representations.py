"""Quantum-quantum and first-jet quantum-classical representations."""

import random
from fractions import Fraction

import pytest

from pbracket.errors import SignatureMismatch, ZeroPlanck
from pbracket.sampling import rand_element
from pbracket.scalars import CR_I, CR_ONE, S_ONE, Scalar, scalar
from pbracket.group_algebra import Element, GroupSignature
from pbracket.pmech import (AObservable, ClassicalPoly, mechanise_weyl,
                            universal_bracket)
from pbracket.representations import (HybridObservable, WeylAlgebra,
                                      WeylOperator, commutator_hybrid,
                                      hybrid_from_sector2_poly, multiply_hybrid,
                                      qc_algebra, qq_algebra, rep_qc, rep_qq)

SIG = GroupSignature(dof=1)


def mech(f):
    return mechanise_weyl(SIG, f)


def q(sector):
    return ClassicalPoly.var(1, "q", sector)


def p(sector):
    return ClassicalPoly.var(1, "p", sector)


# -- Weyl operator layer -----------------------------------------------------


def test_weyl_ccr():
    alg = qq_algebra(SIG)
    for d, sym in ((0, "h1"), (1, "h2")):
        Q = WeylOperator.generator(alg, "Q", d)
        P = WeylOperator.generator(alg, "P", d)
        gamma = Q * P - P * Q
        assert gamma == WeylOperator.identity(alg).scale(CR_I * Scalar.symbol(sym))


def test_weyl_cross_pairs_commute():
    alg = qq_algebra(SIG)
    Q1 = WeylOperator.generator(alg, "Q", 0)
    P2 = WeylOperator.generator(alg, "P", 1)
    assert Q1 * P2 == P2 * Q1


def test_weyl_normal_ordering_reorders_to_q_before_p():
    alg = qc_algebra(SIG)
    Q = WeylOperator.generator(alg, "Q", 0)
    P = WeylOperator.generator(alg, "P", 0)
    # P Q = Q P - gamma
    gamma = CR_I * Scalar.symbol("h")
    assert P * Q == Q * P - WeylOperator.identity(alg).scale(gamma)
    # P^2 Q^2 = Q^2 P^2 - 4 gamma QP + 2 gamma^2
    lhs = P * P * Q * Q
    rhs = (Q * Q * P * P - (Q * P).scale(scalar(4) * gamma)
           + WeylOperator.identity(alg).scale(scalar(2) * gamma * gamma))
    assert lhs == rhs


def test_weyl_operator_renders_and_substitutes():
    alg = qq_algebra(SIG)
    Q = WeylOperator.generator(alg, "Q", 0)
    P = WeylOperator.generator(alg, "P", 0)
    w = Q * P + WeylOperator.identity(alg).scale(Scalar.symbol("h1") * CR_I * Fraction(-1, 2))
    assert str(w) == "Q1*P1 + ((-1/2)i*h1)*I"
    wn = w.substitute(h1=2)
    assert str(wn) == "Q1*P1 - i*I"
    assert (w ** 0) == WeylOperator.identity(alg)
    assert (Q + P) ** 2 == Q * Q + Q * P + P * Q + P * P


def test_weyl_operator_validates_monomials():
    alg = qc_algebra(SIG)
    with pytest.raises(ValueError):
        WeylOperator(alg, {(1,): S_ONE})
    with pytest.raises(ValueError):
        WeylOperator(alg, {(-1, 0): S_ONE})
    with pytest.raises(ValueError):
        WeylOperator.generator(alg, "A", 0)
    with pytest.raises(ValueError):
        WeylOperator.generator(alg, "Q", 3)
    other = WeylAlgebra(("z",), (CR_I * Scalar.symbol("h"),))
    with pytest.raises(SignatureMismatch):
        WeylOperator.identity(alg) + WeylOperator.identity(other)


# -- quantum-quantum representation -------------------------------------------


def test_rep_qq_generator_images():
    alg = qq_algebra(SIG)
    ident = WeylOperator.identity(alg)
    assert rep_qq(Element.generator(SIG, "X_1_1")) == WeylOperator.generator(alg, "Q", 0)
    assert rep_qq(Element.generator(SIG, "Y_2_1")) == WeylOperator.generator(alg, "P", 1)
    # central generators land on -i h_s (rep_s_sign = -1)
    assert rep_qq(Element.generator(SIG, "S1")) == ident.scale(-CR_I * Scalar.symbol("h1"))
    assert str(rep_qq(Element.generator(SIG, "S1"))) == "-i*h1*I"


def test_rep_qq_is_multiplicative():
    pairs = [
        (mech(q(1) ** 2 + p(2)), mech(p(1) * q(2))),
        (mech(q(1) * p(1)), mech(q(1) * p(1))),
        (mech(p(2) ** 2), mech(q(2) ** 3 + q(1))),
    ]
    for a, b in pairs:
        assert rep_qq(a * b) == rep_qq(a) * rep_qq(b)


def test_rep_qq_mixed_pair_image():
    assert str(rep_qq(mech(q(1) * p(1)))) == "Q1*P1 + ((-1/2)i*h1)*I"


def test_rep_qq_antiderivative_factor():
    x = Element.generator(SIG, "X_1_1")
    ao = AObservable(Element.zero(SIG), Element.zero(SIG), x)
    # X * A2 -> Q1 / (-i h2)
    got = rep_qq(ao)
    assert got.scale(-CR_I * Scalar.symbol("h2")) == rep_qq(x)
    # the factor inverts the central image: S1 * A1 -> 1
    s1 = Element.generator(SIG, "S1")
    ao1 = AObservable(Element.zero(SIG), Element.one(SIG), Element.zero(SIG))
    assert rep_qq(ao1).scale(-CR_I * Scalar.symbol("h1")) \
        == WeylOperator.identity(qq_algebra(SIG))
    assert rep_qq(s1) * rep_qq(ao1) == WeylOperator.identity(qq_algebra(SIG))


def test_rep_qq_two_sector_scaling():
    h1, h2 = Scalar.symbol("h1"), Scalar.symbol("h2")
    ident = WeylOperator.identity(qq_algebra(SIG))
    ub1 = universal_bracket(mech(q(1)), mech(p(1)))
    ub2 = universal_bracket(mech(q(2)), mech(p(2)))
    assert rep_qq(ub1) == ident.scale((h1 + h2) / h2)
    assert rep_qq(ub2) == ident.scale((h1 + h2) / h1)
    assert rep_qq(ub1, h1=1, h2=1) == ident.scale(2)


def test_rep_qq_rejects_zero_planck():
    with pytest.raises(ZeroPlanck):
        rep_qq(mech(q(1)), h1=0)
    with pytest.raises(ZeroPlanck):
        rep_qq(mech(q(1)), h2=Fraction(0))


# -- quantum-classical representation ------------------------------------------


def test_rep_qc_sector1_is_operator_valued():
    k = rep_qc(mech(q(1) ** 2))
    assert str(k) == "Q1^2"
    assert k.as_weyl() == WeylOperator.generator(qc_algebra(SIG), "Q", 0) ** 2


def test_rep_qc_sector2_is_classical_to_first_jet():
    k = rep_qc(mech(q(2) * p(2)))
    assert str(k) == "q*p + ((-1/2)i)*h2"
    assert k.jet_part(0) == hybrid_from_sector2_poly(k, q(2) * p(2))
    with pytest.raises(ValueError):
        k.as_weyl()


def test_rep_qc_truncates_second_jet_order():
    s2 = Element.generator(SIG, "S2")
    assert rep_qc(s2 * s2).is_zero
    assert not rep_qc(s2).is_zero


def test_rep_qc_drops_sector2_antiderivative():
    e = Element.generator(SIG, "X_1_1")
    ao = AObservable(Element.zero(SIG), Element.zero(SIG), e)
    assert rep_qc(ao).is_zero


def test_rep_qc_multiplicative_to_first_jet():
    pairs = [
        (mech(q(1) ** 2), mech(p(1) ** 2)),
        (mech(q(2)), mech(p(2))),
        (mech(q(1) * q(2)), mech(p(1) * p(2))),
        (mech(p(2) ** 2 + q(1)), mech(q(2) ** 2)),
    ]
    for a, b in pairs:
        assert rep_qc(a * b) == rep_qc(a) * rep_qc(b)


def test_rep_qc_jet_star_is_one_sided():
    qh = rep_qc(mech(q(2)))
    ph = rep_qc(mech(p(2)))
    plain = hybrid_from_sector2_poly(qh, q(2) * p(2))
    # the written order q*p stays classical; p*q picks up the -i correction
    assert qh * ph == plain
    assert (ph * qh).jet_part(1) == HybridObservable.identity(
        qh.algebra, 1, SIG.convention).scale(-CR_I)
    comm = qh * ph - ph * qh
    assert comm.jet_part(0).is_zero
    assert str(comm) == "i*h2"


@pytest.mark.parametrize("dof", [1, 2, 3])
def test_commutator_hybrid_matches_products(dof):
    """Images with jet-one terms (S2) and star corrections in both orders."""
    sig = GroupSignature(dof=dof)
    rng = random.Random(4200 + dof)
    for _ in range(40):
        a = rep_qc(rand_element(rng, sig, max_degree=4, terms=4))
        b = rep_qc(rand_element(rng, sig, max_degree=4, terms=4))
        assert commutator_hybrid(a, b) == multiply_hybrid(a, b) - multiply_hybrid(b, a), (a, b)


def test_hybrid_from_sector2_poly_rejects_sector1():
    template = rep_qc(mech(q(2)))
    with pytest.raises(ValueError):
        hybrid_from_sector2_poly(template, q(1))


def test_hybrid_derivatives():
    k = rep_qc(mech(q(2) ** 2 * p(2)))
    dq = k.derivative_q(0)
    expected = hybrid_from_sector2_poly(k, (q(2) * p(2)).scale(2))
    assert dq.jet_part(0) == expected.jet_part(0)
