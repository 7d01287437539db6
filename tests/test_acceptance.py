"""Acceptance suite.

Each test is one acceptance criterion, checked at the stated tolerance and
time bound; run with -v for one pass/fail line per criterion.
"""

import random
import time
from fractions import Fraction

import pytest

from pbracket.errors import DivisionByZero, SingularTransformation
from pbracket.scalars import CR_I, S_ONE, Scalar, scalar
from pbracket.group_algebra import (ConventionTuple, Element, GroupSignature,
                                    commutator, delta_to_element)
from pbracket.pmech import (ClassicalPoly, mechanise_weyl, poisson_classical,
                            universal_bracket)
from pbracket.representations import (HybridObservable, WeylOperator,
                                      hybrid_from_sector2_poly, qq_algebra,
                                      rep_qc, rep_qq)
from pbracket.qc_bracket import (bracket_via_universal, classicality_gap,
                                 h_eff, qc_bracket, qc_bracket_terms)
from pbracket.oracle import (ALGEBRA_LAWS, MATRIX_TOL, VF_PAIRS, check_algebra_laws,
                             check_vector_field_suite, matrix_max_error)
from pbracket.calibration import calibrate_conventions
from pbracket.verify import run_verify
from pbracket import sampling

SIG = GroupSignature(dof=1)
SEED = 20240


def mech(f):
    return mechanise_weyl(SIG, f)


def q(sector):
    return ClassicalPoly.var(1, "q", sector)


def p(sector):
    return ClassicalPoly.var(1, "p", sector)


def biquadratic_commutator_target():
    return (delta_to_element(SIG, {"x1": 1, "y1": 1, "s1": 1}).scale(4)
            + delta_to_element(SIG, {"s1": 2}).scale(2))


def test_criterion_01_biquadratic_commutator_exact():
    t0 = time.monotonic()
    got = commutator(mech(q(1) ** 2), mech(p(1) ** 2))
    elapsed = time.monotonic() - t0
    assert got == biquadratic_commutator_target()
    assert elapsed < 1.0
    print(f"\ncommutator == 4*delta[x1,y1,s1] + 2*delta[s1,s1]  ({elapsed:.3f}s)")


def test_criterion_02_biquadratic_universal_bracket_exact():
    t0 = time.monotonic()
    ub = universal_bracket(mech(q(1) ** 2), mech(p(1) ** 2))
    elapsed = time.monotonic() - t0
    plain = (delta_to_element(SIG, {"x1": 1, "y1": 1}).scale(4)
             + delta_to_element(SIG, {"s1": 1}).scale(2))
    assert ub.plain == plain
    assert ub.a1_part.is_zero
    assert ub.a2_part == biquadratic_commutator_target()
    assert str(ub) == ("4*delta[x1,y1] + 2*delta[s1]"
                       " + (4*delta[x1,y1,s1] + 2*delta[s1,s1])*A2")
    assert elapsed < 1.0
    print(f"\nuniversal bracket matches the quoted two-part form  ({elapsed:.3f}s)")


def test_criterion_03_biquadratic_qc_image_and_matrix_oracle():
    image = bracket_via_universal(mech(q(1) ** 2), mech(p(1) ** 2))
    image_w = image.as_weyl()
    alg = image_w.algebra
    Q = WeylOperator.generator(alg, "Q", 0)
    P = WeylOperator.generator(alg, "P", 0)
    ident = WeylOperator.identity(alg)
    ihbar = scalar(CR_I) * Scalar.symbol("h")
    # 4 * (calibrated ordered product P.Q) + 2i hbar
    assert image_w == (P * Q).scale(4) + ident.scale(ihbar * 2)
    # equals the scaled quantum commutator of the squares
    q2 = rep_qc(mech(q(1) ** 2)).as_weyl()
    p2 = rep_qc(mech(p(1) ** 2)).as_weyl()
    comm = q2 * p2 - p2 * q2
    assert image_w == comm.scale(S_ONE / ihbar)
    # matrix oracle at MATRIX_DIM, hbar=1
    err = matrix_max_error(image_w.substitute(h=1), comm.scale(S_ONE / ihbar).substitute(h=1))
    assert err <= MATRIX_TOL
    direct = matrix_max_error(image_w.substitute(h=1), (Q * P).scale(4) - ident.scale(CR_I * 2))
    assert direct <= MATRIX_TOL
    print(f"\nimage == 4*P.Q + 2i*h*I == (1/ih)[Q^2,P^2]; matrix error {err:.2e} <= {MATRIX_TOL}")


def test_criterion_04_classicality_gap_is_2ih():
    gap = classicality_gap(mech(q(1) ** 2), mech(p(1) ** 2))
    expected = HybridObservable.identity(gap.signature) \
        .scale(scalar(CR_I * 2) * Scalar.symbol("h"))
    assert gap == expected
    assert not gap.is_zero
    print("\nclassicality gap == 2i*h*I (nonzero)")


def test_criterion_05_two_sector_scaling_identity():
    t0 = time.monotonic()
    h1, h2 = Scalar.symbol("h1"), Scalar.symbol("h2")
    ident = WeylOperator.identity(qq_algebra(SIG))
    got1 = rep_qq(universal_bracket(mech(q(1)), mech(p(1))))
    got2 = rep_qq(universal_bracket(mech(q(2)), mech(p(2))))
    elapsed = time.monotonic() - t0
    assert got1 == ident.scale((h1 + h2) / h2)
    assert got2 == ident.scale((h1 + h2) / h1)
    assert elapsed < 1.0
    print(f"\nrep_qq images are ((h1+h2)/h2)*I and ((h1+h2)/h1)*I  ({elapsed:.3f}s)")


def test_criterion_06_decoupling_200_instances():
    rng = random.Random(SEED)
    t0 = time.monotonic()
    for _ in range(200):
        f_h1 = sampling.rand_classical(rng, 1, max_degree=4, sectors=(1,))
        f_h2 = sampling.rand_classical(rng, 1, max_degree=4, sectors=(2,))
        f_b = sampling.rand_classical(rng, 1, max_degree=4, sectors=(2,))
        m_h1, m_h2, m_b = mech(f_h1), mech(f_h2), mech(f_b)
        assert commutator(m_b, m_h1).is_zero
        ub_full = universal_bracket(m_b, m_h1 + m_h2)
        ub_part = universal_bracket(m_b, m_h2)
        assert ub_full.plain == ub_part.plain
        assert ub_full.a1_part == ub_part.a1_part
        assert ub_full.a2_part == ub_part.a2_part
        wb = rep_qc(m_b)
        assert qc_bracket(wb, rep_qc(m_h1 + m_h2)) == qc_bracket(wb, rep_qc(m_h2))
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(f"\n200 decoupling instances exact  ({elapsed:.1f}s < 30s)")


def test_criterion_07_path_equivalence_100_pairs():
    rng = random.Random(SEED + 1)
    t0 = time.monotonic()
    for _ in range(100):
        f = sampling.rand_classical(rng, 1, max_degree=3)
        g = sampling.rand_classical(rng, 1, max_degree=3)
        k1, k2 = mech(f), mech(g)
        assert bracket_via_universal(k1, k2) == qc_bracket(rep_qc(k1), rep_qc(k2))
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"\n100 path-equivalence pairs exact  ({elapsed:.1f}s < 60s)")


def test_criterion_08_localized_and_classical_reductions():
    rng = random.Random(SEED + 2)
    for _ in range(50):
        f = sampling.rand_classical(rng, 1, max_degree=4, sectors=(1,))
        g = sampling.rand_classical(rng, 1, max_degree=4, sectors=(1,))
        K1, K2 = rep_qc(mech(f)), rep_qc(mech(g))
        _, t2, t3 = qc_bracket_terms(K1, K2)
        assert t2.is_zero
        assert t3.is_zero
    for _ in range(50):
        f = sampling.rand_classical(rng, 1, max_degree=4, sectors=(2,))
        g = sampling.rand_classical(rng, 1, max_degree=4, sectors=(2,))
        K1, K2 = rep_qc(mech(f)), rep_qc(mech(g))
        got = qc_bracket(K1, K2)
        expected = hybrid_from_sector2_poly(K1, poisson_classical(f, g))
        assert got == expected
    print("\n50 sector-1 pairs: terms 2-3 vanish; 50 sector-2 pairs: bracket == Poisson")


def test_criterion_09_oracle_battery():
    t0 = time.monotonic()
    vf = check_vector_field_suite(SIG, seed=SEED + 3)
    laws = check_algebra_laws(SIG, seed=SEED + 4)
    elapsed = time.monotonic() - t0
    assert vf.ok and vf.max_abs_error == 0.0
    assert laws.ok
    assert VF_PAIRS == 100
    assert sum(count for _, count, *_ in ALGEBRA_LAWS) >= 200
    assert elapsed < 60.0
    print(f"\nvector-field oracle 100 pairs exact; 200 law instances pass  ({elapsed:.1f}s < 60s)")


def test_criterion_10_effective_planck_constant():
    for val in (1, 2, Fraction(1, 3), Fraction(7, 5)):
        assert h_eff(val, val) == Fraction(val) / 2
    for bad in ((1, 0), (0, 1), (0, 0)):
        with pytest.raises(SingularTransformation):
            h_eff(*bad)
    with pytest.raises(DivisionByZero):
        h_eff(Fraction(3, 2), Fraction(-3, 2))
    print("\nh_eff(h,h) == h/2; singular and zero-denominator cases raise")


def test_criterion_11_calibration_and_reproducibility():
    t0 = time.monotonic()
    first = calibrate_conventions()
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    assert isinstance(first, ConventionTuple)
    assert calibrate_conventions() == first  # deterministic selection
    render_a = run_verify(seed=99).render()
    render_b = run_verify(seed=99).render()
    assert render_a == render_b
    assert "summary: 12 of 12 items pass" in render_a
    print(f"\ncalibration {elapsed:.2f}s < 5s; verify output bit-identical across runs")
