"""Quantum-quantum and first-jet quantum-classical representations."""

import itertools
import random
from fractions import Fraction
from math import comb, factorial

import pytest

from pbracket.errors import SignatureMismatch, ZeroPlanck
from pbracket.sampling import rand_classical, rand_element
from pbracket.scalars import (CR_I, CR_MINUS_ONE, CR_ONE, S_ONE, UNIT_VALUES,
                              Scalar, scalar)
from pbracket.group_algebra import ConventionTuple, Element, GroupSignature, slot_index
from pbracket.pmech import (AObservable, ClassicalPoly, apply_antiderivative,
                            mechanise_weyl, universal_bracket)
from pbracket.representations import (HybridObservable, WeylAlgebra,
                                      WeylOperator, _jet_rules, commutator_hybrid,
                                      hybrid_from_sector2_poly, multiply_hybrid,
                                      qc_algebra, qq_algebra, rep_qc, rep_qq)
from pbracket.terms import pair_masks

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
    assert (ph * qh).jet_part(1) == HybridObservable.identity(qh.signature).scale(-CR_I)
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
    # the indices past the classical slots are the Weyl exponents and the jet
    for i in (-1, 1):
        with pytest.raises(ValueError, match="dof index"):
            k.derivative_q(i)
        with pytest.raises(ValueError, match="dof index"):
            k.derivative_p(i)


def test_hybrid_degree_counts_h2_like_a_printed_factor():
    k = rep_qc(mech(q(1) * q(2) * p(2)))
    assert str(k) == "Q1*q*p + ((-1/2)i)*Q1*h2"
    assert k.degree() == 3
    h2_term = k - k.jet_part(0)
    assert str(h2_term) == "((-1/2)i)*Q1*h2"
    assert h2_term.degree() == 2
    assert str(k.jet_part(1)) == "((-1/2)i)*Q1"
    assert k.jet_part(1).degree() == 1
    assert HybridObservable.identity(k.signature).degree() == 0


def test_hybrid_substitute_refuses_h2():
    """h2 is the jet degree, not a coefficient symbol: substituting it would
    return the input unchanged, so it is refused."""
    k = rep_qc(mech(q(1) * q(2) * p(2)))
    with pytest.raises(ValueError, match="jet_part"):
        k.substitute(h2=5)
    with pytest.raises(ValueError, match="jet_part"):
        k.substitute(h=3, h2=5)
    assert rep_qc(mech(q(1) ** 3)).substitute(h=3) == rep_qc(mech(q(1) ** 3))


# -- constant factors, computed once ----------------------------------------


def _rand_weyl_mono(rng, width, max_exp=3):
    return tuple(rng.randint(0, max_exp) for _ in range(width))


@pytest.mark.parametrize("dof", [1, 2, 3])
def test_weyl_entry_factor_is_the_contraction_weight(dof):
    """Each entry of a Weyl operator's term-pair expansion is one
    contraction pattern k_j: its factor and Planck shift together equal
    weight * prod (-gamma_j)^k_j built afresh with Scalar arithmetic, the
    weight prod k_j! C(m_j,k_j) C(n_j,k_j), its monomial the exponents
    added less k_j per pair, and its Planck exponents the tails added
    plus the shift."""
    sig = GroupSignature(dof, ConventionTuple(CR_I, CR_ONE, CR_ONE, CR_ONE, -1, -1))
    rng = random.Random(900 + dof)
    for alg in (qq_algebra(sig), qc_algebra(sig), qq_algebra(GroupSignature(dof))):
        width = alg.width
        for _ in range(40):
            m1 = _rand_weyl_mono(rng, width)
            m2 = _rand_weyl_mono(rng, width)
            t1, t2 = (tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(2))
            tail = Scalar({tuple(x + y for x, y in zip(t1, t2)): 1})
            reference = {}
            for ks in itertools.product(*(range(min(m1[2 * j + 1], m2[2 * j]) + 1)
                                          for j in range(alg.dofs))):
                s = tail
                for j, k in enumerate(ks):
                    s = s * scalar(factorial(k) * comb(m1[2 * j + 1], k) * comb(m2[2 * j], k))
                    s = s * (-alg.gammas[j]) ** k
                mono = tuple(x + y - ks[i // 2] for i, (x, y) in enumerate(zip(m1, m2)))
                reference[mono] = s
            entries = WeylOperator.zero(alg)._expand(m1 + t1, m2 + t2)
            assert entries[0][1] is None
            got = {key[:width]: Scalar({key[width:]: 1 if f is None else f})
                   for key, f in entries}
            assert len(got) == len(entries)
            assert got == reference, (m1, m2)


def test_star_unit_times_h_is_minus_the_qc_gamma_under_every_convention():
    """The hybrid's classical rule is the Weyl rule of sector 2's pair cut
    at h2^1: each star rule of _jet_rules carries the qc Weyl rule's unit,
    and that unit times h is -gamma for all 1024 tuples, so the jet's
    contraction is the h2 Heisenberg pair's."""
    h = Scalar.symbol("h")
    count = 0
    for conv in _all_conventions():
        for dof in (1, 2):
            sig = GroupSignature(dof, conv)
            weyl, rules = qc_algebra(sig).contraction_rules, _jet_rules(sig)
            for (_, _, unit), (raised, step, star) in zip(weyl, rules[dof:], strict=True):
                assert (raised, step) == (4 * dof, (1,)), conv
                assert star == unit, conv
            assert scalar(rules[dof][2]) * h == -qc_algebra(sig).gammas[0], conv
        count += 1
    assert count == 1024


def test_algebras_are_shared_per_signature_in_bounded_caches():
    for build in (qq_algebra, qc_algebra):
        assert build(GroupSignature(2)) is build(GroupSignature(2))
        assert build(GroupSignature(1)) is not build(GroupSignature(2))
        assert build.cache_info().maxsize is not None


def _all_conventions():
    for eps, kx, ky, ks in itertools.product(UNIT_VALUES, repeat=4):
        for orient, rep_s in itertools.product((1, -1), repeat=2):
            yield ConventionTuple(eps, kx, ky, ks, orient, rep_s)


def _fixed_aobservable(sig):
    """A dof-2 observable whose terms repeat and vary the central powers
    (s1, s2), including an s2 of 2 that rep_qc truncates."""
    def el(*terms):
        return Element(sig, {mono: coeff for mono, coeff in terms})
    plain = el(((0, 0, 1, 0, 0, 0, 0, 2, 0, 0), Fraction(1, 2)),
               ((0, 0, 0, 1, 0, 0, 1, 0, 0, 0), 3),
               ((2, 1, 1, 1, 0, 0, 0, 0, 1, 0), CR_I),
               ((2, 1, 0, 0, 1, 0, 0, 0, 0, 1), -2),
               ((1, 2, 0, 0, 0, 1, 0, 0, 0, 0), 5),
               ((1, 0, 0, 0, 0, 0, 0, 0, 0, 0), Fraction(-3, 4)))
    a1 = el(((0, 1, 1, 0, 0, 0, 0, 0, 0, 0), 7), ((0, 0, 0, 0, 0, 2, 1, 0, 0, 0), -1))
    a2 = el(((1, 0, 0, 1, 0, 0, 0, 0, 0, 1), 2), ((3, 0, 0, 0, 0, 0, 0, 0, 0, 0), CR_I))
    return AObservable(plain, a1, a2)


def _reference_rep_qq(a):
    sig = a.signature
    unit = scalar(CR_I * sig.convention.rep_s_sign)
    h1, h2 = unit * Scalar.symbol("h1"), unit * Scalar.symbol("h2")
    alg = qq_algebra(sig)
    out = WeylOperator.zero(alg)
    for part, extra in ((a.plain, S_ONE), (a.a1_part, h1 ** -1), (a.a2_part, h2 ** -1)):
        for mono, coeff in part.terms.items():
            c = coeff * extra * h1 ** mono[0] * h2 ** mono[1]
            out = out + WeylOperator(alg, {mono[2:]: c})
    return out


def _reference_rep_qc(a):
    sig = a.signature
    unit = scalar(CR_I * sig.convention.rep_s_sign)
    h = unit * Scalar.symbol("h")
    out = HybridObservable(sig, {})
    for part, extra in ((a.plain, S_ONE), (a.a1_part, h ** -1)):
        for mono, coeff in part.terms.items():
            if mono[1] > 1:
                continue
            c = coeff * extra * h ** mono[0] * unit ** mono[1]
            key = mono[2:] + (mono[1],)
            out = out + HybridObservable(sig, {key: c})
    return out


def test_representations_match_a_per_term_reference_under_every_convention():
    count = 0
    for conv in _all_conventions():
        a = _fixed_aobservable(GroupSignature(2, conv))
        assert rep_qq(a) == _reference_rep_qq(a), conv
        assert rep_qc(a) == _reference_rep_qc(a), conv
        count += 1
    assert count == 1024


# -- the central factors of rep_qq / rep_qc ---------------------------------


def test_factor_tables_stay_with_their_signature():
    """Conventions that differ only in rep_s_sign and eps_comm share
    gamma_unit, so their algebras compare equal, yet their central factors
    differ in sign: each signature's images must match the per-term
    reference, whichever signature was represented first."""
    sigs = [GroupSignature(2, ConventionTuple(eps, CR_ONE, CR_ONE, CR_ONE, -1, rep_s))
            for eps, rep_s in ((CR_MINUS_ONE, -1), (CR_ONE, 1))]
    assert sigs[0].convention.gamma_unit == sigs[1].convention.gamma_unit
    assert qq_algebra(sigs[0]) == qq_algebra(sigs[1])
    assert qc_algebra(sigs[0]) == qc_algebra(sigs[1])
    rng = random.Random(1200)
    for _ in range(3):
        for sig in sigs + sigs[::-1]:
            a = rand_element(rng, sig, max_degree=3)
            b = rand_element(rng, sig, max_degree=3)
            for x in (_fixed_aobservable(sig), universal_bracket(a, b), AObservable.of(a)):
                assert rep_qq(x) == _reference_rep_qq(x), sig.convention
                assert rep_qc(x) == _reference_rep_qc(x), sig.convention


@pytest.mark.parametrize("dof", [1, 2, 3])
def test_a_formal_antiderivative_is_the_inverse_of_its_central_image(dof):
    """A_s is S_s^-1: rep(apply_antiderivative(e, s)) * rep(S_s) == rep(e)
    for rep_qq at s = 1, 2 and for rep_qc at s = 1 (S2's image there is
    the jet, which has no inverse).  An AObservable key has at most one
    negative exponent, -1 at index 0 or 1."""
    rng = random.Random(1400 + dof)
    sig = GroupSignature(dof)
    central = {s: Element.generator(sig, f"S{s}") for s in (1, 2)}
    formal = stripped = 0
    for _ in range(6):
        e = rand_element(rng, sig, max_degree=4)
        b = rand_element(rng, sig, max_degree=4)
        for s in (1, 2):
            anti = apply_antiderivative(e, s)
            assert rep_qq(anti) * rep_qq(central[s]) == rep_qq(e), (s, e)
            if s == 1:
                assert rep_qc(anti) * rep_qc(central[s]) == rep_qc(e), e
            formal += sum(k[s - 1] == 0 for k in e.flat)
            stripped += sum(k[s - 1] > 0 for k in e.flat)
        for x in (apply_antiderivative(e, 1), apply_antiderivative(e, 2),
                  universal_bracket(e, b)):
            for key in x.flat:
                negative = [i for i, n in enumerate(key[:-3]) if n < 0]
                assert negative in ([], [0], [1]), key
                assert all(key[i] == -1 for i in negative), key
    assert formal and stripped


def test_hybrid_commutators_expand_only_pairs_that_contract(monkeypatch):
    """A jet-1 key has no classical mask bits, since a star contraction past
    jet 1 reaches jet 2, which is dropped: so no pair that the commutator
    expands returns the uncontracted entry 0 alone.  Two jet-1 keys whose
    Weyl pairs contract expand to nothing."""
    rng = random.Random(1500)
    pairs = []
    for dof in (1, 2, 3):
        sig = GroupSignature(dof)
        for _ in range(8):
            a, b = (rep_qc(mechanise_weyl(sig, rand_classical(rng, dof, max_degree=4)))
                    for _ in range(2))
            pairs.append((a, b, multiply_hybrid(a, b) - multiply_hybrid(b, a)))
    expand = HybridObservable._expand
    sizes = []

    def spy(self, k1, k2):
        out = expand(self, k1, k2)
        sizes.append(len(out))
        return out

    monkeypatch.setattr(HybridObservable, "_expand", spy)
    for a, b, difference in pairs:
        assert commutator_hybrid(a, b) == difference
    assert sum(n > 1 for n in sizes) >= 20
    assert 1 not in sizes


@pytest.mark.parametrize("dof", [1, 2, 3])
def test_hybrid_commutators_skip_pairs_past_jet_1(dof):
    """Two jet-1 keys multiply past jet 1 whole, even where their Weyl pairs
    contract, and the commutator still equals the products' difference.
    The seeded images hold many such pairs."""
    sig = GroupSignature(dof)
    rng = random.Random(1700 + dof)
    s2 = Element.generator(sig, "S2")

    def image():
        return rep_qc(rand_element(rng, sig, max_degree=4, terms=4)
                      + s2 * rand_element(rng, sig, max_degree=4, terms=4))

    pairs = [(image(), image()) for _ in range(20)]
    jet2 = 0
    for a, b in pairs:
        for k1, k2 in itertools.product(a.flat, b.flat):
            (x1, y1), (x2, y2) = pair_masks(k1, 0, dof), pair_masks(k2, 0, dof)
            jet2 += k1[-4] == k2[-4] == 1 and bool(y1 & x2 or y2 & x1)
    expected = [multiply_hybrid(a, b) - multiply_hybrid(b, a) for a, b in pairs]
    assert [commutator_hybrid(a, b) for a, b in pairs] == expected
    assert jet2 >= 10


@pytest.mark.parametrize("bad", [1.0, True, "1"])
def test_sector_and_index_arguments_refuse_non_integers(bad):
    """A sector or a dof index that is not an int is refused by name, where
    a float or a bool used to pass the range check and land on a slot (True
    as 1: q2 at dof 2), and a string raised a bare TypeError."""
    sig = GroupSignature(2)
    hybrid = HybridObservable.identity(sig)
    for call, field in ((lambda: slot_index(2, bad, 1), "sector"),
                        (lambda: ClassicalPoly.var(1, "q", bad), "sector"),
                        (lambda: apply_antiderivative(Element.one(sig), bad), "sector"),
                        (lambda: hybrid.derivative_q(bad), "dof index"),
                        (lambda: hybrid.derivative_p(bad), "dof index"),
                        (lambda: WeylOperator.generator(qq_algebra(sig), "Q", bad), "dof index")):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
            call()
