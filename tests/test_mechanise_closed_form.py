"""The closed-form Weyl mechanisation against its definition.

``mechanise_weyl`` and ``weyl_symbol`` compute the symmetrized product with
McCoy's formula through the normal-ordering kernel, and
``_ordered_weyl_transport`` orders P before Q with the same kernel.  The
reference here is the definition itself: the kappa-weighted average over
every distinct ordering of a monomial's generators, each ordering multiplied
out generator by generator with ``multiply``.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from pbracket.errors import NotMechanised
from pbracket.group_algebra import ConventionTuple, Element, GroupSignature
from pbracket.pmech import ClassicalPoly, mechanise_weyl, weyl_symbol
from pbracket.qc_bracket import _ordered_weyl_transport
from pbracket.representations import WeylOperator, qc_algebra
from pbracket.scalars import CR_I, CR_MINUS_I, CR_MINUS_ONE, CR_ONE, CRat, Scalar


class OrderingSum:
    """Sum over all distinct orderings of a generator multiset, grouped by
    the first generator: T(M) = sum over distinct g in M of g * T(M - g).

    The grouping only shares work between orderings (the memo holds the
    sums of sub-multisets); every ordering is still multiplied out."""

    def __init__(self, sig: GroupSignature):
        self.sig = sig
        self.memo = {(): Element.one(sig)}

    def total(self, word):
        got = self.memo.get(word)
        if got is None:
            got = Element.zero(self.sig)
            for i, g in enumerate(word):
                if i and word[i - 1] == g:
                    continue
                mono = [0] * self.sig.width
                mono[g] = 1
                got = got + Element.monomial(self.sig, mono) * self.total(word[:i] + word[i + 1:])
            self.memo[word] = got
        return got

    def mechanise(self, f: ClassicalPoly) -> Element:
        conv = self.sig.convention
        out = Element.zero(self.sig)
        for mono, coeff in f.terms.items():
            word, kappa = [], CR_ONE
            for idx, e in enumerate(mono):
                word.extend([2 + idx] * e)
                kappa = kappa * (conv.kappa_x if idx % 2 == 0 else conv.kappa_y) ** e
            orderings = math.factorial(len(word))
            for e in mono:
                orderings //= math.factorial(e)
            out = out + self.total(tuple(word)).scale(coeff * kappa / orderings)
        return out


def test_ordering_sum_is_the_plain_permutation_average():
    sig = GroupSignature(1)
    ref = OrderingSum(sig)
    word = (2, 2, 3, 3, 4, 5)
    orderings = set(itertools.permutations(word))
    total = Element.zero(sig)
    for order in orderings:
        prod = Element.one(sig)
        for g in order:
            mono = [0] * sig.width
            mono[g] = 1
            prod = prod * Element.monomial(sig, mono)
        total = total + prod
    assert ref.total(word) == total
    f = ClassicalPoly(1, {(2, 2, 1, 1): 1})
    assert ref.mechanise(f) == total.scale(Fraction(1, len(orderings)))


def _monomials(width, max_degree, max_exponent):
    for mono in itertools.product(range(max_exponent + 1), repeat=width):
        if sum(mono) <= max_degree:
            yield mono


@pytest.mark.parametrize("eps", [CR_ONE, CR_MINUS_ONE, CR_I, CR_MINUS_I])
def test_dof1_monomials_up_to_degree_8_match_the_ordering_average(eps):
    conv = ConventionTuple(eps_comm=eps, kappa_x=CR_I, kappa_y=CR_MINUS_ONE,
                           kappa_s=CR_ONE, orient=-1, rep_s_sign=-1)
    sig = GroupSignature(1, conv)
    ref = OrderingSum(sig)
    monos = list(_monomials(4, 8, 8))
    assert len(monos) == 495
    for mono in monos:
        f = ClassicalPoly(1, {mono: CRat(Fraction(2, 3), Fraction(-1))})
        assert mechanise_weyl(sig, f) == ref.mechanise(f), mono


def test_dof2_low_exponent_monomials_match_the_ordering_average():
    sig = GroupSignature(2)
    ref = OrderingSum(sig)
    monos = list(_monomials(8, 6, 2))
    assert len(monos) == 1711
    for mono in monos:
        f = ClassicalPoly(2, {mono: 1})
        assert mechanise_weyl(sig, f) == ref.mechanise(f), mono


def test_degree_20_monomial_mechanises_and_round_trips_fast():
    sig = GroupSignature(1)
    f = ClassicalPoly(1, {(10, 10, 0, 0): 3})
    start = time.perf_counter()
    e = mechanise_weyl(sig, f)
    assert weyl_symbol(e) == f
    assert time.perf_counter() - start < 1.0
    # sym(X^10 Y^10) has one term per contraction count k = 0..10
    assert len(e.terms) == 11
    assert e.terms[(10, 0, 0, 0, 0, 0)] == Scalar.of(3 * math.factorial(10)
                                                     * Fraction(1, 2) ** 10)


def _random_poly(rng, dof, degree):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        mono = [0] * (4 * dof)
        for _ in range(rng.randint(0, degree)):
            mono[rng.randrange(4 * dof)] += 1
        terms[tuple(mono)] = CRat(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                                  Fraction(rng.randint(-2, 2)))
    return ClassicalPoly(dof, terms)


def test_weyl_symbol_rejects_perturbed_images():
    rng = random.Random(11)
    sig = GroupSignature(2)
    checked = 0
    while checked < 40:
        f = _random_poly(rng, 2, 5)
        e = mechanise_weyl(sig, f)
        corrections = [m for m in e.terms if m[0] or m[1]]
        if not corrections:
            continue
        assert weyl_symbol(e) == f
        # change one correction term's coefficient: the S-free part still
        # names f, but f does not mechanise to the perturbed element
        mono = rng.choice(corrections)
        perturbed = e + Element.monomial(sig, mono, CRat(Fraction(1, 7)))
        with pytest.raises(NotMechanised):
            weyl_symbol(perturbed)
        # add a central term where the image has none
        s_mono = (1,) + (0,) * (sig.width - 1)
        if s_mono not in e.terms:
            with pytest.raises(NotMechanised):
                weyl_symbol(e + Element.monomial(sig, s_mono))
        checked += 1


def _explicit_transport(sig, f):
    alg = qc_algebra(sig)
    anti = sig.convention.anti_normal_order
    out = WeylOperator.zero(alg)
    for mono, c in f.terms.items():
        op = WeylOperator.identity(alg)
        for i in range(sig.dof):
            a, b = mono[2 * i], mono[2 * i + 1]
            Q = WeylOperator.generator(alg, "Q", i)
            P = WeylOperator.generator(alg, "P", i)
            op = op * (P ** b * Q ** a if anti else Q ** a * P ** b)
        out = out + op.scale(c)
    return out


@pytest.mark.parametrize("conv, anti", [
    (ConventionTuple.standard(), True),
    (ConventionTuple(CR_MINUS_ONE, CR_ONE, CR_ONE, CR_ONE, -1, 1), False),
])
@pytest.mark.parametrize("dof", [1, 2])
def test_ordered_transport_matches_explicit_products(conv, anti, dof):
    sig = GroupSignature(dof, conv)
    assert conv.anti_normal_order is anti
    rng = random.Random(dof)
    for _ in range(15):
        f = _random_poly(rng, dof, 6)
        sector1 = ClassicalPoly(dof, {m[:2 * dof] + (0,) * (2 * dof): c
                                      for m, c in f.terms.items()})
        assert _ordered_weyl_transport(sig, sector1) == _explicit_transport(sig, sector1)
