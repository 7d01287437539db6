"""Algebraic laws checked as random properties."""

import copy
import operator
import pickle
from fractions import Fraction

from hypothesis import assume, given, settings
import hypothesis.strategies as st
import pytest

from pbracket.scalars import (CRat, CR_ONE, S_ONE, UNIT_VALUES, Scalar,
                              scalar, unit_to_str)
from pbracket.group_algebra import (Element, GroupSignature, commutator,
                                    delta_to_element, element_to_delta)
from pbracket.pmech import (ClassicalPoly, mechanise_weyl, universal_bracket,
                            weyl_symbol)
from pbracket.qc_bracket import qc_bracket
from pbracket.representations import rep_qc, rep_qq

SIG = GroupSignature(dof=1)

nonzero_coeffs = st.builds(
    lambda re, im: CRat(Fraction(re), Fraction(im)),
    st.integers(-3, 3), st.integers(-1, 1),
).filter(lambda c: not c.is_zero)

# General complex rationals, and the int / Fraction operands CRat mixes with.
rationals = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))
crats = st.one_of(
    nonzero_coeffs,
    st.builds(CRat, rationals, rationals),
    st.builds(CRat, st.integers(-9, 9)),
    st.builds(lambda im: CRat(0, im), rationals),
    st.builds(lambda re, im: CRat(-abs(re), im), rationals, rationals),
)
operands = st.one_of(crats, st.integers(-9, 9), rationals)


@st.composite
def monomials(draw, max_degree=2):
    mono = [0] * SIG.width
    for _ in range(draw(st.integers(0, max_degree))):
        mono[draw(st.integers(0, SIG.width - 1))] += 1
    return tuple(mono)


@st.composite
def elements(draw, max_degree=2, max_terms=2):
    terms = {}
    for _ in range(draw(st.integers(1, max_terms))):
        terms[draw(monomials(max_degree))] = draw(nonzero_coeffs)
    return Element(SIG, terms)


def sector_only(e: Element, sector: int) -> Element:
    other = 2 if sector == 1 else 1
    return Element(SIG, {m: c for m, c in e.terms.items()
                         if not Element(SIG, {m: CR_ONE}).uses_sector(other)})


@st.composite
def classicals(draw, max_degree=3, max_terms=2):
    out = ClassicalPoly.constant(SIG.dof, 0)
    for _ in range(draw(st.integers(1, max_terms))):
        term = ClassicalPoly.constant(SIG.dof, draw(st.integers(-3, 3)))
        for _ in range(draw(st.integers(0, max_degree))):
            kind = draw(st.sampled_from("qp"))
            sector = draw(st.sampled_from((1, 2)))
            term = term * ClassicalPoly.var(SIG.dof, kind, sector)
        out = out + term
    return out


@settings(max_examples=40, deadline=None)
@given(elements(), elements(), elements())
def test_convolution_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@settings(max_examples=30, deadline=None)
@given(elements(max_degree=1), elements(max_degree=1), elements(max_degree=1))
def test_commutator_jacobi(a, b, c):
    total = (commutator(commutator(a, b), c)
             + commutator(commutator(b, c), a)
             + commutator(commutator(c, a), b))
    assert total.is_zero


@settings(max_examples=40, deadline=None)
@given(elements(), elements())
def test_commutator_antisymmetric(a, b):
    assert commutator(a, b) == commutator(b, a).scale(-1)


@settings(max_examples=40, deadline=None)
@given(elements(), st.integers(0, 2), st.integers(0, 2))
def test_central_generators_commute(a, k1, k2):
    s = Element(SIG, {(k1, k2) + (0,) * (SIG.width - 2): CR_ONE})
    assert s * a == a * s


@settings(max_examples=40, deadline=None)
@given(elements(), elements())
def test_sectors_commute(a, b):
    a1 = sector_only(a, 1)
    b2 = sector_only(b, 2)
    assert a1 * b2 == b2 * a1


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(
    st.sampled_from(["s1", "s2", "x1", "y1", "x2", "y2"]),
    st.integers(1, 3), min_size=1, max_size=3))
def test_delta_correspondence_round_trips(alpha):
    e = delta_to_element(SIG, alpha)
    coeff, back = element_to_delta(e)
    assert coeff == S_ONE
    assert back == alpha


@settings(max_examples=40, deadline=None)
@given(classicals(), classicals(), st.integers(-3, 3))
def test_mechanisation_linear(f, g, n):
    lhs = mechanise_weyl(SIG, f + g.scale(n))
    assert lhs == mechanise_weyl(SIG, f) + mechanise_weyl(SIG, g).scale(n)


@settings(max_examples=40, deadline=None)
@given(classicals())
def test_weyl_symbol_round_trips(f):
    assert weyl_symbol(mechanise_weyl(SIG, f)) == f


@settings(max_examples=20, deadline=None)
@given(classicals(max_degree=2), classicals(max_degree=2))
def test_universal_bracket_antisymmetric(f, g):
    k1, k2 = mechanise_weyl(SIG, f), mechanise_weyl(SIG, g)
    ab = universal_bracket(k1, k2)
    ba = universal_bracket(k2, k1)
    assert ab.plain == ba.plain.scale(-1)
    assert ab.a1_part == ba.a1_part.scale(-1)
    assert ab.a2_part == ba.a2_part.scale(-1)


@settings(max_examples=20, deadline=None)
@given(elements(max_degree=2), elements(max_degree=2))
def test_rep_qq_respects_products(a, b):
    assert rep_qq(a * b) == rep_qq(a) * rep_qq(b)


@settings(max_examples=15, deadline=None)
@given(elements(max_degree=2), elements(max_degree=2))
def test_rep_qc_respects_products_to_first_jet(a, b):
    assert rep_qc(a * b) == rep_qc(a) * rep_qc(b)


@settings(max_examples=15, deadline=None)
@given(classicals(max_degree=2), classicals(max_degree=2))
def test_qc_bracket_antisymmetric(f, g):
    K1 = rep_qc(mechanise_weyl(SIG, f))
    K2 = rep_qc(mechanise_weyl(SIG, g))
    assert qc_bracket(K1, K2) == -qc_bracket(K2, K1)


# -- CRat against the Fraction-pair formulas it replaced ----------------------
#
# A value is (re, im), a pair of Fractions; these are the formulas CRat used
# when it stored two Fractions, kept here as the reference.


def ref(x):
    if isinstance(x, CRat):
        return (x.re, x.im)
    return (Fraction(x), Fraction(0))


def ref_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def ref_sub(x, y):
    return ref_add(x, (-y[0], -y[1]))


def ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def ref_div(x, y):
    norm = y[0] * y[0] + y[1] * y[1]
    if norm == 0:
        raise ZeroDivisionError
    return ((x[0] * y[0] + x[1] * y[1]) / norm, (x[1] * y[0] - x[0] * y[1]) / norm)


def ref_pow(x, k):
    if k < 0:
        return ref_div((Fraction(1), Fraction(0)), ref_pow(x, -k))
    out = (Fraction(1), Fraction(0))
    for _ in range(k):
        out = ref_mul(out, x)
    return out


def ref_str(x):
    re, im = x
    if re == 0 and im == 0:
        return "0"
    if im == 0:
        return str(re)
    if re == 0:
        if im == 1:
            return "i"
        if im == -1:
            return "-i"
        if im.denominator == 1:
            return f"{im}i"
        return f"({im})i"
    im_abs = abs(im)
    im_str = "i" if im_abs == 1 else (f"{im_abs}i" if im_abs.denominator == 1 else f"({im_abs})i")
    sign = "+" if im > 0 else "-"
    return f"({re}{sign}{im_str})"


_BINARY = [(operator.add, ref_add), (operator.sub, ref_sub),
           (operator.mul, ref_mul), (operator.truediv, ref_div)]


def assert_matches(got, want):
    assert type(got) is CRat
    assert (got.re, got.im) == want
    assert type(got.re) is Fraction and type(got.im) is Fraction
    assert str(got) == ref_str(want)


@settings(max_examples=300, deadline=None)
@given(crats, operands)
def test_crat_arithmetic_matches_fraction_pairs(x, y):
    # y on the right, then on the left (int and Fraction operands take the
    # reflected path)
    for a, b in ((x, y), (y, x)):
        for op, ref_op in _BINARY:
            try:
                want = ref_op(ref(a), ref(b))
            except ZeroDivisionError:
                with pytest.raises(ZeroDivisionError):
                    op(a, b)
                continue
            assert_matches(op(a, b), want)


@settings(max_examples=200, deadline=None)
@given(crats, st.integers(-4, 4))
def test_crat_powers_match_fraction_pairs(x, k):
    if k < 0 and x.is_zero:
        with pytest.raises(ZeroDivisionError):
            x ** k
        return
    assert_matches(x ** k, ref_pow(ref(x), k))


@settings(max_examples=200, deadline=None)
@given(crats)
def test_crat_unary_and_queries_match_fraction_pairs(x):
    re, im = ref(x)
    assert_matches(-x, (-re, -im))
    assert_matches(x.conjugate(), (re, -im))
    assert x.is_zero == (re == 0 and im == 0)
    assert x.is_real == (im == 0)
    assert str(x) == ref_str((re, im))
    assert x.to_complex() == complex(re) + 1j * complex(im)


@settings(max_examples=200, deadline=None)
@given(crats, crats)
def test_crat_equal_values_hash_equal(x, y):
    assume(not y.is_zero)
    same = (x * y) / y
    assert same == x and hash(same) == hash(x)
    again = CRat(x.re) + CRat(0, x.im)
    assert again == x and hash(again) == hash(x)
    assert (x == y) == (ref(x) == ref(y))
    for u in UNIT_VALUES:
        assert unit_to_str(u * y / y) == unit_to_str(u)


@settings(max_examples=100, deadline=None)
@given(crats)
def test_crat_is_immutable_and_round_trips(x):
    for name in ("re", "im", "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, Fraction(1))
    for back in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x), copy.copy(x)):
        assert type(back) is CRat
        assert back == x and hash(back) == hash(x)
        assert str(back) == str(x)


@settings(max_examples=200, deadline=None)
@given(crats, crats)
def test_constant_scalars_match_general_form(x, y):
    # constant Scalars take a shortcut in + and *; Scalar.make is the
    # general canonical form
    zero = (0, 0, 0)
    assert scalar(x) + scalar(y) == Scalar.make({zero: x + y})
    assert scalar(x) * scalar(y) == Scalar.make({zero: x * y})
    assert (scalar(x) - scalar(x)).is_zero
    h = Scalar.symbol("h")
    assert (scalar(x) * h + scalar(y) * h) / h == Scalar.make({zero: x + y})
