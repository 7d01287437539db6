"""Algebraic laws checked as random properties."""

import copy
import operator
import pickle
import random
from fractions import Fraction

from hypothesis import assume, given, settings
import hypothesis.strategies as st
import pytest

from pbracket.scalars import (CRat, CR_ONE, S_ONE, UNIT_VALUES, Scalar,
                              scalar, unit_to_str)
from pbracket.group_algebra import (Element, GroupSignature, commutator,
                                    delta_to_element, element_to_delta)
from pbracket.pmech import (ClassicalPoly, mechanise_weyl, poisson_classical,
                            universal_bracket, weyl_symbol)
from pbracket.qc_bracket import qc_bracket
from pbracket import oracle
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
    assert x.is_zero == (re == 0 and im == 0)
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
    # constant sums and products are the single term at exponent (0, 0, 0)
    # that Scalar.make builds
    zero = (0, 0, 0)
    assert scalar(x) + scalar(y) == Scalar.make({zero: x + y})
    assert scalar(x) * scalar(y) == Scalar.make({zero: x * y})
    assert (scalar(x) - scalar(x)).is_zero
    h = Scalar.symbol("h")
    assert (scalar(x) * h + scalar(y) * h) / h == Scalar.make({zero: x + y})


# ---------------------------------------------------------------------------
# Scalar against the numerator / denominator form it was stored in before it
# became a Laurent term map.  The reference keeps those formulas: a value is
# (num, den), num a sorted tuple of (exponent triple, CRat) with nonnegative
# exponents and den a monomial, the common monomial factor cancelled.

ZERO_EXP = (0, 0, 0)
SYMS = ("h", "h1", "h2")


def frac_make(num, den=ZERO_EXP):
    clean = {e: c for e, c in num.items() if not c.is_zero}
    if not clean:
        return (), ZERO_EXP
    red = tuple(min(den[j], min(e[j] for e in clean)) for j in range(3))
    den = tuple(den[j] - red[j] for j in range(3))
    clean = {tuple(e[j] - red[j] for j in range(3)): c for e, c in clean.items()}
    return tuple(sorted(clean.items())), den


def frac_add(x, y):
    den = tuple(max(x[1][j], y[1][j]) for j in range(3))
    out = {}
    for num, d in x, y:
        for e, c in num:
            key = tuple(e[j] + den[j] - d[j] for j in range(3))
            out[key] = out.get(key, CRat(0)) + c
    return frac_make(out, den)


def frac_mul(x, y):
    out = {}
    for e1, c1 in x[0]:
        for e2, c2 in y[0]:
            key = tuple(a + b for a, b in zip(e1, e2))
            out[key] = out.get(key, CRat(0)) + c1 * c2
    return frac_make(out, tuple(a + b for a, b in zip(x[1], y[1])))


def frac_inverse(x):
    (e, c), = x[0]
    return frac_make({x[1]: CR_ONE / c}, e)


def frac_pow(x, k):
    if k < 0:
        x, k = frac_inverse(x), -k
    out = frac_make({ZERO_EXP: CR_ONE})
    for _ in range(k):
        out = frac_mul(out, x)
    return out


def frac_substitute(x, values):
    vals = {SYMS.index(name): CRat.of(v) for name, v in values.items()}
    out = {}
    for e, c in x[0]:
        key = list(e)
        for idx, v in vals.items():
            c = c * v ** key[idx]
            key[idx] = 0
        out[tuple(key)] = out.get(tuple(key), CRat(0)) + c
    den = list(x[1])
    scale = CR_ONE
    for idx, v in vals.items():
        if den[idx]:
            if v.is_zero:
                raise ZeroDivisionError
            scale = scale * v ** den[idx]
            den[idx] = 0
    return frac_mul(frac_make(out, tuple(den)), frac_make({ZERO_EXP: CR_ONE / scale}))


def frac_str(x):
    def powers(e):
        return "*".join(n if k == 1 else f"{n}^{k}" for n, k in zip(SYMS, e) if k)

    out = ""
    for e, c in sorted(x[0], reverse=True):
        cs, body = str(c), powers(e)
        term = cs if not body else body if cs == "1" else f"-{body}" if cs == "-1" else f"{cs}*{body}"
        if not out:
            out = term
        elif term.startswith("-"):
            out += f" - {term[1:]}"
        else:
            out += f" + {term}"
    out = out or "0"
    dstr = powers(x[1])
    if dstr:
        if len(x[0]) > 1 or " " in out or "*" in out:
            out = f"({out})"
        if "*" in dstr:
            dstr = f"({dstr})"
        out = f"{out}/{dstr}"
    return out


def frac_to_json(x):
    return {
        "numerator": [{"re": [c.re.numerator, c.re.denominator],
                       "im": [c.im.numerator, c.im.denominator],
                       "h_pow": e[0], "h1_pow": e[1], "h2_pow": e[2]}
                      for e, c in x[0]],
        "denominator": {"h_pow": x[1][0], "h1_pow": x[1][1], "h2_pow": x[1][2]},
    }


small_crats = st.one_of(nonzero_coeffs, crats, st.just(CRat(0)))
triples = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))


@st.composite
def fraction_forms(draw):
    """(numerator terms, denominator): the input of Scalar.make, zeros and
    uncancelled common factors included."""
    num = draw(st.dictionaries(triples, small_crats, max_size=3))
    den = draw(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)))
    return num, den


def both(form):
    """The Scalar and the reference value of one (num, den) input."""
    return Scalar.make(*form), frac_make(*form)


def fraction_of(s):
    return s.num, s.den


@settings(max_examples=300, deadline=None)
@given(fraction_forms(), fraction_forms(), st.integers(-3, 3))
def test_scalar_arithmetic_matches_fraction_form(fx, fy, k):
    (x, rx), (y, ry) = both(fx), both(fy)
    assert fraction_of(x) == rx
    assert fraction_of(x + y) == frac_add(rx, ry)
    assert fraction_of(x - y) == frac_add(rx, frac_mul(ry, frac_make({ZERO_EXP: CRat(-1)})))
    assert fraction_of(-x) == frac_mul(rx, frac_make({ZERO_EXP: CRat(-1)}))
    assert fraction_of(x * y) == frac_mul(rx, ry)
    assert (x == y) == (rx == ry)
    if len(ry[0]) == 1:
        assert fraction_of(y.inverse()) == frac_inverse(ry)
        assert fraction_of(x / y) == frac_mul(rx, frac_inverse(ry))
        assert fraction_of(y ** k) == frac_pow(ry, k)
    else:
        with pytest.raises(ZeroDivisionError):
            y.inverse()
        with pytest.raises(ZeroDivisionError):
            x / y
        assert fraction_of(y ** abs(k)) == frac_pow(ry, abs(k))


substitutions = st.dictionaries(
    st.sampled_from(SYMS), st.one_of(st.just(0), nonzero_coeffs, rationals), max_size=3)


@settings(max_examples=300, deadline=None)
@given(fraction_forms(), substitutions)
def test_scalar_substitute_matches_fraction_form(fx, values):
    x, rx = both(fx)
    try:
        expected = frac_substitute(rx, values)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            x.substitute(**values)
        return
    assert fraction_of(x.substitute(**values)) == expected


@settings(max_examples=300, deadline=None)
@given(fraction_forms())
def test_scalar_queries_and_output_match_fraction_form(fx):
    x, rx = both(fx)
    for j, name in enumerate(SYMS):
        assert x.uses_symbol(name) == (rx[1][j] != 0 or any(e[j] for e, _ in rx[0]))
    if rx[1] == ZERO_EXP and all(e == ZERO_EXP for e, _ in rx[0]):
        assert x.as_crat() == (rx[0][0][1] if rx[0] else CRat(0))
    else:
        with pytest.raises(ValueError):
            x.as_crat()
    assert str(x) == frac_str(rx)
    assert x.to_json() == frac_to_json(rx)


@settings(max_examples=300, deadline=None)
@given(fraction_forms())
def test_matrix_oracle_value_at_one_is_the_exact_substitution(fx):
    """The matrix oracle's one float conversion: a Scalar's value at
    h = h1 = h2 = 1 is its exact substitution there, converted once."""
    x, rx = both(fx)
    num, den = frac_substitute(rx, dict.fromkeys(SYMS, 1))
    assert den == ZERO_EXP and len(num) <= 1
    assert oracle._at_one(x) == (num[0][1] if num else CRat(0)).to_complex()


@settings(max_examples=300, deadline=None)
@given(fraction_forms(), fraction_forms(), triples)
def test_scalar_equal_values_hash_equal(fx, fy, lift):
    x, y = Scalar.make(*fx), Scalar.make(*fy)
    # the same value by other routes: an uncancelled common monomial, a
    # product and quotient by a monomial, a sum and difference
    num, den = fx
    lifted = Scalar.make({tuple(a + b for a, b in zip(e, lift)): c for e, c in num.items()},
                         tuple(a + b for a, b in zip(den, lift)))
    mono = Scalar.make({lift: CRat(3)})
    for same in (lifted, x * mono / mono, (x + y) - y, pickle.loads(pickle.dumps(x))):
        assert same == x and hash(same) == hash(x)


# -- relabelling slots within a sector ------------------------------------------


def _slot_poly(rng, dof, slots, max_degree=3, terms=3):
    """A small classical polynomial on the given slots only, so that two of
    them share slots and contract even at dof 64."""
    out = {}
    for _ in range(terms):
        mono = [0] * (4 * dof)
        for _ in range(rng.randint(1, max_degree)):
            mono[2 * rng.choice(slots) + rng.randint(0, 1)] += 1
        out[tuple(mono)] = CRat(rng.choice((-2, -1, 1, 3)), rng.choice((0, 0, 1)))
    return ClassicalPoly(dof, out)


def _relabel_pairs(mono, first, perm):
    """mono with the (x, y) pair of slot t, laid out from index first, moved
    to slot perm[t]."""
    out = list(mono)
    for t, u in enumerate(perm):
        out[first + 2 * u:first + 2 * u + 2] = mono[first + 2 * t:first + 2 * t + 2]
    return tuple(out)


@pytest.mark.parametrize("dof", [2, 3, 8, 64])
def test_relabelling_slots_within_a_sector_commutes_with_the_engine(dof):
    """Slots of one sector are interchangeable: relabel them by a random
    permutation within each sector, and the commutator, the Poisson bracket
    and the rep_qc images (of the inputs and of their universal bracket)
    come out relabelled the same way."""
    rng = random.Random(3100 + dof)
    sig = GroupSignature(dof)
    contracted = 0
    for _ in range(6):
        perm = rng.sample(range(dof), dof) + [dof + t for t in rng.sample(range(dof), dof)]

        def moved_poly(f):
            return ClassicalPoly(dof, {_relabel_pairs(m, 0, perm): c for m, c in f.terms.items()})

        def moved_element(e):
            return Element(sig, {_relabel_pairs(m, 2, perm): c for m, c in e.terms.items()})

        def moved_hybrid(x):
            """A hybrid key's pairs are the slots' in order: sector 1's as
            Weyl pairs, then sector 2's as classical (q, p) pairs."""
            return type(x)(sig, {_relabel_pairs(k, 0, perm): c for k, c in x.terms.items()})

        slots = rng.sample(range(2 * dof), 4)
        f, g = (_slot_poly(rng, dof, slots) for _ in range(2))
        pf, pg = moved_poly(f), moved_poly(g)
        assert poisson_classical(pf, pg) == moved_poly(poisson_classical(f, g))
        k1, k2 = mechanise_weyl(sig, f), mechanise_weyl(sig, g)
        assert mechanise_weyl(sig, pf) == moved_element(k1)
        c = commutator(k1, k2)
        contracted += not c.is_zero
        assert commutator(moved_element(k1), moved_element(k2)) == moved_element(c)
        assert rep_qc(moved_element(k1)) == moved_hybrid(rep_qc(k1))
        u = universal_bracket(moved_element(k1), moved_element(k2))
        assert rep_qc(u) == moved_hybrid(rep_qc(universal_bracket(k1, k2)))
    assert contracted >= 3
