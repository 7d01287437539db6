"""Exact coefficient arithmetic: complex rationals and Planck-monomial
fractions."""

import random
from fractions import Fraction

import pytest

from pbracket.scalars import (CRat, CR_I, CR_MINUS_I, CR_MINUS_ONE, CR_ONE,
                              CR_ZERO, S_ONE, S_ZERO, UNIT_VALUES, Scalar, flat_value,
                              scalar, unit_cycle)


def test_crat_construction_and_equality():
    a = CRat(Fraction(1, 2), Fraction(-3))
    assert a.re == Fraction(1, 2)
    assert a.im == Fraction(-3)
    assert CRat.of(2) == CRat(Fraction(2))
    assert CRat.of(Fraction(1, 3)).re == Fraction(1, 3)
    with pytest.raises(TypeError):
        CRat.of(0.5)


def test_crat_rejects_non_rational_parts():
    # a float part would make every later result inexact
    for re, im in ((0.5, 0), (1, 0.5), (Fraction(1, 2), 1j), ("1", 0)):
        with pytest.raises(TypeError):
            CRat(re, im)
    assert type(CRat(1).re) is Fraction
    assert type(CRat(1).im) is Fraction
    assert CRat(True) == CR_ONE


def test_crat_field_operations():
    a = CRat(Fraction(1), Fraction(2))
    b = CRat(Fraction(3), Fraction(-1))
    assert a + b == CRat(Fraction(4), Fraction(1))
    assert a - b == CRat(Fraction(-2), Fraction(3))
    # (1+2i)(3-i) = 3 - i + 6i + 2 = 5 + 5i
    assert a * b == CRat(Fraction(5), Fraction(5))
    assert (a / b) * b == a


def test_crat_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        CR_ONE / CR_ZERO


def test_crat_powers():
    assert CR_I ** 2 == CR_MINUS_ONE
    assert CR_I ** 3 == CR_MINUS_I
    assert CR_I ** 4 == CR_ONE
    assert CRat.of(3) ** 0 == CR_ONE


def test_unit_cycle_holds_every_power_of_a_unit():
    """u^n is entry n % 4 of the unit's cycle for negative n too, as the
    same flat value, an int for a real integer; a non-unit is refused."""
    for u in UNIT_VALUES:
        for n in range(-4, 9):
            got, expected = unit_cycle(u)[n % 4], flat_value(u ** n)
            assert got == expected and type(got) is type(expected), (u, n)
    for bad in (CRat(2), CRat(1, 1), CR_ZERO, 1):
        with pytest.raises(ValueError, match="not a unit"):
            unit_cycle(bad)


def test_crat_rendering():
    assert str(CR_ONE) == "1"
    assert str(CR_MINUS_ONE) == "-1"
    assert str(CR_I) == "i"
    assert str(CR_MINUS_I) == "-i"
    assert str(CRat(Fraction(-1, 2))) == "-1/2"
    assert str(CRat(Fraction(0), Fraction(2))) == "2i"
    assert str(CRat(Fraction(1), Fraction(-2))) == "(1-2i)"


def test_scalar_symbols_and_cancellation():
    h1 = Scalar.symbol("h1")
    h2 = Scalar.symbol("h2")
    expr = (h1 * h2 + h2 * h2) / h2
    assert expr == h1 + h2
    # common monomial factors cancel on construction
    assert (h1 * h1) / h1 == h1


def test_scalar_symbol_equals_validated_construction():
    for name, slot in (("h", 0), ("h1", 1), ("h2", 2)):
        for power in range(-3, 4):
            e = [0, 0, 0]
            e[slot] = power
            for coeff in (3, -1, Fraction(-2, 5), CRat(Fraction(1, 2), 1), 0, CR_ZERO):
                assert Scalar.symbol(name, power, coeff) == Scalar({tuple(e): coeff})
    assert Scalar.symbol("h", 2, 0).terms == {}
    with pytest.raises(ValueError):
        Scalar.symbol("hbar")


def test_scalar_division_restrictions():
    h1 = Scalar.symbol("h1")
    h2 = Scalar.symbol("h2")
    with pytest.raises(ZeroDivisionError):
        (h1 + h2).inverse()
    assert (S_ONE / h1) * h1 == S_ONE


def test_scalar_substitute_exact():
    h1 = Scalar.symbol("h1")
    h2 = Scalar.symbol("h2")
    expr = (h1 + h2) / h1
    assert expr.substitute(h1=1, h2=1) == scalar(2)
    assert expr.substitute(h1=Fraction(1, 2), h2=Fraction(1, 3)) == scalar(Fraction(5, 3))
    with pytest.raises(ZeroDivisionError):
        expr.substitute(h1=0)
    # partial substitution keeps the other symbol formal
    partial = expr.substitute(h2=1)
    assert partial.substitute(h1=2) == scalar(Fraction(3, 2))


def test_scalar_as_crat_rejects_symbols():
    with pytest.raises(ValueError):
        Scalar.symbol("h").as_crat()
    assert scalar(5).as_crat() == CRat.of(5)


def test_scalar_rendering():
    h = Scalar.symbol("h")
    h1 = Scalar.symbol("h1")
    h2 = Scalar.symbol("h2")
    assert str((h1 + h2) / h1) == "(h1 + h2)/h1"
    assert str(scalar(CRat(Fraction(0), Fraction(2))) * h) == "2i*h"
    assert str(S_ONE / (scalar(CR_I) * h)) == "-i/h"
    assert str(S_ZERO) == "0"


def _rand_scalar(rng, terms):
    out = {}
    while len(out) < terms:
        e = tuple(rng.randint(-2, 3) for _ in range(3))
        out[e] = CRat(Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                      Fraction(rng.choice((0, rng.randint(-3, 3))), rng.randint(1, 3)))
        if out[e].is_zero:
            del out[e]
    return Scalar(out)


def test_scalar_product_is_the_sum_of_its_term_products():
    """The monomial product builds its map without accumulate; on seeded
    1-4-term Scalars it must agree with the term-by-term sum and with the
    coefficient products accumulated by hand, and hold no zero."""
    rng = random.Random(1107)
    for _ in range(300):
        a = _rand_scalar(rng, rng.randint(1, 4))
        b = _rand_scalar(rng, rng.randint(1, 4))
        product = a * b
        by_term = S_ZERO
        for e, c in b.terms.items():
            by_term = by_term + a * Scalar({e: c})
        by_hand = {}
        for ea, x in a.terms.items():
            for eb, y in b.terms.items():
                key = tuple(i + j for i, j in zip(ea, eb))
                by_hand[key] = by_hand.get(key, CR_ZERO) + x * y
        assert product == by_term == Scalar(by_hand) == b * a
        assert not any(c.is_zero for c in product.terms.values())
    h = Scalar.symbol("h")
    assert ((h + 1) * (h - 1)).terms == (h * h - 1).terms   # cancelling cross terms
