"""Exact scalar arithmetic: complex rationals and Laurent polynomials in the
formal parameters h, h1, h2, and PlanckMap, the flat storage of the term
maps over such coefficients, whose product loops multiply ints and CRats.

Everything downstream of this module stays exact; floating point enters only
in the numerical oracle, through :meth:`CRat.to_complex`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add
from typing import Mapping, Optional, Union

from .terms import TermMap, accumulate, clean_terms, power_str, render_terms

__all__ = [
    "CRat",
    "Scalar",
    "PlanckMap",
    "CR_ZERO",
    "CR_ONE",
    "CR_MINUS_ONE",
    "CR_I",
    "CR_MINUS_I",
    "UNIT_VALUES",
    "unit_cycle",
    "unit_from_str",
    "unit_to_str",
    "S_ZERO",
    "S_ONE",
    "scalar",
]

RatLike = Union[int, Fraction]
CRatLike = Union[int, Fraction, "CRat"]


class CRat:
    """Complex number with exact rational real and imaginary parts.

    Stored as one reduced integer triple (a, b, d) meaning (a + b*i)/d, with
    d > 0 and gcd(a, b, d) = 1, so equal values have equal triples.  The
    parts read back as Fractions through ``re`` and ``im``.
    """

    __slots__ = ("_a", "_b", "_d")

    def __new__(cls, re: RatLike = 0, im: RatLike = 0) -> "CRat":
        if type(re) is int and type(im) is int:
            return _new(re, im, 1)
        for part in (re, im):
            if not isinstance(part, (int, Fraction)):
                raise TypeError(f"CRat parts must be int or Fraction, "
                                f"not {type(part).__name__}")
        re, im = Fraction(re), Fraction(im)
        d = lcm(re.denominator, im.denominator)
        return _new(re.numerator * (d // re.denominator),
                    im.numerator * (d // im.denominator), d)

    @staticmethod
    def of(value: CRatLike) -> "CRat":
        c = _coerce(value)
        if c is None:
            raise TypeError(f"cannot build CRat from {type(value).__name__}")
        return c

    def __setattr__(self, name, value):
        raise AttributeError("CRat is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return (CRat, (self.re, self.im))

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    is_zero = property(lambda self: not (self._a or self._b))

    def __eq__(self, other) -> bool:
        if type(other) is int:      # a real integer equals its int, as flat maps store it
            return self._a == other and not self._b and self._d == 1
        if type(other) is not CRat:
            return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self) -> int:
        return hash((self._a, self._b, self._d) if self._b or self._d != 1 else self._a)

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    def __add__(self, other: CRatLike) -> "CRat":
        o = other if type(other) is CRat else _coerce(other)
        if o is None:
            return NotImplemented
        d1, d2 = self._d, o._d
        if d1 == d2:
            a, b, d = self._a + o._a, self._b + o._b, d1
        else:
            a, b, d = self._a * d2 + o._a * d1, self._b * d2 + o._b * d1, d1 * d2
        return _new(a, b, 1) if d == 1 else _reduced(a, b, d)

    __radd__ = __add__

    def __neg__(self) -> "CRat":
        return _new(-self._a, -self._b, self._d)

    def __sub__(self, other: CRatLike) -> "CRat":
        o = other if type(other) is CRat else _coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: CRatLike) -> "CRat":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other: CRatLike) -> "CRat":
        if type(other) is int:      # a flat map's int coefficient or weight
            a, b, d = self._a * other, self._b * other, self._d
            return _new(a, b, 1) if d == 1 else _reduced(a, b, d)
        o = other if type(other) is CRat else _coerce(other)
        if o is None:
            return NotImplemented
        a1, b1, a2, b2 = self._a, self._b, o._a, o._b
        a, b, d = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self._d * o._d
        return _new(a, b, 1) if d == 1 else _reduced(a, b, d)

    __rmul__ = __mul__

    def __truediv__(self, other: CRatLike) -> "CRat":
        o = other if type(other) is CRat else _coerce(other)
        if o is None:
            return NotImplemented
        a1, b1, a2, b2 = self._a, self._b, o._a, o._b
        norm = a2 * a2 + b2 * b2
        if norm == 0:
            raise ZeroDivisionError("division by zero CRat")
        # ((a1 + b1 i)/d1) / ((a2 + b2 i)/d2) = (a1 + b1 i)(a2 - b2 i) d2 / (d1 norm)
        d2 = o._d
        return _reduced((a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2,
                        self._d * norm)

    def __rtruediv__(self, other: CRatLike) -> "CRat":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, k: int) -> "CRat":
        if k < 0:
            return CR_ONE / (self ** (-k))
        out = CR_ONE
        for _ in range(k):
            out = out * self
        return out

    def to_complex(self) -> complex:
        return complex(self._a / self._d) + 1j * complex(self._b / self._d)

    def __repr__(self) -> str:
        return f"CRat(re={self.re!r}, im={self.im!r})"

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        re, im = self.re, self.im
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


_object_new = object.__new__
_set_a = CRat._a.__set__
_set_b = CRat._b.__set__
_set_d = CRat._d.__set__


def _new(a: int, b: int, d: int) -> CRat:
    """CRat from a triple already in reduced form."""
    c = _object_new(CRat)
    _set_a(c, a)
    _set_b(c, b)
    _set_d(c, d)
    return c


def _reduced(a: int, b: int, d: int) -> CRat:
    """CRat from any triple with d > 0."""
    g = gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    return _new(a, b, d)


def flat_value(c: CRat) -> Union[int, CRat]:
    """c as a PlanckMap stores it: a real integer as its int, else c."""
    return c._a if not c._b and c._d == 1 else c


def flat_map(flat: dict) -> dict:
    """A flat map with every real-integer CRat value held as its int."""
    return {k: c if type(c) is int else flat_value(c) for k, c in flat.items()}


@lru_cache(maxsize=512)
def power(base: CRat, k: int) -> Union[int, CRat]:
    """base ** k as a flat value; the bases are a convention's few constants."""
    return flat_value(base ** k)


def _coerce(value) -> Optional[CRat]:
    """The CRat for an int or Fraction operand, else None."""
    kind = type(value)
    if kind is int:
        return _new(value, 0, 1)
    if kind is Fraction:
        return _new(value.numerator, 0, value.denominator)
    if isinstance(value, CRat):
        return value
    if isinstance(value, (int, Fraction)):
        return CRat(value)
    return None


CR_ZERO = CRat()
CR_ONE = CRat(1)
CR_MINUS_ONE = CRat(-1)
CR_I = CRat(0, 1)
CR_MINUS_I = CRat(0, -1)

# Canonical order used when convention tuples are enumerated and compared.
UNIT_VALUES = (CR_ONE, CR_MINUS_ONE, CR_I, CR_MINUS_I)


def unit_cycle(u: CRat) -> tuple:
    """The powers u^0..u^3 of a unit u as flat values: u^n is entry n % 4
    for every integer n, a negative one too, so a loop indexes a tuple."""
    if type(u) is not CRat or u not in UNIT_VALUES:
        raise ValueError(f"{u!r} is not a unit scalar")
    return tuple(power(u, n) for n in range(4))


_UNIT_TO_STR = {CR_ONE: "+1", CR_MINUS_ONE: "-1", CR_I: "+i", CR_MINUS_I: "-i"}
_STR_TO_UNIT = {v: k for k, v in _UNIT_TO_STR.items()}
_STR_TO_UNIT["1"] = CR_ONE
_STR_TO_UNIT["i"] = CR_I


def unit_to_str(u: CRat) -> str:
    try:
        return _UNIT_TO_STR[u]
    except KeyError:
        raise ValueError(f"{u} is not a unit scalar") from None


def unit_from_str(s: str) -> CRat:
    try:
        return _STR_TO_UNIT[s]
    except (KeyError, TypeError):
        raise ValueError(f"unknown unit scalar {s!r}") from None


# Exponent triples index the formal parameters in the fixed order (h, h1, h2).
_SYMS = ("h", "h1", "h2")
_ZERO_EXP = (0, 0, 0)


class Scalar(TermMap):
    """Laurent polynomial in h, h1, h2 with CRat coefficients.

    ``terms`` maps signed exponent triples (e_h, e_h1, e_h2) to nonzero
    CRats; nonzero terms are the whole canonical form, so equal values have
    equal maps.  The numerator over monomial denominator that printing and
    JSON use is derived: ``den`` has den_j = max(0, -min_e e_j) and
    ``num`` holds the terms shifted by it, sorted.
    """

    __slots__ = ()

    terms = TermMap.flat        # the flat map is already keyed by exponents
    _coerce = staticmethod(CRat.of)

    def __init__(self, terms: Mapping[tuple, CRatLike]):
        clean: dict = {}
        for e, c in terms.items():
            if len(e) != 3:
                raise ValueError(f"Scalar exponents are (h, h1, h2) triples, got {e!r}")
            accumulate(clean, tuple(e), CRat.of(c))
        self._freeze(clean, None)

    @staticmethod
    def make(num: Mapping[tuple, CRatLike], den: tuple = _ZERO_EXP) -> "Scalar":
        """The Scalar num/den, from numerator terms over a monomial denominator."""
        return Scalar({(e[0] - den[0], e[1] - den[1], e[2] - den[2]): c
                       for e, c in num.items()})

    @staticmethod
    def of(value: Union["Scalar", CRatLike]) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        c = CRat.of(value)
        return _from_terms({} if c.is_zero else {_ZERO_EXP: c})

    @staticmethod
    def symbol(name: str, power: int = 1, coeff: CRatLike = CR_ONE) -> "Scalar":
        """The single term coeff * name^power; power may be negative."""
        e = [0, 0, 0]
        e[_SYMS.index(name)] = power
        c = CRat.of(coeff)
        return _from_terms({} if c.is_zero else {tuple(e): c})

    def __add__(self, other) -> "Scalar":
        o = other if type(other) is Scalar else Scalar.of(other)
        out = dict(self.terms)
        for e, c in o.terms.items():
            accumulate(out, e, c)
        return _from_terms(out)

    __radd__ = __add__

    def __rsub__(self, other) -> "Scalar":
        return Scalar.of(other) + (-self)

    def _expand(self, e1: tuple, e2: tuple) -> list:
        """Commutative: a term pair is the one term at the exponent sum."""
        return [(tuple(map(add, e1, e2)), None)]

    def _masks(self, e: tuple) -> tuple:
        return 0, 0         # no pair ever contracts

    def _identity(self) -> "Scalar":
        return S_ONE

    def inverse(self) -> "Scalar":
        if len(self.terms) != 1:
            raise ZeroDivisionError(
                "can only invert a single-term Scalar (monomial denominator)"
                if self.terms else "inverse of zero Scalar")
        ((e0, e1, e2), c), = self.terms.items()
        return _from_terms({(-e0, -e1, -e2): CR_ONE / c})

    def __truediv__(self, other) -> "Scalar":
        return self * Scalar.of(other).inverse()

    def __rtruediv__(self, other) -> "Scalar":
        return Scalar.of(other) * self.inverse()

    def __pow__(self, k: int) -> "Scalar":
        return self.inverse() ** -k if k < 0 else TermMap.__pow__(self, k)

    # -- queries ---------------------------------------------------------

    def uses_symbol(self, name: str) -> bool:
        idx = _SYMS.index(name)
        return any(e[idx] for e in self.terms)

    def as_crat(self) -> CRat:
        """The value of a constant Scalar; raises if any symbol is present."""
        if not self.terms:
            return CR_ZERO
        c = self.terms.get(_ZERO_EXP)
        if c is None or len(self.terms) != 1:
            raise ValueError(f"Scalar {self} is not constant")
        return c

    def substitute(self, **values: CRatLike) -> "Scalar":
        """Substitute exact values for symbols, e.g. substitute(h1=Fraction(1,2)).

        Substituting 0 for a symbol appearing in the denominator raises
        ZeroDivisionError.  PlanckMap.substitute runs this on its keys' Planck tails.
        """
        vals = {}
        for name, v in values.items():
            if name not in _SYMS:
                raise ValueError(f"unknown symbol {name!r}")
            vals[_SYMS.index(name) - 3] = CRat.of(v)
        out: dict = {}
        for k, c in self.flat.items():
            key = list(k)
            for idx, v in vals.items():
                if key[idx] < 0 and v.is_zero:
                    raise ZeroDivisionError(f"substituting 0 for {_SYMS[idx]} in denominator")
                c = c * v ** key[idx]
                key[idx] = 0
            accumulate(out, tuple(key), c)
        return self._like(out)

    # -- the numerator / denominator form --------------------------------

    def _fraction(self) -> tuple:
        """(num, den): sorted nonnegative numerator terms over the monomial
        denominator, the reduced form with no common monomial factor."""
        if not self.terms:
            return (), _ZERO_EXP
        den = tuple(max(0, -min(e[j] for e in self.terms)) for j in range(3))
        return tuple(sorted(((e[0] + den[0], e[1] + den[1], e[2] + den[2]), c)
                            for e, c in self.terms.items())), den

    @property
    def num(self) -> tuple:
        return self._fraction()[0]

    @property
    def den(self) -> tuple:
        return self._fraction()[1]

    def to_json(self) -> dict:
        """Numerator terms and monomial denominator, the coefficient schema
        of the operator and hybrid JSON writers."""
        num, den = self._fraction()
        return {
            "numerator": [{"re": [c.re.numerator, c.re.denominator],
                           "im": [c.im.numerator, c.im.denominator],
                           "h_pow": e[0], "h1_pow": e[1], "h2_pow": e[2]}
                          for e, c in num],
            "denominator": {"h_pow": den[0], "h1_pow": den[1], "h2_pow": den[2]},
        }

    # -- display ---------------------------------------------------------

    def __str__(self) -> str:
        num, den = self._fraction()
        out = render_terms((str(c), power_str(_SYMS, e)) for e, c in reversed(num))
        dstr = power_str(_SYMS, den)
        if dstr:
            if len(num) > 1 or " " in out or "*" in out:
                out = f"({out})"
            if "*" in dstr:
                dstr = f"({dstr})"
            out = f"{out}/{dstr}"
        return out

    __repr__ = __str__


def _from_terms(terms: dict) -> Scalar:
    """Scalar over a term map that already has no zero coefficients."""
    return Scalar._over(terms, None)


S_ZERO = _from_terms({})
S_ONE = _from_terms({_ZERO_EXP: CR_ONE})


def scalar(value: Union[Scalar, CRatLike]) -> Scalar:
    """Convenience coercion used throughout the package."""
    return Scalar.of(value)


class PlanckMap(TermMap):
    """A term map over Scalar coefficients, stored flat: ``flat`` maps a
    monomial key extended by a coefficient term's Planck exponents (e_h,
    e_h1, e_h2), which may be negative, to that term's CRat, or its int when
    it is a real integer (``flat_value``; equality and hashing agree), so
    the product loops mostly multiply ints.  ``terms``, the public view
    {monomial: Scalar} over CRats, is regrouped on each read: printers and
    writers read it once, engine loops never."""

    __slots__ = ()

    _coerce = staticmethod(scalar)

    @staticmethod
    def _flatten(terms: Mapping[tuple, object], width: int, coerce=scalar) -> dict:
        """The flat map of {monomial: coefficient} terms that clean_terms validates."""
        return {m + e: flat_value(c) for m, s in clean_terms(terms, width, coerce).items()
                for e, c in s.flat.items()}

    @property
    def terms(self) -> dict:
        grouped: dict = {}
        for k, c in self.flat.items():
            grouped.setdefault(k[:-3], {})[k[-3:]] = c if type(c) is CRat else _new(c, 0, 1)
        return {m: _from_terms(t) for m, t in grouped.items()}

    def scale(self, factor) -> "PlanckMap":
        """Each term times each term of the factor, Planck exponents added."""
        f = self._coerce(factor).flat
        if len(f) == 1:     # a monomial only shifts the tails: no two terms meet
            ((e0, e1, e2), x), = f.items()
            x = flat_value(x)
            return self._like({k[:-3] + (k[-3] + e0, k[-2] + e1, k[-1] + e2): c * x
                               for k, c in self.flat.items()})
        return sum((self.scale(_from_terms({e: x})) for e, x in f.items()), self._like({}))

    def substitute(self, **values: CRatLike) -> "PlanckMap":
        """Scalar.substitute on each flat key's Planck tail, real integers held as ints."""
        return self._like(flat_map(Scalar.substitute(self, **values).flat))

    def degree(self) -> int:
        """Largest sum of the positive exponents before a key's Planck tail
        (0 when empty): a formal antiderivative factor's -1 is not counted."""
        return max((sum(e for e in k[:-3] if e > 0) for k in self.flat), default=0)
