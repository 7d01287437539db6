"""Sparse term maps: what every polynomial type of the engine shares.

Element, AObservable, WeylOperator, HybridObservable, ClassicalPoly and
Scalar are all immutable maps from flat exponent keys to nonzero exact
coefficients; a key over Scalar coefficients ends in their Planck exponents,
its real-integer coefficient held as an int (scalars.PlanckMap), and an
AObservable's is an Element's, its formal antiderivative factor A_s the
exponent -1 of the central generator S_s, so each representation reads
both in one pass.  This module holds their common parts:
the term-map base class with its linear operations and the one product loop
and one commutator loop that every type runs (how one term pair expands,
and which pairs of a key can contract, is written once per kind of map:
commutative here, by normal_order in scalars.PlanckMap), the accumulate
step, the term printer, and normal_order, the one Heisenberg contraction
kernel: every noncommutative product (Element, Weyl, hybrid), the Weyl
mechanisation and the ordered transport expand with it, each layout
stating its contraction rule per pair.

It sits at the bottom of the package and imports no other pbracket module
except errors, so scalars.py can use the printer; the unit of a
contraction rule reaches the kernel as a value of the rule.  It also holds
Record, the base of the package's frozen value records.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import compress, count
from math import comb, factorial
from operator import add, mul
from typing import Dict, Iterable, List, Sequence, Tuple

from .errors import SignatureMismatch

__all__ = [
    "Record",
    "TermMap",
    "accumulate",
    "clean_terms",
    "normal_order",
    "pair_halves",
    "pair_masks",
    "power_str",
    "coeff_str",
    "render_terms",
    "exponent_map",
]


def accumulate(acc: dict, key, value) -> None:
    """Add value to acc[key], removing the key when the sum is zero."""
    prev = acc.get(key)
    total = value if prev is None else prev + value
    if not total:
        acc.pop(key, None)
    else:
        acc[key] = total


# The one exponent type: a bool is an int subclass, and is refused too.
_INT_ONLY = frozenset((int,))


def clean_terms(terms, width: int, coerce) -> dict:
    """Validated copy of a flat term map: every key has ``width``
    nonnegative exponents of type int; coefficients are coerced, zeros
    dropped."""
    clean = {}
    for mono, coeff in terms.items():
        if len(mono) != width:
            raise ValueError(f"monomial width {len(mono)} != {width}")
        if not _INT_ONLY.issuperset(map(type, mono)):
            raise ValueError("non-int exponent in monomial")
        if mono and min(mono) < 0:
            raise ValueError("negative exponent in monomial")
        c = coerce(coeff)
        if not c.is_zero:
            clean[tuple(mono)] = c
    return clean


def normal_order(k1: Sequence[int], k2: Sequence[int], first: int,
                 rules: Sequence[tuple]) -> List[Tuple[Tuple[int, ...], object]]:
    """Normal-ordered product of two flat keys, as (key, factor) entries.

    Pair t has its X exponent at index ``first + 2*t`` and its Y exponent
    right after, one pair per rule; within a pair [X, Y] is central,
    different pairs commute, and every other index just adds.  The cross
    factor Y^m X^n of each pair expands as

        Y^m X^n = sum_k  k! C(m,k) C(n,k) (-[X, Y])^k  X^(n-k) Y^(m-k).

    ``rules[t] = (raised, step, unit)`` states -[X, Y] in the key's layout:
    a contraction adds ``step[j]`` to index ``raised + j``, before the pairs
    or after them (a central exponent, the Planck tail, the jet degree),
    and k of them multiply by ``unit ** k``; ``unit`` is a flat value, an
    int or a CRat, so equal rules are equal tuples.

    Entry 0 is the uncontracted term, the keys added, with factor None
    (one), the same for either order of k1 and k2; TermMap._commutator
    skips it.  Every later entry carries its factor, an int or a CRat, the
    product of k! C(m,k) C(n,k) unit^k over its contracting pairs.  A pair
    with Y in k1 and X in k2 adds copies of the entries so far, one per k.
    """
    out = [(tuple(map(add, k1, k2)), None)]
    end = first + 2 * len(rules)
    for t in compress(count(), map(mul, k1[first + 1:end:2], k2[first:end:2])):
        ix = first + 2 * t
        grown = []
        for f, k, bumps in _contractions(rules[t], k1[ix + 1], k2[ix]):
            for e, g in out:
                key = list(e)
                key[ix] -= k
                key[ix + 1] -= k
                for j, d in bumps:
                    key[j] += d
                grown.append((tuple(key), f if g is None else g * f))
        out += grown
    return out


@lru_cache(maxsize=2048)
def _contractions(rule: tuple, m: int, n: int) -> Tuple[tuple, ...]:
    """(factor, k, bumps) per contracted term of Y^m X^n, k >= 1, under a
    rule: k! C(m,k) C(n,k) unit^k as a flat value, and the (index, shift)
    of each exponent the rule raises.  Bounded, and keyed by the rule's
    value, so equal rules of different signatures share their entries."""
    raised, step, unit = rule
    return tuple((_flat(weight * unit ** k), k,
                  tuple((raised + j, k * s) for j, s in enumerate(step) if s))
                 for k, weight in _expansion(m, n)[1:])


def _flat(f):
    """An int or a CRat as a flat map holds it: a real integer as its int."""
    if type(f) is int or f.im or f.re.denominator != 1:
        return f
    return f.re.numerator


def _expansion(m: int, n: int) -> Tuple[Tuple[int, int], ...]:
    """The (k, k! C(m,k) C(n,k)) terms of Y^m X^n, k = 0..min(m, n)."""
    return tuple((k, factorial(k) * comb(m, k) * comb(n, k))
                 for k in range(min(m, n) + 1))


def pair_masks(mono: Sequence[int], first: int, pairs: int) -> Tuple[int, int]:
    """Contraction masks of a monomial laid out as (X, Y) pairs from index
    ``first``, as normal_order reads it: bit t of the first mask is set
    when pair t has an X exponent, of the second when it has a Y exponent.
    m1*m2 has a contracted entry exactly when Y(m1) & X(m2) is nonzero."""
    x = y = 0
    bit = 1
    for ix in range(first, first + 2 * pairs, 2):
        if mono[ix]:
            x |= bit
        if mono[ix + 1]:
            y |= bit
        bit <<= 1
    return x, y


def pair_halves(mono: Sequence[int]) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """The X half and the Y half of a monomial laid out as (X, Y) pairs,
    each at full width with the other half's exponents zeroed."""
    xs, ys = [0] * len(mono), [0] * len(mono)
    xs[::2], ys[1::2] = mono[::2], mono[1::2]
    return tuple(xs), tuple(ys)


# ---------------------------------------------------------------------------
# printing


def power_str(names: Iterable[str], exps: Iterable[int]) -> str:
    """Product of powers, e.g. ``Q1*P1^2``; zero exponents are skipped."""
    return "*".join(n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e)


def exponent_map(names: Iterable[str], exps: Iterable[int]) -> Dict[str, int]:
    """The nonzero exponents of a monomial by name, as the JSON writers emit them."""
    return {n: e for n, e in zip(names, exps) if e}


def coeff_str(c) -> str:
    """A coefficient's text, parenthesised when it holds a space or a slash."""
    s = str(c)
    return f"({s})" if " " in s or "/" in s else s


def render_terms(terms: Iterable[Tuple[str, str]]) -> str:
    """Join (coefficient text, body) pairs into a signed sum.

    A coefficient of 1 or -1 prints as the bare or negated body, an empty
    body as the coefficient alone; a term that starts with '-' is joined
    with ' - '.  No terms at all print as '0'.
    """
    out = ""
    for cs, body in terms:
        if not body:
            term = cs
        elif cs == "1":
            term = body
        elif cs == "-1":
            term = f"-{body}"
        else:
            term = f"{cs}*{body}"
        if not out:
            out = term
        elif term.startswith("-"):
            out += f" - {term[1:]}"
        else:
            out += f" + {term}"
    return out or "0"


# ---------------------------------------------------------------------------
# the term-map base


class TermMap:
    """Immutable map ``flat`` from flat exponent keys to nonzero coefficients
    over one ``space``, the value that fixes where its keys live: a
    signature, a Weyl algebra, a dof count, or None for a Scalar.

    A subclass names ``space`` for its callers (``signature = TermMap.space``)
    and validates input in ``__init__(space, terms)``; AObservable, which has
    no product, is built from its three Element parts instead; ``terms`` is
    the public map by monomial.  It sets ``_coerce`` (coefficient coercion,
    raising TypeError on foreign types) and ``_mismatch`` (the message when
    spaces differ), and defines ``_identity`` when it has a product.

    ``_expand(k1, k2)`` is the product of one flat key pair over its
    coefficient product c1*c2, as a list of ``(key, factor)`` entries, each
    key flat and each factor an int or a CRat.  Entry 0 is the uncontracted
    term, the same for either order of the pair, and its factor is None,
    meaning one; every later entry carries its factor.  An empty list means
    the pair contributes nothing.  ``_product`` and ``_commutator`` are
    built on it and on ``_masks(key)``, the key's pair_masks: commutative
    here, and in PlanckMap for a key with (X, Y) pairs.
    """

    __slots__ = ("flat", "space")

    def _freeze(self, flat: dict, space) -> None:
        """Set the two fields once, from ``__init__``."""
        _set_flat(self, flat)
        _set_space(self, space)

    def __setattr__(self, *args):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        """Copy and pickle rebuild through _over."""
        return type(self)._over, (self.flat, self.space)

    @classmethod
    def _over(cls, flat: dict, space) -> "TermMap":
        """The constructor's result over valid flat terms, unvalidated."""
        out = _new_map(cls)
        _set_flat(out, flat)
        _set_space(out, space)
        return out

    def _like(self, flat: dict) -> "TermMap":
        """A map in this one's space over flat terms that arithmetic on
        valid maps built: valid keys, nonzero coefficients.  Skips the
        constructor's validation."""
        out = _new_map(type(self))
        _set_flat(out, flat)
        _set_space(out, self.space)
        return out

    def _check(self, other: "TermMap") -> None:
        if self.space is not other.space and self.space != other.space:
            raise SignatureMismatch(self._mismatch)

    # -- linear structure ------------------------------------------------

    def __add__(self, other: "TermMap") -> "TermMap":
        self._check(other)
        out = dict(self.flat)
        for key, c in other.flat.items():
            accumulate(out, key, c)
        return self._like(out)

    def __neg__(self) -> "TermMap":
        return self._like({k: -c for k, c in self.flat.items()})

    def __sub__(self, other: "TermMap") -> "TermMap":
        return self + (-other)

    def scale(self, factor) -> "TermMap":
        f = self._coerce(factor)
        if f.is_zero:
            return self._like({})
        return self._like({k: c * f for k, c in self.flat.items()})

    def __mul__(self, other):
        if isinstance(other, type(self)):
            return self._product(other)
        return self.__rmul__(other)

    def __rmul__(self, other):
        try:
            factor = self._coerce(other)
        except TypeError:
            return NotImplemented
        return self.scale(factor)

    def __truediv__(self, other):
        return self.scale(1 / self._coerce(other))

    def _product(self, other: "TermMap", expand=None) -> "TermMap":
        """self * other: every term pair's coefficient product times each
        entry of its expansion, by ``expand`` or else ``self._expand``."""
        self._check(other)
        expand = expand or self._expand
        acc: dict = {}
        for k1, c1 in self.flat.items():
            for k2, c2 in other.flat.items():
                entries = expand(k1, k2)
                if entries:
                    base = c1 * c2
                    for key, f in entries:
                        accumulate(acc, key, base if f is None else base * f)
        return self._like(acc)

    def _commutator(self, other: "TermMap") -> "TermMap":
        """self*other - other*self, never building entry 0: both orders of a
        pair share it, so they cancel there.  The masks show which orders
        have entries past it; only those are expanded, and a pair that
        contracts in neither order is skipped outright."""
        self._check(other)
        expand, masks = self._expand, self._masks
        right = [(k2, c2) + masks(k2) for k2, c2 in other.flat.items()]
        acc: dict = {}
        for k1, c1 in self.flat.items():
            x1, y1 = masks(k1)
            for k2, c2, x2, y2 in right:
                ab, ba = y1 & x2, y2 & x1
                if not (ab or ba):
                    continue
                base = c1 * c2
                if ab:
                    for key, f in expand(k1, k2)[1:]:
                        accumulate(acc, key, base * f)
                if ba:
                    signed = -base
                    for key, f in expand(k2, k1)[1:]:
                        accumulate(acc, key, signed * f)
        return self._like(acc)

    def _expand(self, k1: tuple, k2: tuple) -> list:
        """Commutative: a term pair is the one term at the key sum."""
        return [(tuple(map(add, k1, k2)), None)]

    def _masks(self, key: tuple) -> tuple:
        return 0, 0         # no pair ever contracts

    def __pow__(self, k: int) -> "TermMap":
        if k < 0:
            raise ValueError("negative powers are not defined")
        out = self._identity()
        for _ in range(k):
            out = out * self
        return out

    # -- comparison and queries ------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.space == other.space and self.flat == other.flat

    def __hash__(self):
        return hash((self.space, frozenset(self.flat.items())))

    def __bool__(self) -> bool:
        return bool(self.flat)

    is_zero = property(lambda self: not self.flat)

    def degree(self) -> int:
        """Largest total exponent over the monomials (0 when empty)."""
        return max((sum(m) for m in self.terms), default=0)


_new_map = object.__new__
_set_flat = TermMap.flat.__set__
_set_space = TermMap.space.__set__


# ---------------------------------------------------------------------------
# the frozen-record base


class Record:
    """Immutable value record: a subclass names its ``_fields`` and its
    ``__init__`` validates and passes their values, in that order, to
    ``_freeze``.  Equality (the same type and equal values), the hash,
    ``repr`` and pickling read the one tuple of values stored there; the
    instance keeps its ``__dict__``, so cached properties work."""

    _fields: Tuple[str, ...] = ()

    def _freeze(self, *values) -> None:
        self.__dict__.update(zip(self._fields, values), _values=values)

    def __setattr__(self, *args):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return self._values == other._values if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return self._hash

    _hash = cached_property(lambda self: hash(self._values))

    def __repr__(self) -> str:
        args = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values))
        return f"{type(self).__qualname__}({args})"

    def __reduce__(self):
        return type(self), self._values
