"""Classical observables, Weyl mechanisation, antiderivative operators and
the universal bracket.

A classical polynomial in q_{s,i}, p_{s,i} is mechanised into the group
algebra by full symmetrization, with one kappa factor per generator.  The
symmetrized product of a monomial is computed in closed form (McCoy's
formula): per (X, Y) slot, the normal-ordering kernel applied to Y^b X^a
with half the contraction.  Every correction term carries a central factor,
so the S-free part of an image is the symbol, which inverts the map.

The universal bracket is the commutator followed by the two antiderivative
operators, A_s = S_s^-1: each lowers a monomial's S_s exponent by one, so
it strips one central factor where there is one and leaves the formal
linear factor A_s, exponent -1, where there is not.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, Mapping, Tuple, Union

from .errors import AObservableProductError, NotMechanised, SignatureMismatch, UnknownRule
from .scalars import CR_ONE, CRat, PlanckMap, Scalar, flat_map, flat_value
from .group_algebra import (Element, GroupSignature, commutator, delta_str, element_to_json,
                            require_int, slot_index, var_names)
from .terms import (TermMap, accumulate, clean_terms, normal_order, pair_halves,
                    power_str, render_terms)

__all__ = [
    "ClassicalPoly",
    "poisson_classical",
    "AObservable",
    "apply_antiderivative",
    "universal_bracket",
    "mechanise_weyl",
    "mechanise_plugin",
    "register_rule",
    "registered_rules",
    "weyl_symbol",
]

CMonomial = Tuple[int, ...]


class ClassicalPoly(TermMap):
    """Commutative polynomial in q_{s,i}, p_{s,i} with CRat coefficients.

    Exponent vectors run over (q_11, p_11, ..., q_1n, p_1n, q_21, ..., p_2n).
    """

    __slots__ = ()

    dof = TermMap.space
    terms = TermMap.flat        # CRat coefficients: the flat map is the view
    _coerce = staticmethod(CRat.of)
    _mismatch = "classical polynomials over different dof counts"

    def __init__(self, dof: int, terms: Mapping[CMonomial, Union[CRat, int, Fraction]]):
        if require_int(dof, "dof") < 1:
            raise ValueError("dof must be a positive integer")
        self._freeze(clean_terms(terms, 4 * dof, CRat.of), dof)

    @property
    def width(self) -> int:
        return 4 * self.dof

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, dof: int) -> "ClassicalPoly":
        return cls(dof, {})

    @classmethod
    def constant(cls, dof: int, value: Union[CRat, int, Fraction]) -> "ClassicalPoly":
        return cls(dof, {(0,) * (4 * require_int(dof, "dof")): CRat.of(value)})

    @classmethod
    def var(cls, dof: int, kind: str, sector: int, i: int = 1) -> "ClassicalPoly":
        mono = [0] * (4 * require_int(dof, "dof"))
        mono[cls.var_index(dof, kind, sector, i)] = 1
        return cls(dof, {tuple(mono): CR_ONE})

    @staticmethod
    def var_index(dof: int, kind: str, sector: int, i: int = 1) -> int:
        if kind not in ("q", "p"):
            raise ValueError("kind must be 'q' or 'p'")
        return 2 * slot_index(dof, sector, i) + (0 if kind == "q" else 1)

    _expand = Scalar._expand     # commutative, like the coefficients
    _masks = Scalar._masks

    def _identity(self) -> "ClassicalPoly":
        return ClassicalPoly.constant(self.dof, 1)

    # -- queries ------------------------------------------------------------

    def uses_sector(self, sector: int) -> bool:
        lo = 2 * slot_index(self.dof, sector, 1)
        return any(any(m[lo:lo + 2 * self.dof]) for m in self.terms)

    def derivative(self, idx: int) -> "ClassicalPoly":
        """d/dx of the variable at exponent index idx.  The loop reads only
        flat exponent keys, so HybridObservable differentiates with it too."""
        out = {}
        for m, c in self.flat.items():
            if m[idx]:
                accumulate(out, m[:idx] + (m[idx] - 1,) + m[idx + 1:], c * m[idx])
        return self._like(out)

    # -- display --------------------------------------------------------------

    def __str__(self) -> str:
        names = var_names(self.dof, "qp")
        return render_terms((str(self.terms[m]), power_str(names, m))
                            for m in sorted(self.terms, key=lambda m: (-sum(m), m)))

    __repr__ = __str__


def poisson_classical(f: ClassicalPoly, g: ClassicalPoly) -> ClassicalPoly:
    """Canonical Poisson bracket sum_i (df/dq_i dg/dp_i - df/dp_i dg/dq_i)
    over every sector and degree of freedom."""
    f._check(g)
    out = ClassicalPoly.zero(f.dof)
    for slot in range(2 * f.dof):
        qi, pi = 2 * slot, 2 * slot + 1
        out = out + f.derivative(qi) * g.derivative(pi) - f.derivative(pi) * g.derivative(qi)
    return out


# ---------------------------------------------------------------------------
# Mechanisation

def mechanise_weyl(sig: GroupSignature, f: ClassicalPoly) -> Element:
    """Symmetric (Weyl) mechanisation of a classical polynomial.

    q_{s,i} contributes kappa_x * X_{s,i} and p_{s,i} contributes
    kappa_y * Y_{s,i}; a monomial maps to the kappa-weighted average over all
    distinct orderings of its generators, and the map extends linearly.
    Different slots commute, so the average factors over slots, and per slot
    McCoy's closed form gives

        sym(X^a Y^b) = sum_k  k! C(a,k) C(b,k) (-eps S/2)^k  X^(a-k) Y^(b-k),

    which is the normal-ordering kernel applied to Y^b X^a with half the
    contraction; S is the slot's sector generator.
    """
    if f.dof != sig.dof:
        raise SignatureMismatch("polynomial dof does not match signature")
    conv = sig.convention
    rules = _mechanisation_rules(sig)
    out: dict = {}
    for mono, coeff in f.terms.items():
        xs, ys = pair_halves(mono)
        c = flat_value(coeff * conv.kappa(0, sum(xs), sum(ys)))
        y, x = ((0, 0) + half + (0, 0, 0) for half in (ys, xs))
        for key, u in normal_order(y, x, 2, rules):
            accumulate(out, key, c if u is None else c * u)
    return Element._over(flat_map(out), sig)


@lru_cache(maxsize=64)
def _mechanisation_rules(sig: GroupSignature) -> Tuple[tuple, ...]:
    """The signature's contraction rules at the unit -eps/2."""
    half_neg_eps = flat_value(-sig.convention.eps_comm * CRat.of(Fraction(1, 2)))
    return tuple((raised, step, half_neg_eps) for raised, step, _ in sig.contraction_rules)


_RULES: Dict[str, Callable[[GroupSignature, ClassicalPoly], Element]] = {}


def register_rule(name: str, fn: Callable[[GroupSignature, ClassicalPoly], Element]) -> None:
    """Register a named mechanisation rule for mechanise_plugin."""
    _RULES[name] = fn


def registered_rules() -> Tuple[str, ...]:
    return tuple(sorted(_RULES))


def mechanise_plugin(sig: GroupSignature, f: ClassicalPoly, rule: str = "weyl") -> Element:
    """Dispatch to a registered mechanisation rule; 'weyl' is built in."""
    try:
        fn = _RULES[rule]
    except KeyError:
        known = ", ".join(registered_rules())
        raise UnknownRule(f"no mechanisation rule named {rule!r} (registered: {known})") from None
    return fn(sig, f)


register_rule("weyl", mechanise_weyl)


def weyl_symbol(e: Element) -> ClassicalPoly:
    """Inverse of mechanise_weyl.

    Every correction term of the closed form carries a central factor, so
    the S-free terms of an image, divided by their kappa factors, are the
    symbol itself.  Raises NotMechanised when the input is not in the image:
    a coefficient is not constant, or mechanising the symbol does not give
    the input back.
    """
    sig = e.signature
    terms: Dict[CMonomial, CRat] = {}
    for mono, coeff in e.terms.items():
        if mono[0] or mono[1]:
            continue
        try:
            terms[mono[2:]] = coeff.as_crat() / sig.unit_factor(mono)
        except ValueError:
            raise NotMechanised(
                "coefficient with formal parameters is outside the mechanisation image") from None
    f = ClassicalPoly(sig.dof, terms)
    if mechanise_weyl(sig, f) != e:
        raise NotMechanised("element is not in the image of the symmetric mechanisation")
    return f


# ---------------------------------------------------------------------------
# Antiderivatives and the universal bracket

class AObservable(PlanckMap):
    """Element extended with at-most-linear formal antiderivative factors:
    plain + a1_part * A1 + a2_part * A2.  A_s is the inverse of the central
    generator S_s, so it is stored as S_s exponent -1: the flat keys are an
    Element's, and a term behind A_s has S_s exponent -1.

    The antiderivatives are applied greedily, so a1_part never carries an S1
    factor and a2_part never carries an S2 factor: a key has at most one
    negative exponent, -1 at index 0 or 1.
    """

    __slots__ = ()

    signature = TermMap.space
    _mismatch = Element._mismatch

    def __init__(self, plain: Element, a1_part: Element, a2_part: Element):
        sig = plain.signature
        if a1_part.signature != sig or a2_part.signature != sig:
            raise SignatureMismatch("AObservable parts over different signatures")
        if any(m[0] for m in a1_part.flat):
            raise ValueError("a1_part must have zero S1 degree")
        if any(m[1] for m in a2_part.flat):
            raise ValueError("a2_part must have zero S2 degree")
        flat = dict(plain.flat)
        flat.update(((-1,) + k[1:], c) for k, c in a1_part.flat.items())
        flat.update((k[:1] + (-1,) + k[2:], c) for k, c in a2_part.flat.items())
        self._freeze(flat, sig)

    @classmethod
    def of(cls, e: Union[Element, "AObservable"]) -> "AObservable":
        """e as an AObservable; an Element's terms are all plain."""
        if isinstance(e, AObservable):
            return e
        return cls._over(e.flat, e.signature)

    def _part(self, a: int) -> Element:
        """The terms behind A_a (a = 0: the plain ones), exponent -1 read as 0."""
        return Element._over({(max(k[0], 0), max(k[1], 0)) + k[2:]: c
                              for k, c in self.flat.items()
                              if (k[0] < 0) + 2 * (k[1] < 0) == a}, self.signature)

    plain = property(lambda self: self._part(0), doc="The terms without a formal factor.")
    a1_part = property(lambda self: self._part(1), doc="The coefficient of A1.")
    a2_part = property(lambda self: self._part(2), doc="The coefficient of A2.")

    def __mul__(self, other):
        if isinstance(other, (AObservable, Element)):
            raise AObservableProductError(
                "products of antiderivative-carrying observables are undefined; "
                "the antiderivative factors are applied exactly once")
        return self.scale(other)

    __rmul__ = __mul__

    def __pow__(self, k):
        return self * self      # a power is a product: refused as one

    def __str__(self) -> str:
        parts = (self.plain, self.a1_part, self.a2_part)
        return " + ".join(f"({delta_str(part)})*A{a}" if a else delta_str(part)
                          for a, part in enumerate(parts) if not part.is_zero) or "0"

    __repr__ = __str__

    def to_json(self) -> dict:
        return {"plain": element_to_json(self.plain),
                "a1": element_to_json(self.a1_part),
                "a2": element_to_json(self.a2_part)}


def apply_antiderivative(e: Element, sector: int) -> AObservable:
    """Antiderivative along the chosen sector, S_s^-1, per monomial: its S_s
    exponent falls by one, stripping an S_s factor when present and leaving
    the monomial behind the formal factor A_s (exponent -1) when not; the
    shift is one-to-one, so no two terms meet.
    """
    if require_int(sector, "sector") not in (1, 2):
        raise ValueError("sector must be 1 or 2")
    idx = sector - 1
    return AObservable._over({k[:idx] + (k[idx] - 1,) + k[idx + 1:]: c
                              for k, c in e.flat.items()}, e.signature)


def universal_bracket(k1: Element, k2: Element) -> AObservable:
    """Commutator followed by the sum of both antiderivative operators."""
    c = commutator(k1, k2)
    return apply_antiderivative(c, 1) + apply_antiderivative(c, 2)
