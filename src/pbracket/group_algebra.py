"""Noncommutative algebra of identity-supported distributions on a
two-sector Heisenberg-type group.

Generators are the two central elements S1, S2 and the pairs X_{s,i},
Y_{s,i} for sector s in {1, 2} and degree of freedom i in 1..n.  The only
nontrivial relation is

    [X_{s,i}, Y_{s,i}] = eps_comm * S_s,

all other generator pairs commute.  Elements are kept in PBW normal form
with the fixed generator order S1 < S2 < X_11 < Y_11 < ... < X_2n < Y_2n,
so structural equality of the term maps is algebraic equality.

Delta-derivative kernels correspond to generator monomials through the
kappa factors of the ConventionTuple (one factor per derivative).
"""

from __future__ import annotations

import re
from functools import cached_property
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .scalars import (
    CR_I,
    CR_MINUS_ONE,
    CR_ONE,
    UNIT_VALUES,
    CRat,
    PlanckMap,
    Scalar,
    S_ONE,
    flat_value,
    scalar,
    unit_cycle,
    unit_from_str,
    unit_to_str,
)
from .terms import Record, TermMap, accumulate, coeff_str, exponent_map, render_terms

__all__ = [
    "ConventionTuple",
    "GroupSignature",
    "Element",
    "multiply",
    "commutator",
    "delta_to_element",
    "element_to_delta",
    "element_to_json",
    "element_from_json",
    "parse_group_var",
]

Monomial = Tuple[int, ...]


# The fields of a ConventionTuple: four unit scalars, then two signs.
_UNIT_FIELDS = ("eps_comm", "kappa_x", "kappa_y", "kappa_s")
_SIGN_FIELDS = ("orient", "rep_s_sign")


def require_int(value, name: str) -> int:
    """value when it is an integer; a float, a bool or any other type is a
    ValueError that names the field."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def require_rational(value, name: str) -> Fraction:
    """value as a Fraction when it is an int or a Fraction; any other type,
    a bool too, is a ValueError that names the argument."""
    if type(value) is not int and not isinstance(value, Fraction):
        raise ValueError(f"{name} must be an int or a Fraction, got {value!r}")
    return Fraction(value)


class ConventionTuple(Record):
    """Sign and unit choices left free by the algebraic relations.

    eps_comm is the structure constant in [X, Y] = eps_comm * S; the kappa
    factors translate one delta derivative into one generator; orient fixes
    the commutator orientation; rep_s_sign fixes the scalar image of the
    central generators, S_s -> rep_s_sign * i * hbar_s.
    """

    _fields = _UNIT_FIELDS + _SIGN_FIELDS

    def __init__(self, eps_comm: CRat, kappa_x: CRat, kappa_y: CRat, kappa_s: CRat,
                 orient: int, rep_s_sign: int):
        self._freeze(eps_comm, kappa_x, kappa_y, kappa_s, orient, rep_s_sign)
        for name in _UNIT_FIELDS:
            value = getattr(self, name)     # a CRat: an int 1 equals CR_ONE too
            if type(value) is not CRat or value not in UNIT_VALUES:
                raise ValueError(f"{name} must be one of +1, -1, +i, -i")
        for name in _SIGN_FIELDS:
            if require_int(getattr(self, name), name) not in (1, -1):
                raise ValueError(f"{name} must be +1 or -1")

    @classmethod
    def standard(cls) -> "ConventionTuple":
        """The tuple selected by calibrate_conventions (see calibration)."""
        return cls(eps_comm=CR_MINUS_ONE, kappa_x=CR_ONE, kappa_y=CR_ONE, kappa_s=CR_ONE,
                   orient=-1, rep_s_sign=-1)

    def kappa(self, s: int, x: int, y: int) -> Union[int, CRat]:
        """Unit factor of a generator monomial with s central, x X and y Y
        generators: one kappa factor per delta derivative, off unit 4-cycles."""
        cs, cx, cy = self._kappa_cycles
        return cs[s % 4] * cx[x % 4] * cy[y % 4]

    _kappa_cycles = cached_property(lambda self: tuple(
        map(unit_cycle, (self.kappa_s, self.kappa_x, self.kappa_y))))

    @cached_property
    def gamma_unit(self) -> CRat:
        """Unit u in the represented relation [Q, P] = u * i * hbar."""
        return self.rep_s_sign * self.eps_comm

    @cached_property
    def central_cycle(self) -> tuple:
        """unit_cycle(u) of u = rep_s_sign * i: S_s^n represents as u^n hbar_s^n."""
        return unit_cycle(CR_I * self.rep_s_sign)

    @property
    def anti_normal_order(self) -> bool:
        """True when the calibrated two-generator product is P then Q."""
        return self.gamma_unit == CR_ONE

    def to_json(self) -> dict:
        out = {name: unit_to_str(getattr(self, name)) for name in _UNIT_FIELDS}
        out.update((name, getattr(self, name)) for name in _SIGN_FIELDS)
        return out

    @classmethod
    def from_json(cls, data: Mapping) -> "ConventionTuple":
        """Inverse of to_json; a field of the wrong shape is a ValueError
        that names it, a missing one a KeyError."""
        if not isinstance(data, Mapping):
            raise ValueError(f"convention must be a JSON object, got {type(data).__name__}")
        fields = {name: data[name] for name in _SIGN_FIELDS}
        for name in _UNIT_FIELDS:
            try:
                fields[name] = unit_from_str(data[name])
            except ValueError:
                raise ValueError(f"{name} must be one of +1, -1, +i, -i, "
                                 f"got {data[name]!r}") from None
        return cls(**fields)

    def __str__(self) -> str:
        return (f"(eps={unit_to_str(self.eps_comm)}, kx={unit_to_str(self.kappa_x)}, "
                f"ky={unit_to_str(self.kappa_y)}, ks={unit_to_str(self.kappa_s)}, "
                f"orient={self.orient:+d}, rep_s={self.rep_s_sign:+d})")


def slot_index(dof: int, sector: int, i: int) -> int:
    """Slot of degree of freedom i of a sector: sector 1's slots come first."""
    require_int(dof, "dof")
    if require_int(sector, "sector") not in (1, 2):
        raise ValueError("sector must be 1 or 2")
    if not 1 <= require_int(i, "dof index") <= dof:
        raise ValueError(f"dof index {i} outside 1..{dof}")
    return (sector - 1) * dof + (i - 1)


def var_names(dof: int, letters: str) -> Tuple[str, ...]:
    """Names of the two variables of every slot, in slot order: letter and
    sector, then the dof index past one degree of freedom ('x1', 'p21')."""
    return tuple(f"{letter}{sector}" if dof == 1 else f"{letter}{sector}{i}"
                 for sector in (1, 2) for i in range(1, dof + 1) for letter in letters)


class GroupSignature(Record):
    """Two sectors, dof degrees of freedom each, plus the convention tuple."""

    _fields = ("dof", "convention")

    def __init__(self, dof: int, convention: ConventionTuple = ConventionTuple.standard()):
        if require_int(dof, "dof") < 1:
            raise ValueError("dof must be a positive integer")
        if not isinstance(convention, ConventionTuple):
            raise ValueError(f"convention must be a ConventionTuple, got {convention!r}")
        self._freeze(dof, convention)

    @property
    def width(self) -> int:
        """Length of a monomial exponent vector: S1, S2, then (X, Y) pairs."""
        return 2 + 4 * self.dof

    slots = property(lambda self: 2 * self.dof)

    def slot_sector(self, t: int) -> int:
        return 1 if t < self.dof else 2

    def slot_of(self, sector: int, i: int) -> int:
        return slot_index(self.dof, sector, i)

    def var_index(self, letter: str, sector: int, i: int = 1) -> int:
        """Exponent index of delta variable 's', 'x' or 'y' of a sector and
        dof index; a sector or dof index out of range, or any other letter,
        is a ValueError."""
        if letter not in ("s", "x", "y"):
            raise ValueError(f"letter must be 's', 'x' or 'y', got {letter!r}")
        slot = self.slot_of(sector, i)
        return sector - 1 if letter == "s" else 2 + 2 * slot + (letter == "y")

    @cached_property
    def delta_names(self) -> Tuple[str, ...]:
        """Delta-derivative variable of each exponent index."""
        return ("s1", "s2") + var_names(self.dof, "xy")

    @cached_property
    def contraction_rules(self) -> Tuple[tuple, ...]:
        """normal_order's contraction rule of each slot in an Element key: a
        contraction raises the exponent of the slot's sector generator S,
        at index 0 or 1, by one and multiplies by -eps."""
        neg_eps = flat_value(-self.convention.eps_comm)
        return tuple((self.slot_sector(t) - 1, (1,), neg_eps) for t in range(self.slots))

    def unit_factor(self, mono: Sequence[int]) -> Union[int, CRat]:
        """The convention's kappa factor of a generator monomial."""
        return self.convention.kappa(mono[0] + mono[1], sum(mono[2::2]), sum(mono[3::2]))

    def generator_names(self) -> List[str]:
        return ["S1", "S2"] + [f"{g}_{sector}_{i}" for sector in (1, 2)
                               for i in range(1, self.dof + 1) for g in "XY"]

    def to_json(self) -> dict:
        return {"dof_per_sector": self.dof, "convention": self.convention.to_json()}

    @classmethod
    def from_json(cls, data: Mapping) -> "GroupSignature":
        return cls(data["dof_per_sector"], ConventionTuple.from_json(data["convention"]))


class Element(PlanckMap):
    """Exact linear combination of PBW-ordered generator monomials.

    Immutable: no method mutates self, and the term map is normalized (no
    zero coefficients) on construction.  Flat keys end in Planck exponents.
    """

    __slots__ = ()

    signature = TermMap.space
    _mismatch = "elements built over different signatures"

    def __init__(self, signature: GroupSignature, terms: Mapping[Monomial, Scalar]):
        self._freeze(self._flatten(terms, signature.width), signature)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, sig: GroupSignature) -> "Element":
        return cls(sig, {})

    @classmethod
    def one(cls, sig: GroupSignature) -> "Element":
        return cls(sig, {(0,) * sig.width: S_ONE})

    @classmethod
    def generator(cls, sig: GroupSignature, name: str) -> "Element":
        names = sig.generator_names()
        try:
            idx = names.index(name)
        except ValueError:
            raise ValueError(f"unknown generator {name!r}; expected one of {names}") from None
        mono = [0] * sig.width
        mono[idx] = 1
        return cls(sig, {tuple(mono): S_ONE})

    @classmethod
    def monomial(cls, sig: GroupSignature, mono: Sequence[int],
                 coeff: Union[Scalar, CRat, int, Fraction] = 1) -> "Element":
        return cls(sig, {tuple(mono): scalar(coeff)})

    _first = 2      # S1 and S2 come first, and add

    def _identity(self) -> "Element":
        return Element.one(self.signature)

    # -- queries -------------------------------------------------------------

    def uses_sector(self, sector: int) -> bool:
        dof = self.signature.dof
        lo = 2 + 2 * slot_index(dof, sector, 1)
        return any(m[sector - 1] or any(m[lo:lo + 2 * dof]) for m in self.flat)

    # -- display ---------------------------------------------------------------

    def __str__(self) -> str:
        return delta_str(self)

    def __repr__(self) -> str:
        return f"Element({delta_str(self)})"


def multiply(a: Element, b: Element) -> Element:
    """Product in PBW normal form."""
    return a._product(b)


def commutator(a: Element, b: Element) -> Element:
    """orient * (a*b - b*a); orient is +1 or -1, so the orientation only
    picks the order."""
    return a._commutator(b) if a.signature.convention.orient == 1 else b._commutator(a)


# ---------------------------------------------------------------------------
# Delta-derivative correspondence

_VAR_RE = re.compile(r"([a-z])([0-9])(0|[1-9][0-9]*)?")


def parse_var(name: str, dof: int, letters: str) -> Optional[Tuple[str, int, int]]:
    """(letter, sector, dof index) of a variable name such as 'q1', 'y21' or
    'x_2_10': one of the letters, the sector digit, then the dof index with
    no leading zero, 1 when omitted; an 's' name has no index and
    underscores are ignored.
    None when name is not such a name; a sector or dof index out of range is
    a ValueError that names it."""
    m = _VAR_RE.fullmatch(name.replace("_", ""))
    if m is None or m[1] not in letters or (m[1] == "s" and m[3]):
        return None
    sector, i = int(m[2]), int(m[3] or 1)
    if sector not in (1, 2):
        raise ValueError(f"sector in {name!r} must be 1 or 2")
    if not 1 <= i <= dof:
        raise ValueError(f"dof index in {name!r} outside 1..{dof}")
    return m[1], sector, i


def parse_group_var(sig: GroupSignature, name: str) -> int:
    """Exponent-vector index of a delta variable such as 's1', 'X21' or
    'x_2_1'; see parse_var."""
    var = parse_var(name.strip().lower(), sig.dof, "sxy")
    if var is None:
        raise ValueError(f"malformed variable name {name!r}")
    return sig.var_index(*var)


def delta_to_element(sig: GroupSignature, alpha: Union[Mapping[str, int], Iterable[str]]) -> Element:
    """Single delta-derivative kernel as an Element.

    alpha lists derivative variables with multiplicity, either as a mapping
    name -> count or an iterable of names.  Each x derivative contributes a
    kappa_x factor and one X generator, and likewise for y and s; the empty
    multi-index is the convolution unit.
    """
    if isinstance(alpha, Mapping):
        items = [(n, require_int(k, f"multiplicity of {n}")) for n, k in alpha.items()]
    else:
        items = [(n, 1) for n in alpha]
    mono = [0] * sig.width
    for name, count in items:
        if count < 0:
            raise ValueError("derivative multiplicities must be nonnegative")
        mono[parse_group_var(sig, name)] += count
    return Element.monomial(sig, mono, sig.unit_factor(mono))


def element_to_delta(e: Element) -> Tuple[Scalar, Dict[str, int]]:
    """Inverse of delta_to_element on single-monomial Elements.

    Returns (coefficient, multi-index); the coefficient is the stored one
    divided by the kappa factors belonging to the monomial.
    """
    if len(e.terms) != 1:
        raise ValueError("element_to_delta requires a single-monomial Element")
    (mono, coeff), = e.terms.items()
    sig = e.signature
    alpha = {name: k for name, k in zip(sig.delta_names, mono) if k}
    return coeff / scalar(sig.unit_factor(mono)), alpha


def delta_str(e: Element) -> str:
    """Human-readable delta notation, e.g. '4*delta[x1,y1] + 2*delta[s1]'."""
    sig = e.signature
    names = sig.delta_names[2:] + sig.delta_names[:2]    # central derivatives last
    rendered = []
    for mono, coeff in sorted(e.terms.items(), key=lambda term: (-sum(term[0]), term[0])):
        coeff = coeff / scalar(sig.unit_factor(mono))
        kernel = ",".join(n for n, k in zip(names, mono[2:] + mono[:2]) for _ in range(k))
        rendered.append((coeff_str(coeff), f"delta[{kernel}]" if kernel else ""))
    return render_terms(rendered)


# ---------------------------------------------------------------------------
# Serialization

def _coeff_terms_json(coeff: Scalar) -> List[dict]:
    """The numerator terms of Scalar.to_json without their h_pow field: an
    Element coefficient has neither a denominator nor a power of h."""
    data = coeff.to_json()
    if any(data["denominator"].values()):
        raise ValueError("Element coefficients with denominators are not serializable")
    terms = data["numerator"]
    for term in terms:
        if term.pop("h_pow"):
            raise ValueError("Element coefficients must not involve the generic h symbol")
    return terms


def element_to_json(e: Element) -> dict:
    """Schema: one JSON term per (monomial, h1/h2-power) pair; zero exponents
    are omitted from the exponent map."""
    sig = e.signature
    names = sig.generator_names()
    terms, view = [], e.terms
    for mono in sorted(view):
        exps = exponent_map(names, mono)
        for cj in _coeff_terms_json(view[mono]):
            terms.append({"coeff": cj, "exponents": exps})
    return {"signature": sig.to_json(), "terms": terms}


def _planck_power(coeff: Mapping, name: str) -> int:
    """A JSON coefficient's h1_pow or h2_pow: element_to_json writes no negative one."""
    power = require_int(coeff.get(name, 0), name)
    if power < 0:
        raise ValueError(f"{name} must be nonnegative, got {power!r}")
    return power


def element_from_json(data: Mapping) -> Element:
    sig = GroupSignature.from_json(data["signature"])
    names = sig.generator_names()
    index = {n: i for i, n in enumerate(names)}
    acc: Dict[Monomial, Scalar] = {}
    for term in data["terms"]:
        mono = [0] * sig.width
        for name, exp in term["exponents"].items():
            mono[index[name]] = require_int(exp, f"exponent of {name}")
        cj = term["coeff"]
        c = CRat(Fraction(cj["re"][0], cj["re"][1]), Fraction(cj["im"][0], cj["im"][1]))
        part = Scalar.make({(0, _planck_power(cj, "h1_pow"), _planck_power(cj, "h2_pow")): c})
        accumulate(acc, tuple(mono), part)
    return Element(sig, acc)
