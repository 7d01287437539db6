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

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple, Union

from .scalars import (
    CR_I,
    CR_MINUS_I,
    CR_MINUS_ONE,
    CR_ONE,
    CRat,
    Scalar,
    S_ONE,
    scalar,
    unit_from_str,
    unit_to_str,
)
from .terms import (TermMap, accumulate, clean_terms, coeff_str, exponent_map,
                    normal_order, render_terms)

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


@dataclass(frozen=True)
class ConventionTuple:
    """Sign and unit choices left free by the algebraic relations.

    eps_comm is the structure constant in [X, Y] = eps_comm * S; the kappa
    factors translate one delta derivative into one generator; orient fixes
    the commutator orientation; rep_s_sign fixes the scalar image of the
    central generators, S_s -> rep_s_sign * i * hbar_s.
    """

    eps_comm: CRat
    kappa_x: CRat
    kappa_y: CRat
    kappa_s: CRat
    orient: int
    rep_s_sign: int

    def __post_init__(self):
        units = {CR_ONE, CR_MINUS_ONE, CR_I, CR_MINUS_I}
        for name in ("eps_comm", "kappa_x", "kappa_y", "kappa_s"):
            if getattr(self, name) not in units:
                raise ValueError(f"{name} must be one of +1, -1, +i, -i")
        for name in ("orient", "rep_s_sign"):
            if getattr(self, name) not in (1, -1):
                raise ValueError(f"{name} must be +1 or -1")

    @classmethod
    def standard(cls) -> "ConventionTuple":
        """The tuple selected by calibrate_conventions (see calibration)."""
        return cls(
            eps_comm=CR_MINUS_ONE,
            kappa_x=CR_ONE,
            kappa_y=CR_ONE,
            kappa_s=CR_ONE,
            orient=-1,
            rep_s_sign=-1,
        )

    @cached_property
    def gamma_unit(self) -> CRat:
        """Unit u in the represented relation [Q, P] = u * i * hbar."""
        return self.rep_s_sign * self.eps_comm

    @cached_property
    def star_unit(self) -> CRat:
        """Coefficient kappa in the one-sided jet star product
        f * g = fg + kappa * h2 * sum_i d_p f d_q g."""
        return -(self.eps_comm * self.rep_s_sign * CR_I)

    @property
    def anti_normal_order(self) -> bool:
        """True when the calibrated two-generator product is P then Q."""
        return self.gamma_unit == CR_ONE

    def to_json(self) -> dict:
        return {
            "eps_comm": unit_to_str(self.eps_comm),
            "kappa_x": unit_to_str(self.kappa_x),
            "kappa_y": unit_to_str(self.kappa_y),
            "kappa_s": unit_to_str(self.kappa_s),
            "orient": self.orient,
            "rep_s_sign": self.rep_s_sign,
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "ConventionTuple":
        return cls(
            eps_comm=unit_from_str(data["eps_comm"]),
            kappa_x=unit_from_str(data["kappa_x"]),
            kappa_y=unit_from_str(data["kappa_y"]),
            kappa_s=unit_from_str(data["kappa_s"]),
            orient=int(data["orient"]),
            rep_s_sign=int(data["rep_s_sign"]),
        )

    def __str__(self) -> str:
        return (f"(eps={unit_to_str(self.eps_comm)}, kx={unit_to_str(self.kappa_x)}, "
                f"ky={unit_to_str(self.kappa_y)}, ks={unit_to_str(self.kappa_s)}, "
                f"orient={self.orient:+d}, rep_s={self.rep_s_sign:+d})")


@dataclass(frozen=True)
class GroupSignature:
    """Two sectors, dof degrees of freedom each, plus the convention tuple."""

    dof: int
    convention: ConventionTuple = field(default_factory=lambda: ConventionTuple.standard())

    def __post_init__(self):
        if self.dof < 1:
            raise ValueError("dof must be a positive integer")

    @property
    def width(self) -> int:
        """Length of a monomial exponent vector: S1, S2, then (X, Y) pairs."""
        return 2 + 4 * self.dof

    @property
    def slots(self) -> int:
        return 2 * self.dof

    def slot_sector(self, t: int) -> int:
        return 1 if t < self.dof else 2

    def slot_of(self, sector: int, i: int) -> int:
        if sector not in (1, 2):
            raise ValueError("sector must be 1 or 2")
        if not 1 <= i <= self.dof:
            raise ValueError(f"dof index {i} outside 1..{self.dof}")
        return (sector - 1) * self.dof + (i - 1)

    def x_index(self, sector: int, i: int) -> int:
        return 2 + 2 * self.slot_of(sector, i)

    def y_index(self, sector: int, i: int) -> int:
        return 3 + 2 * self.slot_of(sector, i)

    def generator_names(self) -> List[str]:
        names = ["S1", "S2"]
        for sector in (1, 2):
            for i in range(1, self.dof + 1):
                names.append(f"X_{sector}_{i}")
                names.append(f"Y_{sector}_{i}")
        return names

    def to_json(self) -> dict:
        return {"dof_per_sector": self.dof, "convention": self.convention.to_json()}

    @classmethod
    def from_json(cls, data: Mapping) -> "GroupSignature":
        return cls(int(data["dof_per_sector"]), ConventionTuple.from_json(data["convention"]))


class Element(TermMap):
    """Exact linear combination of PBW-ordered generator monomials.

    Immutable: no method mutates self, and the term map is normalized (no
    zero coefficients) on construction.
    """

    __slots__ = ("signature",)

    _coerce = staticmethod(scalar)
    _mismatch = "elements built over different signatures"

    def __init__(self, signature: GroupSignature, terms: Mapping[Monomial, Scalar]):
        self._freeze(signature=signature,
                     terms=clean_terms(terms, signature.width, scalar))

    def _context(self) -> tuple:
        return (self.signature,)

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

    def _expand(self, m1: Monomial, m2: Monomial) -> list:
        """Each (X, Y) slot put in normal order by the shared kernel; a
        slot's k contractions become k powers of its sector's S and the
        factor (-eps)^k.  The central generators commute with everything."""
        sig = self.signature
        s1, s2 = m1[0] + m2[0], m1[1] + m2[1]
        (xy, _, _), *contracted = normal_order(m1, m2, 2, sig.slots)
        out = [((s1, s2) + xy, None)]
        if contracted:
            dof = sig.dof
            neg_eps = -sig.convention.eps_comm
            for xy, ks, weight in contracted:
                k, k1 = sum(ks), sum(ks[:dof])
                out.append(((s1 + k1, s2 + k - k1) + xy, neg_eps ** k * weight))
        return out

    def _identity(self) -> "Element":
        return Element.one(self.signature)

    # -- queries -------------------------------------------------------------

    def uses_sector(self, sector: int) -> bool:
        sig = self.signature
        idx = sector - 1
        for mono in self.terms:
            if mono[idx]:
                return True
            for t in range(sig.slots):
                if sig.slot_sector(t) == sector and (mono[2 + 2 * t] or mono[3 + 2 * t]):
                    return True
        return False

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

def parse_group_var(sig: GroupSignature, name: str) -> int:
    """Map a variable name like 's1', 'x1', 'y21' or 'x_2_1' to its
    exponent-vector index.  A missing dof digit defaults to 1."""
    raw = name.strip().lower().replace("_", "")
    if len(raw) < 2 or raw[0] not in "sxy" or not raw[1:].isdigit():
        raise ValueError(f"malformed variable name {name!r}")
    kind = raw[0]
    digits = raw[1:]
    if kind == "s":
        sector = int(digits)
        if sector not in (1, 2):
            raise ValueError(f"sector in {name!r} must be 1 or 2")
        return sector - 1
    sector = int(digits[0])
    i = int(digits[1:]) if len(digits) > 1 else 1
    if sector not in (1, 2):
        raise ValueError(f"sector in {name!r} must be 1 or 2")
    if not 1 <= i <= sig.dof:
        raise ValueError(f"dof index in {name!r} outside 1..{sig.dof}")
    return sig.x_index(sector, i) if kind == "x" else sig.y_index(sector, i)


def delta_to_element(sig: GroupSignature, alpha: Union[Mapping[str, int], Iterable[str]]) -> Element:
    """Single delta-derivative kernel as an Element.

    alpha lists derivative variables with multiplicity, either as a mapping
    name -> count or an iterable of names.  Each x derivative contributes a
    kappa_x factor and one X generator, and likewise for y and s; the empty
    multi-index is the convolution unit.
    """
    conv = sig.convention
    if isinstance(alpha, Mapping):
        items = [(n, int(k)) for n, k in alpha.items()]
    else:
        items = [(n, 1) for n in alpha]
    mono = [0] * sig.width
    coeff = CR_ONE
    for name, count in items:
        if count < 0:
            raise ValueError("derivative multiplicities must be nonnegative")
        idx = parse_group_var(sig, name)
        mono[idx] += count
        if idx < 2:
            coeff = coeff * conv.kappa_s ** count
        elif idx % 2 == 0:
            coeff = coeff * conv.kappa_x ** count
        else:
            coeff = coeff * conv.kappa_y ** count
    return Element(sig, {tuple(mono): scalar(coeff)})


def _var_name(sig: GroupSignature, idx: int) -> str:
    if idx == 0:
        return "s1"
    if idx == 1:
        return "s2"
    t = (idx - 2) // 2
    sector = sig.slot_sector(t)
    i = t % sig.dof + 1
    letter = "x" if idx % 2 == 0 else "y"
    return f"{letter}{sector}" if sig.dof == 1 else f"{letter}{sector}{i}"


def element_to_delta(e: Element) -> Tuple[Scalar, Dict[str, int]]:
    """Inverse of delta_to_element on single-monomial Elements.

    Returns (coefficient, multi-index); the coefficient is the stored one
    divided by the kappa factors belonging to the monomial.
    """
    if len(e.terms) != 1:
        raise ValueError("element_to_delta requires a single-monomial Element")
    (mono, coeff), = e.terms.items()
    sig = e.signature
    conv = sig.convention
    kappa = conv.kappa_s ** (mono[0] + mono[1])
    alpha: Dict[str, int] = {}
    if mono[0]:
        alpha["s1"] = mono[0]
    if mono[1]:
        alpha["s2"] = mono[1]
    for idx in range(2, sig.width):
        if mono[idx]:
            alpha[_var_name(sig, idx)] = mono[idx]
            kappa = kappa * (conv.kappa_x if idx % 2 == 0 else conv.kappa_y) ** mono[idx]
    return coeff / scalar(kappa), alpha


def delta_str(e: Element) -> str:
    """Human-readable delta notation, e.g. '4*delta[x1,y1] + 2*delta[s1]'."""
    sig = e.signature
    rendered = []
    for mono in sorted(e.terms, key=lambda m: (-sum(m), m)):
        coeff, _ = element_to_delta(Element.monomial(sig, mono, e.terms[mono]))
        names: List[str] = []
        for idx in range(2, sig.width):
            names.extend([_var_name(sig, idx)] * mono[idx])
        names.extend(["s1"] * mono[0])
        names.extend(["s2"] * mono[1])
        rendered.append((coeff_str(coeff), f"delta[{','.join(names)}]" if names else ""))
    return render_terms(rendered)


# ---------------------------------------------------------------------------
# Serialization

def _coeff_terms_json(coeff: Scalar) -> List[dict]:
    if coeff.den != (0, 0, 0):
        raise ValueError("Element coefficients with denominators are not serializable")
    out = []
    for (eh, e1, e2), c in coeff.num:
        if eh:
            raise ValueError("Element coefficients must not involve the generic h symbol")
        out.append({
            "re": [c.re.numerator, c.re.denominator],
            "im": [c.im.numerator, c.im.denominator],
            "h1_pow": e1,
            "h2_pow": e2,
        })
    return out


def element_to_json(e: Element) -> dict:
    """Schema: one JSON term per (monomial, h1/h2-power) pair; zero exponents
    are omitted from the exponent map."""
    sig = e.signature
    names = sig.generator_names()
    terms = []
    for mono in sorted(e.terms):
        exps = exponent_map(names, mono)
        for cj in _coeff_terms_json(e.terms[mono]):
            terms.append({"coeff": cj, "exponents": exps})
    return {"signature": sig.to_json(), "terms": terms}


def element_from_json(data: Mapping) -> Element:
    sig = GroupSignature.from_json(data["signature"])
    names = sig.generator_names()
    index = {n: i for i, n in enumerate(names)}
    acc: Dict[Monomial, Scalar] = {}
    for term in data["terms"]:
        mono = [0] * sig.width
        for name, exp in term["exponents"].items():
            mono[index[name]] = int(exp)
        cj = term["coeff"]
        c = CRat(Fraction(cj["re"][0], cj["re"][1]), Fraction(cj["im"][0], cj["im"][1]))
        part = Scalar.make({(0, int(cj.get("h1_pow", 0)), int(cj.get("h2_pow", 0))): c})
        accumulate(acc, tuple(mono), part)
    return Element(sig, acc)
