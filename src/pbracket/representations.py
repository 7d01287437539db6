"""Representations of the group algebra.

rep_qq sends both sectors to Weyl operators over formal parameters h1, h2.
rep_qc sends sector 1 to Weyl operators over the formal parameter h and
sector 2 to a first-order jet: commutative polynomials in q_i, p_i together
with a single power of h2, truncated past first order.  Hybrid observables
multiply with a one-sided jet star product

    f * g = f g + u * h2 * sum_i (df/dp_i)(dg/dq_i),

which is exactly the correction that makes the per-monomial representation a
homomorphism to first jet order.  It is the normal ordering of sector 2's
Heisenberg pair cut at h2^1 (u * h2 is minus the pair's commutator, u the
unit a Weyl pair contracts by), so a hybrid product runs the one contraction
kernel, terms.normal_order, over the Weyl and classical pairs of a key alike.

Both representations read the flat keys of an Element or an AObservable in
one pass: each sends a power S_s^n of a central generator to a closed-form
scalar, for every integer n, and a formal antiderivative A_s is S_s^-1.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from fractions import Fraction
from typing import Mapping, Optional, Tuple, Union

from .errors import SignatureMismatch, ZeroPlanck
from .scalars import CR_I, CRat, PlanckMap, Scalar, S_ONE, flat_value, scalar
from .terms import (Record, TermMap, accumulate, coeff_str, exponent_map,
                    normal_order, pair_masks, power_str, render_terms)
from .group_algebra import Element, GroupSignature, require_int, require_rational
from .pmech import AObservable, ClassicalPoly

__all__ = [
    "WeylAlgebra",
    "WeylOperator",
    "HybridObservable",
    "qq_algebra",
    "qc_algebra",
    "rep_qq",
    "rep_qc",
    "multiply_hybrid",
    "commutator_hybrid",
    "hybrid_from_sector2_poly",
]

WMonomial = Tuple[int, ...]


class WeylAlgebra(Record):
    """A finite family of (Q_i, P_i) pairs with central commutators:
    Q_i P_i - P_i Q_i = gamma_i, different pairs commute.  Each gamma_i is
    one nonzero term, a constant times a Laurent monomial in h, h1 and h2,
    so a contraction is one Planck shift and one constant."""

    _fields = ("labels", "gammas")

    def __init__(self, labels: Tuple[str, ...], gammas: Tuple[Scalar, ...]):
        if len(labels) != len(gammas):
            raise ValueError("labels and gammas must align")
        for label, gamma in zip(labels, gammas):
            if not isinstance(gamma, Scalar) or len(gamma.flat) != 1:
                raise ValueError(f"gamma of pair {label!r} must be one nonzero term, "
                                 f"a constant times a monomial in h, h1, h2; got {gamma!r}")
        self._freeze(labels, gammas)

    @property
    def dofs(self) -> int:
        return len(self.labels)

    @property
    def width(self) -> int:
        return 2 * len(self.labels)

    @property
    def names(self) -> Tuple[str, ...]:
        """Generator names in exponent order: Q and P of each pair."""
        return tuple(f"{letter}{lab}" for lab in self.labels for letter in "QP")

    @cached_property
    def contraction_rules(self) -> Tuple[tuple, ...]:
        """normal_order's contraction rule of each pair in an operator key:
        a contraction adds gamma's Planck exponents to the tail, at index
        ``width``, and multiplies by minus gamma's constant."""
        return tuple((self.width, e, flat_value(-c))
                     for (e, c), in (gamma.flat.items() for gamma in self.gammas))


class WeylOperator(PlanckMap):
    """Noncommutative polynomial in the algebra generators, kept in normal
    form with Q before P inside each pair; flat keys end in Planck exponents."""

    __slots__ = ()

    algebra = TermMap.space
    _mismatch = "operators over different Weyl algebras"

    def __init__(self, algebra: WeylAlgebra, terms: Mapping[WMonomial, Union[Scalar, CRat, int, Fraction]]):
        self._freeze(self._flatten(terms, algebra.width), algebra)

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, algebra: WeylAlgebra) -> "WeylOperator":
        return cls(algebra, {})

    @classmethod
    def identity(cls, algebra: WeylAlgebra) -> "WeylOperator":
        return cls(algebra, {(0,) * algebra.width: S_ONE})

    @classmethod
    def generator(cls, algebra: WeylAlgebra, kind: str, d: int) -> "WeylOperator":
        if kind not in ("Q", "P"):
            raise ValueError("kind must be 'Q' or 'P'")
        if not 0 <= require_int(d, "dof index") < algebra.dofs:
            raise ValueError(f"dof index {d} outside 0..{algebra.dofs - 1}")
        mono = [0] * algebra.width
        mono[2 * d + (0 if kind == "Q" else 1)] = 1
        return cls(algebra, {tuple(mono): S_ONE})

    def _expand(self, m1: tuple, m2: tuple) -> list:
        return normal_order(m1, m2, 0, self.algebra.contraction_rules)

    def _masks(self, mono: WMonomial) -> tuple:
        return pair_masks(mono, 0, self.algebra.dofs)

    def _identity(self) -> "WeylOperator":
        return WeylOperator.identity(self.algebra)

    # -- queries ---------------------------------------------------------------

    def to_json(self) -> dict:
        names, terms = self.algebra.names, self.terms
        return {"labels": list(self.algebra.labels),
                "terms": [{"coeff": terms[mono].to_json(),
                           "exponents": exponent_map(names, mono)}
                          for mono in sorted(terms)]}

    # -- display -----------------------------------------------------------------

    def __str__(self) -> str:
        names, terms = self.algebra.names, self.terms
        return render_terms((coeff_str(terms[m]), power_str(names, m) or "I")
                            for m in sorted(terms, key=lambda m: (-sum(m), m)))

    __repr__ = __str__


# ---------------------------------------------------------------------------
# Hybrid observables

def _classical_names(dof: int, numbered: bool) -> Tuple[str, ...]:
    """Names of (q_1, p_1, ..., q_n, p_n); unnumbered 'q', 'p' at one dof."""
    if dof == 1 and not numbered:
        return ("q", "p")
    return tuple(f"{letter}{i}" for i in range(1, dof + 1) for letter in "qp")


_H2_REFUSED = "coefficients must not use h2; the jet flag carries it"


def _h2_free(value) -> Scalar:
    """A hybrid coefficient: a Scalar without h2, which the jet flag carries."""
    c = scalar(value)
    if c.uses_symbol("h2"):
        raise ValueError(_H2_REFUSED)
    return c


class HybridObservable(PlanckMap):
    """Sum of (Weyl operator part) x (classical polynomial part) terms.

    Each term is keyed by one flat exponent tuple: the algebra's (Q_i, P_i)
    exponents, then the (q_1, p_1, ..., q_n, p_n) exponents, laid out like
    a ClassicalPoly's sector-2 slots, and last the jet degree in {0, 1},
    the power of h2, then in a flat key the Planck exponents.  Coefficients
    are Scalars free of h2, which only the jet degree carries.  The signature
    is the whole space: it fixes qc_algebra(signature), the dof and the
    contraction rules, _jet_rules(signature).
    """

    __slots__ = ()

    signature = TermMap.space
    _coerce = staticmethod(_h2_free)
    _mismatch = "hybrid observables over different signatures"

    def __init__(self, signature: GroupSignature,
                 terms: Mapping[Tuple[int, ...], Union[Scalar, CRat, int, Fraction]]):
        flat = self._flatten(terms, 4 * signature.dof + 1, _h2_free)
        if any(key[-4] > 1 for key in flat):
            raise ValueError("jet degree must be 0 or 1")
        self._freeze(flat, signature)

    dof = property(lambda self: self.signature.dof)
    algebra = property(lambda self: qc_algebra(self.signature))

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, sig: GroupSignature) -> "HybridObservable":
        return cls(sig, {(0,) * (4 * sig.dof + 1): S_ONE})

    @classmethod
    def from_weyl(cls, w: WeylOperator, sig: GroupSignature) -> "HybridObservable":
        """An operator of qc_algebra(sig) at zero classical exponents and jet
        degree; SignatureMismatch for an operator of any other algebra."""
        if w.algebra != qc_algebra(sig):
            raise SignatureMismatch("operator algebra is not the signature's qc_algebra")
        zc = (0,) * (2 * sig.dof + 1)
        return cls(sig, {m + zc: c for m, c in w.terms.items()})

    def _expand(self, k1: tuple, k2: tuple) -> list:
        """The Weyl and classical pairs put in normal order by the shared
        kernel, by _jet_rules, and nothing past jet degree 1: a jet-1 pair
        takes the Weyl rules alone, a jet-0 pair drops its jet-2 entries."""
        jet = k1[-4] + k2[-4]
        if jet > 1:
            return []
        rules = _jet_rules(self.signature)
        if jet:
            return normal_order(k1, k2, 0, rules[:self.signature.dof])
        return [e for e in normal_order(k1, k2, 0, rules) if e[0][-4] < 2]

    def _masks(self, key: tuple) -> tuple:
        """The Weyl pairs' bits, then, at jet degree 0, the classical (q, p)
        pairs' bits, which the star term contracts: past jet 1 a star
        contraction reaches jet 2, which is dropped."""
        return pair_masks(key, 0, (2 * self.signature.dof) >> key[-4])

    def _identity(self) -> "HybridObservable":
        return HybridObservable.identity(self.signature)

    # -- queries ---------------------------------------------------------------

    def jet_part(self, jet: int) -> "HybridObservable":
        """Coefficient of h2^jet, returned at jet degree zero."""
        return self._like({k[:-4] + (0,) + k[-3:]: c for k, c in self.flat.items()
                           if k[-4] == jet})

    def as_weyl(self) -> WeylOperator:
        """The pure operator content; raises if any classical part remains."""
        w = self.algebra.width
        if any(any(k[w:]) for k in self.terms):
            raise ValueError("observable has classical or jet content")
        return WeylOperator(self.algebra, {k[:w]: c for k, c in self.terms.items()})

    def derivative_q(self, i: int) -> "HybridObservable":
        return ClassicalPoly.derivative(self, self._q_index(i))

    def derivative_p(self, i: int) -> "HybridObservable":
        return ClassicalPoly.derivative(self, self._q_index(i) + 1)

    def _q_index(self, i: int) -> int:
        """The key index of q_i, i from 0; any other i would land on a Weyl
        exponent or on the jet degree."""
        if not 0 <= require_int(i, "dof index") < self.dof:
            raise ValueError(f"dof index {i} outside 0..{self.dof - 1}")
        return self.algebra.width + 2 * i

    def substitute(self, **values) -> "HybridObservable":
        if "h2" in values:
            raise ValueError("h2 is the jet degree of a hybrid observable, not a coefficient "
                             "symbol; take jet_part(0) and jet_part(1) instead")
        return super().substitute(**values)

    # -- display -----------------------------------------------------------------

    def __str__(self) -> str:
        names = self.algebra.names + _classical_names(self.dof, numbered=False) + ("h2",)
        terms = self.terms
        keys = sorted(terms, key=lambda k: (k[-1], k[-1] - sum(k), k))
        return render_terms((coeff_str(terms[k]), power_str(names, k) or "I") for k in keys)

    __repr__ = __str__

    def to_json(self) -> dict:
        wnames = self.algebra.names
        cnames = _classical_names(self.dof, numbered=True)
        w = self.algebra.width
        terms, view = [], self.terms
        for k in sorted(view):
            coeffs = {"monomial": exponent_map(cnames, k[w:-1])}
            coeffs.update(view[k].to_json())
            terms.append({"weyl": {"exponents": exponent_map(wnames, k[:w])},
                          "classical": {"coeffs": coeffs, "h2_deg": k[-1]}})
        return {"terms": terms}


# ---------------------------------------------------------------------------
# The representations

# One algebra per signature, so operands over the same signature hold the
# same object and its contraction rules are built once.  The caches are
# bounded: a session meets a handful of signatures.
@lru_cache(maxsize=64)
def qq_algebra(sig: GroupSignature) -> WeylAlgebra:
    """Two-sector Weyl algebra: gamma = rep_s_sign * eps_comm * i * h_sector."""
    unit = scalar(sig.convention.gamma_unit * CR_I)
    labels, gammas = [], []
    for sector, sym in ((1, "h1"), (2, "h2")):
        for i in range(1, sig.dof + 1):
            labels.append(f"{sector}" if sig.dof == 1 else f"{sector}_{i}")
            gammas.append(unit * Scalar.symbol(sym))
    return WeylAlgebra(tuple(labels), tuple(gammas))


@lru_cache(maxsize=64)
def qc_algebra(sig: GroupSignature) -> WeylAlgebra:
    """Sector-1 Weyl algebra over the generic symbol h."""
    unit = scalar(sig.convention.gamma_unit * CR_I)
    labels = tuple(str(i) for i in range(1, sig.dof + 1))
    return WeylAlgebra(labels, tuple(unit * Scalar.symbol("h") for _ in labels))


@lru_cache(maxsize=64)
def _jet_rules(sig: GroupSignature) -> Tuple[tuple, ...]:
    """normal_order's contraction rules in a hybrid key: each Weyl pair's,
    its Planck tail moved past the classical exponents and the jet degree,
    then each classical (q, p) pair's, the jet of sector 2's Heisenberg
    pair: a contraction raises the jet degree, at index 4*dof, by one and
    multiplies by the Weyl pair's unit, as h2 times its -gamma would."""
    shift = 2 * sig.dof + 1
    weyl = qc_algebra(sig).contraction_rules
    return (tuple((raised + shift, step, unit) for raised, step, unit in weyl)
            + tuple((4 * sig.dof, (1,), unit) for _, _, unit in weyl))


def rep_qq(k: Union[Element, AObservable],
           h1: Optional[Union[int, Fraction]] = None,
           h2: Optional[Union[int, Fraction]] = None) -> WeylOperator:
    """Quantum-quantum representation.

    X_{s,i} -> Q^(s)_i, Y_{s,i} -> P^(s)_i and S_s^n -> (rep_s_sign*i*h_s)^n
    for every integer n, so a formal antiderivative factor, S_s^-1, maps to
    the inverse scalar.  h1, h2 stay formal unless numeric values are
    supplied.
    """
    sig = k.signature
    subs = {name: require_rational(v, name) for name, v in (("h1", h1), ("h2", h2))
            if v is not None}
    for name, v in subs.items():
        if not v:
            raise ZeroPlanck(f"{name} must be nonzero")
    cycle = sig.convention.central_cycle
    acc: dict = {}
    for key, coeff in k.flat.items():
        s1, s2 = key[0], key[1]
        accumulate(acc, key[2:-3] + (key[-3], key[-2] + s1, key[-1] + s2),
                   coeff * cycle[(s1 + s2) % 4])
    out = WeylOperator._over(acc, qq_algebra(sig))
    return out.substitute(**subs) if subs else out


def rep_qc(k: Union[Element, AObservable]) -> HybridObservable:
    """Quantum-classical representation to first jet order.

    Sector 1 maps as in rep_qq with the generic symbol h: S1^n ->
    (rep_s_sign*i*h)^n.  Sector 2 maps X -> q, Y -> p and S2^n ->
    (rep_s_sign*i)^n at jet degree n, h2 being a jet variable: only n = 0
    and n = 1 are kept, so squares and higher powers truncate to zero, and
    so does a formal A2 factor, S2^-1, the jet having no inverse.
    """
    sig = k.signature
    cycle = sig.convention.central_cycle
    acc: dict = {}
    for key, coeff in k.flat.items():
        s1, jet = key[0], key[1]
        if 0 <= jet <= 1:
            accumulate(acc, key[2:-3] + (jet, key[-3] + s1, key[-2], key[-1]),
                       coeff * cycle[(s1 + jet) % 4])
    if any(key[-1] for key in acc):
        raise ValueError(_H2_REFUSED)
    return HybridObservable._over(acc, sig)


def multiply_hybrid(a: HybridObservable, b: HybridObservable) -> HybridObservable:
    """Product of hybrid observables: Weyl parts multiply noncommutatively,
    classical parts with the one-sided jet star product, jet degree > 1 is
    discarded."""
    return a._product(b)


def commutator_hybrid(a: HybridObservable, b: HybridObservable) -> HybridObservable:
    """a*b - b*a, never building the uncontracted leading term both orders cancel."""
    return a._commutator(b)


def hybrid_from_sector2_poly(template: HybridObservable, f: ClassicalPoly) -> HybridObservable:
    """Embed a sector-2-only classical polynomial into the hybrid context of
    an existing observable (trivial Weyl part, jet degree zero): its zero
    sector-1 exponents fill the Weyl slots."""
    if f.uses_sector(1):
        raise ValueError("polynomial must use sector-2 variables only")
    if f.dof != template.dof:
        raise SignatureMismatch("polynomial dof does not match hybrid context")
    return HybridObservable(template.signature, {m + (0,): c for m, c in f.terms.items()})
