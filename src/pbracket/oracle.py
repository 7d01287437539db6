"""Independent numerical checks for the convolution algebra and its
representations.

Two oracles, built on different mathematics than the symbolic engine:

* vector-field oracle: realizes each generator as a left-invariant vector
  field acting on polynomials in the group coordinates
  (s1, s2, x_{1,1}, y_{1,1}, ...).  The product of two elements must act as
  the composition of their actions.  This checks the reordering arithmetic in
  ``multiply`` against nothing but the Leibniz rule.  All probes of a pair
  act in one batched pass per PBW word, on integer coefficients, with
  (eps/2)^k applied once per output term.

* matrix oracle: realizes the first canonical pair as truncated
  harmonic-oscillator ladder matrices and compares operator identities
  entrywise on the columns that truncation leaves exact.  Every check acts
  on that pair alone, at h = h1 = h2 = 1, so its MATRIX_DIM x MATRIX_DIM
  matrices do not grow with the dof.  It is the engine's one float path.

Both produce :class:`OracleReport` rows with a deterministic input hash so a
verification run is reproducible byte for byte.
"""

from __future__ import annotations

import hashlib
import math
import random
from fractions import Fraction
from itertools import product
from typing import TYPE_CHECKING, Dict, List, Tuple, Union

from .errors import DimensionTooSmall, UnsupportedConvention
from .scalars import CRat, CR_I, CR_ZERO, Scalar, S_ONE, flat_value, power, scalar
from .group_algebra import Element, GroupSignature, commutator, multiply
from .representations import WeylOperator, qc_algebra
from .terms import Record, accumulate, clean_terms, power_str
from . import sampling

if TYPE_CHECKING:
    import numpy as np

# The matrix oracle's basis states at every dof, and its entrywise tolerance.
MATRIX_DIM = 32
MATRIX_TOL = 1e-10
# The vector-field suite's random element pairs, and probe monomials per pair.
VF_PAIRS = 100
VF_PROBES = 30

__all__ = [
    "vector_field_action",
    "matrix_max_error",
    "OracleReport",
    "check_vector_field_suite",
    "check_algebra_laws",
    "check_matrix_suite",
    "oracle_check",
]


# ---------------------------------------------------------------------------
# generator fields on polynomials in group coordinates


def _generator_fields(sig: GroupSignature) -> Tuple[Tuple[int, int, int, int], ...]:
    """Left-invariant vector field of each generator, indexed like Element
    exponents, as ``(idx, s_idx, partner_idx, sign)``, eps/2 left to _act:

    S_sigma   -> d/ds_sigma                        (partner_idx = -1)
    X_{s,i}   -> d/dx - eps*(y/2) d/ds_sigma       (partner y, sign -1)
    Y_{s,i}   -> d/dy + eps*(x/2) d/ds_sigma       (partner x, sign +1)
    """
    fields = [(0, 0, -1, 0), (1, 1, -1, 0)]
    for idx in range(2, sig.width):
        s_idx = sig.slot_sector((idx - 2) // 2) - 1
        if (idx - 2) % 2 == 0:
            fields.append((idx, s_idx, idx + 1, -1))
        else:
            fields.append((idx, s_idx, idx - 1, 1))
    return tuple(fields)


def _words(e: Element) -> List[Tuple[Tuple[int, ...], Union[int, CRat]]]:
    """Each term of ``e`` as (its generators in the order their fields act,
    the rightmost first; its constant coefficient)."""
    return [(tuple(idx for idx in range(len(m) - 1, -1, -1) for _ in range(m[idx])),
             flat_value(c.as_crat())) for m, c in e.terms.items()]


def _act(sig: GroupSignature, words: list, seed: Dict[tuple, int]) -> Dict[tuple, object]:
    """The sum over ``words`` of coefficient times the word's fields applied
    to ``seed``: int coefficients, keyed by group monomial plus (tag,
    partner steps).  A field step multiplies ints only: the derivative along
    the generator's coordinate and, for X and Y, a partner step (partner
    coordinate times the derivative along its sector's s).  Each output
    term is scaled once, by coefficient times (eps/2)^steps, and keyed by
    monomial plus (tag,).
    """
    fields = _generator_fields(sig)
    half_eps = sig.convention.eps_comm * CRat(Fraction(1, 2))
    out: Dict[tuple, object] = {}
    # sorted, a word reuses the prefix it shares with the word before:
    # acted[n] is the seed after the first n fields of that word
    prev, acted = (), [seed]
    for word, coeff in sorted(words, key=lambda w: w[0]):
        n = next((n for n, (u, v) in enumerate(zip(word, prev)) if u != v),
                 min(len(word), len(prev)))
        del acted[n + 1:]
        for idx, s_idx, partner, sign in (fields[gen] for gen in word[n:]):
            g: Dict[tuple, int] = {}
            for m, c in acted[-1].items():
                if m[idx]:
                    accumulate(g, m[:idx] + (m[idx] - 1,) + m[idx + 1:], c * m[idx])
                if partner >= 0 and m[s_idx]:
                    shifted = list(m)
                    shifted[s_idx] -= 1
                    shifted[partner] += 1
                    shifted[-1] += 1
                    accumulate(g, tuple(shifted), c * sign * m[s_idx])
            acted.append(g)
        prev = word
        for m, c in acted[-1].items():
            accumulate(out, m[:-1], coeff * c * power(half_eps, m[-1]))
    return out


def vector_field_action(e: Element,
                        f: Dict[Tuple[int, ...], CRat]) -> Dict[Tuple[int, ...], CRat]:
    """Apply the differential-operator realization of ``e`` to ``f``.

    ``f`` is a polynomial on the group: a term dict keyed like Element
    exponents, (s1, s2, x_{1,1}, y_{1,1}, ..., x_{2,n}, y_{2,n}); the
    result is one too.  A monomial S1^a S2^b X^c Y^d ... acts as the
    composition of the fields in written order, the rightmost generator
    hitting ``f`` first.  Coefficients must be constants (no formal Planck
    symbols survive numeric checking).
    """
    sig = e.signature
    f = clean_terms(f, sig.width, CRat.of)
    coeffs = list(f.values())
    total: Dict[Tuple[int, ...], CRat] = {}
    for m, c in _act(sig, _words(e), {m + (j, 0): 1 for j, m in enumerate(f)}).items():
        accumulate(total, m[:-1], coeffs[m[-1]] * c)
    return total


# ---------------------------------------------------------------------------
# truncated ladder-matrix realization of the first canonical pair


def _at_one(s: Scalar) -> complex:
    """The value of ``s`` at h = h1 = h2 = 1: the exact sum of its
    coefficients, converted to a float once."""
    return sum(s.terms.values(), CR_ZERO).to_complex()


def _canonical_pair(gamma: complex) -> Tuple[np.ndarray, np.ndarray]:
    """Matrices Q, P with [Q, P] = gamma * I exactly on low columns.

    Requires gamma purely imaginary and nonzero, else UnsupportedConvention;
    built from oscillator ladders scaled by |Im gamma| with the sign carried
    by P.
    """
    import numpy as np
    if abs(gamma.real) > 1e-14 or gamma.imag == 0:
        raise UnsupportedConvention(
            f"the matrix oracle needs a purely imaginary canonical-pair weight, got {gamma}")
    t = gamma.imag
    a = np.diag(np.sqrt(np.arange(1, MATRIX_DIM)), 1).astype(complex)   # the lowering ladder
    ad = a.conj().T
    root = math.sqrt(abs(t) / 2.0)
    q = root * (a + ad)
    p = (1.0 if t > 0 else -1.0) * 1j * root * (ad - a)
    return q, p


def _realizable(*ops: WeylOperator) -> int:
    """The largest degree of ``ops``, once each is known to have a
    realization on the first canonical pair.  Raises before anything is
    allocated: ValueError for a term on another pair, DimensionTooSmall when
    MATRIX_DIM is below degree + 2."""
    if any(any(mono[2:]) for w in ops for mono in w.terms):
        raise ValueError("the matrix oracle realizes the first canonical pair only")
    deg = max(w.degree() for w in ops)
    if MATRIX_DIM < deg + 2:
        raise DimensionTooSmall(
            f"need matrix dimension >= degree + 2 = {deg + 2}, got {MATRIX_DIM}")
    return deg


def _realize(w: WeylOperator) -> np.ndarray:
    """Truncated matrix of ``w`` on the first canonical pair at h = h1 =
    h2 = 1, sum of c * Q^a P^b over its terms.  Refuses as _realizable does."""
    import numpy as np
    _realizable(w)
    total = np.zeros((MATRIX_DIM, MATRIX_DIM), dtype=complex)
    q, p = _canonical_pair(_at_one(w.algebra.gammas[0]))
    power = np.linalg.matrix_power
    for (a, b, *_), coeff in w.terms.items():
        total += power(q, a) @ power(p, b) * _at_one(coeff)
    return total


def matrix_max_error(wa: WeylOperator, wb: WeylOperator) -> float:
    """Max entrywise deviation between the realizations of two operators,
    restricted to the columns the truncation computes exactly: a degree-d
    operator maps basis column j into levels <= j + d, so columns
    j < MATRIX_DIM - d are free of truncation error.  Raises as _realizable does,
    for either operator, before realizing either."""
    import numpy as np
    if wa.algebra is not wb.algebra and wa.algebra != wb.algebra:
        raise ValueError("operators live in different algebras")
    deg = _realizable(wa, wb)
    diff = _realize(wa) - _realize(wb)
    return float(np.abs(diff[:, :MATRIX_DIM - deg]).max())


# ---------------------------------------------------------------------------
# reports and suites


class OracleReport(Record):
    """One oracle check.  The exact suites also record how many instances
    failed and a reproducer for the first; both are empty on a pass."""

    _fields = ("check", "inputs_hash", "status", "max_abs_error", "failures", "counterexample")

    def __init__(self, check: str, inputs_hash: str, status: str, max_abs_error: float,
                 failures: int = 0, counterexample: str = ""):
        self._freeze(check, inputs_hash, status, max_abs_error, failures, counterexample)

    def to_json(self) -> dict:
        data = {
            "check": self.check,
            "inputs-hash": self.inputs_hash,
            "status": self.status,
            "max-abs-error": self.max_abs_error,
        }
        if self.failures:
            data["failures"] = self.failures
            data["counterexample"] = self.counterexample
        return data

    @property
    def ok(self) -> bool:
        return self.status == "pass"


def _hash_inputs(*parts: object) -> str:
    digest = hashlib.sha256("|".join(repr(p) for p in parts).encode()).hexdigest()
    return digest[:16]


def _exact_report(check: str, inputs_hash: str, failed: List[str]) -> OracleReport:
    """Report of an exact suite from the descriptions of its failing instances."""
    return OracleReport(
        check=check,
        inputs_hash=inputs_hash,
        status="fail" if failed else "pass",
        max_abs_error=1.0 if failed else 0.0,
        failures=len(failed),
        counterexample=failed[0] if failed else "",
    )


def _coordinate_str(sig: GroupSignature, mono: Tuple[int, ...]) -> str:
    """A group-coordinate monomial in variable syntax, e.g. ``s1^2*x_1_1``."""
    return power_str((name.lower() for name in sig.generator_names()), mono) or "1"


def check_vector_field_suite(sig: GroupSignature, seed: int) -> OracleReport:
    """Product-versus-composition check on random element pairs of degree
    at most 4.

    Exact rational arithmetic throughout: any mismatch is a hard failure, so
    max_abs_error is 0.0 on pass and 1.0 on failure.  A pair's probes act
    in one batched pass, each tagged by its index: the words of ab minus
    a∘b, expanded by linearity into b's word then a's, and a probe fails
    when any term with its tag is left.
    """
    max_degree = 4
    rng = random.Random(seed)
    failed: List[str] = []
    for i in range(VF_PAIRS):
        a = sampling.rand_element(rng, sig, max_degree=max_degree)
        b = sampling.rand_element(rng, sig, max_degree=max_degree)
        ab = multiply(a, b)
        probe_deg = a.degree() + b.degree() + 2
        monos = [sampling.rand_group_monomial(rng, sig, probe_deg) for _ in range(VF_PROBES)]
        diff = _act(sig, _words(ab) + [(wb + wa, -ca * cb) for (wa, ca), (wb, cb)
                                       in product(_words(a), _words(b))],
                    {mono + (j, 0): 1 for j, mono in enumerate(monos)})
        wrong = {k[-1] for k in diff}
        failed += [f"seed {seed}, pair {i}, probe {j}: a = {a}; b = {b}; "
                   f"probe monomial {_coordinate_str(sig, monos[j])}" for j in sorted(wrong)]
    return _exact_report(
        "vector-field-composition",
        _hash_inputs("vf", sig.dof, str(sig.convention), seed, VF_PAIRS, max_degree, VF_PROBES),
        failed)


# law, instances, inputs per instance, max degree and terms per input, law holds
ALGEBRA_LAWS = (
    ("associativity", 80, 3, 4, 2,
     lambda a, b, c: multiply(multiply(a, b), c) == multiply(a, multiply(b, c))),
    ("Jacobi", 40, 3, 3, 2,
     lambda a, b, c: (commutator(a, commutator(b, c)) + commutator(b, commutator(c, a))
                      + commutator(c, commutator(a, b))).is_zero),
    ("antisymmetry", 40, 2, 4, 2,
     lambda a, b: (commutator(a, b) + commutator(b, a)).is_zero),
    ("idempotence", 40, 1, 4, 3, lambda a: Element(a.signature, dict(a.terms)) == a),
)


def check_algebra_laws(sig: GroupSignature, seed: int) -> OracleReport:
    """Associativity, Jacobi, antisymmetry and normal-form idempotence on
    random elements.  Exact arithmetic; pass means every instance held."""
    rng = random.Random(seed)
    failed: List[str] = []
    for law, count, arity, degree, terms, holds in ALGEBRA_LAWS:
        for i in range(count):
            inputs = [sampling.rand_element(rng, sig, max_degree=degree, terms=terms)
                      for _ in range(arity)]
            if not holds(*inputs):
                named = "; ".join(f"{name} = {e}" for name, e in zip("abc", inputs))
                failed.append(f"seed {seed}, {law} instance {i}: {named}")
    return _exact_report(
        "algebra-laws",
        _hash_inputs("laws", sig.dof, str(sig.convention), seed,
                     *(count for _, count, *_ in ALGEBRA_LAWS)),
        failed)


def check_matrix_suite(sig: GroupSignature) -> List[OracleReport]:
    """Operator identities on the first canonical pair's truncated ladder
    matrices, MATRIX_DIM at every dof, in the single-Planck algebra at
    hbar = 1, each to a tolerance of MATRIX_TOL:
      * canonical commutation [Q, P] = gamma I
      * symbolic normal forms of short words against direct numeric
        matrix products of the untouched factors
      * the biquadratic identity (1/(i hbar))[Q^2, P^2] against its
        closed form 4*gu*QP - 2*gu^2*i*hbar, gu the commutator unit
    A convention whose pair it cannot realize is one failing matrix-suite
    row that carries the reason.
    """
    import numpy as np
    alg = qc_algebra(sig)
    q = WeylOperator.generator(alg, "Q", 0)
    p = WeylOperator.generator(alg, "P", 0)
    ident = WeylOperator.identity(alg)
    gamma = alg.gammas[0]
    try:
        qm, pm = _canonical_pair(_at_one(gamma))
    except UnsupportedConvention as exc:
        return [_exact_report("matrix-suite", _hash_inputs("mx", sig.dof, str(sig.convention)),
                              [f"UnsupportedConvention: {exc}"])]

    def row(check: str, tag: str, err: float, *inputs: object) -> OracleReport:
        return OracleReport(
            check=check,
            # the hashed settings: hbar = 1.0, dimension and tolerance
            inputs_hash=_hash_inputs(tag, sig.dof, str(sig.convention), 1.0, MATRIX_DIM,
                                     MATRIX_TOL, *inputs),
            status="pass" if err <= MATRIX_TOL else "fail",
            max_abs_error=err,
        )

    ccr = matrix_max_error(q * p - p * q, ident.scale(gamma))

    words = [("q", "p"), ("p", "q"), ("q", "q", "p", "p"),
             ("p", "p", "q", "q"), ("q", "p", "q", "p")]
    worst = 0.0
    for word in words:
        sym = ident
        num = np.eye(MATRIX_DIM, dtype=complex)
        for ch in word:
            sym = sym * (q if ch == "q" else p)
            num = num @ (qm if ch == "q" else pm)
        diff = _realize(sym) - num
        worst = max(worst, float(np.abs(diff[:, :MATRIX_DIM - len(word)]).max()))

    ih = scalar(CR_I) * Scalar.symbol("h")
    lhs = (q * q * p * p - p * p * q * q).scale(S_ONE / ih)
    gu = sig.convention.gamma_unit
    mono_qp = [0] * alg.width
    mono_qp[0] = mono_qp[1] = 1
    qp = WeylOperator(alg, {tuple(mono_qp): S_ONE})
    const = CRat(Fraction(0), Fraction(-2)) * gu * gu
    rhs = qp.scale(gu * CRat.of(4)) + ident.scale(scalar(const) * Scalar.symbol("h"))
    return [
        row("matrix-canonical-commutator", "mx-ccr", ccr),
        row("matrix-word-products", "mx-words", worst, words),
        row("matrix-biquadratic-identity", "mx-biq", matrix_max_error(lhs, rhs)),
    ]


def oracle_check(seed: int, sig: GroupSignature = GroupSignature(1)) -> List[OracleReport]:
    """Full oracle battery: vector-field pairs, law suite, matrix identities."""
    return [check_vector_field_suite(sig, seed), check_algebra_laws(sig, seed + 1),
            *check_matrix_suite(sig)]
