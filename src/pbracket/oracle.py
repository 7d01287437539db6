"""Independent numerical checks for the convolution algebra and its
representations.

Two oracles, built on different mathematics than the symbolic engine:

* vector-field oracle: realizes each generator as a left-invariant vector
  field acting on polynomials in the group coordinates
  (s1, s2, x_{1,1}, y_{1,1}, ...).  The product of two elements must act as
  the composition of their actions.  This checks the reordering arithmetic in
  ``multiply`` against nothing but the Leibniz rule.

* matrix oracle: realizes canonical pairs as truncated harmonic-oscillator
  ladder matrices and compares operator identities entrywise on the columns
  that truncation leaves exact.  A check realizes only the pairs its
  operators act on, n ** (pairs acted on) basis states: every other pair
  carries the identity on both sides and cannot tell them apart.

Both produce :class:`OracleReport` rows with a deterministic input hash so a
verification run is reproducible byte for byte.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .errors import DimensionTooSmall, MatrixTooLarge, UnsupportedConvention
from .scalars import CRat, CR_ZERO, CR_ONE, CR_I, Scalar, S_ONE, scalar
from .group_algebra import Element, GroupSignature, commutator, multiply
from .representations import WeylOperator, qc_algebra
from .terms import accumulate, clean_terms, power_str
from . import sampling

if TYPE_CHECKING:
    import numpy as np

# Largest dense realization, n ** (pairs realized) basis states: two pairs
# at n = 32.  One complex matrix of that size is 16 MB; three pairs at
# n = 32 (32768 states) would be 17 GB.  The checks verify runs act on one
# pair, 32 states, at every dof.
MAX_MATRIX_DIM = 1024

__all__ = [
    "vector_field_action",
    "matrix_realize",
    "matrix_max_error",
    "OracleReport",
    "check_vector_field_suite",
    "check_algebra_laws",
    "check_matrix_suite",
    "oracle_check",
]


# ---------------------------------------------------------------------------
# generator fields on polynomials in group coordinates


@lru_cache(maxsize=32)
def _generator_fields(sig: GroupSignature) -> Tuple[Tuple[int, int, int, CRat], ...]:
    """Left-invariant vector field of each generator, indexed like Element
    exponents, as ``(idx, s_idx, partner_idx, coeff)``:

    S_sigma   -> d/ds_sigma                        (partner_idx = -1)
    X_{s,i}   -> d/dx - eps*(y/2) d/ds_sigma       (partner y, coeff -eps/2)
    Y_{s,i}   -> d/dy + eps*(x/2) d/ds_sigma       (partner x, coeff +eps/2)
    """
    half_eps = sig.convention.eps_comm * CRat(Fraction(1, 2))
    fields = [(0, 0, -1, CR_ZERO), (1, 1, -1, CR_ZERO)]
    for idx in range(2, sig.width):
        s_idx = sig.slot_sector((idx - 2) // 2) - 1
        if (idx - 2) % 2 == 0:
            fields.append((idx, s_idx, idx + 1, -half_eps))
        else:
            fields.append((idx, s_idx, idx - 1, half_eps))
    return tuple(fields)


def _apply_field(field: Tuple[int, int, int, CRat],
                 terms: Dict[Tuple[int, ...], CRat]) -> Dict[Tuple[int, ...], CRat]:
    """One generator's field applied to a term map, in one pass: the
    derivative along the generator's own coordinate and, for X and Y, the
    partner coordinate times the derivative along its sector's s."""
    idx, s_idx, partner, coeff = field
    out: Dict[Tuple[int, ...], CRat] = {}
    for m, c in terms.items():
        k = m[idx]
        if k:
            accumulate(out, m[:idx] + (k - 1,) + m[idx + 1:], c if k == 1 else c * k)
        if partner >= 0:
            ks = m[s_idx]
            if ks:
                shifted = list(m)
                shifted[s_idx] = ks - 1
                shifted[partner] += 1
                accumulate(out, tuple(shifted), c * coeff if ks == 1 else c * coeff * ks)
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
    fields = _generator_fields(sig)
    total: Dict[Tuple[int, ...], CRat] = {}
    for mono, coeff in e.terms.items():
        scale = coeff.as_crat()
        g = {m: c * scale for m, c in f.items()}
        for idx in range(len(mono) - 1, -1, -1):
            for _ in range(mono[idx]):
                if g:
                    g = _apply_field(fields[idx], g)
        for m, c in g.items():
            accumulate(total, m, c)
    return total


# ---------------------------------------------------------------------------
# truncated ladder-matrix realization


def _canonical_pair(gamma: complex, n: int) -> Tuple[np.ndarray, np.ndarray]:
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
    a = np.diag(np.sqrt(np.arange(1, n)), 1).astype(complex)   # the lowering ladder
    ad = a.conj().T
    root = math.sqrt(abs(t) / 2.0)
    q = root * (a + ad)
    p = (1.0 if t > 0 else -1.0) * 1j * root * (ad - a)
    return q, p


def _support(*ops: WeylOperator) -> List[int]:
    """The pairs on which some term of the operators has a nonzero exponent."""
    return sorted({d for w in ops for mono in w.terms
                   for d in range(len(mono) // 2) if mono[2 * d] or mono[2 * d + 1]})


def _realize(w: WeylOperator, pairs: Sequence[int], hbar: float, n: int,
             h1: Optional[float] = None, h2: Optional[float] = None) -> np.ndarray:
    """Truncated matrix of ``w`` on the listed canonical pairs: the Kronecker
    product of one oscillator factor of dimension n per pair, in list order.
    Exponents on unlisted pairs are not realized; list those ``w`` acts on
    (_support).  Checks the size before allocating: MatrixTooLarge above
    MAX_MATRIX_DIM states, DimensionTooSmall below degree + 2 per pair.
    """
    import numpy as np
    dim = n ** len(pairs)
    if dim > MAX_MATRIX_DIM:
        raise MatrixTooLarge(
            f"matrix realization of dimension {n}**{len(pairs)} = {dim} exceeds "
            f"the limit {MAX_MATRIX_DIM}")
    deg = w.degree()
    if n < deg + 2:
        raise DimensionTooSmall(
            f"need matrix dimension >= degree + 2 = {deg + 2}, got {n}")
    hv = float(hbar)
    vals = {"h": hv, "h1": hv if h1 is None else h1, "h2": hv if h2 is None else h2}
    ladders = [_canonical_pair(complex(w.algebra.gammas[d].evalf(**vals)), n)
               for d in pairs]
    power = np.linalg.matrix_power
    total = np.zeros((dim, dim), dtype=complex)
    for mono, coeff in w.terms.items():
        block = np.ones((1, 1), dtype=complex)
        for d, (qd, pd) in zip(pairs, ladders):
            block = np.kron(block, power(qd, mono[2 * d]) @ power(pd, mono[2 * d + 1]))
        total += block * complex(coeff.evalf(**vals))
    return total


def matrix_realize(w: WeylOperator, hbar: float, n: int,
                   h1: Optional[float] = None, h2: Optional[float] = None) -> np.ndarray:
    """Truncated matrix of ``w`` on the oscillator basis, dimension n per
    degree of freedom of its algebra."""
    return _realize(w, range(w.algebra.dofs), hbar, n, h1, h2)


def _exact_columns(n: int, keep: int, dofs: int) -> List[int]:
    """Indices of the basis columns whose every factor index is < keep."""
    cols = [0]
    for _ in range(dofs):
        cols = [c * n + j for c in cols for j in range(keep)]
    return cols


def matrix_max_error(wa: WeylOperator, wb: WeylOperator, hbar: float, n: int,
                     h1: Optional[float] = None, h2: Optional[float] = None) -> float:
    """Max entrywise deviation between the realizations of two operators,
    restricted to the columns the truncation computes exactly.

    Both are realized on the pairs either acts on; on every other pair both
    are the identity, which cannot tell them apart.  A degree-d operator
    maps basis column j into levels <= j + d per factor, so columns with
    every factor index < n - d are free of truncation error.  Raises as
    _realize does, for either operator.
    """
    import numpy as np
    if wa.algebra is not wb.algebra and wa.algebra != wb.algebra:
        raise ValueError("operators live in different algebras")
    deg = max(wa.degree(), wb.degree())
    pairs = _support(wa, wb)
    cols = _exact_columns(n, n - deg, len(pairs))
    diff = _realize(wa, pairs, hbar, n, h1, h2) - _realize(wb, pairs, hbar, n, h1, h2)
    return float(np.abs(diff[:, cols]).max())


# ---------------------------------------------------------------------------
# reports and suites


@dataclass(frozen=True)
class OracleReport:
    """One oracle check.  The exact suites also record how many instances
    failed and a reproducer for the first; both are empty on a pass."""

    check: str
    inputs_hash: str
    status: str
    max_abs_error: float
    failures: int = 0
    counterexample: str = ""

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


def check_vector_field_suite(sig: GroupSignature, seed: int, pairs: int = 100,
                             max_degree: int = 4, probes: int = 30) -> OracleReport:
    """Product-versus-composition check on random element pairs.

    Exact rational arithmetic throughout: any mismatch is a hard failure, so
    max_abs_error is 0.0 on pass and 1.0 on failure.  Both sides are computed
    from scratch for every probe.
    """
    rng = random.Random(seed)
    failed: List[str] = []
    for i in range(pairs):
        a = sampling.rand_element(rng, sig, max_degree=max_degree)
        b = sampling.rand_element(rng, sig, max_degree=max_degree)
        ab = multiply(a, b)
        probe_deg = a.degree() + b.degree() + 2
        for j in range(probes):
            mono = sampling.rand_group_monomial(rng, sig, probe_deg)
            f = {mono: CR_ONE}
            lhs = vector_field_action(ab, f)
            rhs = vector_field_action(a, vector_field_action(b, f))
            if lhs != rhs:
                failed.append(f"seed {seed}, pair {i}, probe {j}: a = {a}; b = {b}; "
                              f"probe monomial {_coordinate_str(sig, mono)}")
    return _exact_report(
        "vector-field-composition",
        _hash_inputs("vf", sig.dof, str(sig.convention), seed, pairs, max_degree, probes),
        failed)


def check_algebra_laws(sig: GroupSignature, seed: int, assoc: int = 80,
                       jacobi: int = 40, antisym: int = 40,
                       idem: int = 40) -> OracleReport:
    """Associativity, Jacobi, antisymmetry and normal-form idempotence on
    random elements.  Exact arithmetic; pass means every instance held."""
    # law, instances, inputs per instance, max degree and terms per input, law holds
    laws = (
        ("associativity", assoc, 3, 4, 2,
         lambda a, b, c: multiply(multiply(a, b), c) == multiply(a, multiply(b, c))),
        ("Jacobi", jacobi, 3, 3, 2,
         lambda a, b, c: (commutator(a, commutator(b, c)) + commutator(b, commutator(c, a))
                          + commutator(c, commutator(a, b))).is_zero),
        ("antisymmetry", antisym, 2, 4, 2,
         lambda a, b: (commutator(a, b) + commutator(b, a)).is_zero),
        ("idempotence", idem, 1, 4, 3, lambda a: Element(sig, dict(a.terms)) == a),
    )
    rng = random.Random(seed)
    failed: List[str] = []
    for law, count, arity, degree, terms, holds in laws:
        for i in range(count):
            inputs = [sampling.rand_element(rng, sig, max_degree=degree, terms=terms)
                      for _ in range(arity)]
            if not holds(*inputs):
                named = "; ".join(f"{name} = {e}" for name, e in zip("abc", inputs))
                failed.append(f"seed {seed}, {law} instance {i}: {named}")
    return _exact_report(
        "algebra-laws",
        _hash_inputs("laws", sig.dof, str(sig.convention), seed,
                     assoc, jacobi, antisym, idem),
        failed)


def check_matrix_suite(sig: GroupSignature, hbar: float = 1.0, n: int = 32,
                       tol: float = 1e-10) -> List[OracleReport]:
    """Operator identities on truncated ladder matrices.

    Each check realizes n ** (pairs acted on) states, one pair here at every
    dof.  Checks, in the single-Planck algebra at the given hbar:
      * canonical commutation [Q, P] = gamma I
      * symbolic normal forms of short words against direct numeric
        matrix products of the untouched factors
      * the biquadratic identity (1/(i hbar))[Q^2, P^2] against its
        closed form 4*gu*QP - 2*gu^2*i*hbar, gu the commutator unit
    """
    import numpy as np
    alg = qc_algebra(sig)
    q = WeylOperator.generator(alg, "Q", 0)
    p = WeylOperator.generator(alg, "P", 0)
    ident = WeylOperator.identity(alg)
    gamma = alg.gammas[0]
    reports = []

    comm = q * p - p * q
    err = matrix_max_error(comm, ident.scale(gamma), hbar, n)
    reports.append(OracleReport(
        check="matrix-canonical-commutator",
        inputs_hash=_hash_inputs("mx-ccr", sig.dof, str(sig.convention), hbar, n, tol),
        status="pass" if err <= tol else "fail",
        max_abs_error=err,
    ))

    hv = float(hbar)
    qm, pm = _canonical_pair(complex(gamma.evalf(h=hv, h1=hv, h2=hv)), n)
    words = [("q", "p"), ("p", "q"), ("q", "q", "p", "p"),
             ("p", "p", "q", "q"), ("q", "p", "q", "p")]
    worst = 0.0
    for word in words:
        sym = ident
        num = np.eye(n, dtype=complex)
        for ch in word:
            sym = sym * (q if ch == "q" else p)
            num = num @ (qm if ch == "q" else pm)
        diff = _realize(sym, _support(sym), hbar, n) - num
        worst = max(worst, float(np.abs(diff[:, :n - len(word)]).max()))
    reports.append(OracleReport(
        check="matrix-word-products",
        inputs_hash=_hash_inputs("mx-words", sig.dof, str(sig.convention),
                                 hbar, n, tol, words),
        status="pass" if worst <= tol else "fail",
        max_abs_error=worst,
    ))

    ih = scalar(CR_I) * Scalar.symbol("h")
    lhs = (q * q * p * p - p * p * q * q).scale(S_ONE / ih)
    gu = sig.convention.gamma_unit
    mono_qp = [0] * alg.width
    mono_qp[0] = mono_qp[1] = 1
    qp = WeylOperator(alg, {tuple(mono_qp): S_ONE})
    const = CRat(Fraction(0), Fraction(-2)) * gu * gu
    rhs = qp.scale(gu * CRat.of(4)) + ident.scale(scalar(const) * Scalar.symbol("h"))
    err = matrix_max_error(lhs, rhs, hbar, n)
    reports.append(OracleReport(
        check="matrix-biquadratic-identity",
        inputs_hash=_hash_inputs("mx-biq", sig.dof, str(sig.convention), hbar, n, tol),
        status="pass" if err <= tol else "fail",
        max_abs_error=err,
    ))
    return reports


def oracle_check(seed: int, sig: GroupSignature = GroupSignature(1)) -> List[OracleReport]:
    """Full oracle battery: vector-field pairs, law suite, matrix identities.
    A convention the matrix oracle cannot realize is one failing matrix row
    that carries the reason."""
    reports = [
        check_vector_field_suite(sig, seed),
        check_algebra_laws(sig, seed + 1),
    ]
    try:
        reports.extend(check_matrix_suite(sig))
    except UnsupportedConvention as exc:
        reports.append(_exact_report(
            "matrix-suite", _hash_inputs("mx", sig.dof, str(sig.convention)),
            [f"UnsupportedConvention: {exc}"]))
    return reports
