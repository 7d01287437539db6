"""Independent oracles: right-invariant vector fields acting on polynomial
functions, and finite-dimensional matrix truncations."""

import itertools
import random
import sys
from pathlib import Path
from fractions import Fraction

import numpy as np
import pytest

from pbracket import oracle, sampling, terms
from pbracket.errors import DimensionTooSmall
from pbracket.scalars import (CR_I, CR_MINUS_I, CR_MINUS_ONE, CR_ONE, CR_ZERO, CRat, S_ONE,
                              Scalar, UNIT_VALUES)
from pbracket.terms import TermMap, accumulate
from pbracket.group_algebra import (ConventionTuple, Element, GroupSignature,
                                    commutator, multiply)
from pbracket.oracle import (MATRIX_DIM, OracleReport, check_algebra_laws,
                             check_matrix_suite, check_vector_field_suite,
                             matrix_max_error, oracle_check, vector_field_action)
from pbracket.representations import WeylOperator, qc_algebra, rep_qc
from pbracket.pmech import ClassicalPoly, mechanise_weyl
from pbracket.verify import run_verify

SIG = GroupSignature(dof=1)

# Conventions with eps_comm = -1 (standard), +1 and +i.
CONVENTIONS = [
    ConventionTuple.standard(),
    ConventionTuple(eps_comm=CR_ONE, kappa_x=CR_ONE, kappa_y=CR_ONE,
                    kappa_s=CR_ONE, orient=1, rep_s_sign=1),
    ConventionTuple(eps_comm=CR_I, kappa_x=CR_MINUS_I, kappa_y=CR_ONE,
                    kappa_s=CR_I, orient=-1, rep_s_sign=1),
]


def test_vector_field_action_validates_its_polynomial():
    width = SIG.width
    x = Element.generator(SIG, "X_1_1")
    one = {(0,) * width: 1}
    assert vector_field_action(Element.one(SIG), one) == {(0,) * width: CR_ONE}
    assert type(vector_field_action(Element.one(SIG), one)[(0,) * width]) is CRat
    assert vector_field_action(Element.one(SIG), {(0,) * width: 0}) == {}
    with pytest.raises(ValueError, match="width"):
        vector_field_action(x, {(0,) * (width - 1): 1})
    with pytest.raises(ValueError, match="width"):
        vector_field_action(x, {(1, 0): CR_ONE})
    with pytest.raises(ValueError, match="negative"):
        vector_field_action(x, {(0, -1) + (0,) * (width - 2): 1})
    # a polynomial of another dof is refused by its width
    with pytest.raises(ValueError, match="width"):
        vector_field_action(x, {(0,) * GroupSignature(2).width: 1})
    for bad in (0.5, 1.0, Fraction(1), True):
        with pytest.raises(ValueError, match="non-int"):
            vector_field_action(x, {(0, 0, bad, 0, 0, 0): 1})


# Reference action: each generator's field built from term-dict operations
# (differentiate, multiply by a coordinate, scale, add), one generator at a
# time.  vector_field_action must agree with it exactly.

def _combine(*parts):
    """The sum of (term dict, scale) parts, zeros dropped."""
    out = {}
    for f, scale in parts:
        for m, c in f.items():
            accumulate(out, m, c * scale)
    return out


def _ref_diff(f, idx):
    out = {}
    for m, c in f.items():
        if m[idx]:
            key = m[:idx] + (m[idx] - 1,) + m[idx + 1:]
            out[key] = out.get(key, CR_ZERO) + c * m[idx]
    return _combine((out, CR_ONE))


def _ref_mul_var(f, idx):
    out = {}
    for m, c in f.items():
        key = m[:idx] + (m[idx] + 1,) + m[idx + 1:]
        out[key] = out.get(key, CR_ZERO) + c
    return _combine((out, CR_ONE))


def _ref_act_generator(sig, idx, f):
    """S -> d/ds, X -> d/dx - eps*(y/2) d/ds, Y -> d/dy + eps*(x/2) d/ds."""
    if idx < 2:
        return _ref_diff(f, idx)
    eps = sig.convention.eps_comm
    half = CRat.of(Fraction(1, 2))
    s_idx = sig.slot_sector((idx - 2) // 2) - 1
    ds = _ref_diff(f, s_idx)
    if (idx - 2) % 2 == 0:
        return _combine((_ref_diff(f, idx), CR_ONE),
                        (_ref_mul_var(ds, idx + 1), CR_ZERO - eps * half))
    return _combine((_ref_diff(f, idx), CR_ONE), (_ref_mul_var(ds, idx - 1), eps * half))


def reference_action(e, f):
    total = {}
    for mono, coeff in e.terms.items():
        g = f
        word = []
        for idx, power in enumerate(mono):
            word.extend([idx] * power)
        for idx in reversed(word):
            g = _ref_act_generator(e.signature, idx, g)
        total = _combine((total, CR_ONE), (g, coeff.as_crat()))
    return total


def gen(name):
    return Element.generator(SIG, name)


def gmono(**powers):
    names = SIG.generator_names()
    mono = [0] * SIG.width
    for name, k in powers.items():
        mono[names.index(name)] = k
    return {tuple(mono): CR_ONE}


def test_vector_field_action_respects_products():
    x, y, s = gen("X_1_1"), gen("Y_1_1"), gen("S1")
    f = gmono(X_1_1=1, Y_1_1=2, S1=1)
    for a, b in [(x, y), (x * y, s), (y * y, x), (x * s + y, x)]:
        lhs = vector_field_action(a * b, f)
        rhs = vector_field_action(a, vector_field_action(b, f))
        assert lhs == rhs


def test_vector_field_commutator_matches_algebra():
    # the field commutator [X~, Y~] equals minus the field of [X, Y]
    x, y = gen("X_1_1"), gen("Y_1_1")
    f = gmono(S1=2, X_1_1=1)
    field_comm = _combine((vector_field_action(x, vector_field_action(y, f)), CR_ONE),
                          (vector_field_action(y, vector_field_action(x, f)), CR_MINUS_ONE))
    assert field_comm == _combine((vector_field_action(commutator(x, y), f), CR_MINUS_ONE))


def test_vector_field_suite_reports_pass():
    rep = check_vector_field_suite(SIG, seed=7)
    assert rep.ok
    assert rep.status == "pass"
    assert rep.max_abs_error == 0.0


def test_algebra_law_suite_reports_pass():
    rep = check_algebra_laws(SIG, seed=11)
    assert rep.ok


def test_matrix_ccr_accuracy():
    reports = check_matrix_suite(SIG)
    assert all(r.ok for r in reports)
    assert max(r.max_abs_error for r in reports) <= 1e-10


def _qp():
    alg = qc_algebra(SIG)
    return WeylOperator.generator(alg, "Q", 0), WeylOperator.generator(alg, "P", 0)


def test_value_at_one_sums_the_coefficients():
    assert oracle._at_one(Scalar.symbol("h", coeff=CRat(0, 2))) == 2j
    assert oracle._at_one(S_ONE / Scalar.symbol("h", coeff=CR_I)) == -1j
    assert oracle._at_one(Scalar.symbol("h1") / Scalar.symbol("h2") + 1) == 2


def test_matrix_realize_word_product():
    Q, P = _qp()
    m_qp = oracle._realize(Q * P)
    m_q = oracle._realize(Q)
    m_p = oracle._realize(P)
    direct = m_q @ m_p
    # compare away from the truncation boundary
    deg = 2
    keep = MATRIX_DIM - deg
    assert np.max(np.abs((m_qp - direct)[:keep, :keep])) < 1e-12


def test_matrix_commutator_is_i_hbar():
    Q, P = _qp()
    m_q = oracle._realize(Q)
    m_p = oracle._realize(P)
    comm = m_q @ m_p - m_p @ m_q
    target = 1j * np.eye(MATRIX_DIM)       # i*hbar at hbar = 1
    keep = MATRIX_DIM - 2
    assert np.max(np.abs((comm - target)[:keep, :keep])) < 1e-12


def test_matrix_dimension_guard():
    Q, _ = _qp()
    with pytest.raises(DimensionTooSmall, match=f"degree \\+ 2 = {MATRIX_DIM + 1}"):
        oracle._realize(Q ** (MATRIX_DIM - 1))


def _refuse_allocation(m):
    def refuse(*args, **kwargs):
        raise AssertionError("dense matrix allocated before the input was checked")

    m.setattr(np, "zeros", refuse)
    m.setattr(np, "eye", refuse)


def test_matrix_max_error_dimension_guard_covers_both_operators(monkeypatch):
    Q, _ = _qp()
    _refuse_allocation(monkeypatch)
    too_high = Q ** (MATRIX_DIM - 1)
    for wa, wb in ((Q, too_high), (too_high, Q)):
        with pytest.raises(DimensionTooSmall):
            matrix_max_error(wa, wb)


def test_matrix_size_bound_raises_before_allocating(monkeypatch):
    """matrix_max_error refuses a degree past the bound, and a term on a
    second pair in either operator, before numpy allocates."""
    alg = qc_algebra(GroupSignature(3))
    q1 = WeylOperator.generator(alg, "Q", 0)
    two_pairs = q1 * WeylOperator.generator(alg, "P", 2)
    with monkeypatch.context() as m:
        _refuse_allocation(m)
        with pytest.raises(DimensionTooSmall, match=f"got {MATRIX_DIM}"):
            matrix_max_error(q1, q1 ** (MATRIX_DIM - 1))
        for wa, wb in ((q1, two_pairs), (two_pairs, q1)):
            with pytest.raises(ValueError, match="first canonical pair only"):
                matrix_max_error(wa, wb)
        with pytest.raises(ValueError, match="first canonical pair only"):
            oracle._realize(two_pairs)
        # the bound itself is accepted: that call reaches the allocation
        with pytest.raises(AssertionError, match="dense matrix allocated"):
            matrix_max_error(q1, q1 ** (MATRIX_DIM - 2))
    # each check realizes only the first pair, at every dof
    assert all(r.ok for r in check_matrix_suite(GroupSignature(3)))


def test_matrix_suite_passes_or_refuses_each_sampled_convention():
    """The ladders need an imaginary [Q, P] weight: under a convention with a
    real one the suite is one failing matrix-suite row that carries the
    UnsupportedConvention reason, and under the rest it passes.  A seeded
    sample of the 1 024 tuples, plus a real-weight tuple."""
    tuples = list(itertools.product(UNIT_VALUES, UNIT_VALUES, UNIT_VALUES, UNIT_VALUES,
                                    (1, -1), (1, -1)))
    sample = random.Random(12).sample(tuples, 40) + [(CR_I, CR_ONE, CR_ONE, CR_I, -1, -1)]
    refused = 0
    for fields in sample:
        conv = ConventionTuple(*fields)
        reports = check_matrix_suite(GroupSignature(1, conv))
        if conv.gamma_unit.im != 0:                # [Q, P] = u * i * hbar
            (row,) = reports
            assert (row.check, row.status, row.failures) == ("matrix-suite", "fail", 1), conv
            assert row.counterexample.startswith("UnsupportedConvention: the matrix "
                                                 "oracle needs a purely imaginary "), conv
            refused += 1
        else:
            assert all(r.ok for r in reports), conv
    assert 0 < refused < len(sample)


def test_matrix_max_error_flags_wrong_operator():
    Q, P = _qp()
    err = matrix_max_error(Q * P, P * Q)
    assert err > 0.5  # they differ by i*hbar on the diagonal
    assert matrix_max_error(Q * P, Q * P) == 0.0


def test_oracle_report_json_shape():
    rep = check_vector_field_suite(SIG, seed=3)
    data = rep.to_json()
    assert set(data) == {"check", "inputs-hash", "status", "max-abs-error"}
    assert data["max-abs-error"] == 0.0
    assert data["status"] == "pass"
    assert isinstance(data["inputs-hash"], str) and len(data["inputs-hash"]) == 16


def test_oracle_check_bundle():
    reports = oracle_check(seed=5)
    assert len(reports) == 5
    assert all(isinstance(r, OracleReport) for r in reports)
    assert all(r.ok for r in reports)
    names = [r.check for r in reports]
    assert len(set(names)) == len(names)


def test_suites_deterministic_for_seed():
    a, b = ([check_vector_field_suite(SIG, seed=9).to_json(),
             check_algebra_laws(SIG, seed=9).to_json()] for _ in range(2))
    assert a == b


@pytest.mark.parametrize("dof", [1, 2])
@pytest.mark.parametrize("conv", CONVENTIONS, ids=["eps-1", "eps+1", "eps+i"])
def test_vector_field_action_matches_reference(dof, conv):
    sig = GroupSignature(dof, conv)
    rng = random.Random(100 + dof)
    s1, s2 = Element.generator(sig, "S1"), Element.generator(sig, "S2")
    nonzero = 0
    for _ in range(15):
        a = sampling.rand_element(rng, sig)
        b = sampling.rand_element(rng, sig)
        mono = sampling.rand_group_monomial(rng, sig, a.degree() + b.degree() + 3)
        probe = {mono: CR_ONE}
        polys = [probe, reference_action(b, probe)]
        for e in (a, b, multiply(a, b), multiply(s1, a), multiply(b, s2 * s2)):
            for f in polys:
                got = vector_field_action(e, f)
                assert got == reference_action(e, f)
                nonzero += bool(got)
    assert nonzero >= 60


@pytest.mark.parametrize("dof", [1, 2])
def test_vector_field_oracle_is_independent_of_the_product_it_checks(monkeypatch, dof):
    """The oracle acts with the Leibniz rule alone: with the normal-ordering
    kernel and the term-map product and commutator loops made to raise, it
    still acts on products computed before exactly as it did."""
    sig = GroupSignature(dof)
    rng = random.Random(300 + dof)
    cases = []
    for _ in range(8):
        a = sampling.rand_element(rng, sig)
        b = sampling.rand_element(rng, sig)
        ab, ba = multiply(a, b), commutator(a, b)
        f = {sampling.rand_group_monomial(rng, sig, a.degree() + b.degree() + 2): CR_ONE}
        expected = [vector_field_action(e, f) for e in (ab, ba)]
        cases.append((ab, ba, f, expected))
    assert any(any(e) for *_, expected in cases for e in expected)

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle reached the code path it checks")

    bound = [m for name, m in sys.modules.items() if name.startswith("pbracket")
             and getattr(m, "normal_order", None) is terms.normal_order]
    assert {m.__name__ for m in bound} >= {"pbracket.terms", "pbracket.group_algebra",
                                          "pbracket.pmech", "pbracket.representations",
                                          "pbracket.qc_bracket"}
    for module in bound:
        monkeypatch.setattr(module, "normal_order", refuse)
    monkeypatch.setattr(TermMap, "_product", refuse)
    monkeypatch.setattr(TermMap, "_commutator", refuse)
    a, b = cases[0][0], cases[0][1]
    for patched in (lambda: multiply(a, b), lambda: commutator(a, b),
                    lambda: terms.normal_order((0, 1), (1, 0), 0, ())):
        with pytest.raises(AssertionError, match="code path it checks"):
            patched()
    for ab, ba, f, expected in cases:
        assert [vector_field_action(e, f) for e in (ab, ba)] == expected


@pytest.mark.parametrize("conv", CONVENTIONS[1:], ids=["eps+1", "eps+i"])
def test_vector_field_suite_passes_for_other_conventions(conv):
    sig = GroupSignature(2, conv)
    assert check_vector_field_suite(sig, seed=4).ok


def _off_by_one_multiply(a, b):
    """A wrong product: a*b with one coefficient raised by one."""
    ab = multiply(a, b)
    if ab.is_zero:
        return ab
    terms = dict(ab.terms)
    mono = max(terms)
    terms[mono] = terms[mono] + S_ONE
    return Element(ab.signature, terms)


def test_vector_field_suite_catches_wrong_product(monkeypatch):
    monkeypatch.setattr(oracle, "multiply", _off_by_one_multiply)
    rep = check_vector_field_suite(SIG, seed=7)
    assert rep.status == "fail"
    assert rep.max_abs_error == 1.0
    assert 0 < rep.failures <= oracle.VF_PAIRS * oracle.VF_PROBES
    assert rep.counterexample.startswith("seed 7, pair ")
    assert "probe monomial " in rep.counterexample
    data = rep.to_json()
    assert data["failures"] == rep.failures
    assert data["counterexample"] == rep.counterexample


def _per_probe_failures(sig, seed):
    """check_vector_field_suite's counterexamples from a loop that draws the
    same seeded inputs but compares each probe alone, with reference_action."""
    rng = random.Random(seed)
    failed = []
    for i in range(oracle.VF_PAIRS):
        a = sampling.rand_element(rng, sig, max_degree=4)
        b = sampling.rand_element(rng, sig, max_degree=4)
        ab = oracle.multiply(a, b)
        for j in range(oracle.VF_PROBES):
            mono = sampling.rand_group_monomial(rng, sig, a.degree() + b.degree() + 2)
            f = {mono: CR_ONE}
            if reference_action(ab, f) != reference_action(a, reference_action(b, f)):
                failed.append(f"seed {seed}, pair {i}, probe {j}: a = {a}; b = {b}; "
                              f"probe monomial {oracle._coordinate_str(sig, mono)}")
    return failed


@pytest.mark.parametrize("dof, conv", [(1, CONVENTIONS[0]), (2, CONVENTIONS[0]),
                                       (1, CONVENTIONS[2])], ids=["dof1", "dof2", "eps+i"])
def test_vector_field_suite_fails_the_probes_a_per_probe_loop_fails(monkeypatch, dof, conv):
    """The batched pass reports exactly the probes, in order, that comparing
    each probe on its own fails."""
    monkeypatch.setattr(oracle, "multiply", _off_by_one_multiply)
    reported = []
    exact_report = oracle._exact_report
    monkeypatch.setattr(oracle, "_exact_report", lambda check, inputs_hash, failed: (
        reported.append(failed), exact_report(check, inputs_hash, failed))[1])
    sig = GroupSignature(dof, conv)
    rep = check_vector_field_suite(sig, seed=7)
    failed = _per_probe_failures(sig, seed=7)
    assert 0 < len(failed) < oracle.VF_PAIRS * oracle.VF_PROBES
    assert reported == [failed]
    assert (rep.status, rep.failures, rep.counterexample) == ("fail", len(failed), failed[0])


@pytest.fixture
def wrong_weights(monkeypatch):
    """Sets terms._expansion to a mutant of the true weights, given as a
    function of (k, weight).  normal_order reads the weights through its
    contraction table, which is cleared then, so the mutant is read, and
    again after the test, so its weights reach no later test."""
    def patch(mutant):
        expansion = terms._expansion
        monkeypatch.setattr(terms, "_expansion", lambda m, n: tuple(
            (k, mutant(k, w)) for k, w in expansion(m, n)))
        terms._contractions.cache_clear()

    yield patch
    terms._contractions.cache_clear()


def test_vector_field_action_checks_a_triple_contraction(wrong_weights):
    """Y^3 X^3 contracts up to three times in one slot (weights 1, 9, 18, 6):
    product and composition agree on both probes, and a product whose
    k = 3 weight is doubled fails on each."""
    y3, x3 = gen("Y_1_1") ** 3, gen("X_1_1") ** 3
    probes = [gmono(S1=3), gmono(S1=3, X_1_1=3, Y_1_1=3)]

    def agrees(f):
        return vector_field_action(multiply(y3, x3), f) == \
            vector_field_action(y3, vector_field_action(x3, f))

    assert all(agrees(f) for f in probes)
    wrong_weights(lambda k, w: 2 * w if k >= 3 else w)
    assert not any(agrees(f) for f in probes)


def _doubled_element(sig, terms):
    return Element(sig, terms).scale(CRat.of(2))


# law label, the oracle function made wrong, its wrong version, and the
# last input of the counterexample
_WRONG_LAWS = [
    ("associativity", "multiply", _off_by_one_multiply, "; c = "),
    ("Jacobi", "commutator", multiply, "; c = "),
    ("antisymmetry", "commutator", multiply, "; b = "),
    ("idempotence", "Element", _doubled_element, ": a = "),
]


@pytest.mark.parametrize("law, name, patched, last_input", _WRONG_LAWS,
                         ids=[case[0] for case in _WRONG_LAWS])
def test_algebra_laws_report_first_counterexample(monkeypatch, law, name, patched,
                                                  last_input):
    """Each law, run alone on 10 instances with the function it checks made
    wrong, reports its own first counterexample."""
    monkeypatch.setattr(oracle, name, patched)
    monkeypatch.setattr(oracle, "ALGEBRA_LAWS", [(row[0], 10, *row[2:])
                                                 for row in oracle.ALGEBRA_LAWS if row[0] == law])
    rep = check_algebra_laws(SIG, seed=11)
    assert rep.status == "fail"
    assert rep.failures > 0
    assert rep.counterexample.startswith(f"seed 11, {law} instance ")
    assert last_input in rep.counterexample


def test_cli_oracle_check_prints_first_counterexample(monkeypatch, capsys):
    from pbracket.cli import main
    monkeypatch.setattr(oracle, "multiply", _off_by_one_multiply)
    assert main(["oracle", "check", "--seed", "3"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("fail vector-field-composition ")
    assert " failing instances; first: seed 3, pair " in lines[1]


def test_passing_report_has_no_failure_fields():
    rep = check_vector_field_suite(SIG, seed=3)
    assert rep.failures == 0 and rep.counterexample == ""
    assert "failures" not in rep.to_json()


def test_failing_verify_items_print_reproducer(monkeypatch):
    monkeypatch.setattr(oracle, "multiply", _off_by_one_multiply)
    report = run_verify(seed=5)
    items = {item.name: item for item in report.items}
    for name, seed in (("vector-field oracle", 8), ("algebra-law suite", 9)):
        item = items[name]
        assert not item.ok
        assert item.detail[2].startswith("failing instances: ")
        assert item.detail[3].startswith(f"first counterexample: seed {seed}, ")
    text = report.render()
    assert "       - first counterexample: seed 8, pair " in text


def test_probe_monomial_is_printed_in_variable_syntax():
    sig = GroupSignature(dof=2)
    mono = [0] * sig.width
    mono[0], mono[sig.x_index(2, 1)], mono[sig.y_index(1, 2)] = 2, 1, 3
    assert oracle._coordinate_str(sig, tuple(mono)) == "s1^2*y_1_2^3*x_2_1"
    assert oracle._coordinate_str(sig, (0,) * sig.width) == "1"


def test_oracle_check_passes_at_dof_2():
    reports = oracle_check(seed=5, sig=GroupSignature(2))
    assert [r.check for r in reports] == [
        "vector-field-composition", "algebra-laws", "matrix-canonical-commutator",
        "matrix-word-products", "matrix-biquadratic-identity"]
    assert all(r.ok for r in reports)


def test_matrix_word_products_catch_wrong_factor_at_dof_2(wrong_weights):
    # a Weyl product with a wrong contraction factor must fail the
    # comparison against the direct product of the ladder matrices
    sig = GroupSignature(dof=2)
    assert {r.check: r for r in check_matrix_suite(sig)}["matrix-word-products"].ok
    wrong_weights(lambda k, w: 2 * w if k else w)
    reports = {r.check: r for r in check_matrix_suite(sig)}
    assert not reports["matrix-word-products"].ok


def test_matrix_suite_holds_no_full_size_matrix():
    # a 1024-state matrix is 16 MB; the suite's 32 x 32 ones are 16 kB
    import tracemalloc

    sig = GroupSignature(dof=2)
    check_matrix_suite(sig)   # numpy loads on first use; keep that out
    tracemalloc.start()
    try:
        reports = check_matrix_suite(sig)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(r.ok for r in reports)
    assert peak < 8 * 2 ** 20


def test_realize_builds_the_first_pair_ladder_matrices():
    alg = qc_algebra(GroupSignature(2))
    Q, P = WeylOperator.generator(alg, "Q", 0), WeylOperator.generator(alg, "P", 0)
    w = Q * Q * P - P.scale(CR_I)
    qm, pm = oracle._canonical_pair(oracle._at_one(alg.gammas[0]))
    assert qm.shape == pm.shape == (MATRIX_DIM, MATRIX_DIM)
    assert np.allclose(oracle._realize(w), qm @ qm @ pm - 1j * pm, atol=1e-12)
    assert np.array_equal(oracle._realize(P), pm)
    assert np.array_equal(oracle._realize(WeylOperator.identity(alg)), np.eye(MATRIX_DIM))
    with pytest.raises(ValueError, match="first canonical pair only"):
        oracle._realize(WeylOperator.generator(alg, "P", 1))


def test_verify_item_exception_names_where_it_was_raised(monkeypatch):
    def broken(w):
        raise IndexError("column out of range")

    monkeypatch.setattr(oracle, "_realize", broken)
    report = run_verify(seed=5)
    item = {item.name: item for item in report.items}["matrix oracle"]
    assert item.actual == "IndexError: column out of range"
    (detail,) = item.detail
    prefix = "raised at oracle.py:"
    assert detail.startswith(prefix) and detail.endswith(" in matrix_max_error")
    line = int(detail[len(prefix):].split(" ")[0])
    source = Path(oracle.__file__).read_text().splitlines()
    assert "_realize(" in source[line - 1]
    assert f"       - {detail}\n" in report.render()
    assert report.to_json()["items"][-1]["detail"] == [detail]
    assert not [d for i in report.items if i.ok for d in i.detail if d.startswith("raised at ")]


def test_oracle_check_under_real_gamma_tuples_reports_every_suite():
    """Under a tuple with a real [Q, P] weight the exact suites still run and
    pass; the matrix oracle is one failing row with the reason.  A seeded
    sample of the 512 such tuples."""
    tuples = itertools.product(UNIT_VALUES, UNIT_VALUES, UNIT_VALUES, UNIT_VALUES,
                               (1, -1), (1, -1))
    real = [conv for conv in (ConventionTuple(*fields) for fields in tuples)
            if conv.gamma_unit.im != 0]     # [Q, P] = u * i * hbar
    assert len(real) == 512
    for conv in random.Random(21).sample(real, 3):
        reports = oracle_check(5, sig=GroupSignature(1, conv))
        assert [(r.check, r.status) for r in reports] == [
            ("vector-field-composition", "pass"), ("algebra-laws", "pass"),
            ("matrix-suite", "fail")], conv
        assert reports[2].failures == 1
        assert reports[2].counterexample.startswith("UnsupportedConvention: "), conv
