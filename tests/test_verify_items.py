"""Failure paths of the seeded verify items: with one engine function made
wrong in `pbracket.verify`'s namespace, each item fails and its `actual`
line counts exactly the instances that still hold.  Each item runs alone,
through the runner `run_verify` uses for every item."""

from fractions import Fraction

import pytest

from pbracket import verify
from pbracket.config import MAX_DOF, EngineConfig
from pbracket.group_algebra import ConventionTuple, commutator, multiply
from pbracket.oracle import check_matrix_suite
from pbracket.pmech import poisson_classical
from pbracket.qc_bracket import bracket_via_universal, h_eff, qc_bracket_terms
from pbracket.scalars import CR_I, CR_ONE


def _item(name, seed=2024, config=None):
    """The named verify item, run alone as `run_verify` runs it."""
    sig = (config or EngineConfig.default()).signature()
    return verify._run(name, dict(verify._ITEMS)[name], sig, seed)


def _sometimes(right, wrong):
    """``wrong`` when the first argument has an odd number of terms, else
    ``right``: wrong on some instances only, so a count reads neither 0
    nor the total."""
    return lambda x, y: (wrong if len(x.terms) % 2 else right)(x, y)


def _correction_is_leading(a, b):
    t1, _, t3 = qc_bracket_terms(a, b)
    return t1, t1, t3


CASES = [
    pytest.param("sector decoupling", "commutator", _sometimes(commutator, multiply),
                 "17 of 50 instances hold", id="decoupling"),
    pytest.param("path equivalence", "bracket_via_universal",
                 _sometimes(bracket_via_universal,
                            lambda a, b: bracket_via_universal(b, a)),
                 "30 of 50 pairs agree", id="path"),
    pytest.param("localized and classical reductions", "qc_bracket_terms",
                 _sometimes(qc_bracket_terms, _correction_is_leading),
                 "10 of 25 localized, 25 of 25 classical", id="localized"),
    pytest.param("localized and classical reductions", "poisson_classical",
                 _sometimes(poisson_classical, lambda f, g: poisson_classical(g, f)),
                 "25 of 25 localized, 9 of 25 classical", id="classical"),
    pytest.param("effective planck constant", "h_eff",
                 lambda a, b: Fraction(1, 2) if a == b else h_eff(a, b),
                 "failing: h_eff(2, 2) = 1; h_eff(0, 0) raises SingularTransformation",
                 id="h_eff"),
    # an exception other than the expected one is the item's own failure
    pytest.param("effective planck constant", "h_eff",
                 lambda a, b: Fraction(a * b, a + b),
                 "ZeroDivisionError: Fraction(0, 0)", id="h_eff-other-exception"),
]


@pytest.mark.parametrize("item, name, patched, actual", CASES)
def test_a_wrong_engine_function_fails_its_item(monkeypatch, item, name, patched, actual):
    monkeypatch.setattr(verify, name, patched)
    found = _item(item)
    assert found.status == "fail"
    assert found.actual == actual


# [Q, P] is real under this tuple, so the matrix oracle cannot realize it
REAL_GAMMA = EngineConfig(ConventionTuple(eps_comm=CR_I, kappa_x=CR_ONE, kappa_y=CR_ONE,
                                          kappa_s=CR_I, orient=-1, rep_s_sign=-1), 1)
REFUSED = ("UnsupportedConvention: the matrix oracle needs a purely imaginary "
           "canonical-pair weight, got (1+0j)")


def test_qc_image_under_a_real_commutator_weight_keeps_both_images():
    """The matrix oracle cannot realize a real [Q, P] weight: the image item
    still prints the expected and computed images, says why the matrix
    deviation was not computed, and fails."""
    item = _item("biquadratic quantum-classical image", 5, REAL_GAMMA)
    assert item.status == "fail"
    assert (item.expected, item.actual) == ("4*Q1*P1 + 2i*h*I", "-4i*Q1*P1 + 2i*h*I")
    assert item.detail[-1] == ("matrix realization deviation at dimension 32: "
                               f"not computed ({REFUSED})")
    assert not [d for d in item.detail if d.startswith("raised at ")]


def test_matrix_item_under_a_real_commutator_weight_prints_the_refused_row():
    """Under a real [Q, P] weight the matrix suite is the one failing row that
    `oracle check` prints: the item counts it, prints it, and gives the reason
    as its first counterexample, as the other oracle items do."""
    item = _item("matrix oracle", 5, REAL_GAMMA)
    (row,) = check_matrix_suite(REAL_GAMMA.signature())
    assert item.status == "fail"
    assert item.expected == ("operator identities hold on truncated ladder matrices "
                             "(tolerance 1e-10 at dimension 32)")
    assert item.actual == "0 of 1 checks pass, max deviation 1.000e+00"
    assert item.detail == (f"matrix-suite: fail (1.000e+00), inputs-hash {row.inputs_hash}",
                           "failing instances: 1", f"first counterexample: {REFUSED}")


def test_every_item_holds_at_dof_8_and_runs_alone_as_in_the_report():
    """The verify claims hold beyond the small dofs, and an item run alone
    through the runner is the item of the full report."""
    config = EngineConfig(ConventionTuple.standard(), 8)
    report = verify.run_verify(2024, config)
    assert [i.name for i in report.items if not i.ok] == []
    assert report.render().endswith("summary: 12 of 12 items pass")
    assert tuple(_item(name, 2024, config) for name, _ in verify._ITEMS) == report.items


def test_every_item_holds_at_the_largest_accepted_dof():
    """verify paper reads 12 of 12 at config.MAX_DOF, the widest signature
    the CLI accepts (a few seconds)."""
    report = verify.run_verify(2024, EngineConfig(ConventionTuple.standard(), MAX_DOF))
    assert [i.name for i in report.items if not i.ok] == []
    assert report.render().endswith("summary: 12 of 12 items pass")
