"""Failure paths of the seeded verify items: with one engine function made
wrong in `pbracket.verify`'s namespace, each item fails and its `actual`
line counts exactly the instances that still hold."""

from fractions import Fraction

import pytest

from pbracket import verify
from pbracket.config import EngineConfig
from pbracket.group_algebra import ConventionTuple, commutator, multiply
from pbracket.pmech import poisson_classical
from pbracket.qc_bracket import bracket_via_universal, h_eff, qc_bracket_terms
from pbracket.scalars import CR_I, CR_ONE
from pbracket.verify import run_verify


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
                 "2 of 8 instances hold", id="decoupling"),
    pytest.param("path equivalence", "bracket_via_universal",
                 _sometimes(bracket_via_universal,
                            lambda a, b: bracket_via_universal(b, a)),
                 "5 of 8 pairs agree", id="path"),
    pytest.param("localized and classical reductions", "qc_bracket_terms",
                 _sometimes(qc_bracket_terms, _correction_is_leading),
                 "2 of 8 localized, 8 of 8 classical", id="localized"),
    pytest.param("localized and classical reductions", "poisson_classical",
                 _sometimes(poisson_classical, lambda f, g: poisson_classical(g, f)),
                 "8 of 8 localized, 4 of 8 classical", id="classical"),
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
    report = run_verify(seed=2024, decoupling_instances=8, path_pairs=8,
                        reduction_pairs=8, oracle_pairs=1)
    found = {i.name: i for i in report.items}[item]
    assert found.status == "fail"
    assert found.actual == actual


def test_qc_image_under_a_real_commutator_weight_keeps_both_images():
    """The matrix oracle cannot realize a real [Q, P] weight: the image item
    still prints the expected and computed images, says why the matrix
    deviation was not computed, and fails."""
    conv = ConventionTuple(eps_comm=CR_I, kappa_x=CR_ONE, kappa_y=CR_ONE,
                           kappa_s=CR_I, orient=-1, rep_s_sign=-1)
    report = run_verify(seed=5, config=EngineConfig(conv, 1), decoupling_instances=1,
                        path_pairs=1, reduction_pairs=1, oracle_pairs=1)
    item = {i.name: i for i in report.items}["biquadratic quantum-classical image"]
    assert item.status == "fail"
    assert (item.expected, item.actual) == ("4*Q1*P1 + 2i*h*I", "-4i*Q1*P1 + 2i*h*I")
    prefix = ("matrix realization deviation at dimension 32: not computed "
              "(UnsupportedConvention: the matrix oracle needs a purely imaginary ")
    assert item.detail[-1].startswith(prefix) and item.detail[-1].endswith(")")
    assert not [d for d in item.detail if d.startswith("raised at ")]
