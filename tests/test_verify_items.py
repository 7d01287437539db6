"""Failure paths of the seeded verify items: with one engine function made
wrong in `pbracket.verify`'s namespace, each item fails and its `actual`
line counts exactly the instances that still hold."""

from fractions import Fraction

import pytest

from pbracket import verify
from pbracket.group_algebra import commutator, multiply
from pbracket.pmech import poisson_classical
from pbracket.qc_bracket import bracket_via_universal, h_eff, qc_bracket_terms
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
