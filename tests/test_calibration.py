"""Exhaustive convention calibration: the anchor identities select the
standard tuple and the search is a real discriminator."""

import itertools
import time

import pytest

from pbracket.config import EngineConfig
from pbracket.scalars import CR_ONE, CRat, UNIT_VALUES
from pbracket.group_algebra import (ConventionTuple, GroupSignature, commutator,
                                    delta_to_element)
from pbracket import calibration
from pbracket.calibration import calibrate_conventions, calibration_report
from pbracket.verify import run_verify


def test_calibration_selects_standard_tuple():
    report = calibration_report()
    assert report.chosen == ConventionTuple.standard()
    assert report.candidates == 1024
    assert report.matched_order == "PQ"


def test_passing_tuples_share_pinned_slots():
    report = calibration_report()
    assert len(report.passing) == 4
    chosen = report.chosen
    assert chosen == report.passing[0]  # first in enumeration order wins
    for t in report.passing:
        assert t.eps_comm == chosen.eps_comm
        assert t.orient == chosen.orient
        assert t.rep_s_sign == chosen.rep_s_sign
        assert t.kappa_s == chosen.kappa_s
        # the x and y factors only need to cancel against each other
        assert t.kappa_x * t.kappa_y == CR_ONE
    assert len(set(report.passing)) == 4


def test_passing_tuples_not_downstream_equivalent():
    report = calibration_report()
    assert report.downstream_equivalent is False
    assert len(report.downstream_fingerprints) == len(report.passing)
    assert len(set(report.downstream_fingerprints)) > 1
    chosen_fp = dict(zip(report.passing, report.downstream_fingerprints))[report.chosen]
    assert chosen_fp == "0"


def test_negative_control_selects_a_different_set(monkeypatch):
    """Negating the whole checkpoint (b) target proves the search
    discriminates.  Flipping only its constant term would not: the two
    accepted written orders differ by exactly twice that constant, so the
    flip just relabels the matched order."""
    straight = calibration_report()
    target = calibration.ordered_image
    monkeypatch.setattr(calibration, "ordered_image",
                        lambda alg, order: target(alg, order).scale(-1))
    control = calibration_report()
    assert set(control.passing).isdisjoint(set(straight.passing))
    assert control.passing  # the negated target is satisfiable, by other tuples
    assert control.chosen != straight.chosen


def test_report_renders_deterministically_and_fast():
    t0 = time.monotonic()
    a = calibration_report().render()
    elapsed = time.monotonic() - t0
    b = calibration_report().render()
    assert a == b
    assert "(chosen)" in a
    assert "candidates searched : 1024" in a
    assert elapsed < 5.0


def test_calibrate_conventions_shortcut():
    assert calibrate_conventions() == ConventionTuple.standard()


@pytest.mark.parametrize("dof", [1, 2])
def test_every_calibrated_tuple_gives_the_same_verdicts(dof):
    """The calibrated tuples differ by the canonical map (q, p) -> (kx q, ky p),
    so each verify item holds under each of them; only the calibration item,
    which checks that the configured tuple is the chosen one, tells them apart."""
    report = calibration_report(dof)
    assert len(report.passing) == 4
    for conv in report.passing:
        verdict = run_verify(2024, EngineConfig(conv, dof))
        failing = [item.name for item in verdict.items if not item.ok]
        expected = [] if conv == report.chosen else ["convention calibration"]
        assert failing == expected, conv


def _brute_force_search(dof):
    """The search tuple by tuple: anchor (i) on each of the 512 (eps, kx, ky,
    ks, orient) tuples from parsed delta names, then the pipeline on every
    tuple that passes, for both rep_s_sign values; each passing tuple with
    its own (matched order, image)."""
    passing = []
    for eps, kx, ky, ks, orient in itertools.product(*[UNIT_VALUES] * 4, (1, -1)):
        sig = GroupSignature(dof, ConventionTuple(eps, kx, ky, ks, orient, 1))
        target = (delta_to_element(sig, {"x1": 1, "y1": 1, "s1": 1}).scale(CRat.of(4))
                  + delta_to_element(sig, {"s1": 2}).scale(CRat.of(2)))
        assert calibration.commutator_target(sig) == target
        if commutator(delta_to_element(sig, {"x1": 2}), delta_to_element(sig, {"y1": 2})) != target:
            continue
        for rss in (1, -1):
            conv = ConventionTuple(eps, kx, ky, ks, orient, rss)
            result = calibration._pipeline_identity(GroupSignature(dof, conv))
            if result is not None:
                passing.append((conv, result))
    return passing


@pytest.mark.parametrize("negated", [False, True], ids=["straight", "negated"])
@pytest.mark.parametrize("dof", [1, 2, 3])
def test_report_agrees_with_a_tuple_by_tuple_search(monkeypatch, dof, negated):
    """Deciding by class keeps the passing set, the chosen tuple, its matched
    order and its pipeline line; the negated ordered_image control moves the
    passing set, so the classes are checked on a second one too."""
    if negated:
        target = calibration.ordered_image
        monkeypatch.setattr(calibration, "ordered_image",
                            lambda alg, order: target(alg, order).scale(-1))
    brute = _brute_force_search(dof)
    report = calibration_report(dof)
    chosen, (matched, image) = brute[0]
    assert report.passing == tuple(conv for conv, _ in brute)
    assert report.chosen == chosen
    assert report.matched_order == matched
    assert report.pipeline_line == f"image {image.as_weyl()} matches order {matched}"


def test_report_makes_8_commutators_and_one_pipeline_run_per_class(monkeypatch):
    calls = dict.fromkeys(("commutator", "_pipeline_identity"), 0)
    for name in calls:
        def counted(*args, _name=name, _original=getattr(calibration, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(calibration, name, counted)
    report = calibration_report(1)
    assert report.candidates == 1024 and len(report.passing) == 4
    assert calls["commutator"] == 8
    assert calls["_pipeline_identity"] <= 32
