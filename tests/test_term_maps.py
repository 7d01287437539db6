"""Arithmetic on term maps builds its results directly (TermMap._like),
without the constructors' validation.  Each such result must still be what
the validating constructor builds from the same terms, and the public
constructors must still reject bad input."""

import random

import pytest

from pbracket.group_algebra import Element, GroupSignature, multiply
from pbracket.pmech import ClassicalPoly
from pbracket.representations import (HybridObservable, WeylOperator, multiply_hybrid,
                                      qc_algebra, rep_qc, rep_qq)
from pbracket.sampling import rand_classical, rand_element
from pbracket.scalars import S_ONE, Scalar


def assert_revalidates(x):
    assert all(not c.is_zero for c in x.terms.values())
    rebuilt = type(x)(*x._context(), dict(x.terms))
    assert rebuilt == x
    assert all(type(c) is type(rebuilt.terms[k]) for k, c in x.terms.items())


@pytest.mark.parametrize("dof", [1, 2, 3])
def test_arithmetic_results_equal_their_validated_rebuild(dof):
    rng = random.Random(500 + dof)
    sig = GroupSignature(dof)
    for _ in range(5):
        a = rand_element(rng, sig, max_degree=3)
        b = rand_element(rng, sig, max_degree=3)
        f = rand_classical(rng, dof, max_degree=3)
        g = rand_classical(rng, dof, max_degree=3)
        wa, wb = rep_qq(a), rep_qq(b)
        ha, hb = rep_qc(a), rep_qc(b)
        results = [
            multiply(a, b), a * b - b * a, a + b, -a, a.scale(Scalar.symbol("h")),
            f * g, f + g, f - f, f.scale(3),
            wa * wb, wa * wb - wb * wa, wa.scale(S_ONE / Scalar.symbol("h2")),
            multiply_hybrid(ha, hb), ha * hb - hb * ha, ha + hb,
            ha.jet_part(0), ha.jet_part(1),
            ha.derivative_q(0), ha.derivative_p(dof - 1),
        ]
        for x in results:
            assert_revalidates(x)


def test_public_constructors_still_validate():
    sig = GroupSignature(2)
    with pytest.raises(ValueError, match="width"):
        Element(sig, {(0, 0, 1): 1})
    with pytest.raises(ValueError, match="negative"):
        Element(sig, {(0, 0, -1, 0, 0, 0, 0, 0, 0, 0): 1})
    alg = qc_algebra(sig)
    with pytest.raises(ValueError, match="width"):
        WeylOperator(alg, {(1, 0): 1})
    with pytest.raises(ValueError, match="negative"):
        WeylOperator(alg, {(0, -1, 0, 0): 1})
    with pytest.raises(ValueError, match="width"):
        ClassicalPoly(2, {(1, 0, 0): 1})
    with pytest.raises(ValueError, match="negative"):
        ClassicalPoly(2, {(0, 0, 0, 0, 0, 0, 0, -2): 1})
    conv = sig.convention
    key = ((0,) * alg.width, (0,) * 4, 0)
    with pytest.raises(ValueError, match="h2"):
        HybridObservable(alg, 2, conv, {key: Scalar.symbol("h2")})
    # scaling skips the constructor, so it checks its factor itself
    one = HybridObservable.identity(alg, 2, conv)
    with pytest.raises(ValueError, match="h2"):
        one.scale(Scalar.symbol("h2"))
    with pytest.raises(ValueError, match="h2"):
        Scalar.symbol("h2") * one
