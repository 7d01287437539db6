"""Mechanisation of classical polynomials, the antiderivative observables and
the universal bracket."""

from fractions import Fraction

import pytest

from pbracket.errors import (AObservableProductError, NotMechanised,
                             SignatureMismatch, UnknownRule)
from pbracket.scalars import CRat, CR_ONE
from pbracket.terms import _contractions
from pbracket.group_algebra import (Element, GroupSignature, commutator,
                                    delta_to_element)
from pbracket.pmech import (AObservable, ClassicalPoly, apply_antiderivative,
                            mechanise_plugin, mechanise_weyl,
                            poisson_classical, register_rule,
                            registered_rules, universal_bracket, weyl_symbol)

SIG = GroupSignature(dof=1)


def q(sector, dof=1, n=1):
    return ClassicalPoly.var(n, "q", sector, dof)


def p(sector, dof=1, n=1):
    return ClassicalPoly.var(n, "p", sector, dof)


def test_classical_poly_arithmetic():
    f = q(1) * p(1) + q(1) ** 2
    g = f - q(1) ** 2
    assert g == q(1) * p(1)
    assert (f * ClassicalPoly.constant(1, 0)).is_zero
    assert f.degree() == 2
    assert str(q(1) ** 2 * p(1)) == "q1^2*p1"


@pytest.mark.parametrize("dof", [1.5, 2.0, True])
@pytest.mark.parametrize("build", [lambda dof: ClassicalPoly(dof, {}), ClassicalPoly.zero,
                                   lambda dof: ClassicalPoly.constant(dof, 1),
                                   lambda dof: ClassicalPoly.var(dof, "q", 1)],
                         ids=["init", "zero", "constant", "var"])
def test_classical_poly_dof_must_be_an_integer(build, dof):
    """Every constructor refuses a dof that only compares equal to an
    integer, as GroupSignature does, before it sizes a key with it."""
    with pytest.raises(ValueError, match="dof must be an integer"):
        build(dof)


def test_classical_poly_sectors():
    f = q(1) * p(2)
    assert f.uses_sector(1) and f.uses_sector(2)
    assert not (q(1) ** 3).uses_sector(2)


def test_poisson_classical_canonical_pairs():
    one = ClassicalPoly.constant(1, 1)
    assert poisson_classical(q(1), p(1)) == one
    assert poisson_classical(p(1), q(1)) == one.scale(-1)
    assert poisson_classical(q(1), p(2)).is_zero
    assert poisson_classical(q(2), p(2)) == one


def test_poisson_classical_product_rule():
    f = q(1) ** 2
    g = p(1) ** 2
    assert poisson_classical(f, g) == (q(1) * p(1)).scale(4)


def test_mechanise_monomials():
    conv = SIG.convention
    x = Element.generator(SIG, "X_1_1")
    y = Element.generator(SIG, "Y_1_1")
    s = Element.generator(SIG, "S1")
    assert mechanise_weyl(SIG, q(1) ** 2) == (x ** 2).scale(conv.kappa_x ** 2)
    # symmetrised mixed product picks up half the commutator defect
    expected = (x * y).scale(conv.kappa_x * conv.kappa_y) \
        - s.scale(conv.eps_comm * conv.kappa_x * conv.kappa_y * CRat(Fraction(1, 2)))
    assert mechanise_weyl(SIG, q(1) * p(1)) == expected
    assert str(mechanise_weyl(SIG, q(1) * p(1))) == "delta[x1,y1] + (1/2)*delta[s1]"


def test_mechanise_reuses_its_rules_per_signature():
    """mechanise_weyl's rules are one tuple per signature, so a second call,
    on the same signature or an equal one, finds every term of its
    contraction table again: no misses."""
    sig = GroupSignature(dof=2)
    f = (q(1, 1, 2) * p(1, 1, 2)) ** 3 + q(2, 2, 2) ** 2 * p(2, 2, 2) ** 4
    first = mechanise_weyl(sig, f)
    misses = _contractions.cache_info().misses
    for again in (sig, GroupSignature(dof=2)):
        assert mechanise_weyl(again, f) == first
    assert _contractions.cache_info().misses == misses


def test_mechanise_is_linear():
    f = q(1) ** 2
    g = p(1) * q(1)
    lhs = mechanise_weyl(SIG, f + g.scale(3))
    assert lhs == mechanise_weyl(SIG, f) + mechanise_weyl(SIG, g).scale(3)


def test_mechanise_signature_mismatch():
    with pytest.raises(SignatureMismatch):
        mechanise_weyl(SIG, ClassicalPoly.var(2, "q", 1))


def test_mechanise_plugin_registry():
    assert "weyl" in registered_rules()
    assert mechanise_plugin(SIG, q(1) ** 2) == mechanise_weyl(SIG, q(1) ** 2)
    with pytest.raises(UnknownRule):
        mechanise_plugin(SIG, q(1), rule="bogus")

    def doubled(sig, f):
        return mechanise_weyl(sig, f).scale(2)

    from pbracket import pmech as _pmech
    register_rule("doubled-for-test", doubled)
    try:
        assert "doubled-for-test" in registered_rules()
        assert mechanise_plugin(SIG, q(1), rule="doubled-for-test") \
            == mechanise_weyl(SIG, q(1)).scale(2)
    finally:
        _pmech._RULES.pop("doubled-for-test", None)


def test_weyl_symbol_inverts_mechanisation():
    for f in (q(1) ** 2, q(1) * p(1), q(2) ** 2 * p(2) + q(1),
              (q(1) + p(2)) ** 3):
        assert weyl_symbol(mechanise_weyl(SIG, f)) == f


def test_weyl_symbol_rejects_central_content():
    s = Element.generator(SIG, "S1")
    with pytest.raises(NotMechanised):
        weyl_symbol(s)
    x = Element.generator(SIG, "X_1_1")
    from pbracket.scalars import Scalar
    with pytest.raises(NotMechanised):
        weyl_symbol(x.scale(Scalar.symbol("h1")))


def test_aobservable_part_invariants():
    s1 = Element.generator(SIG, "S1")
    z = Element.zero(SIG)
    with pytest.raises(ValueError):
        AObservable(z, s1, z)      # a1 part may not carry S1
    with pytest.raises(ValueError):
        AObservable(z, z, Element.generator(SIG, "S2"))
    ao = AObservable(s1, Element.generator(SIG, "S2"), s1)
    assert ao.a1_part == Element.generator(SIG, "S2")


def test_aobservable_products_rejected():
    ao = AObservable.of(Element.one(SIG))
    with pytest.raises(AObservableProductError):
        ao * ao
    with pytest.raises(AObservableProductError):
        ao * Element.one(SIG)
    with pytest.raises(AObservableProductError):
        Element.one(SIG) * ao
    with pytest.raises(AObservableProductError):
        ao ** 2


def test_apply_antiderivative_strip_or_retain():
    s1 = Element.generator(SIG, "S1")
    x = Element.generator(SIG, "X_1_1")
    e = s1 * x + x.scale(2)
    ao = apply_antiderivative(e, 1)
    # the S1 term loses one S1 power into the plain part, the rest waits
    assert ao.plain == x
    assert ao.a1_part == x.scale(2)
    assert ao.a2_part.is_zero


def test_universal_bracket_biquadratic():
    k1 = mechanise_weyl(SIG, q(1) ** 2)
    k2 = mechanise_weyl(SIG, p(1) ** 2)
    ub = universal_bracket(k1, k2)
    plain = (delta_to_element(SIG, {"x1": 1, "y1": 1}).scale(4)
             + delta_to_element(SIG, {"s1": 1}).scale(2))
    a2 = (delta_to_element(SIG, {"x1": 1, "y1": 1, "s1": 1}).scale(4)
          + delta_to_element(SIG, {"s1": 2}).scale(2))
    assert ub == AObservable(plain, Element.zero(SIG), a2)
    assert str(ub) == ("4*delta[x1,y1] + 2*delta[s1]"
                       " + (4*delta[x1,y1,s1] + 2*delta[s1,s1])*A2")


def test_universal_bracket_reconstruction():
    """plain*S + retained parts reassemble the commutator per sector."""
    k1 = mechanise_weyl(SIG, q(1) ** 2 + q(2) * p(2))
    k2 = mechanise_weyl(SIG, p(1) ** 2 + q(2) ** 2)
    ub = universal_bracket(k1, k2)
    c = commutator(k1, k2)
    s1 = Element.generator(SIG, "S1")
    s2 = Element.generator(SIG, "S2")
    from_1 = apply_antiderivative(c, 1)
    from_2 = apply_antiderivative(c, 2)
    assert from_1.plain * s1 + from_1.a1_part == c
    assert from_2.plain * s2 + from_2.a2_part == c
    assert ub.plain == from_1.plain + from_2.plain


def test_universal_bracket_canonical_pair_sector2():
    ub = universal_bracket(mechanise_weyl(SIG, q(2)), mechanise_weyl(SIG, p(2)))
    assert str(ub) == "1 + (delta[s2])*A1"


def test_mechanise_holds_real_integers_as_ints():
    """A PlanckMap holds a real-integer coefficient as an int.  McCoy's
    factors at -eps/2 are often whole: q1^2 p1^4 has the coefficients 4 and
    3 under the standard tuple.  Every flat value of an image is an int or
    a CRat that is not a real integer, on q1^2 p1^4 and on a seeded sample
    at dof 1 to 3."""
    import random
    from pbracket.sampling import rand_classical

    def whole(c):
        return type(c) is CRat and not c.im and c.re.denominator == 1

    image = mechanise_weyl(SIG, q(1) ** 2 * p(1) ** 4)
    assert 4 in image.flat.values() and 3 in image.flat.values()
    assert not any(whole(c) for c in image.flat.values())
    for dof in (1, 2, 3):
        rng = random.Random(4100 + dof)
        sig = GroupSignature(dof)
        for _ in range(40):
            image = mechanise_weyl(sig, rand_classical(rng, dof, max_degree=6))
            assert not any(whole(c) for c in image.flat.values()), image
