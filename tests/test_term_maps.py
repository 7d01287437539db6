"""Arithmetic on term maps builds its results directly (TermMap._like),
without the constructors' validation.  Each such result must still be what
the validating constructor builds from the same terms, and the public
constructors must still reject bad input.

AObservable is a term map too, without a product; its constructor takes
its three Element parts, so its results are checked against that rebuild.

Every product and commutator runs the one loop of TermMap._product and
TermMap._commutator over its type's _expand; the last tests here check the
commutator loop against the products and that no type writes its own loop.
The commutator expands only the orders its contraction masks (_masks) show
to contract, so the tests of the masks count _expand calls and check pairs
whose only contraction is one the masks must not miss.
"""

import copy
import itertools
import pickle
import random
import sys
from fractions import Fraction

import pytest

from pbracket.group_algebra import Element, GroupSignature, commutator, multiply
from pbracket.pmech import (AObservable, ClassicalPoly, apply_antiderivative, mechanise_weyl,
                            universal_bracket)
from pbracket.qc_bracket import qc_bracket
from pbracket.representations import (HybridObservable, WeylOperator, commutator_hybrid,
                                      multiply_hybrid, qc_algebra, qq_algebra, rep_qc,
                                      rep_qq)
from pbracket.errors import SignatureMismatch
from pbracket.sampling import rand_classical, rand_crat, rand_element, rand_group_monomial
from pbracket.scalars import CR_MINUS_I, S_ONE, UNIT_VALUES, CRat, PlanckMap, Scalar, flat_value
from pbracket.group_algebra import ConventionTuple
from pbracket import terms as terms_module
from pbracket.terms import TermMap, accumulate, pair_masks


def assert_revalidates(x):
    assert all(not c.is_zero for c in x.terms.values())
    rebuilt = type(x)(x.space, dict(x.terms))
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
    key = (0,) * (alg.width + 4 + 1)
    with pytest.raises(ValueError, match="h2"):
        HybridObservable(sig, {key: Scalar.symbol("h2")})
    # a hybrid key is one flat tuple: Weyl exponents, classical exponents, jet
    with pytest.raises(ValueError, match="negative"):
        HybridObservable(sig, {(-1,) + key[1:]: 1})
    with pytest.raises(ValueError, match="width 3 != 9"):
        HybridObservable(sig, {((-1, 0, 0, 0), (0, 0, 0, 0), 0): 1})
    with pytest.raises(ValueError, match="width"):
        HybridObservable(sig, {key[1:]: 1})
    with pytest.raises(ValueError, match="jet degree"):
        HybridObservable(sig, {key[:-1] + (2,): 1})
    # an exponent is an int: not a float, a Fraction or a bool
    for bad in (0.5, 1.0, Fraction(1), True):
        with pytest.raises(ValueError, match="non-int"):
            Element(GroupSignature(1), {(0, 0, bad, 0, 0, 0): 1})
        with pytest.raises(ValueError, match="non-int"):
            ClassicalPoly(1, {(bad, 0, 0, 0): 2})
        with pytest.raises(ValueError, match="non-int"):
            WeylOperator(alg, {(0, bad, 0, 0): 1})
        with pytest.raises(ValueError, match="non-int"):
            HybridObservable(sig, {key[:-1] + (bad,): 1})
    # scaling skips the constructor, so it checks its factor itself
    one = HybridObservable.identity(sig)
    with pytest.raises(ValueError, match="h2"):
        one.scale(Scalar.symbol("h2"))
    with pytest.raises(ValueError, match="h2"):
        Scalar.symbol("h2") * one
    # the signature fixes the algebra: an operator of another one is refused,
    # also one of the same width under another commutator weight
    assert HybridObservable.from_weyl(WeylOperator.identity(alg), sig) == one
    conv = next(c for c in _all_conventions() if c.gamma_unit != sig.convention.gamma_unit)
    for other in (qq_algebra(sig), qc_algebra(GroupSignature(1)),
                  qc_algebra(GroupSignature(2, conv))):
        with pytest.raises(SignatureMismatch):
            HybridObservable.from_weyl(WeylOperator.identity(other), sig)


@pytest.mark.parametrize("dof", [1, 2, 3])
def test_aobservable_results_equal_their_rebuild_from_parts(dof):
    """AObservable takes TermMap's arithmetic; its constructor takes the
    three Element parts, so that is the rebuild each result must equal."""
    own = set(vars(AObservable))
    assert not own & {"__add__", "__neg__", "__sub__", "scale", "__eq__", "is_zero"}
    rng = random.Random(700 + dof)
    sig = GroupSignature(dof)
    for _ in range(5):
        a = rand_element(rng, sig, max_degree=3)
        b = rand_element(rng, sig, max_degree=3)
        u, v = universal_bracket(a, b), universal_bracket(b, a)
        results = [u, v, apply_antiderivative(a, 1), apply_antiderivative(b, 2),
                   u + v, u - v, -u, u.scale(Scalar.symbol("h1")), u.scale(0), 3 * u,
                   AObservable.of(a)]
        for x in results:
            assert all(not c.is_zero for c in x.terms.values())
            rebuilt = AObservable(x.plain, x.a1_part, x.a2_part)
            assert rebuilt == x and hash(rebuilt) == hash(x)
        assert (u + v).is_zero


@pytest.mark.parametrize("dof", [1, 2, 3])
def test_aobservable_degree_is_over_its_monomials(dof):
    rng = random.Random(750 + dof)
    sig = GroupSignature(dof)
    degrees = set()
    for _ in range(5):
        u = universal_bracket(rand_element(rng, sig, max_degree=3),
                              rand_element(rng, sig, max_degree=3))
        assert u.degree() == max(part.degree() for part in (u.plain, u.a1_part, u.a2_part))
        degrees.add(u.degree())
    assert degrees - {0}
    assert AObservable.of(Element.zero(sig)).degree() == 0


@pytest.mark.parametrize("dof", [1, 2, 3])
def test_representations_read_an_element_as_its_plain_part(dof):
    rng = random.Random(800 + dof)
    sig = GroupSignature(dof)
    for _ in range(5):
        e = rand_element(rng, sig, max_degree=4)
        assert rep_qq(e) == rep_qq(AObservable.of(e))
        assert rep_qc(e) == rep_qc(AObservable.of(e))


@pytest.mark.parametrize("dof", [1, 2, 3])
def test_commutator_loop_is_the_difference_of_products(dof):
    rng = random.Random(900 + dof)
    sig = GroupSignature(dof)
    nonzero = set()
    for _ in range(5):
        a = rand_element(rng, sig, max_degree=3)
        b = rand_element(rng, sig, max_degree=3)
        f = rand_classical(rng, dof, max_degree=3)
        g = rand_classical(rng, dof, max_degree=3)
        pairs = [(a, b), (rep_qq(a), rep_qq(b)), (rep_qc(a), rep_qc(b)), (f, g)]
        for x, y in pairs:
            c = x._commutator(y)
            assert c == x * y - y * x, type(x).__name__
            if not c.is_zero:
                nonzero.add(type(x))
        assert f._commutator(g).is_zero
    assert nonzero == {Element, WeylOperator, HybridObservable}


def _all_conventions():
    for eps, kx, ky, ks in itertools.product(UNIT_VALUES, repeat=4):
        for orient, rep_s in itertools.product((1, -1), repeat=2):
            yield ConventionTuple(eps, kx, ky, ks, orient, rep_s)


@pytest.mark.parametrize("dof", [1, 2, 3])
def test_commutators_are_the_difference_of_products_under_sampled_conventions(dof):
    """The masks decide which orders are expanded; under every sampled
    convention the commutator must still be the difference of the products."""
    rng = random.Random(950 + dof)
    conventions = rng.sample(list(_all_conventions()), 8)
    for conv in conventions:
        sig = GroupSignature(dof, conv)
        a = rand_element(rng, sig, max_degree=3)
        b = rand_element(rng, sig, max_degree=3)
        for x, y in [(a, b), (rep_qq(a), rep_qq(b)), (rep_qc(a), rep_qc(b))]:
            assert x._commutator(y) == x * y - y * x, (type(x).__name__, conv)


def test_pair_masks_mark_the_pairs_with_each_exponent():
    assert pair_masks((9, 9, 1, 0, 0, 2, 3, 4), 2, 3) == (0b101, 0b110)
    assert pair_masks((0, 1, 2, 0), 0, 2) == (0b10, 0b01)
    assert pair_masks((7, 7), 2, 0) == (0, 0)


def test_a_star_only_contraction_is_not_skipped():
    """Sector-2 p and q map to classical p and q: their only contraction is
    the star term, which the hybrid masks carry above the Weyl bits."""
    sig = GroupSignature(1)
    a, b = (rep_qc(mechanise_weyl(sig, ClassicalPoly.var(1, kind, 2))) for kind in "pq")
    assert not any(any(k[:2]) for k in list(a.terms) + list(b.terms))
    c = commutator_hybrid(a, b)
    assert not c.is_zero
    assert c == a * b - b * a


def _sector_part(f, sector):
    """The terms of f that use only the given sector's variables."""
    n = f.dof
    other = slice(2 * n, 4 * n) if sector == 1 else slice(0, 2 * n)
    return ClassicalPoly(n, {m: c for m, c in f.terms.items() if not any(m[other])})


def _count_expands(monkeypatch, cls):
    calls = []
    original = cls._expand

    def counted(self, k1, k2):
        calls.append((k1, k2))
        return original(self, k1, k2)

    monkeypatch.setattr(cls, "_expand", counted)
    return calls


@pytest.mark.parametrize("dof", [1, 2, 3])
def test_pairs_on_disjoint_slots_are_never_expanded(monkeypatch, dof):
    """Sector-1 and sector-2 observables contract nowhere: their commutator
    expands no pair, as an Element pair and as rep_qc images, where sector
    1 is Weyl and sector 2 classical (bits that must not overlap)."""
    rng = random.Random(970 + dof)
    sig = GroupSignature(dof)
    one, two = [], []
    while len(one) < 3 or len(two) < 3:
        f = rand_classical(rng, dof, max_degree=4)
        for sector, found in ((1, one), (2, two)):
            part = _sector_part(f, sector)
            if part.degree() and len(found) < 3:
                found.append(mechanise_weyl(sig, part))
    element_calls = _count_expands(monkeypatch, Element)
    hybrid_calls = _count_expands(monkeypatch, HybridObservable)
    for k1, k2 in itertools.product(one, two):
        assert commutator(k1, k2).is_zero
        assert commutator_hybrid(rep_qc(k1), rep_qc(k2)).is_zero
        assert commutator_hybrid(rep_qc(k2), rep_qc(k1)).is_zero
    assert element_calls == [] and hybrid_calls == []
    # the counters do count: q and p of one slot are expanded
    q1, p1 = (mechanise_weyl(sig, ClassicalPoly.var(dof, kind, 1)) for kind in "qp")
    assert not commutator(q1, p1).is_zero and element_calls
    assert not commutator_hybrid(rep_qc(q1), rep_qc(p1)).is_zero and hybrid_calls


@pytest.mark.parametrize("dof", [1, 2, 3])
def test_every_term_key_is_a_flat_int_tuple_of_its_width(dof):
    """Every type with a product keys a term by one flat tuple of ints, so
    validation, masks and degree read every key alike."""
    sig = GroupSignature(dof)
    widths = {Element: sig.width, WeylOperator: qq_algebra(sig).width,
              HybridObservable: qc_algebra(sig).width + 2 * dof + 1,
              ClassicalPoly: 4 * dof, Scalar: 3}
    assert {c for c in _subclasses(TermMap) if "_identity" in vars(c)} == set(widths)
    rng = random.Random(1100 + dof)
    seen = set()
    for _ in range(5):
        a = rand_element(rng, sig, max_degree=3)
        b = rand_element(rng, sig, max_degree=3)
        f = rand_classical(rng, dof, max_degree=3)
        ha, hb = rep_qc(a), rep_qc(b)
        maps = [a, commutator(a, b), f, f * f, rep_qq(a), rep_qq(a) * rep_qq(b),
                ha, multiply_hybrid(ha, hb), commutator_hybrid(ha, hb), qc_bracket(ha, hb),
                rep_qc(universal_bracket(a, b))]
        maps += [c for x in maps for c in x.terms.values() if isinstance(c, Scalar)]
        for x in maps:
            seen.add(type(x))
            for key in x.terms:
                assert type(key) is tuple and len(key) == widths[type(x)], (type(x), key)
                assert all(type(e) is int for e in key), (type(x), key)
    assert seen == set(widths)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_commutator_runs_the_shared_loop(monkeypatch):
    sig = GroupSignature(1)
    q1, p1, q2, p2 = (ClassicalPoly.var(1, kind, sector)
                      for sector in (1, 2) for kind in "qp")
    k1 = mechanise_weyl(sig, q1 ** 2 * p2 + q2)
    k2 = mechanise_weyl(sig, p1 ** 2 * q2 + p2 ** 2)
    h1, h2 = rep_qc(k1), rep_qc(k2)

    def refuse(self, other):
        raise AssertionError("TermMap._commutator called")

    monkeypatch.setattr(TermMap, "_commutator", refuse)
    for run in (lambda: commutator(k1, k2), lambda: commutator_hybrid(h1, h2),
                lambda: qc_bracket(h1, h2)):
        with pytest.raises(AssertionError, match="TermMap._commutator called"):
            run()


def test_no_term_map_writes_its_own_product_loop():
    """No type keeps a _product of its own, Scalar included: the types over
    Scalar coefficients store them flat, so no product loop multiplies
    Scalars.  How a term pair expands is written once per kind of map:
    TermMap's commutative default, PlanckMap's normal ordering of the pairs
    from _first, and the hybrid's cut at jet degree 1."""
    subs = set(_subclasses(TermMap))
    assert {Element, AObservable, WeylOperator, HybridObservable, ClassicalPoly,
            Scalar} <= subs
    assert {c for c in subs if "_product" in vars(c)} == set()
    assert not any("_commutator" in vars(c) for c in subs)
    for hook in ("_expand", "_masks"):
        assert {c for c in subs | {TermMap} if hook in vars(c)} == \
            {TermMap, PlanckMap, HybridObservable}, hook
    assert {c for c in subs if "_first" in vars(c)} == {PlanckMap, Element}
    assert {c for c in subs if "_identity" in vars(c)} == \
        {Element, WeylOperator, HybridObservable, ClassicalPoly, Scalar}


# -- the Planck tail of a flat key --------------------------------------------


def _planck_valued_maps(dof):
    """Maps whose coefficients have several terms (h1 + h2) or negative
    powers of h, h1 or h2: qc_bracket images carry 1/h, rep_qq images of a
    universal bracket 1/h1 and 1/h2."""
    rng = random.Random(1400 + dof)
    sig = GroupSignature(dof)
    h, h1, h2 = (Scalar.symbol(name) for name in ("h", "h1", "h2"))
    out = []
    for _ in range(4):
        a, b = (mechanise_weyl(sig, rand_classical(rng, dof, max_degree=3)) for _ in range(2))
        ha, hb = rep_qc(a), rep_qc(b)
        u = universal_bracket(a, b)
        out += [qc_bracket(ha, hb), ha.scale(h + 1 / h), multiply_hybrid(ha, hb).scale(h ** -2),
                rep_qq(u), rep_qq(a).scale(h1 + h2) * rep_qq(b), u.scale(h1 + h2),
                a.scale(h1 + h2 + 1 / h) - b.scale(h), commutator(a.scale(h1 + h2), b.scale(h2))]
    return out


def _rebuild(x):
    if isinstance(x, AObservable):
        return AObservable(x.plain, x.a1_part, x.a2_part)
    return type(x)(x.space, dict(x.terms))


@pytest.mark.parametrize("dof", [1, 2, 3])
def test_the_terms_view_regroups_the_planck_tail(dof):
    """``terms`` is {monomial: Scalar}: rebuilt from it, a map is the same
    value with the same hash; its degree is the largest monomial sum and its
    length counts monomials, whatever the Planck tails of its flat keys.  An
    AObservable's monomials are Laurent, A_s at S_s exponent -1, and its
    degree adds the formal factor back."""
    maps = _planck_valued_maps(dof)
    several = negative = laurent = 0
    for x in maps:
        view = x.terms
        assert all(isinstance(c, Scalar) and not c.is_zero for c in view.values())
        assert len(view) == len({k[:-3] for k in x.flat})
        assert sum(len(c.terms) for c in view.values()) == len(x.flat)
        assert x.flat == {m + e: c for m, s in view.items() for e, c in s.terms.items()}
        rebuilt = _rebuild(x)
        assert rebuilt == x and hash(rebuilt) == hash(x) and rebuilt.terms == view
        assert x.degree() == max((sum(max(n, 0) for n in m) for m in view), default=0)
        several += any(len(c.terms) > 1 for c in view.values())
        negative += any(min(k[-3:]) < 0 for k in x.flat)
        laurent += any(min(m) < 0 for m in view)
    assert several >= 8 and negative >= 8 and laurent >= 2
    # equality and hashing agree with the view across different values too
    for x, y in itertools.combinations(maps[:8], 2):
        if type(x) is type(y):
            assert (x == y) == (x.space == y.space and x.terms == y.terms)
            assert x != y or hash(x) == hash(y)


def test_monomials_stay_validated_and_the_tail_stays_free():
    """The constructors refuse what they refused before: negative, non-int
    and wrong-width monomials; a negative Planck power in a coefficient is
    a flat key with a negative tail."""
    sig = GroupSignature(1)
    h = Scalar.symbol("h")
    e = Element(sig, {(0, 1, 2, 0, 0, 1): h ** -2 + h})
    assert sorted(e.flat) == [(0, 1, 2, 0, 0, 1, -2, 0, 0), (0, 1, 2, 0, 0, 1, 1, 0, 0)]
    assert e.terms == {(0, 1, 2, 0, 0, 1): h ** -2 + h}
    for bad, match in (((0, 1, -1, 0, 0, 0), "negative"), ((0, 1, 0.5, 0, 0, 0), "non-int"),
                       ((0, 1, 0, 0, 0, 0, -2, 0, 0), "width")):
        with pytest.raises(ValueError, match=match):
            Element(sig, {bad: h})


def test_the_bracket_pair_bound_counts_monomials(monkeypatch, capsys):
    """The CLI bounds a bracket by its inputs' monomial pairs, not by their
    flat terms: inputs whose coefficients have two terms each are accepted
    at the limit and refused just past it, as before the tail existed."""
    from pbracket import cli

    sig = GroupSignature(1)
    two = Scalar.symbol("h1") + Scalar.symbol("h2")
    sizes = {"a": 100, "b": cli.MAX_BRACKET_PAIRS // 100, "c": cli.MAX_BRACKET_PAIRS // 100 + 1}
    made = {name: Element(sig, {(0, 0, i, 0, 0, 0): two for i in range(n)})
            for name, n in sizes.items()}
    assert all(len(made[n].flat) == 2 * len(made[n].terms) == 2 * sizes[n] for n in sizes)

    reached = []

    def bracket(k1, k2):        # the bound let the pair through: skip the work
        reached.append((k1, k2))
        return AObservable.of(Element.zero(sig))

    monkeypatch.setattr(cli, "_element_arg", lambda text, sig: made[text])
    monkeypatch.setattr(cli, "universal_bracket", bracket)
    assert cli.main(["bracket", "universal", "a", "b"]) == 0
    assert reached == [(made["a"], made["b"])]
    assert cli.main(["bracket", "universal", "a", "c"]) == 2
    assert len(reached) == 1
    assert f"{100 * sizes['c']} term pairs" in capsys.readouterr().err


def test_the_expression_size_is_over_monomials():
    """The expression bounds read (degree, term count) of a value: for maps
    with Planck tails that is the largest monomial sum and the number of
    monomials, the same as the view's."""
    from pbracket.expressions import _Value

    for x in _planck_valued_maps(2):
        if isinstance(x, Element):
            assert _Value("e", x, 1).size() == (x.degree(), max(len(x.terms), 1))
            assert x.degree() == max((sum(m) for m in x.terms), default=0)


# -- results built without re-validation --------------------------------------


def test_representations_and_mechanisation_do_not_revalidate(monkeypatch):
    """rep_qc, rep_qq and mechanise_weyl write flat keys they built from
    valid ones: clean_terms, the constructors' key validation, is never
    called on their results."""
    rng = random.Random(1500)
    inputs = []
    for dof in (1, 2, 3):
        sig = GroupSignature(dof)
        for _ in range(4):
            f, g = (rand_classical(rng, dof, max_degree=3) for _ in range(2))
            k1, k2 = mechanise_weyl(sig, f), mechanise_weyl(sig, g)
            inputs.append((sig, f, k1, universal_bracket(k1, k2)))
    calls = []
    original = terms_module.clean_terms

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "pbracket" and getattr(module, "clean_terms", None) is original:
            monkeypatch.setattr(module, "clean_terms", counted)
    for sig, f, k, u in inputs:
        mechanise_weyl(sig, f)
        for x in (k, u):
            rep_qc(x)
            rep_qq(x)
    assert calls == []
    Element.one(GroupSignature(1))      # the counter does count
    assert len(calls) == 1


def test_rep_qc_refuses_an_h2_coefficient():
    """The jet degree is the hybrid's only carrier of h2: rep_qc refuses a
    coefficient term in h2 that survives, with the constructor's error, and
    accepts one that cancels against another term's image."""
    sig = GroupSignature(1)
    h, h2 = Scalar.symbol("h"), Scalar.symbol("h2")
    for coeff in (h2, h2 + 1, h * h2 ** -1):
        with pytest.raises(ValueError, match="coefficients must not use h2"):
            rep_qc(Element(sig, {(0, 0, 1, 0, 0, 0): coeff}))
    # S1 maps to rep_s_sign*i*h = -i*h: -i*h2 on S1*X1 cancels h*h2 on X1
    cancelling = Element(sig, {(0, 0, 1, 0, 0, 0): h * h2, (1, 0, 1, 0, 0, 0): CR_MINUS_I * h2})
    assert rep_qc(cancelling).is_zero


# -- the samplers build once ----------------------------------------------------


def _rand_element_per_term(rng, sig, max_degree, terms):
    acc = Element.zero(sig)
    for _ in range(terms):
        mono = rand_group_monomial(rng, sig, max_degree)
        acc = acc + Element.monomial(sig, mono, rand_crat(rng))
    return acc


def _rand_classical_per_term(rng, dof, max_degree, sectors):
    acc = ClassicalPoly.zero(dof)
    allowed = [ClassicalPoly.var_index(dof, kind, sector, i)
               for sector in sectors for i in range(1, dof + 1) for kind in "qp"]
    for _ in range(3):
        mono = [0] * (4 * dof)
        for _ in range(rng.randint(0, max_degree)):
            mono[rng.choice(allowed)] += 1
        acc = acc + ClassicalPoly(dof, {tuple(mono): rand_crat(rng, allow_imag=False)})
    return acc


@pytest.mark.parametrize("dof", [1, 2, 3])
def test_samplers_equal_the_per_term_construction(dof):
    """rand_element and rand_classical accumulate their terms in one dict;
    they must draw the same numbers in the same order as adding one
    validated map per term, and give the same map, term order included."""
    sig = GroupSignature(dof)
    cases = ([(rand_element, _rand_element_per_term, sig, max_degree, terms)
              for max_degree in (0, 2, 4) for terms in (1, 3, 6)]
             + [(rand_classical, _rand_classical_per_term, dof, max_degree, sectors)
                for max_degree in (0, 2, 4) for sectors in ((1, 2), (1,), (2,))])
    for seed, (build, reference, space, *args) in enumerate(cases):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        for _ in range(6):
            got = build(rng, space, *args)
            expected = reference(ref_rng, space, *args)
            assert got == expected
            assert list(got.flat.items()) == list(expected.flat.items())
        assert rng.getstate() == ref_rng.getstate()


# -- real-integer coefficients stored as ints -----------------------------------


def _all_crat(x):
    """The same map with every flat value held as a CRat."""
    return x._like({k: CRat.of(c) for k, c in x.flat.items()})


def _value_kinds(x):
    return {type(c) for c in x.flat.values()}


def _mixed_maps(dof):
    """Maps whose flat values mix ints and CRats, one of each type with a
    product and an AObservable, from the universal route and a Weyl product."""
    rng = random.Random(1600 + dof)
    sig = GroupSignature(dof)
    out = []
    for _ in range(3):
        f, g = (rand_classical(rng, dof, max_degree=3) for _ in range(2))
        a, b = mechanise_weyl(sig, f), mechanise_weyl(sig, g)
        u = universal_bracket(a, b)
        out += [a.scale(Fraction(1, 2)) + b, u, rep_qq(u), rep_qq(a) * rep_qq(b),
                qc_bracket(rep_qc(a), rep_qc(b)), rep_qc(u)]
    return out


@pytest.mark.parametrize("dof", [1, 2, 3])
def test_int_and_crat_coefficients_are_the_same_value(dof):
    """A PlanckMap holds a real-integer coefficient as an int.  The same
    value held as CRats compares equal and hashes equal, and the public
    view, the text and the JSON never show which one holds it: ``terms``
    yields Scalars over CRats only."""
    maps = _mixed_maps(dof)
    assert any(_value_kinds(x) == {int, CRat} for x in maps)
    for x in maps:
        twin = _all_crat(x)
        assert _value_kinds(twin) <= {CRat}
        assert x == twin and twin == x and hash(x) == hash(twin)
        assert {type(c) for s in x.terms.values() for c in s.terms.values()} <= {CRat}
        assert str(x) == str(twin)
        if hasattr(x, "to_json"):
            assert x.to_json() == twin.to_json()
    sig = GroupSignature(dof)
    key = (0,) * sig.width + (0, 1, 0)
    assert Element(sig, {key[:-3]: Scalar.symbol("h1", 1, 3)}).flat == {key: 3}
    assert type(Element(sig, {key[:-3]: Scalar.symbol("h1", 1, 3)}).flat[key]) is int


@pytest.mark.parametrize("dof", [1, 2])
def test_substitute_equals_substituting_each_coefficient(dof):
    """PlanckMap.substitute works on the flat keys' Planck tails: it gives
    what substituting each Scalar of ``terms`` and rebuilding gives, keeps
    a real-integer coefficient as an int, and raises as Scalar.substitute
    does."""
    checked = set()
    for x in _mixed_maps(dof):
        if isinstance(x, AObservable):
            continue            # built from its parts, not from terms
        for values in ({"h": 2}, {"h1": Fraction(1, 2)}, {"h": CR_MINUS_I, "h2": 3}):
            if isinstance(x, HybridObservable) and "h2" in values:
                continue        # refused: the jet degree carries h2
            got = x.substitute(**values)
            assert got == type(x)(x.space, {m: c.substitute(**values)
                                          for m, c in x.terms.items()})
            assert all(type(c) is int or flat_value(c) is c for c in got.flat.values())
            checked.add(type(x))
    assert checked == {Element, WeylOperator, HybridObservable}
    w = WeylOperator.identity(qq_algebra(GroupSignature(dof))).scale(Scalar.symbol("h1", -1))
    with pytest.raises(ZeroDivisionError, match="substituting 0 for h1 in denominator"):
        w.substitute(h1=0)
    with pytest.raises(ValueError, match="unknown symbol 'x'"):
        w.substitute(x=1)


def test_real_integer_crats_equal_and_hash_as_ints():
    for c in (CRat(3), CRat(-7), CRat(0)):
        n = int(c.re)
        assert c == n and n == c and hash(c) == hash(n)
        assert bool(c) is bool(n)
    for c in (CRat(Fraction(3, 2)), CRat(0, 1), CRat(1, 1)):
        assert c != int(c.re) and bool(c)
    assert {CRat(2): "x"}[2] == "x" and 2 in {CRat(2)}


def test_accumulate_drops_a_sum_that_cancels():
    """A flat map's running sum may be an int or a CRat, and so may its zero."""
    acc = {}
    accumulate(acc, "int", 3)
    accumulate(acc, "int", -3)
    accumulate(acc, "crat", CRat(Fraction(1, 2), 1))
    accumulate(acc, "crat", CRat(Fraction(-1, 2), -1))
    accumulate(acc, "mixed", CRat(2))
    accumulate(acc, "mixed", -2)
    assert acc == {}
    accumulate(acc, "scalar", Scalar.symbol("h"))
    accumulate(acc, "scalar", -Scalar.symbol("h"))
    assert acc == {}
    accumulate(acc, "kept", 1)
    accumulate(acc, "kept", CRat(0, 1))
    assert acc == {"kept": CRat(1, 1)}


# -- copies and pickles -----------------------------------------------------------


@pytest.mark.parametrize("dof", [1, 2])
def test_every_term_map_copies_and_pickles(dof):
    """copy, deepcopy and pickle rebuild a map through TermMap._over from
    its flat map and its space alone (a hybrid's signature, nothing derived
    from it): the result is equal, hashes equal, keeps its flat values'
    types and still computes."""
    sig = GroupSignature(dof)
    maps = _mixed_maps(dof) + [
        Element.one(sig), ClassicalPoly.constant(dof, 2),
        rand_classical(random.Random(dof), dof, max_degree=3),
        HybridObservable.identity(sig), WeylOperator.identity(qq_algebra(sig)),
        AObservable.of(Element.one(sig)), Scalar.symbol("h", -1, Fraction(1, 2))]
    kinds = {type(x) for x in maps}
    assert {Element, WeylOperator, HybridObservable, AObservable, ClassicalPoly} <= kinds
    for x in maps:
        assert x.__reduce__() == (type(x)._over, (x.flat, x.space))
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert type(y) is type(x)
            assert y == x and hash(y) == hash(x) and str(y) == str(x)
            assert [type(c) for c in y.flat.values()] == [type(c) for c in x.flat.values()]
            with pytest.raises(AttributeError, match="immutable"):
                y.flat = {}
            if not isinstance(x, AObservable):
                assert y * y == x * x
    h = HybridObservable.identity(sig)
    assert h.__reduce__()[1] == (h.flat, h.signature)


# -- one space per map ------------------------------------------------------------


def _one_of_each(dof):
    """One map of every term-map type, each with its space's public name."""
    sig = GroupSignature(dof)
    e = mechanise_weyl(sig, rand_classical(random.Random(dof), dof, max_degree=3))
    return [(e, "signature"), (universal_bracket(e, e.scale(2) * e), "signature"),
            (rep_qq(e), "algebra"), (rep_qc(e), "signature"),
            (rand_classical(random.Random(dof), dof, max_degree=3), "dof"),
            (Scalar.symbol("h", -1, Fraction(1, 2)), None)]


@pytest.mark.parametrize("dof", [1, 2])
def test_every_term_map_holds_flat_and_one_space(dof):
    """A map stores two fields, ``flat`` and ``space``, and a type names the
    space for its callers: no instance has a __dict__, every subclass adds
    no slot, and setting either field, or any other, is refused."""
    sig = GroupSignature(dof)
    assert TermMap.__slots__ == ("flat", "space")
    for x, name in _one_of_each(dof):
        assert not hasattr(x, "__dict__")
        assert all(cls.__dict__.get("__slots__", ()) == () for cls in type(x).__mro__[:-2])
        if name is None:
            assert x.space is None
        else:
            assert getattr(x, name) is x.space
        for field in ("flat", "space", "signature", "other"):
            with pytest.raises(AttributeError, match="immutable"):
                setattr(x, field, None)
    h = rep_qc(Element.one(sig))
    assert h.space is sig and h.algebra is qc_algebra(sig) and h.dof == dof


def test_maps_over_equal_signatures_meet_and_others_do_not():
    """Two separately built equal signatures are one space: their maps add,
    multiply, commute and compare equal.  Maps over dof 1 and dof 2 raise
    SignatureMismatch."""
    rng = random.Random(1700)
    f = rand_classical(rng, 1, max_degree=3)
    g = rand_classical(rng, 1, max_degree=3)
    s1, s2 = GroupSignature(1), GroupSignature(1)
    assert s1 is not s2
    for build in (lambda sig, p: mechanise_weyl(sig, p), lambda sig, p: rep_qc(mechanise_weyl(sig, p))):
        a1, b1 = build(s1, f), build(s1, g)
        a2, b2 = build(s2, f), build(s2, g)
        assert a1 == a2 and hash(a1) == hash(a2)
        assert a1 + b2 == a2 + b1
        assert a1 * b2 == a2 * b1
        assert a1 * b2 - b2 * a1 == a2._commutator(b1) == a1._commutator(b2)
        other = build(GroupSignature(2), ClassicalPoly.constant(2, 1))
        for op in (lambda x, y: x + y, lambda x, y: x * y, lambda x, y: x._commutator(y)):
            with pytest.raises(SignatureMismatch):
                op(a1, other)
        assert a1 != other
