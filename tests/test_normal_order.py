"""The noncommutative products against a word rewriter.

Element, Weyl and hybrid products expand through one normal-ordering
kernel, so comparing them with each other (the rep_qq and rep_qc
homomorphisms) no longer checks independent implementations.  The
reference here knows nothing of the closed-form expansion: it writes the
product of two monomials as a word of generators and sorts it by adjacent
swaps, one at a time.  Generators of different pairs commute; swapping
Y X inside a pair gives X Y plus the central term, Y X = X Y - [X, Y].
"""

import random
from math import comb, factorial

import pytest

from pbracket.group_algebra import ConventionTuple, Element, GroupSignature, multiply
from pbracket.terms import _contractions, _expansion, normal_order
from pbracket.pmech import ClassicalPoly
from pbracket.representations import (HybridObservable, WeylAlgebra, WeylOperator, _jet_rules,
                                      qc_algebra, qq_algebra)
from pbracket.scalars import CR_I, CR_MINUS_ONE, CR_ONE, S_ZERO, Scalar, scalar

# eps_comm = -1 (standard), +1 and +i
CONVENTIONS = [
    ConventionTuple.standard(),
    ConventionTuple(eps_comm=CR_ONE, kappa_x=CR_ONE, kappa_y=CR_ONE,
                    kappa_s=CR_ONE, orient=1, rep_s_sign=1),
    ConventionTuple(eps_comm=CR_I, kappa_x=CR_ONE, kappa_y=CR_ONE,
                    kappa_s=CR_ONE, orient=-1, rep_s_sign=-1),
]


def _word(mono):
    """Generator indices in exponent order, each repeated by its exponent."""
    return tuple(idx for idx, e in enumerate(mono) for _ in range(e))


def rewrite(word, width, first, contraction):
    """Sort a word of generator indices by adjacent swaps.

    Pair t has X at index first + 2*t and Y right after.  For an adjacent
    (Y_t, X_t) the swap also emits the word with that pair replaced by
    ``contraction(t) = (generators, factor)``, the factor being -[X, Y].
    Returns {exponent vector: coefficient}, zeros dropped.
    """
    done = {}
    todo = [(word, 1)]
    while todo:
        w, c = todo.pop()
        for p in range(len(w) - 1):
            left, right = w[p], w[p + 1]
            if left > right:
                todo.append((w[:p] + (right, left) + w[p + 2:], c))
                if left == right + 1 and right >= first and (right - first) % 2 == 0:
                    gens, factor = contraction((right - first) // 2)
                    todo.append((w[:p] + gens + w[p + 2:], c * factor))
                break
        else:
            mono = [0] * width
            for idx in w:
                mono[idx] += 1
            key = tuple(mono)
            done[key] = done.get(key, S_ZERO) + scalar(c)
    return {m: c for m, c in done.items() if not c.is_zero}


def _rand_mono(rng, width, first, max_exp=2):
    mono = [rng.randint(0, max_exp) if idx >= first else rng.randint(0, 1)
            for idx in range(width)]
    return tuple(mono)


@pytest.mark.parametrize("dof", [1, 2])
@pytest.mark.parametrize("conv", CONVENTIONS, ids=["eps-1", "eps+1", "eps+i"])
def test_element_multiply_matches_word_rewriter(dof, conv):
    sig = GroupSignature(dof=dof, convention=conv)
    neg_eps = CR_MINUS_ONE * conv.eps_comm

    def contraction(t):
        return (sig.slot_sector(t) - 1,), neg_eps

    rng = random.Random(1000 * dof + CONVENTIONS.index(conv))
    for _ in range(60):
        m1 = _rand_mono(rng, sig.width, 2)
        m2 = _rand_mono(rng, sig.width, 2)
        expected = Element(sig, rewrite(_word(m1) + _word(m2), sig.width, 2, contraction))
        assert multiply(Element.monomial(sig, m1), Element.monomial(sig, m2)) == expected, (m1, m2)


@pytest.mark.parametrize("dof", [1, 2])
def test_weyl_product_matches_word_rewriter(dof):
    alg = qq_algebra(GroupSignature(dof=dof))

    def contraction(t):
        return (), -alg.gammas[t]

    rng = random.Random(77 + dof)
    for _ in range(60):
        m1 = _rand_mono(rng, alg.width, 0)
        m2 = _rand_mono(rng, alg.width, 0)
        expected = WeylOperator(alg, rewrite(_word(m1) + _word(m2), alg.width, 0, contraction))
        product = WeylOperator(alg, {m1: 1}) * WeylOperator(alg, {m2: 1})
        assert product == expected, (m1, m2)


@pytest.mark.parametrize("dof", [1, 2])
def test_weyl_product_with_several_term_gammas_matches_word_rewriter(dof):
    """WeylAlgebra is public, and a gamma must be one nonzero term: one with
    several terms, a zero or a bare constant is refused, naming its pair.
    One-term gammas may mix symbols and carry negative powers, and
    coefficients with several terms and negative powers of h multiply term
    by term."""
    h, h1, h2 = (Scalar.symbol(name) for name in ("h", "h1", "h2"))
    for refused in ((h1 + h2) * CR_I, 2 - h ** -1, S_ZERO, CR_I):
        with pytest.raises(ValueError, match="gamma of pair 'b'"):
            WeylAlgebra(("a", "b"), (h, refused))
    gammas = (2 * CR_I * h1 * h2, 3 * h ** -1)[:dof]
    alg = WeylAlgebra(tuple(str(i) for i in range(dof)), gammas)
    c1, c2 = h1 + h2, h ** -1 - 3 * h2

    def contraction(t):
        return (), -gammas[t]

    rng = random.Random(88 + dof)
    contracted = 0
    for _ in range(60):
        m1 = _rand_mono(rng, alg.width, 0)
        m2 = _rand_mono(rng, alg.width, 0)
        words = rewrite(_word(m1) + _word(m2), alg.width, 0, contraction)
        expected = WeylOperator(alg, words).scale(c1 * c2)
        x, y = WeylOperator(alg, {m1: c1}), WeylOperator(alg, {m2: c2})
        assert x * y == expected, (m1, m2)
        assert x._commutator(y) == x * y - y * x, (m1, m2)
        contracted += len(words) > 1
    assert contracted >= 10


@pytest.mark.parametrize("dof", [1, 2])
@pytest.mark.parametrize("conv", CONVENTIONS, ids=["eps-1", "eps+1", "eps+i"])
def test_hybrid_product_matches_word_rewriter(dof, conv):
    """The hybrid key as one word: Weyl pairs, then classical (q, p) pairs,
    then the jet generator h2.  A classical p before a q swaps with the star
    unit -(eps * rep_s * i) times h2, so h2 acts as the dual number of the
    jet; keys past jet degree 1 are dropped.  The random keys reach what rep_qc images do not:
    a jet-1 term times a classical contraction, and two contractions."""
    sig = GroupSignature(dof=dof, convention=conv)
    alg = qc_algebra(sig)
    width = 4 * dof + 1
    jet_index = width - 1
    star_unit = -(conv.eps_comm * conv.rep_s_sign * CR_I)

    def contraction(t):
        return ((), -alg.gammas[t]) if t < dof else ((jet_index,), star_unit)

    rng = random.Random(300 * dof + CONVENTIONS.index(conv))
    starred = 0
    for _ in range(100):
        m1, m2 = (_rand_mono(rng, jet_index, 0) + (rng.randint(0, 1),) for _ in range(2))
        words = rewrite(_word(m1) + _word(m2), width, 0, contraction)
        expected = HybridObservable(sig, {k: c for k, c in words.items() if k[-1] <= 1})
        product = HybridObservable(sig, {m1: 1}) * HybridObservable(sig, {m2: 1})
        assert product == expected, (m1, m2)
        starred += any(k[-1] > m1[-1] + m2[-1] for k in expected.terms)
    assert starred >= 5


@pytest.mark.parametrize("dof", [1, 2, 3])
def test_entry_zero_is_the_uncontracted_term(dof):
    """TermMap._commutator cancels entry 0 of the two orders without
    computing it: in every type's _expand it must be the keys added, with
    factor None, in both orders, and every later entry a contraction with
    its factor.  A key over Scalar coefficients ends in its Planck
    exponents, which may be negative: entry 0 of every product carries
    their sum, and so does every entry of the constant-factor Element
    product, whose contractions raise a central exponent instead."""
    sig = GroupSignature(dof)
    weyl = WeylOperator.zero(qq_algebra(sig))
    element = Element.zero(sig)
    hybrid = HybridObservable.identity(sig)
    classical = ClassicalPoly.zero(dof)

    def hybrid_key(m):
        return m[2:] + (m[1],)

    rng = random.Random(500 + dof)
    tails = random.Random(600 + dof)
    for _ in range(60):
        m1 = _rand_mono(rng, sig.width, 2, max_exp=3)
        m2 = _rand_mono(rng, sig.width, 2, max_exp=3)
        t1, t2 = (tuple(tails.randint(-2, 2) for _ in range(3)) for _ in range(2))
        tail = tuple(x + y for x, y in zip(t1, t2))
        pairs = tuple(x + y for x, y in zip(m1[2:], m2[2:]))
        total = tuple(x + y for x, y in zip(m1, m2))
        for (a, ta), (b, tb) in (((m1, t1), (m2, t2)), ((m2, t2), (m1, t1))):
            expansion = normal_order(a + ta, b + tb, 2, sig.contraction_rules)
            assert expansion[0] == (total + tail, None)
            assert element._expand(a + ta, b + tb) == expansion
            assert all(f is not None and k[-3:] == tail and k[0] + k[1] > total[0] + total[1]
                       for k, f in expansion[1:])
            entries = weyl._expand(a[2:] + ta, b[2:] + tb)
            assert entries[0] == (pairs + tail, None)
            assert len(entries) == len(expansion)
            assert all(f is not None and k != entries[0][0] for k, f in entries[1:])
            assert classical._expand(a[2:], b[2:]) == [(total[2:], None)]
            entries = hybrid._expand(hybrid_key(a) + ta, hybrid_key(b) + tb)
            if a[1] + b[1] > 1:
                assert entries == []
            else:
                assert entries[0] == (hybrid_key(total) + tail, None)
                assert all(f is not None and k != entries[0][0] for k, f in entries[1:])


def test_expansion_weights_match_the_closed_form_and_the_rewriter():
    """_expansion(m, n) lists the terms of Y^m X^n: k contractions with
    weight k! C(m,k) C(n,k).  With a contraction factor of one the word
    rewriter's coefficients are those weights."""
    for m in range(9):
        for n in range(9):
            assert _expansion(m, n) == tuple(
                (k, factorial(k) * comb(m, k) * comb(n, k)) for k in range(min(m, n) + 1))
    for m in range(5):
        for n in range(5):
            rewritten = rewrite((1,) * m + (0,) * n, 2, 0, lambda t: ((), 1))
            assert rewritten == {(n - k, m - k): scalar(w) for k, w in _expansion(m, n)}
    assert _contractions.cache_info().maxsize is not None


def _normal_order_per_pair(k1, k2, first, rules):
    """The kernel as it was first written, the reference here: every pair
    visited in turn, each entry grown by one pair at a time, k = 0
    included, its weight k! C(m,k) C(n,k) computed afresh and the pair's
    rule applied to it.  The uncontracted entry comes first, factor 1."""
    out = [(tuple(x + y for x, y in zip(k1, k2)), 1)]
    for t, (raised, step, unit) in enumerate(rules):
        ix = first + 2 * t
        m, n = k1[ix + 1], k2[ix]
        grown = []
        for key, f in out:
            for k in range(min(m, n) + 1):
                e = list(key)
                e[ix] -= k
                e[ix + 1] -= k
                for j, s in enumerate(step):
                    e[raised + j] += k * s
                weight = factorial(k) * comb(m, k) * comb(n, k)
                grown.append((tuple(e), f * weight * unit ** k))
        out = grown
    return out


def _assert_same_expansion(k1, k2, first, rules):
    got = normal_order(k1, k2, first, rules)
    expected = _normal_order_per_pair(k1, k2, first, rules)
    assert got[0] == (expected[0][0], None) and expected[0][1] == 1, (k1, k2)
    assert len(got) == len(expected), (k1, k2)
    assert dict(got[1:]) == dict(expected[1:]), (k1, k2)
    return len(got)


def _sparse_key(rng, width, first, slots, after=0):
    """A key with nonzero pair exponents only on the given slots, a random
    one of X or Y (or both) each time, then ``after`` zeros (a jet degree)
    and a Planck tail, which only the rules raise."""
    mono = [0] * width
    for t in slots:
        for _ in range(rng.randint(0, 3)):
            mono[first + 2 * t + rng.randint(0, 1)] += 1
    return tuple(mono) + (0,) * after + tuple(rng.randint(-2, 2) for _ in range(3))


def _layouts(sig):
    """(first, rules, pair-part width, zeros after the pairs) of the Element
    layout, whose rules raise an S exponent before the pairs, the Weyl
    layout, whose rules raise the Planck tail after them, and the hybrid
    layout, whose classical rules raise the jet degree after them."""
    dof = sig.dof
    return ((2, sig.contraction_rules, 2 + 4 * dof, 0),
            (0, qc_algebra(sig).contraction_rules, 2 * dof, 0),
            (0, _jet_rules(sig), 4 * dof, 1))


@pytest.mark.parametrize("dof", [1, 2, 3, 8, 64])
def test_normal_order_equals_the_per_pair_reference(dof):
    """normal_order adds the keys once and copies the entries only for the
    pairs that contract.  Against the per-pair loop, under each convention:
    entry 0 is the same and the other entries are the same (key, factor)
    set, in the Element, Weyl and hybrid layouts."""
    rng = random.Random(2000 + dof)
    contracted = 0
    for conv in CONVENTIONS:
        for first, rules, width, after in _layouts(GroupSignature(dof, conv)):
            for _ in range(50):
                slots = rng.sample(range(len(rules)), min(len(rules), 3))
                k1, k2 = (_sparse_key(rng, width, first, slots, after) for _ in range(2))
                contracted += _assert_same_expansion(k1, k2, first, rules) > 1
    assert contracted >= 150


@pytest.mark.parametrize("dof", [1, 2, 3, 8, 64])
def test_normal_order_on_fixed_contractions(dof):
    """Y^3 X^3 in one slot: weights 1, 9, 18, 6 for k = 0..3 (a weight
    doubled at k >= 3 once passed both oracles), each times the rule's unit
    to the k, read off the exponent the rule raises: an Element slot's S2
    at -eps = -i, and a Weyl pair's Planck tail at gamma = 2i*h1*h2, both
    of whose exponents rise.  Two slots contracting at once give the
    product of their expansions."""
    sig = GroupSignature(dof, CONVENTIONS[2])
    h1, h2 = Scalar.symbol("h1"), Scalar.symbol("h2")
    alg = WeylAlgebra(tuple(str(i) for i in range(dof)), (2 * CR_I * h1 * h2,) * dof)
    for first, rules, width, unit, read, shift in (
            (2, sig.contraction_rules, sig.width, -CR_I, 0, lambda k: (0, k)),
            (0, alg.contraction_rules, alg.width, -2 * CR_I, alg.width, lambda k: (0, k, k))):
        y3, x3 = [0] * (width + 3), [0] * (width + 3)
        y3[width - 1], x3[width - 2] = 3, 3
        y3, x3 = tuple(y3), tuple(x3)
        assert _assert_same_expansion(y3, x3, first, rules) == 4
        got = normal_order(y3, x3, first, rules)
        raised = {key[read:read + len(shift(0))]: f for key, f in got}
        assert raised == {shift(0): None, shift(1): 9 * unit, shift(2): 18 * unit ** 2,
                        shift(3): 6 * unit ** 3}
    # slot 0 is sector 1's, the last slot sector 2's: k0 and k1
    # contractions are S1^k0 S2^k1, each at the unit -eps
    pairs = sig.slots
    two1, two2 = [0] * (sig.width + 3), [0] * (sig.width + 3)
    for t, (b, a) in ((0, (2, 1)), (pairs - 1, (1, 2))):
        two1[2 + 2 * t + 1] += b
        two2[2 + 2 * t] += a
    two1, two2 = tuple(two1), tuple(two2)
    assert _assert_same_expansion(two1, two2, 2, sig.contraction_rules) == 4
    got = normal_order(two1, two2, 2, sig.contraction_rules)
    unit = -CR_I
    assert {key[:2]: f for key, f in got} == {
        (0, 0): None, (0, 1): 2 * unit, (1, 0): 2 * unit, (1, 1): 4 * unit ** 2}


@pytest.mark.parametrize("dof", [1, 2, 3])
def test_contraction_table_equals_the_per_pair_reference_up_to_k_4(dof):
    """normal_order reads each contracting pair's terms off a table cached
    per (rule, m, n).  Y^m X^n for every m, n up to 4 in each slot, the
    other slots random, equals the per-pair reference in the Element, Weyl
    and hybrid layouts under each convention, with the table cold and then
    warm."""
    rng = random.Random(3000 + dof)
    _contractions.cache_clear()
    for conv in CONVENTIONS:
        for first, rules, width, after in _layouts(GroupSignature(dof, conv)):
            for t in range(len(rules)):
                others = [s for s in range(len(rules)) if s != t]
                for m in range(5):
                    for n in range(5):
                        k1, k2 = (list(_sparse_key(rng, width, first, others, after))
                                  for _ in range(2))
                        k1[first + 2 * t + 1], k2[first + 2 * t] = m, n
                        for _ in range(2):
                            _assert_same_expansion(tuple(k1), tuple(k2), first, rules)
    assert _contractions.cache_info().hits


def test_equal_rules_share_the_contraction_table():
    """A rule is plain data, (raised, step, unit) with the unit a flat
    value, so the table is keyed by its value: Y^3 X^3 over a second,
    separately built equal signature or Weyl algebra adds no miss, and every
    factor the table holds is an int or a CRat that is not a real integer."""
    for conv in CONVENTIONS:
        def y3_x3(sig):
            y, x = (Element.generator(sig, name) for name in ("Y_1_1", "X_1_1"))
            return multiply(y ** 3, x ** 3)

        def weyl(sig):
            alg = WeylAlgebra(("1",), qc_algebra(sig).gammas)
            p, q = (WeylOperator.generator(alg, kind, 0) for kind in "PQ")
            return (p ** 3) * (q ** 3)

        for build in (y3_x3, weyl):
            first = build(GroupSignature(1, conv))
            misses = _contractions.cache_info().misses
            assert build(GroupSignature(1, conv)) == first
            assert _contractions.cache_info().misses == misses, (conv, build)
    sig = GroupSignature(2, CONVENTIONS[2])
    for rule in sig.contraction_rules + qc_algebra(sig).contraction_rules + _jet_rules(sig):
        for m in range(5):
            for n in range(5):
                for f, _, _ in _contractions(rule, m, n):
                    assert type(f) is int or f.im or f.re.denominator != 1, (rule, m, n)
