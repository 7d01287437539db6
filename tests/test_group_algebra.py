"""Convolution algebra on the two-sector group: normal ordering, commutators
and the delta-kernel correspondence."""

import copy
import itertools
import pickle
import random
from fractions import Fraction

import pytest

import pbracket.group_algebra as group_algebra
from pbracket.errors import SignatureMismatch
from pbracket.sampling import rand_classical, rand_element
from pbracket.scalars import CRat, CR_I, CR_MINUS_ONE, CR_ONE, UNIT_VALUES, Scalar, unit_cycle
from pbracket.group_algebra import (ConventionTuple, Element, GroupSignature,
                                    commutator, delta_str, delta_to_element,
                                    element_from_json, element_to_delta,
                                    element_to_json, multiply,
                                    parse_group_var)

SIG = GroupSignature(dof=1)
SIG2 = GroupSignature(dof=2)


def gen(name, sig=SIG):
    return Element.generator(sig, name)


def test_convention_tuple_validation():
    with pytest.raises(ValueError):
        ConventionTuple(CRat.of(2), CR_ONE, CR_ONE, CR_ONE, 1, 1)
    with pytest.raises(ValueError):
        ConventionTuple(CR_ONE, CR_ONE, CR_ONE, CR_ONE, 0, 1)
    # a sign that only compares equal to an integer is refused by name
    for orient, rep_s in ((True, 1), (1, -1.0)):
        with pytest.raises(ValueError, match=r"must be an integer"):
            ConventionTuple(CR_ONE, CR_ONE, CR_ONE, CR_ONE, orient, rep_s)
    std = ConventionTuple.standard()
    assert ConventionTuple.from_json(std.to_json()) == std


@pytest.mark.parametrize("field", ["eps_comm", "kappa_x", "kappa_y", "kappa_s"])
def test_unit_fields_refuse_bare_numbers(field):
    """A unit field takes a CRat.  A real-integer CRat equals its int (term
    maps store real integers as ints), so the check is on the type as well
    as on the value: a bare int or a Fraction of a unit value is refused."""
    std = ConventionTuple.standard()
    fields = {name: getattr(std, name) for name in
              ("eps_comm", "kappa_x", "kappa_y", "kappa_s", "orient", "rep_s_sign")}
    for value in (1, -1, Fraction(1), Fraction(-1)):
        with pytest.raises(ValueError, match=f"{field} must be one of"):
            ConventionTuple(**{**fields, field: value})
    with pytest.raises(ValueError, match="eps_comm must be one of"):
        ConventionTuple(eps_comm=-1, kappa_x=1, kappa_y=1, kappa_s=1, orient=-1, rep_s_sign=-1)
    assert ConventionTuple(**{**fields, field: CR_ONE}).to_json()[field] == "+1"


def test_standard_tuple_units():
    std = ConventionTuple.standard()
    # [Q, P] carries +i*hbar under the standard tuple
    assert std.gamma_unit == CR_ONE
    assert std.anti_normal_order


def test_central_cycle_is_the_cycle_of_rep_s_sign_times_i():
    for rep_s in (1, -1):
        conv = ConventionTuple(CR_I, CR_ONE, CR_ONE, CR_ONE, 1, rep_s)
        assert conv.central_cycle == unit_cycle(CR_I * rep_s)
        assert conv.central_cycle[1] == CR_I * rep_s


def test_signature_hash_is_the_field_tuples_and_survives_copies():
    """The cached hash is hash((dof, convention)), the hash of the record's
    field tuple: equal signatures hash alike, through copy and pickle too,
    and a signature never equals the tuple of its fields."""
    conv = ConventionTuple(CR_I, CR_ONE, CR_MINUS_ONE, CR_ONE, 1, -1)
    for dof, c in ((1, ConventionTuple.standard()), (2, conv), (3, conv)):
        sig = GroupSignature(dof, c)
        twin = GroupSignature(dof, ConventionTuple.from_json(c.to_json()))
        assert sig == twin and hash(sig) == hash(twin) == hash((dof, c))
        fresh = pickle.loads(pickle.dumps(GroupSignature(dof, c)))
        for back in (copy.copy(sig), copy.deepcopy(sig), pickle.loads(pickle.dumps(sig)),
                     fresh):
            assert back == sig and hash(back) == hash(sig)
        assert sig != (dof, c) and (dof, c) != sig
    assert GroupSignature(1) != GroupSignature(2)


def test_signature_layout():
    assert SIG.width == 6
    assert SIG2.width == 10
    assert SIG2.generator_names() == [
        "S1", "S2", "X_1_1", "Y_1_1", "X_1_2", "Y_1_2",
        "X_2_1", "Y_2_1", "X_2_2", "Y_2_2",
    ]
    assert SIG2.slot_sector(0) == 1
    assert SIG2.slot_sector(3) == 2


def test_multiply_identity_and_ordered_pair():
    x, y = gen("X_1_1"), gen("Y_1_1")
    assert multiply(Element.one(SIG), y) == y
    assert multiply(x, y) == Element.monomial(SIG, (0, 0, 1, 1, 0, 0))


def test_multiply_reorders_swapped_pair():
    x, y, s = gen("X_1_1"), gen("Y_1_1"), gen("S1")
    eps = SIG.convention.eps_comm
    assert multiply(y, x) == multiply(x, y) - s.scale(eps)


def test_commutator_of_generators():
    x, y, s = gen("X_1_1"), gen("Y_1_1"), gen("S1")
    c = commutator(x, y)
    orient = SIG.convention.orient
    eps = SIG.convention.eps_comm
    assert c == s.scale(eps * CRat.of(orient))
    # standard tuple: orient * eps = +1
    assert c == s


def test_commutator_antisymmetry_and_self():
    x, y = gen("X_1_1"), gen("Y_1_1")
    a = multiply(x, x) + y.scale(CRat(Fraction(1), Fraction(2)))
    b = multiply(x, y) - Element.one(SIG).scale(3)
    assert commutator(a, a).is_zero
    assert (commutator(a, b) + commutator(b, a)).is_zero


def _products_commutator(a, b):
    """The definition the one-pass commutator replaces."""
    return (multiply(a, b) - multiply(b, a)).scale(a.signature.convention.orient)


@pytest.mark.parametrize("dof", [1, 2, 3])
def test_commutator_matches_products(dof):
    sig = GroupSignature(dof=dof)
    rng = random.Random(4100 + dof)
    for _ in range(40):
        a = rand_element(rng, sig, max_degree=4, terms=3)
        b = rand_element(rng, sig, max_degree=4, terms=3)
        assert commutator(a, b) == _products_commutator(a, b), (a, b)


def test_commutator_matches_products_under_every_convention():
    """All 1024 tuples: both orientations and every eps_comm."""
    for eps, kx, ky, ks, orient, rep_s in itertools.product(
            UNIT_VALUES, UNIT_VALUES, UNIT_VALUES, UNIT_VALUES, (1, -1), (1, -1)):
        sig = GroupSignature(2, ConventionTuple(eps, kx, ky, ks, orient, rep_s))
        a = (Element.monomial(sig, (1, 0, 1, 2, 0, 1, 1, 0, 0, 0), 3)
             + Element.monomial(sig, (0, 0, 0, 1, 0, 0, 0, 1, 0, 0), CR_I))
        b = (Element.monomial(sig, (0, 1, 2, 1, 1, 0, 0, 0, 0, 0), -2)
             + Element.monomial(sig, (0, 0, 0, 0, 0, 0, 1, 1, 0, 0), 1))
        assert commutator(a, b) == _products_commutator(a, b), sig.convention
        assert not commutator(a, b).is_zero


def test_commutator_never_builds_the_products(monkeypatch):
    x, y, s = gen("X_1_1"), gen("Y_1_1"), gen("S1")
    a, b = x * y * y, x * x + s
    expected = _products_commutator(a, b)

    def refuse(a, b):
        raise AssertionError("commutator called multiply")

    monkeypatch.setattr(group_algebra, "multiply", refuse)
    assert commutator(a, b) == expected


def test_central_generators_commute():
    s1, s2 = gen("S1"), gen("S2")
    x = gen("X_1_1")
    word = multiply(multiply(x, x), multiply(s1, s2))
    assert commutator(s1, word).is_zero
    assert commutator(s2, x).is_zero


def test_cross_sector_generators_commute():
    x1, y2 = gen("X_1_1"), gen("Y_2_1")
    assert commutator(x1, y2).is_zero


def test_biquadratic_reordering():
    """x^2 y^2 - y^2 x^2 collapses to two terms, degree 3 and 2."""
    x, y, s = gen("X_1_1"), gen("Y_1_1"), gen("S1")
    eps = SIG.convention.eps_comm
    lhs = multiply(x ** 2, y ** 2) - multiply(y ** 2, x ** 2)
    xy = multiply(x, y)
    rhs = multiply(s, xy).scale(eps * CRat.of(4)) - (s ** 2).scale(eps * eps * CRat.of(2))
    assert lhs == rhs


def test_signature_mismatch_raises():
    with pytest.raises(SignatureMismatch):
        multiply(Element.one(SIG), Element.one(SIG2))


def test_degree_and_uses_sector():
    x1, y2, s2 = gen("X_1_1"), gen("Y_2_1"), gen("S2")
    e = multiply(x1, x1) + y2.scale(2)
    assert e.degree() == 2
    assert e.uses_sector(1)
    assert e.uses_sector(2)
    assert not multiply(x1, x1).uses_sector(2)
    assert s2.uses_sector(2)


def test_delta_correspondence_roundtrip():
    from pbracket.scalars import S_ONE
    e = delta_to_element(SIG, {"x1": 2, "s1": 1})
    coeff, alpha = element_to_delta(e)
    assert alpha == {"x1": 2, "s1": 1}
    # kappa factors cancel: the delta-side coefficient is exactly one
    assert coeff == S_ONE


@pytest.mark.parametrize("count", [1.5, 2.9, 2.0, "2", True])
def test_delta_to_element_multiplicity_must_be_an_integer(count):
    """A multiplicity is refused unless it is an int, never truncated or parsed."""
    with pytest.raises(ValueError, match="multiplicity of x1 must be an integer"):
        delta_to_element(SIG, {"x1": count})


def test_delta_to_element_kappa_factors():
    conv = SIG.convention
    assert delta_to_element(SIG, {}) == Element.one(SIG)
    assert delta_to_element(SIG, {"x1": 1}) == gen("X_1_1").scale(conv.kappa_x)
    assert delta_to_element(SIG, {"x1": 2}) == (gen("X_1_1") ** 2).scale(conv.kappa_x ** 2)
    # iterable form counts repetitions
    assert delta_to_element(SIG, ["x1", "x1"]) == delta_to_element(SIG, {"x1": 2})


def _every_convention():
    for units in itertools.product(UNIT_VALUES, repeat=4):
        for orient, rep_s in itertools.product((1, -1), repeat=2):
            yield ConventionTuple(*units, orient, rep_s)


def test_every_convention_round_trips_and_carries_its_kappa():
    """All 1024 tuples: to_json and from_json are inverse, and each single
    generator's delta kernel carries the tuple's kappa of that generator."""
    count = 0
    for conv in _every_convention():
        count += 1
        assert ConventionTuple.from_json(conv.to_json()) == conv
        sig = GroupSignature(2, conv)
        for name, gen_name, counts in (("s1", "S1", (1, 0, 0)), ("s2", "S2", (1, 0, 0)),
                                       ("x21", "X_2_1", (0, 1, 0)), ("y12", "Y_1_2", (0, 0, 1))):
            assert delta_to_element(sig, [name]) == gen(gen_name, sig).scale(conv.kappa(*counts))
    assert count == 1024


@pytest.mark.parametrize("dof", [1, 2, 3])
def test_classical_and_group_variables_share_slot_and_name(dof):
    """A classical index is the group index less two, and a classical name
    is the delta name with x -> q and y -> p."""
    from pbracket.pmech import ClassicalPoly
    sig = GroupSignature(dof)
    for sector in (1, 2):
        for i in range(1, dof + 1):
            for kind, letter, group_index in (("q", "x", sig.var_index("x", sector, i)),
                                              ("p", "y", sig.var_index("y", sector, i))):
                assert ClassicalPoly.var_index(dof, kind, sector, i) + 2 == group_index
                delta = str(Element.generator(sig, f"{letter.upper()}_{sector}_{i}"))
                classical = str(ClassicalPoly.var(dof, kind, sector, i))
                assert delta == f"delta[{classical.replace(kind, letter)}]"


def test_out_of_range_slots_keep_their_messages():
    from pbracket.pmech import ClassicalPoly
    for call in (lambda: SIG2.slot_of(3, 1), lambda: SIG2.var_index("x", 0, 1),
                 lambda: SIG2.var_index("y", -1, 1),
                 lambda: ClassicalPoly.var_index(2, "q", 3, 1),
                 lambda: ClassicalPoly.var(2, "p", 0)):
        with pytest.raises(ValueError, match=r"^sector must be 1 or 2$"):
            call()
    for call in (lambda: SIG2.slot_of(1, 3), lambda: SIG2.var_index("x", 2, 0),
                 lambda: ClassicalPoly.var_index(2, "p", 1, 3)):
        with pytest.raises(ValueError, match=r"^dof index -?\d+ outside 1\.\.2$"):
            call()
    with pytest.raises(ValueError, match=r"^kind must be 'q' or 'p'$"):
        ClassicalPoly.var_index(2, "x", 1, 1)
    for call, field in ((lambda: group_algebra.slot_index(1.5, 2, 1), "dof"),
                        (lambda: ClassicalPoly.var_index(1.5, "q", 2, 1), "dof"),
                        (lambda: group_algebra.slot_index(2, 1, True), "dof index"),
                        (lambda: ClassicalPoly.var(2, "q", 1, True), "dof index"),
                        (lambda: rand_classical(random.Random(0), 1.5), "dof")):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
            call()
    with pytest.raises(ValueError, match=r"^sector in 'x31' must be 1 or 2$"):
        parse_group_var(SIG2, "x31")
    with pytest.raises(ValueError, match=r"^sector in 's3' must be 1 or 2$"):
        parse_group_var(SIG2, "s3")
    with pytest.raises(ValueError, match=r"^dof index in 'y13' outside 1\.\.2$"):
        parse_group_var(SIG2, "y13")


@pytest.mark.parametrize("args, match", [
    (("s", 3), r"^sector must be 1 or 2$"),
    (("s", 0), r"^sector must be 1 or 2$"),
    (("s", 1.0), r"^sector must be an integer, got 1\.0$"),
    (("s", 1, 2), r"^dof index 2 outside 1\.\.1$"),
    (("x", 2, 0), r"^dof index 0 outside 1\.\.1$"),
    (("q", 1), r"^letter must be 's', 'x' or 'y', got 'q'$"),
    (("", 1), r"^letter must be 's', 'x' or 'y', got ''$"),
])
def test_var_index_checks_every_letter_and_sector(args, match):
    """At dof 1 the valid indices are 0..5; a sector, a dof index or a
    letter out of range is refused, for 's' too, rather than read as another
    variable's index."""
    assert [SIG.var_index(*v) for v in (("s", 1), ("s", 2), ("x", 1), ("y", 1),
                                        ("x", 2), ("y", 2))] == list(range(6))
    with pytest.raises(ValueError, match=match):
        SIG.var_index(*args)


def test_parse_group_var_forms():
    assert parse_group_var(SIG, "s1") == 0
    assert parse_group_var(SIG, "s2") == 1
    assert parse_group_var(SIG, "x1") == 2
    assert parse_group_var(SIG, "y1") == 3
    assert parse_group_var(SIG2, "x21") == SIG2.var_index("x", 2, 1)
    assert parse_group_var(SIG2, "x_2_2") == SIG2.var_index("x", 2, 2)
    with pytest.raises(ValueError):
        parse_group_var(SIG, "z1")
    with pytest.raises(ValueError):
        parse_group_var(SIG, "x12")
    sig12 = GroupSignature(12)
    assert parse_group_var(sig12, " X_2_10") == sig12.var_index("x", 2, 10)
    with pytest.raises(ValueError, match=r"^malformed variable name 's11'$"):
        delta_to_element(SIG, ["s11"])


def test_delta_str_rendering():
    e = delta_to_element(SIG, {"x1": 1, "y1": 1}).scale(4) + delta_to_element(SIG, {"s1": 1}).scale(2)
    assert delta_str(e) == "4*delta[x1,y1] + 2*delta[s1]"
    assert str(Element.zero(SIG)) == "0"


def test_element_json_roundtrip():
    x, y = gen("X_1_1"), gen("Y_1_1")
    e = multiply(y, x).scale(CRat(Fraction(3, 2), Fraction(-1)))
    data = element_to_json(e)
    assert element_from_json(data) == e
    term_keys = {frozenset(t["exponents"]) for t in data["terms"]}
    assert frozenset({"X_1_1", "Y_1_1"}) in term_keys


def test_element_json_carries_planck_powers():
    from pbracket.scalars import Scalar
    e = Element.one(SIG).scale(Scalar.symbol("h1"))
    data = element_to_json(e)
    assert data["terms"][0]["coeff"]["h1_pow"] == 1
    assert element_from_json(data) == e


def _json_with(path, value):
    """The JSON of h1*X_1_1*Y_1_1 with the field at path set to value."""
    data = element_to_json(multiply(gen("X_1_1"), gen("Y_1_1")).scale(Scalar.symbol("h1")))
    *outer, last = path
    owner = data
    for key in outer:
        owner = owner[key]
    owner[last] = value
    return data


_INTEGER_FIELDS = {
    "dof_per_sector": (("signature", "dof_per_sector"), "dof"),
    "exponent": (("terms", 0, "exponents", "X_1_1"), "exponent of X_1_1"),
    "h1_pow": (("terms", 0, "coeff", "h1_pow"), "h1_pow"),
    "h2_pow": (("terms", 0, "coeff", "h2_pow"), "h2_pow"),
}


@pytest.mark.parametrize("value", [1.5, 2.7, 1.0, True, "1"])
@pytest.mark.parametrize("path, field", _INTEGER_FIELDS.values(),
                         ids=_INTEGER_FIELDS.keys())
def test_element_json_integer_fields_must_be_integers(path, field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        element_from_json(_json_with(path, value))


@pytest.mark.parametrize("field", ["h1_pow", "h2_pow"])
@pytest.mark.parametrize("value", [-1, -3])
def test_element_json_refuses_negative_planck_powers(field, value):
    with pytest.raises(ValueError, match=f"{field} must be nonnegative, got {value}"):
        element_from_json(_json_with(("terms", 0, "coeff", field), value))


def test_every_element_json_that_loads_round_trips():
    """Every document element_from_json accepts, element_to_json writes
    back, and the written document loads as the same element."""
    variants = [element_to_json(rand_element(random.Random(seed), GroupSignature(dof),
                                             max_degree=3).scale(Scalar.symbol(sym)))
                for seed, dof, sym in ((1, 1, "h1"), (2, 2, "h2"), (3, 1, "h2"))]
    for path, _ in _INTEGER_FIELDS.values():
        for value in (-2, -1, 0, 1, 3, 1.5, True, "1"):
            variants.append(_json_with(path, value))
    loaded = 0
    for data in variants:
        try:
            e = element_from_json(data)
        except ValueError:
            continue
        loaded += 1
        written = element_to_json(e)
        assert element_from_json(written) == e
        assert element_to_json(element_from_json(written)) == written
    assert loaded >= len(_INTEGER_FIELDS) * 3


@pytest.mark.parametrize("dof", [1.5, 2.0, True])
def test_signature_dof_must_be_an_integer(dof):
    with pytest.raises(ValueError, match="dof must be an integer"):
        GroupSignature(dof)


def test_element_json_rejects_unencodable_coefficients():
    from pbracket.scalars import S_ONE, Scalar
    # denominators have no place in the schema
    with pytest.raises(ValueError):
        element_to_json(Element.one(SIG).scale(S_ONE / Scalar.symbol("h1")))
    # the single-Planck symbol belongs to the represented side
    with pytest.raises(ValueError):
        element_to_json(Element.one(SIG).scale(Scalar.symbol("h")))


def test_monomial_constructor_width_check():
    with pytest.raises(ValueError):
        Element.monomial(SIG, (1, 0, 0))
