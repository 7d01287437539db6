"""Expression front end: grammar, error positions, size bounds, and
evaluation into classical polynomials or algebra elements."""

import random
import sys
from fractions import Fraction

import pytest

from pbracket import cli, sampling
from pbracket.errors import (ExpressionTooLarge, ExprSyntaxError,
                             IndexOutOfRange, UnknownSymbol)
from pbracket.expressions import MAX_DEGREE, MAX_NESTING, MAX_TERMS, evaluate
from pbracket.scalars import CRat, CR_I
from pbracket.group_algebra import Element, GroupSignature, delta_to_element, var_names
from pbracket.pmech import ClassicalPoly, mechanise_weyl

SIG = GroupSignature(dof=1)


def value(src, sig=SIG):
    return evaluate(src, sig).value


def q(sector, i=1, dof=1):
    return ClassicalPoly.var(dof, "q", sector, i)


def p(sector, i=1, dof=1):
    return ClassicalPoly.var(dof, "p", sector, i)


def const(c, dof=1):
    return ClassicalPoly.constant(dof, c)


def test_parse_power_of_symbol():
    assert value("q1^2") == q(1) * q(1)


def test_parse_delta_kernel():
    assert value("delta[x1,x1]") == delta_to_element(SIG, ("x1", "x1"))


def test_parse_trailing_operator_is_syntax_error():
    with pytest.raises(ExprSyntaxError):
        evaluate("q1^", SIG)


def test_parse_precedence_shapes():
    assert value("q1 + p1*q2") == q(1) + p(1) * q(2)
    assert value("-q1^2") == -(q(1) ** 2)
    assert value("-q1^2") != value("(-q1)^2")
    assert value("(q1 + p1)^3") == (q(1) + p(1)) ** 3
    assert value("q1 - p1 - q2") == (q(1) - p(1)) - q(2)
    assert value("(q1-p1)-q2") != value("q1-(p1-q2)")
    assert value("2*q1^2") == (q(1) ** 2).scale(2)
    assert value("delta[x1]*delta[y1]^2") == (
        delta_to_element(SIG, ["x1"]) * delta_to_element(SIG, ["y1"]) ** 2)


def test_parse_numbers():
    assert value("3") == const(3)
    assert value("1/2") == const(Fraction(1, 2))
    assert value("i") == const(CR_I)
    assert value("2*i*q1") == q(1).scale(CRat(0, 2))
    assert value("-(-3)^3") == const(27)
    with pytest.raises(ExprSyntaxError):
        evaluate("1/0", SIG)


def test_parse_dof_digits():
    sig2 = GroupSignature(dof=2)
    assert value("q21", sig2) == q(2, 1, dof=2)
    assert value("p12", sig2) == p(1, 2, dof=2)
    with pytest.raises(IndexOutOfRange):
        evaluate("q12", SIG)
    with pytest.raises(IndexOutOfRange):
        evaluate("q3", SIG)
    assert value("q_2_1", sig2) == q(2, 1, dof=2)
    with pytest.raises(IndexOutOfRange, match="dof index in 'q110' outside 1..1"):
        evaluate("q110", SIG)
    with pytest.raises(UnknownSymbol):      # a dof index has no leading zero
        evaluate("q101", SIG)


@pytest.mark.parametrize("dof", (1, 2, 9, 10, 12, 64))
def test_every_printed_name_parses_back(dof):
    """Each variable name the printers emit reads back at its dof: a delta
    name to its kernel, a q/p name to its variable, one and two digit dof
    indices alike."""
    sig = GroupSignature(dof)
    for name in sig.delta_names:
        assert value(f"delta[{name}]", sig) == delta_to_element(sig, [name]), name
    names = iter(var_names(dof, "qp"))
    for sector in (1, 2):
        for i in range(1, dof + 1):
            for kind in "qp":
                name = next(names)
                assert value(name, sig) == ClassicalPoly.var(dof, kind, sector, i), name


def test_two_digit_dof_indices_with_underscores_and_printed_elements():
    sig = GroupSignature(12)
    assert value("q_2_10", sig) == value("q210", sig) == ClassicalPoly.var(12, "q", 2, 10)
    assert value("p1_12", sig) == ClassicalPoly.var(12, "p", 1, 12)
    assert value("delta[x_2_10, y_1_12]", sig) == delta_to_element(sig, ["x210", "y112"])
    assert value("delta[x_2_10]", sig) == delta_to_element(sig, ["x_2_10"])
    rng = random.Random(2026)
    for _ in range(20):
        e = mechanise_weyl(sig, sampling.rand_classical(rng, 12, max_degree=4))
        assert value(str(e), sig) == e, str(e)
    e = mechanise_weyl(sig, value("q2_10*p2_10", sig))
    assert str(e) == "delta[x210,y210] + (1/2)*delta[s2]"
    assert value(str(e), sig) == e


def test_parse_delta_variables():
    assert value("delta[s2]") == delta_to_element(SIG, ["s2"])
    assert value("delta[x_1, y_1]") == delta_to_element(SIG, ["x1", "y1"])
    with pytest.raises(UnknownSymbol):
        evaluate("delta[z1]", SIG)
    with pytest.raises(UnknownSymbol):
        evaluate("delta[s11]", SIG)
    with pytest.raises(IndexOutOfRange):
        evaluate("delta[x12]", SIG)
    with pytest.raises(IndexOutOfRange):
        evaluate("delta[s3]", SIG)
    with pytest.raises(ExprSyntaxError):
        evaluate("delta[]", SIG)
    with pytest.raises(ExprSyntaxError):
        evaluate("delta[x1", SIG)


def test_unknown_symbol_and_positions():
    with pytest.raises(UnknownSymbol):
        evaluate("foo", SIG)
    with pytest.raises(UnknownSymbol) as err:
        evaluate("q1 + foo", SIG)
    assert (err.value.line, err.value.col) == (1, 6)
    with pytest.raises(UnknownSymbol) as err:
        evaluate("q1 +\nbar", SIG)
    assert (err.value.line, err.value.col) == (2, 1)
    with pytest.raises(ExprSyntaxError):
        evaluate("q1 q2", SIG)
    with pytest.raises(ExprSyntaxError):
        evaluate("", SIG)
    with pytest.raises(ExprSyntaxError):
        evaluate("q1^p1", SIG)


def test_first_error_from_the_left_is_reported():
    # the mixing error at '+' comes before the stray ')'
    with pytest.raises(ExprSyntaxError) as err:
        evaluate("q1 + delta[s1])", SIG)
    assert "cannot mix" in str(err.value)
    assert (err.value.line, err.value.col) == (1, 4)
    with pytest.raises(ExprSyntaxError) as err:
        evaluate("q1 + p1)", SIG)
    assert "after expression" in str(err.value)


def test_syntax_error_is_a_syntax_error():
    assert issubclass(ExprSyntaxError, SyntaxError)


def test_evaluate_classical():
    out = evaluate("q1^2 + 3*p2", SIG)
    assert out.kind == "classical"
    assert out.value == q(1) ** 2 + p(2).scale(3)


def test_evaluate_element():
    out = evaluate("2*delta[x1,y1] + delta[s1]", SIG)
    assert out.kind == "element"
    expected = (delta_to_element(SIG, {"x1": 1, "y1": 1}).scale(2)
                + delta_to_element(SIG, {"s1": 1}))
    assert out.value == expected
    assert value("delta[s1] - 1") == delta_to_element(SIG, ["s1"]) - Element.one(SIG)


def test_evaluate_pure_number_is_classical_constant():
    out = evaluate("3/4", SIG)
    assert out.kind == "classical"
    assert out.value == const(Fraction(3, 4))


def test_evaluate_rejects_mixed_expressions():
    with pytest.raises(ExprSyntaxError) as err:
        evaluate("q1 + delta[s1]", SIG)
    assert "cannot mix" in str(err.value)
    with pytest.raises(ExprSyntaxError):
        evaluate("delta[x1]*p1", SIG)


def test_evaluate_delta_products_convolve():
    # delta[x1] * delta[y1] versus the opposite order differ by the central term
    ab = evaluate("delta[x1]*delta[y1]", SIG).value
    ba = evaluate("delta[y1]*delta[x1]", SIG).value
    comm = ab - ba
    assert comm == delta_to_element(SIG, {"s1": 1}).scale(
        SIG.convention.eps_comm * SIG.convention.kappa_x * SIG.convention.kappa_y
        / SIG.convention.kappa_s)


def test_size_bounds_refuse_before_expanding():
    sig2 = GroupSignature(dof=2)
    cases = [
        ("q1^100000000", SIG, (1, 3)),
        ("3^100000000", SIG, (1, 2)),
        ("(q1+p1+q2+p2)^24", sig2, (1, 14)),
        (f"q1^{MAX_DEGREE}*p1", SIG, (1, 6)),
        ("((9^4)^4)^4", SIG, (1, 10)),
        ("(q1^0)^100000000", SIG, (1, 7)),
        ("(delta[x1]+delta[y1])^9 * (delta[x2]+delta[y2])^9", SIG, (1, 25)),
        ("(q11+p11+q12+p12+q21+p21+q22+p22)^8", sig2, (1, 34)),
    ]
    for src, sig, pos in cases:
        with pytest.raises(ExpressionTooLarge) as err:
            evaluate(src, sig)
        assert (err.value.line, err.value.col) == pos, src


def test_product_refuses_a_power_on_its_right_before_expanding_it(monkeypatch):
    """'*' checks the exact degree of a power on its right before the power
    is expanded, with the message and position of the check after it;
    operands that cannot be mixed still report the mixing."""
    powers = []
    pow_ = ClassicalPoly.__pow__
    monkeypatch.setattr(ClassicalPoly, "__pow__",
                        lambda self, k: powers.append(k) or pow_(self, k))
    for src in ("(q1+p1+q2+p2+1)^9*(q1+p1+q2+p2+1)^9", "(q1+p1+q2+p2+1)^9*-(q1+p1+q2+p2+1)^9"):
        powers.clear()
        with pytest.raises(ExpressionTooLarge) as err:
            evaluate(src, GroupSignature(dof=64))
        assert str(err.value) == ("'*' would reach degree 18, above the limit of 16"
                                  " (line 1, column 18)")
        assert powers == [9]
    with pytest.raises(ExprSyntaxError, match="cannot mix"):
        evaluate("q1^9*delta[x1]^9", SIG)


def test_number_past_the_interpreter_digit_limit_is_too_large():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter converts integers of any length")
    for src, pos in (("1" * (limit + 1), (1, 1)),
                     ("q1^" + "1" * (limit + 1), (1, 4)),
                     ("1/" + "1" * (limit + 1), (1, 3))):
        with pytest.raises(ExpressionTooLarge) as err:
            evaluate(src, SIG)
        assert (err.value.line, err.value.col) == pos


def test_nesting_past_the_bound_is_too_large(capsys):
    """The parser recurses once per '(' and unary '-' level: the level past
    MAX_NESTING is refused at its token, well inside the interpreter's
    recursion limit, and the first error from the left still wins."""
    n = MAX_NESTING
    assert value("(" * n + "q1" + ")" * n) == q(1)
    assert value("-" * (n - 1) + "q1") == -q(1)
    assert value("-(" * (n // 2) + "q1" + ")" * (n // 2)) == q(1)
    assert value("+".join(["(-q1)"] * (n + 1))) == const(-(n + 1)) * q(1)
    for src, pos in (("(" * 300 + "q1" + ")" * 300, (1, n + 1)),
                     ("-" * 3000 + "q1", (1, n + 1)),
                     ("q1 +\n" + "-(" * n + "q1" + ")" * n, (2, n + 1)),
                     ("(" * (n + 1) + "q9" + ")" * (n + 1), (1, n + 1))):
        with pytest.raises(ExpressionTooLarge) as err:
            evaluate(src, SIG)
        assert (err.value.line, err.value.col) == pos, src[:8]
    assert str(err.value) == (f"'(' would reach nesting depth {n + 1}, above the limit "
                              f"of {n} (line 1, column {n + 1})")
    with pytest.raises(UnknownSymbol):
        evaluate("z + " + "(" * 300 + "q1" + ")" * 300, SIG)
    for src in ("(" * 300 + "q1" + ")" * 300, "-" * 3000 + "q1"):
        assert cli.main(["mechanise", "--", src]) == 2
        out = capsys.readouterr()
        assert out.out == "" and "nesting depth" in out.err and "internal" not in out.err


def test_size_bounds_accept_up_to_the_limits():
    assert value(f"q1^{MAX_DEGREE}") == q(1) ** MAX_DEGREE
    assert value(f"(q1^2)^{MAX_DEGREE // 2}") == q(1) ** MAX_DEGREE
    assert value(f"3^{MAX_DEGREE}") == const(3 ** MAX_DEGREE)
    assert len(value("(q1+p1+q2+p2)^16", GroupSignature(dof=2)).terms) == 969 <= MAX_TERMS


def test_printed_values_evaluate_back():
    """The printers the CLI writes are read back by the grammar: a classical
    polynomial evaluates to itself, and a real-coefficient element does after
    the CLI mechanises a classical result (a multiple of the identity prints
    as a bare number, which the grammar reads as a classical constant)."""
    rng = random.Random(2024)
    for dof in (1, 2, 3):
        sig = GroupSignature(dof)
        for _ in range(300):
            f = sampling.rand_classical(rng, dof, max_degree=6)
            assert evaluate(str(f), sig).value == f, str(f)
        for _ in range(100):
            e = Element.zero(sig)
            for _ in range(3):
                mono = sampling.rand_group_monomial(rng, sig, max_degree=4)
                e = e + Element.monomial(sig, mono, sampling.rand_crat(rng, allow_imag=False))
            assert cli._element_arg(str(e), sig) == e, str(e)
