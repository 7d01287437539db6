"""Small expression language for observables.

Grammar (whitespace insignificant):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | atom ('^' uint)?
    atom   := number | 'i' | csym | delta | '(' expr ')'
    number := uint ('/' uint)?
    csym   := ('q' | 'p') digit index?
    delta  := 'delta[' var (',' var)* ']'
    var    := ('x' | 'y') digit index? | 's' digit
    index  := '0' | nonzero-digit digit*

A csym names a phase-space coordinate: the digit is the sector, the index
the degree of freedom, 1 when omitted, so q2_10 and q210 both name sector 2,
dof 10.  A delta var is s1, s2 or an x/y name read the same way.
Underscores in a name are ignored.  group_algebra.parse_var owns this
grammar and the range checks of a name.  Unary minus, the imaginary literal
'i' and rational literals extend the minimal grammar; everything the minimal
grammar accepts parses identically.

The parser evaluates as it goes: every rule returns a value, either a
ClassicalPoly (phase-space symbols) or an Element (delta kernels), and
combines at each operator token.  The two atom families cannot be mixed in
one expression; pure numbers land on the classical side as constants.

Every error carries the offending line and column, and the first error met
from left to right is the one reported.  Parse errors and mixing are
ExprSyntaxError (a builtin SyntaxError subclass), unrecognized names raise
UnknownSymbol, out-of-bounds sector or dof digits raise IndexOutOfRange, and
a product or power beyond the size bounds below raises ExpressionTooLarge
before it is expanded, and so does nesting past MAX_NESTING.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from math import comb
from typing import List, NamedTuple, Optional, Tuple, Union

from .errors import ExpressionTooLarge, ExprSyntaxError, IndexOutOfRange, UnknownSymbol
from .scalars import CRat, CR_I
from .group_algebra import Element, GroupSignature, parse_var
from .pmech import ClassicalPoly

__all__ = ["evaluate", "EvalResult", "MAX_DEGREE", "MAX_NESTING", "MAX_TERMS"]

# Size bounds on '^' and '*', checked before the step is expanded.  The
# largest inputs in the tests, the CLI goldens and the benchmark have total
# degree 11 (`mechanise "q1^6*p1^5"`) and multiply single terms, so the
# bounds leave room above them.  They also keep accepted steps cheap: the
# costliest accepted power tried, four delta kernels to the 16th at dof 1
# (6 501 terms after normal ordering), evaluates in 1.6 s on a 2-core Xeon
# under Python 3.11, and `pbracket --signature n=2 mechanise
# "(q1+p1+q2+p2)^16"` (969 terms) runs in 1.1 s.  An exponent counts times the
# exponents already applied inside its base, so nested powers such as
# ((9^16)^16)^16 cannot grow a number's digits without bound.
MAX_DEGREE = 16     # exponent and total degree of a product or power
MAX_TERMS = 2000    # estimated term count of a product or power

# Open '(' and unary '-' levels: the parser recurses a few frames per level,
# so the bound keeps it well inside the interpreter's recursion limit.
MAX_NESTING = 100


# ---------------------------------------------------------------------------
# tokenizer


class _Token(NamedTuple):
    kind: str          # "num", "name", "op", "end"
    value: str
    line: int
    col: int


# One alternative per token kind; "space" is every str.isspace character but
# the newline, which starts a line.
_TOKEN_RE = re.compile(r"(?P<newline>\n)|(?P<space>[^\S\n]+)|(?P<num>[0-9]+)"
                       r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*^()\[\],/])")


def _tokenize(src: str) -> List[_Token]:
    tokens: List[_Token] = []
    line, line_start, pos = 1, 0, 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {src[pos]!r}", line, pos - line_start + 1)
        kind, pos = m.lastgroup, m.end()
        if kind == "newline":
            line, line_start = line + 1, pos
        elif kind != "space":
            tokens.append(_Token(kind, m.group(), line, m.start() - line_start + 1))
    tokens.append(_Token("end", "", line, pos - line_start + 1))
    return tokens


# ---------------------------------------------------------------------------
# parser-evaluator


_MIX_MSG = "cannot mix phase-space symbols and delta kernels"
_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul}


class _Value(NamedTuple):
    kind: str           # "n" number (a CRat), "c" ClassicalPoly, "e" Element
    value: object
    weight: int         # product of the exponents applied inside, at least 1

    def size(self) -> Tuple[int, int]:
        """(total degree, term count); numbers and zero count as one term."""
        if self.kind == "n":
            return 0, 1
        return self.value.degree(), max(len(self.value.terms), 1)


def _shown(tok: _Token) -> str:
    return tok.value or "end of input"


def _limit(tok: _Token, what: str, value: int, limit: int) -> None:
    """Refuse the step at operator tok when value exceeds limit."""
    if value > limit:
        raise ExpressionTooLarge(f"{tok.value!r} would reach {what} {value}, "
                                 f"above the limit of {limit}", tok.line, tok.col)


def _int(tok: _Token) -> int:
    try:
        return int(tok.value)
    except ValueError:      # more digits than the interpreter converts
        raise ExpressionTooLarge(f"number of {len(tok.value)} digits is too long",
                                 tok.line, tok.col) from None


class _Parser:
    def __init__(self, tokens: List[_Token], sig: GroupSignature):
        self.tokens = tokens
        self.pos = 0
        self.sig = sig
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def accept(self, ops: str) -> Optional[_Token]:
        """Consume and return the next token if it is one of the operators."""
        tok = self.peek()
        if tok.kind == "op" and tok.value in ops:
            return self.advance()
        return None

    def expect_op(self, op: str) -> None:
        if self.accept(op) is None:
            tok = self.peek()
            raise ExprSyntaxError(f"expected {op!r}, found {_shown(tok)!r}", tok.line, tok.col)

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ExprSyntaxError(f"expected {what}, found {_shown(tok)!r}", tok.line, tok.col)
        return self.advance()

    def nested(self, tok: _Token, rule, *args) -> _Value:
        """rule(*args) one '(' or unary '-' level deeper, refused at tok past MAX_NESTING."""
        self.depth += 1
        _limit(tok, "nesting depth", self.depth, MAX_NESTING)
        value = rule(*args)
        self.depth -= 1
        return value

    # grammar rules ---------------------------------------------------------

    def expr(self) -> _Value:
        acc = self.term()
        while (tok := self.accept("+-")) is not None:
            acc = self.combine(acc, self.term(), tok)
        return acc

    def term(self) -> _Value:
        acc = self.factor()
        while (tok := self.accept("*")) is not None:
            acc = self.combine(acc, self.factor(acc, tok), tok)
        return acc

    def factor(self, left: Optional[_Value] = None, star: Optional[_Token] = None) -> _Value:
        """A factor; when it is the right operand of the product token star,
        a power whose own limits pass is refused by star's degree limit
        before it is expanded, as combine would refuse it after."""
        if (tok := self.accept("-")) is not None:
            kind, value, weight = self.nested(tok, self.factor, left, star)
            return _Value(kind, -value, weight)
        base = self.atom()
        tok = self.accept("^")
        if tok is None:
            return base
        k = _int(self.expect("num", "integer exponent"))
        weight = base.weight * max(k, 1)
        degree, terms = base.size()
        _limit(tok, "exponent or degree", max(weight, degree * k), MAX_DEGREE)
        _limit(tok, "term count", comb(terms + k - 1, k), MAX_TERMS)
        if star is not None and {left.kind, base.kind} != {"c", "e"}:
            # exact: the degree of a power is k times its base's, both rings being domains
            _limit(star, "degree", left.size()[0] + degree * k, MAX_DEGREE)
        return _Value(base.kind, base.value ** k, weight)

    def atom(self) -> _Value:
        tok = self.advance()
        if tok.kind == "num":
            value = Fraction(_int(tok))
            if self.accept("/") is not None:
                dtok = self.expect("num", "integer denominator")
                if _int(dtok) == 0:
                    raise ExprSyntaxError("zero denominator", dtok.line, dtok.col)
                value = value / _int(dtok)
            return _Value("n", CRat(value), 1)
        if tok.kind == "op" and tok.value == "(":
            inner = self.nested(tok, self.expr)
            self.expect_op(")")
            return inner
        if tok.kind == "name":
            if tok.value == "i":
                return _Value("n", CR_I, 1)
            if tok.value == "delta":
                return _Value("e", self.delta(), 1)
            var = ClassicalPoly.var(self.sig.dof, *self.var(tok, "qp", "unknown symbol"))
            return _Value("c", var, 1)
        raise ExprSyntaxError(f"unexpected {_shown(tok)!r}", tok.line, tok.col)

    def delta(self) -> Element:
        """The kernel of the delta[...] list after the 'delta' token."""
        self.expect_op("[")
        mono = [0] * self.sig.width
        while True:
            tok = self.expect("name", "variable name")
            mono[self.sig.var_index(*self.var(tok, "sxy", "unknown delta variable"))] += 1
            if self.accept(",") is None:
                self.expect_op("]")
                return Element.monomial(self.sig, mono, self.sig.unit_factor(mono))

    def var(self, tok: _Token, letters: str, unknown: str) -> Tuple[str, int, int]:
        """(letter, sector, dof index) of the name token tok, checked against
        the signature."""
        try:
            parsed = parse_var(tok.value, self.sig.dof, letters)
        except ValueError as exc:
            raise IndexOutOfRange(str(exc), tok.line, tok.col) from None
        if parsed is None:
            raise UnknownSymbol(f"{unknown} {tok.value!r}", tok.line, tok.col)
        return parsed

    # combining values --------------------------------------------------------

    def combine(self, a: _Value, b: _Value, tok: _Token) -> _Value:
        """a op b for the operator token tok, lifting a number to the other
        operand's side."""
        kinds = {a.kind, b.kind}
        if kinds == {"c", "e"}:
            raise ExprSyntaxError(_MIX_MSG, tok.line, tok.col)
        if tok.value == "*":
            (da, na), (db, nb) = a.size(), b.size()
            _limit(tok, "degree", da + db, MAX_DEGREE)
            _limit(tok, "term count", na * nb, MAX_TERMS)
        op = _ARITH[tok.value]
        weight = max(a.weight, b.weight)
        if kinds == {"n"}:
            return _Value("n", op(a.value, b.value), weight)
        kind = "e" if "e" in kinds else "c"
        return _Value(kind, op(self.lift(a, kind), self.lift(b, kind)), weight)

    def lift(self, v: _Value, kind: str):
        if v.kind == kind:
            return v.value
        if kind == "c":
            return ClassicalPoly.constant(self.sig.dof, v.value)
        return Element.one(self.sig).scale(v.value)


class EvalResult(NamedTuple):
    kind: str                                   # "classical" or "element"
    value: Union[ClassicalPoly, Element]


def evaluate(src: str, sig: GroupSignature) -> EvalResult:
    """Evaluate source text over the given signature.

    Expressions built from numbers and q/p symbols produce a ClassicalPoly;
    expressions with delta kernels produce an Element (products are the
    noncommutative convolution).  Pure numbers count as classical constants.
    Sector and dof digits are validated against the signature.
    """
    parser = _Parser(_tokenize(src), sig)
    kind, value, _ = parser.expr()
    tail = parser.peek()
    if tail.kind != "end":
        raise ExprSyntaxError(f"unexpected {_shown(tail)!r} after expression",
                              tail.line, tail.col)
    if kind == "n":
        return EvalResult("classical", ClassicalPoly.constant(sig.dof, value))
    return EvalResult("classical" if kind == "c" else "element", value)
