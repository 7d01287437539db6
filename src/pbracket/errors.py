"""Exception types shared across the engine.

Every error raised on a documented contract boundary lives here so callers
can catch one hierarchy instead of hunting per-module classes.
"""

from typing import Optional


class PBracketError(Exception):
    """Base class for all engine errors."""


class SignatureMismatch(PBracketError):
    """Two values built over different signatures or conventions were combined."""


class NoConsistentConvention(PBracketError):
    """The calibration search found no convention tuple passing its anchors."""


class UnknownRule(PBracketError):
    """A mechanisation rule name is not registered."""


class ZeroPlanck(PBracketError):
    """A representation was instantiated with a numerically zero Planck constant."""


class SingularTransformation(PBracketError):
    """The effective-Planck transformation degenerates (h1 * h2 == 0)."""


class DivisionByZero(PBracketError, ZeroDivisionError):
    """Exact division by zero (h1 + h2 == 0 in the effective-Planck formula)."""


class NotLocalized(PBracketError):
    """An operation requiring single-sector support was given mixed support."""


class NotMechanised(PBracketError):
    """An element is not in the image of the symmetric mechanisation map."""


class DimensionTooSmall(PBracketError):
    """A matrix truncation is too small for the requested operator degree."""


class UnsupportedConvention(PBracketError):
    """A check cannot run under the configured convention tuple, e.g. the
    matrix oracle's ladders under a real [Q, P] weight."""


class AObservableProductError(PBracketError):
    """Products of antiderivative-carrying observables are undefined."""


class ExprError(PBracketError):
    """Base for expression-language errors; carries the line and column of
    the offending text when there is one, else None for both."""

    def __init__(self, message: str, line: Optional[int] = None, col: Optional[int] = None):
        super().__init__(message if line is None else f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class ExprSyntaxError(ExprError, SyntaxError):
    """Malformed expression text.  Also a builtin SyntaxError so generic
    handlers catch it."""


class UnknownSymbol(ExprError):
    """A name in an expression matches no known symbol."""


class IndexOutOfRange(ExprError):
    """A sector or degree-of-freedom index is outside the signature."""


class ExpressionTooLarge(ExprError):
    """An expression exceeds a size bound: a product or power would grow
    past the parser's limits, or a number has too many digits.  The bracket
    command's bound on term pairs is on two parsed inputs, not on a place in
    either text, so it carries no position."""
