"""Command-line interface.

Commands:

    bracket universal <e1> <e2>
    bracket qc <e1> <e2> [--hbar SYM|RAT]
    rep qq <e> [--h1 RAT] [--h2 RAT]
    rep qc <e>
    mechanise <classical-expr>
    heff <h1> <h2>
    oracle check [--seed N]
    calibrate [--out PATH]
    verify paper [--seed N]

Global flags (before or after the command): --json for machine-readable
output, --signature n=<dof> to size the group, --config <path> for a stored
configuration (the PBRACKET_CONFIG environment variable is the fallback).

Exit codes: 0 on success, 1 when a verification or computation fails (an
unexpected internal exception included), 2 on usage or expression errors
(an expression over the size bounds of expressions.py, a bracket over
MAX_BRACKET_PAIRS term pairs, a dof over MAX_DOF, a rational argument
over MAX_RATIONAL_DIGITS digits, a configuration file that cannot be read
or has a field of the wrong shape, and a calibrate --out path that cannot
be written included).

Expression arguments accept both classical phase-space polynomials (q1, p2,
...) and delta kernels (delta[x1,y1]); classical inputs to bracket and rep
commands are mechanised with the Weyl rule first.
"""

from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction
from typing import List, Optional

from .errors import ExpressionTooLarge, ExprError, PBracketError
from .config import MAX_DOF, EngineConfig, resolve_config
from .expressions import evaluate
from .group_algebra import Element, element_to_json
from .pmech import mechanise_weyl, universal_bracket
from .representations import rep_qc, rep_qq
from .qc_bracket import h_eff, qc_bracket

__all__ = ["main", "build_parser"]

_DEFAULT_SEED = 2024

# Term pairs of the mechanised inputs a bracket may expand: (q1+p1+q2+p2)^5
# at n=2 (108 terms, 11 664 pairs) takes about 0.7 s, ^6 (35 344) is refused.
MAX_BRACKET_PAIRS = 20000

# Digits of the numerator or the denominator of a rational argument (heff,
# --hbar, --h1, --h2).  A MAX_DEGREE input reaches h^30 in a printed
# coefficient, and Python turns no int of more than 4 300 digits into text;
# 30 * 128 digits, and the coefficient's own, stay below that.
MAX_RATIONAL_DIGITS = 128

# What Fraction(text) accepts, loosened: digits and underscores in every part.
_RATIONAL_RE = re.compile(r"\s*[-+]?(?P<num>[\d_]*)(?:/(?P<den>\d[\d_]*)"
                          r"|(?:\.(?P<dec>[\d_]*))?(?:[eE](?P<exp>[-+]?\d[\d_]*))?)\s*")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Argument parser that reads a token starting with a single '-' as an
    option only when it is one ('-h'), so negative expressions such as -1/2
    or -q1 need no '--' in front.  Subcommand parsers inherit the class."""

    def _parse_optional(self, arg_string):
        if (arg_string.startswith("-") and not arg_string.startswith("--")
                and arg_string not in self._option_string_actions):
            return None
        return super()._parse_optional(arg_string)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="emit machine-readable JSON")
    common.add_argument("--signature", metavar="n=DOF", default=argparse.SUPPRESS,
                        help="degrees of freedom per sector, e.g. n=2")
    common.add_argument("--config", metavar="PATH", default=argparse.SUPPRESS,
                        help="configuration file (overrides PBRACKET_CONFIG)")

    parser = _Parser(
        prog="pbracket", parents=[common],
        description="Convolution-algebra bracket engine for coupled "
                    "quantum-quantum and quantum-classical systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    bracket = sub.add_parser("bracket", parents=[common],
                             help="universal or quantum-classical bracket")
    bsub = bracket.add_subparsers(dest="variant", required=True)
    b_uni = bsub.add_parser("universal", parents=[common])
    b_uni.add_argument("e1")
    b_uni.add_argument("e2")
    b_qc = bsub.add_parser("qc", parents=[common])
    b_qc.add_argument("e1")
    b_qc.add_argument("e2")
    b_qc.add_argument("--hbar", default=None, metavar="SYM|RAT",
                      help="substitute a rational value, or 'sym' to keep symbolic")

    rep = sub.add_parser("rep", parents=[common],
                         help="represent an observable on the operator side")
    rsub = rep.add_subparsers(dest="variant", required=True)
    r_qq = rsub.add_parser("qq", parents=[common])
    r_qq.add_argument("expr")
    r_qq.add_argument("--h1", default=None, metavar="RAT")
    r_qq.add_argument("--h2", default=None, metavar="RAT")
    r_qc = rsub.add_parser("qc", parents=[common])
    r_qc.add_argument("expr")

    mech = sub.add_parser("mechanise", parents=[common],
                          help="classical polynomial to convolution kernel")
    mech.add_argument("expr")

    heff_p = sub.add_parser("heff", parents=[common],
                            help="effective Planck constant of the composite")
    heff_p.add_argument("h1")
    heff_p.add_argument("h2")

    oracle = sub.add_parser("oracle", parents=[common],
                            help="independent numerical cross-checks")
    osub = oracle.add_subparsers(dest="variant", required=True)
    o_check = osub.add_parser("check", parents=[common])
    o_check.add_argument("--seed", type=int, default=_DEFAULT_SEED)

    cal = sub.add_parser("calibrate", parents=[common],
                         help="search the convention-tuple space")
    cal.add_argument("--out", default=None, metavar="PATH",
                     help="write the chosen tuple as a configuration file")

    ver = sub.add_parser("verify", parents=[common],
                         help="run the full verification suite")
    vsub = ver.add_subparsers(dest="variant", required=True)
    v_paper = vsub.add_parser("paper", parents=[common])
    v_paper.add_argument("--seed", type=int, default=_DEFAULT_SEED)

    return parser


# ---------------------------------------------------------------------------
# argument coercion helpers


def _fraction_arg(text: str, what: str) -> Fraction:
    _check_rational_size(text, what)
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise _UsageError(f"{what} must be a rational number, got {text!r}") from exc


def _check_rational_size(text: str, what: str) -> None:
    """Refuse a rational whose numerator or denominator could have more than
    MAX_RATIONAL_DIGITS digits, judged from the text: Fraction would build
    10**exponent for any exponent it is given.  Text the pattern does not
    match is not a rational, and Fraction refuses it."""
    m = _RATIONAL_RE.fullmatch(text)
    if m is None:
        return
    num, den, dec, exp = (part.replace("_", "") if part else ""
                          for part in m.group("num", "den", "dec", "exp"))
    if m.group("den") is not None:
        digits = max(len(num.lstrip("0")), len(den.lstrip("0")))
    elif len(exp.lstrip("+-").lstrip("0")) > 9:
        digits = MAX_RATIONAL_DIGITS + 1
    else:
        # mantissa * 10**shift: its numerator and its denominator each
        # have at most len(mantissa) + |shift| digits
        shift = int(exp or 0) - len(dec)
        digits = len((num + dec).lstrip("0")) + abs(shift)
    if digits > MAX_RATIONAL_DIGITS:
        raise _UsageError(f"{what} is too large: its numerator or denominator would "
                          f"have more than {MAX_RATIONAL_DIGITS} digits")


def _optional_fraction(text: Optional[str], what: str) -> Optional[Fraction]:
    return None if text is None else _fraction_arg(text, what)


def _hbar_arg(text: Optional[str]) -> Optional[Fraction]:
    if text is None or text in ("sym", "h"):
        return None
    return _fraction_arg(text, "--hbar")


def _signature_dof(text: str) -> int:
    head, sep, tail = text.partition("=")
    if head.strip() != "n" or not sep:
        raise _UsageError(f"--signature expects n=<dof>, got {text!r}")
    try:
        dof = int(tail)
    except ValueError:
        raise _UsageError(f"--signature expects an integer dof, got {tail!r}") from None
    if not 1 <= dof <= MAX_DOF:
        raise _UsageError(f"--signature dof must be from 1 to {MAX_DOF}, got {dof}")
    return dof


def _element_arg(text: str, sig) -> Element:
    result = evaluate(text, sig)
    if result.kind == "classical":
        return mechanise_weyl(sig, result.value)
    return result.value


def _emit(ns: argparse.Namespace, payload, text: str) -> None:
    if ns.json:
        import json
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


# ---------------------------------------------------------------------------
# command handlers


def _cmd_bracket(ns: argparse.Namespace, cfg: EngineConfig) -> int:
    sig = cfg.signature()
    k1 = _element_arg(ns.e1, sig)
    k2 = _element_arg(ns.e2, sig)
    pairs = len(k1.terms) * len(k2.terms)
    if pairs > MAX_BRACKET_PAIRS:
        raise ExpressionTooLarge(f"bracket would reach {pairs} term pairs, above the "
                                 f"limit of {MAX_BRACKET_PAIRS}")
    if ns.variant == "universal":
        result = universal_bracket(k1, k2)
        _emit(ns, result.to_json(), str(result))
        return 0
    hbar = _hbar_arg(ns.hbar)
    result = qc_bracket(rep_qc(k1), rep_qc(k2), hbar=hbar)
    _emit(ns, result.to_json(), str(result))
    return 0


def _cmd_rep(ns: argparse.Namespace, cfg: EngineConfig) -> int:
    sig = cfg.signature()
    k = _element_arg(ns.expr, sig)
    if ns.variant == "qq":
        result = rep_qq(k,
                        h1=_optional_fraction(ns.h1, "--h1"),
                        h2=_optional_fraction(ns.h2, "--h2"))
    else:
        result = rep_qc(k)
    _emit(ns, result.to_json(), str(result))
    return 0


def _cmd_mechanise(ns: argparse.Namespace, cfg: EngineConfig) -> int:
    sig = cfg.signature()
    result = evaluate(ns.expr, sig)
    if result.kind != "classical":
        raise _UsageError("mechanise expects a classical phase-space expression")
    element = mechanise_weyl(sig, result.value)
    _emit(ns, element_to_json(element), str(element))
    return 0


def _cmd_heff(ns: argparse.Namespace, cfg: EngineConfig) -> int:
    value = h_eff(_fraction_arg(ns.h1, "h1"), _fraction_arg(ns.h2, "h2"))
    _emit(ns, {"h_eff": [value.numerator, value.denominator]}, str(value))
    return 0


def _cmd_oracle(ns: argparse.Namespace, cfg: EngineConfig) -> int:
    from .oracle import oracle_check
    reports = oracle_check(ns.seed, sig=cfg.signature())
    if ns.json:
        import json
        print(json.dumps([r.to_json() for r in reports], sort_keys=True))
    else:
        for r in reports:
            print(f"{r.status:4s} {r.check} (max error {r.max_abs_error:.3e}, "
                  f"inputs-hash {r.inputs_hash})")
            if r.failures:
                print(f"     {r.failures} failing instances; first: {r.counterexample}")
    return 0 if all(r.ok for r in reports) else 1


def _cmd_calibrate(ns: argparse.Namespace, cfg: EngineConfig) -> int:
    from .calibration import calibration_report
    from .config import save_config
    try:
        if ns.out is not None:
            # fails before the report; append mode truncates nothing,
            # and creates nothing when refused
            open(ns.out, "a").close()
        report = calibration_report(cfg.dof)
        if ns.out is not None:
            save_config(EngineConfig(report.chosen, cfg.dof), ns.out)
    except OSError as exc:
        raise _UsageError(f"cannot write configuration: {exc}") from exc
    _emit(ns, report.to_json(), report.render())
    return 0


def _cmd_verify(ns: argparse.Namespace, cfg: EngineConfig) -> int:
    from .verify import run_verify
    report = run_verify(seed=ns.seed, config=cfg)
    _emit(ns, report.to_json(), report.render())
    return 0 if report.ok else 1


_HANDLERS = {
    "bracket": _cmd_bracket,
    "rep": _cmd_rep,
    "mechanise": _cmd_mechanise,
    "heff": _cmd_heff,
    "oracle": _cmd_oracle,
    "calibrate": _cmd_calibrate,
    "verify": _cmd_verify,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    defaults = argparse.Namespace(json=False, signature=None, config=None)
    try:
        ns = parser.parse_args(argv, namespace=defaults)
    except SystemExit as exc:
        # argparse exits on usage errors (and on --help); keep main returning
        return int(exc.code or 0)

    try:
        cfg = resolve_config(ns.config)
        if ns.signature is not None:
            cfg = EngineConfig(cfg.convention, _signature_dof(ns.signature))
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot load configuration: {exc}", file=sys.stderr)
        return 2

    try:
        return _HANDLERS[ns.command](ns, cfg)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ExprError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PBracketError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        # Any other failure is a defect in the engine; report it on one line
        # with exit 1 rather than as a traceback.
        print(f"error: internal {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
