"""Seeded grammar fuzz of the command line.

Draws about 200 invocations of ``bracket``, ``rep``, ``mechanise`` and
``heff`` with plain ``random``: ``--json`` and ``--signature n=k`` (k from
-1 to 70) before or after the command, and valid, malformed and over-bound
rational arguments and expressions.  Every call must end with exit code 0,
1 or 2, print no ``error: internal`` line and return within a wall bound.

A second, smaller grammar draws ``oracle check``, ``calibrate`` and
``verify paper`` with their seeds, configuration files and output paths;
each of those calls takes up to about a second, so it draws 15.
"""

import json
import random
import time

from pbracket.cli import main

SEED = 1212
CALLS = 200
WALL_BOUND_S = 5.0

_MALFORMED_EXPRESSIONS = (
    "", " ", "q1^", "q1^-1", "(q1+p1", "q1+p1)", "q1**2", "q1 p1", "delta[",
    "delta[x1", "delta[]", "delta[z1]", "delta[x1,]", "q1*delta[x1]", "q",
    "q0", "q3", "p13", "q1^q1", "1/0", "3/", "/3", "q1/2", "q1.5", "$", "é",
    "i^i", "((((q1))))^", "delta[x1]^", "delta[s1,s2,s3]", "-", "--q1",
)
_OVER_BOUND_EXPRESSIONS = (
    "(q1+p1)^17", "q1^17", "q1^99999999999", "(q1+p1+q2+p2)^24",
    "(q1^4)^5", "q1^9*p1^9", "(q1+p1+q2+p2+1)^9*(q1+p1+q2+p2+1)^9",
    "1" * 5000, "2^" + "9" * 40, "delta[x1]^17", "(delta[x1]+delta[y1])^20",
)
_VALID_RATIONALS = ("0", "1", "-1", "-2", "3/4", "-5/7", "1.5e-3", "0.25", "1_000",
                    " 7 ", "2e2")
_MALFORMED_RATIONALS = ("", "abc", "1//2", "1/0", "0/0", "nan", "inf", "1e", "--1",
                        "1/2/3", "0x10", "½", "1 / 2")
_OVER_BOUND_RATIONALS = ("1e10000000", "1/" + "3" * 200, "9" * 200, "1e-129",
                         "0." + "0" * 130 + "1", "1e" + "9" * 50)


def _symbol(rng: random.Random, dof: int) -> str:
    # sector digit 1 or 2; a dof digit up to 9, sometimes past the signature
    digit = rng.randint(1, min(max(dof, 1), 9) + (1 if rng.random() < 0.1 else 0))
    name = f"{rng.choice('qp')}{rng.randint(1, 2)}"
    return name if digit == 1 and rng.random() < 0.5 else f"{name}{digit}"


def _number(rng: random.Random) -> str:
    n = str(rng.randint(0, 12))
    return n if rng.random() < 0.7 else f"{n}/{rng.randint(1, 9)}"


def _classical(rng: random.Random, dof: int, depth: int = 0) -> str:
    terms = []
    for _ in range(rng.randint(1, 3)):
        factors = []
        for _ in range(rng.randint(1, 3)):
            roll = rng.random()
            if roll < 0.6:
                atom = _symbol(rng, dof)
            elif roll < 0.8 or depth >= 1:
                atom = rng.choice((_number(rng), "i"))
            else:
                atom = f"({_classical(rng, dof, depth + 1)})"
            if rng.random() < 0.3:
                atom += f"^{rng.randint(0, 3)}"
            factors.append(atom)
        terms.append("*".join(factors))
    text = terms[0]
    for term in terms[1:]:
        text += rng.choice(("+", "-", " + ", " - ")) + term
    return ("-" + text) if rng.random() < 0.15 else text


def _delta(rng: random.Random, dof: int) -> str:
    def var() -> str:
        if rng.random() < 0.2:
            return f"s{rng.randint(1, 2)}"
        return _symbol(rng, dof).replace("q", "x").replace("p", "y")

    kernels = ["delta[" + ",".join(var() for _ in range(rng.randint(1, 3))) + "]"
               for _ in range(rng.randint(1, 2))]
    return rng.choice(("+", "-", "*")).join(kernels)


def _expression(rng: random.Random, dof: int) -> str:
    roll = rng.random()
    if roll < 0.55:
        return _classical(rng, dof)
    if roll < 0.7:
        return _delta(rng, dof)
    if roll < 0.85:
        return rng.choice(_MALFORMED_EXPRESSIONS)
    return rng.choice(_OVER_BOUND_EXPRESSIONS)


def _rational(rng: random.Random) -> str:
    roll = rng.random()
    if roll < 0.6:
        return rng.choice(_VALID_RATIONALS)
    if roll < 0.8:
        return rng.choice(_MALFORMED_RATIONALS)
    return rng.choice(_OVER_BOUND_RATIONALS)


def _invocation(rng: random.Random) -> list:
    k = rng.randint(-1, 70) if rng.random() < 0.4 else rng.randint(1, 3)
    dof = k if 1 <= k <= 64 else 1
    command = rng.choice(("bracket universal", "bracket qc", "rep qq", "rep qc",
                          "mechanise", "heff")).split()
    if command[0] == "heff":
        args = [_rational(rng), _rational(rng)]
    elif command[0] == "bracket":
        args = [_expression(rng, dof), _expression(rng, dof)]
    else:
        args = [_expression(rng, dof)]
    if command == ["bracket", "qc"] and rng.random() < 0.5:
        args += ["--hbar", rng.choice(("sym", "h", _rational(rng)))]
    if command == ["rep", "qq"]:
        for flag in ("--h1", "--h2"):
            if rng.random() < 0.4:
                args += [flag, _rational(rng)]
    if command[0] == "mechanise" and rng.random() < 0.2:
        args += ["--rule", rng.choice(("weyl", "normal", ""))]
    flags = []
    if rng.random() < 0.3:
        flags.append("--json")
    if k != 1 or rng.random() < 0.2:
        flags += ["--signature", f"n={k}"]
    if rng.random() < 0.5:
        return flags + command + args
    return command + args + flags


def _run_all(capsys, argvs, wall_bound_s):
    """Each call that broke the contract, and the exit codes seen."""
    problems, codes = [], {}
    for argv in argvs:
        start = time.perf_counter()
        code = main(argv)
        seconds = time.perf_counter() - start
        out = capsys.readouterr()
        codes[code] = codes.get(code, 0) + 1
        if code not in (0, 1, 2):
            problems.append((argv, f"exit {code}"))
        if "error: internal" in out.err:
            problems.append((argv, out.err.strip()))
        if seconds > wall_bound_s:
            problems.append((argv, f"{seconds:.1f} s"))
    return problems, codes


def test_cli_fuzz_exits_cleanly_and_in_time(capsys):
    rng = random.Random(SEED)
    problems, codes = _run_all(capsys, (_invocation(rng) for _ in range(CALLS)), WALL_BOUND_S)
    assert problems == []
    # the grammar reaches every outcome: results, domain failures, refusals
    assert codes.get(0, 0) >= 40 and codes.get(1, 0) >= 1 and codes.get(2, 0) >= 40, codes


VERIFY_SEED = 1313
VERIFY_CALLS = 15
VERIFY_WALL_BOUND_S = 10.0

_STANDARD = {"eps_comm": "-1", "kappa_x": "+1", "kappa_y": "+1", "kappa_s": "+1",
             "orient": -1, "rep_s_sign": -1}
_CONFIGS = {
    "dof-2": {"convention": _STANDARD, "dof": 2},
    # [Q, P] is real under this tuple, so the matrix oracle refuses it
    "real-gamma": {"convention": {**_STANDARD, "eps_comm": "+i", "kappa_s": "+i"}, "dof": 1},
    "array": [],
    "null-convention": {"convention": None},
    "null-orient": {"convention": {**_STANDARD, "orient": None}},
    "array-dof": {"convention": _STANDARD, "dof": [1]},
    "array-unit": {"convention": {**_STANDARD, "eps_comm": ["x"]}},
    "float-dof": {"convention": _STANDARD, "dof": 1.5},
    "bool-dof": {"convention": _STANDARD, "dof": True},
}


def _verification_plan(rng: random.Random, tmp_path) -> list:
    """VERIFY_CALLS invocations.  The configurations are dealt in a seeded
    order first, so every file is used; the rest of each call is drawn."""
    paths = {}
    for name, data in _CONFIGS.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(data))
    outs = (None, tmp_path / "out.json", tmp_path, tmp_path / "missing" / "out.json")
    deal = [None] + list(paths)
    rng.shuffle(deal)
    plan = []
    for n in range(VERIFY_CALLS):
        config = deal[n] if n < len(deal) else rng.choice((None, "dof-2", "real-gamma"))
        command = rng.choice(("oracle check", "calibrate", "verify paper")).split()
        args = []
        if command[0] != "calibrate" and rng.random() < 0.7:
            args += ["--seed", str(rng.choice((-1, 0, 7, 10 ** 30)))]
        out = rng.choice(outs) if command[0] == "calibrate" else None
        if out is not None:
            args += ["--out", str(out)]
        flags = []
        if rng.random() < 0.3:
            flags.append("--json")
        if rng.random() < 0.5:
            flags += ["--signature", f"n={rng.choice((-1, 0, 1, 2, 65))}"]
        if config is not None:
            flags += ["--config", str(paths[config])]
        plan.append(flags + command + args if rng.random() < 0.5 else command + args + flags)
    return plan


def test_verification_commands_fuzz_exit_cleanly_and_in_time(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("PBRACKET_CONFIG", raising=False)
    plan = _verification_plan(random.Random(VERIFY_SEED), tmp_path)
    problems, codes = _run_all(capsys, plan, VERIFY_WALL_BOUND_S)
    assert problems == []
    assert codes.get(0, 0) >= 1 and codes.get(2, 0) >= 7, codes
