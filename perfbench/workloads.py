"""The three workloads: verify_paper, bracket_session and cli_cold.

Each takes its seed as an argument and makes its inputs with
``pbracket.sampling``.  Each is a closed loop with one caller: the next
operation starts only after the previous one has finished and been checked.
Calls into the engine look their function up on its module at call time, so
the tracing wrappers see them.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import random
import statistics
import sys
import time
import types
from contextlib import nullcontext
from fractions import Fraction
from typing import Dict, Iterator, List, Optional

from harness import Ledger, child_env, python_argv, run_child
from speed import Speed
from tracing import SPAN_MARKER

DEFAULT_SEED = 2024
HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")
VERIFY_REFERENCE = os.path.join(REFERENCE_DIR, "verify_dof1_seed2024.txt")
CLI_REFERENCE = os.path.join(REFERENCE_DIR, "cli_cold_seed2024.jsonl")

# Time limits.  A timeout fails the operation and the run goes on; the limits
# keep a run under three minutes even when every call in it hangs.
VERIFY_LIMIT_S = 35.0
BRACKET_LIMIT_S = 20.0
CLI_LIMIT_S = 30.0
CLI_CHECK_BUDGET_S = 60.0

# Work done by a traced run, fixed so that its counts repeat exactly.
TRACED_BRACKET_OPS = 250
TRACED_CLI_INVOCATIONS = 20


# ---------------------------------------------------------------------------
# Input-property census


def word_orderings(mono) -> int:
    """Distinct orderings of the generator multiset of a classical monomial."""
    orderings = math.factorial(sum(mono))
    for e in mono:
        orderings //= math.factorial(e)
    return orderings


class Census:
    """Properties of the inputs a run mechanised.

    A word is a classical monomial (dof, exponents).  Its generator orderings
    are the distinct permutations of its generator multiset, which is what
    symmetric mechanisation averages over.  A word counts as seen when it was
    mechanised earlier in the same process: the whole session for in-process
    workloads, one invocation for cli_cold.
    """

    def __init__(self):
        self.dof_mix: Dict[int, int] = {}
        self.degree_histogram: Dict[int, int] = {}
        self.max_orderings = 0
        self.words = 0
        self.words_seen = 0

    def add(self, dof: int, poly, seen: set) -> None:
        self.dof_mix[dof] = self.dof_mix.get(dof, 0) + 1
        degree = poly.degree()
        self.degree_histogram[degree] = self.degree_histogram.get(degree, 0) + 1
        for mono in poly.terms:
            if not sum(mono):
                continue
            self.max_orderings = max(self.max_orderings, word_orderings(mono))
            self.words += 1
            key = (dof, mono)
            if key in seen:
                self.words_seen += 1
            else:
                seen.add(key)

    def to_json(self) -> dict:
        return {
            "dof_mix": {str(k): v for k, v in sorted(self.dof_mix.items())},
            "degree_histogram": {str(k): v for k, v in sorted(self.degree_histogram.items())},
            "max_orderings_per_word": self.max_orderings,
            "words": self.words,
            "seen_word_share": round(self.words_seen / self.words, 6) if self.words else 0.0,
        }


# ---------------------------------------------------------------------------
# Coefficients harvested from outputs, for the scalar layer


class Harvest:
    """Distinct coefficients taken from the workload's own outputs.

    ``crat`` holds the values of h-free coefficients, ``const`` the same as
    Scalars, and ``symbolic`` the coefficients that carry a Planck symbol.
    """

    CAP = 256

    def __init__(self):
        self.crat: List = []
        self.const: List = []
        self.symbolic: List = []
        self._seen = set()

    def add(self, value) -> None:
        for coeff in _coefficients(value):
            if len(self.const) >= self.CAP and len(self.symbolic) >= self.CAP:
                return
            if coeff in self._seen:
                continue
            self._seen.add(coeff)
            try:
                value = coeff.as_crat()
            except ValueError:
                if len(self.symbolic) < self.CAP:
                    self.symbolic.append(coeff)
                continue
            if len(self.const) < self.CAP:
                self.const.append(coeff)
                self.crat.append(value)

    def on_result(self, name: str, args: tuple, result) -> None:
        if name in ("group_algebra.commutator", "pmech.mechanise_weyl",
                    "representations.rep_qc", "representations.rep_qq",
                    "representations.weyl_mul", "qc_bracket.qc_bracket"):
            self.add(result)


def _coefficients(value):
    if hasattr(value, "plain"):
        for part in (value.plain, value.a1_part, value.a2_part):
            yield from part.terms.values()
    else:
        yield from value.terms.values()


def _loop_mul(pairs):
    for a, b in pairs:
        a * b


def _loop_add(pairs):
    for a, b in pairs:
        a + b


def _loop_none(pairs):
    for a, b in pairs:
        pass


def time_operator(pool: List, loop, reps: int = 7, ops: int = 4000) -> float:
    """Median microseconds per operator call over pairs drawn from ``pool``."""
    n = len(pool)
    if n < 2:
        return 0.0
    pairs = [(pool[i % n], pool[(7 * i + 3) % n]) for i in range(ops)]
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        loop(pairs)
        t1 = time.perf_counter()
        _loop_none(pairs)
        t2 = time.perf_counter()
        samples.append(((t1 - t0) - (t2 - t1)) / ops * 1e6)
    samples.sort()
    return samples[len(samples) // 2]


def scalar_metrics(harvest: Harvest) -> Dict[str, float]:
    return {
        "scalars.crat_mul_us": time_operator(harvest.crat, _loop_mul),
        "scalars.crat_add_us": time_operator(harvest.crat, _loop_add),
        "scalars.const_scalar_mul_us": time_operator(harvest.const, _loop_mul),
        "scalars.scalar_mul_us": time_operator(harvest.symbolic, _loop_mul),
        "scalars.scalar_add_us": time_operator(harvest.symbolic, _loop_add),
    }


# ---------------------------------------------------------------------------
# Run length


class RunLength:
    """When a timed loop has measured enough.

    A run measures ``seconds`` of operation time at the nominal machine speed
    (see speed.py), so that a slow stretch of a shared host changes neither
    how many operations a run holds nor, with that, which percentile tail_ms
    is.  On a host more than WALL_FACTOR times slower than nominal the loop
    stops at WALL_FACTOR * ``seconds`` of wall time instead.
    """

    WALL_FACTOR = 3.0

    def __init__(self, seconds: float, speed: Speed):
        self.seconds = seconds
        self.speed = speed
        self.start = time.perf_counter()
        self.nominal_s = 0.0

    def add(self, start: float, end: float) -> None:
        self.nominal_s += self.speed.normalise(start, end)

    def done(self) -> bool:
        return (self.nominal_s >= self.seconds
                or time.perf_counter() - self.start >= self.WALL_FACTOR * self.seconds)


# ---------------------------------------------------------------------------
# Stratified inputs
#
# An operation's time follows the work of its inputs closely, and plain random
# draws put a varying number of slow operations into a run, which moved the
# tail by 13-17% from seed to seed.  So each round of a stream is a stratified
# sample: the inputs of one kind are drawn together by stratified_draw.

STRATUM_CANDIDATES = 4


def poly_work(poly) -> int:
    """Cost proxy of mechanising a polynomial: over its words, the number of
    distinct generator orderings times the degree, summed."""
    return sum(word_orderings(mono) * sum(mono) for mono in poly.terms)


def stratified_draw(rng: random.Random, draw, work, count: int) -> list:
    """``count`` results of ``draw()`` that span the range of ``work`` evenly.

    Draws STRATUM_CANDIDATES * ``count`` candidates, ranks them by work, cuts
    the ranking into ``count`` strata of equal size and takes one candidate at
    random from each, in rank order.  Every candidate is equally likely to be
    taken, so each result still follows the distribution of ``draw()``.
    """
    per = STRATUM_CANDIDATES
    candidates = [draw() for _ in range(per * count)]
    ranked = sorted(range(len(candidates)), key=lambda i: (work(candidates[i]), i))
    return [candidates[ranked[j * per + rng.randrange(per)]] for j in range(count)]


# ---------------------------------------------------------------------------
# verify_paper


def verify_pass(pb, seed: int, ledger: Ledger, check_reference: bool,
                speed: Optional[Speed] = None) -> tuple:
    """run_verify(seed) at dof=1, then dof=2.  Returns the (start, end) of
    both calls; a timed-out call counts with the time it was given.

    Each verification item is one attempted operation and fails unless its
    verdict is pass.  A call that raises or times out is one failed operation.
    """
    results = []
    with speed.sampling_during() if speed is not None else nullcontext():
        for dof in (1, 2):
            cfg = pb.config.EngineConfig(pb.group_algebra.ConventionTuple.standard(), dof)
            results.append(ledger.run(f"run_verify dof={dof}",
                                      lambda: pb.verify.run_verify(seed, cfg),
                                      VERIFY_LIMIT_S))
    for dof, res in zip((1, 2), results):
        if not res.completed:
            continue
        report = res.value
        ledger.attempted += len(report.items) - 1
        for item in report.items:
            if not item.ok:
                ledger.fail(f"dof={dof} {item.name}", f"verdict {item.status}: {item.actual}")
        if check_reference and dof == 1:
            with open(VERIFY_REFERENCE, encoding="utf-8") as fh:
                expected = fh.read()
            ledger.attempted += 1
            ledger.check("dof=1 render", report.render() + "\n" == expected,
                         "render() differs from the stored reference")
    return results[0].start, results[-1].end


def run_verify_paper(pb, seed: int, ledger: Ledger, speed: Optional[Speed] = None) -> dict:
    """One pass, whatever the run length.

    A pass takes longer than a run measures, and a second pass in the same
    process would find the engine's caches warm, unlike a user's
    ``pbracket verify paper``.
    """
    if speed is not None:
        speed.sample()
    op = verify_pass(pb, seed, ledger, seed == DEFAULT_SEED, speed)
    if speed is not None:
        speed.sample()
    return {"ops": [op], "census": None}


# ---------------------------------------------------------------------------
# bracket_session


BRACKET_ROUND_BLOCKS = 100


def bracket_stream(pb, seed: int) -> Iterator[tuple]:
    """Endless seeded stream of (dof, f, g) with degree <= 4.

    Each block of three pairs has one pair at each dof in {1, 2, 3}, in a
    seeded order, so every run sees the same dof mix.  A round of
    BRACKET_ROUND_BLOCKS blocks holds, for each dof, a stratified sample of
    pairs by the product of their poly_work (plus one), in a seeded order.
    """
    rng = random.Random(seed)

    def pair(dof):
        return tuple(pb.sampling.rand_classical(rng, dof, max_degree=4) for _ in range(2))

    def pair_work(fg):
        return (poly_work(fg[0]) + 1) * (poly_work(fg[1]) + 1)

    while True:
        pairs = {}
        for dof in (1, 2, 3):
            pairs[dof] = stratified_draw(rng, lambda: pair(dof), pair_work, BRACKET_ROUND_BLOCKS)
            rng.shuffle(pairs[dof])
        for _ in range(BRACKET_ROUND_BLOCKS):
            for dof in rng.sample((1, 2, 3), 3):
                f, g = pairs[dof].pop()
                yield dof, f, g


def bracket_op(pb, sig, f, g) -> tuple:
    """One library-session operation; returns the two identity verdicts."""
    k1 = pb.pmech.mechanise_weyl(sig, f)
    k2 = pb.pmech.mechanise_weyl(sig, g)
    u = pb.pmech.universal_bracket(k1, k2)
    rep_qc = pb.representations.rep_qc
    paths_agree = rep_qc(u).jet_part(0) == pb.qc_bracket.qc_bracket(rep_qc(k1), rep_qc(k2))
    rep_qq = pb.representations.rep_qq
    a, b = rep_qq(k1), rep_qq(k2)
    orient = sig.convention.orient
    homomorphic = rep_qq(pb.group_algebra.commutator(k1, k2)) == (a * b - b * a).scale(orient)
    return paths_agree, homomorphic


def run_bracket_session(pb, seed: int, seconds: float, ledger: Ledger,
                        fixed: bool = False, tracer=None,
                        speed: Optional[Speed] = None) -> dict:
    sigs = {dof: pb.group_algebra.GroupSignature(dof) for dof in (1, 2, 3)}
    census = Census()
    seen: set = set()
    ops = []
    length = None if fixed else RunLength(seconds, speed)
    for index, (dof, f, g) in enumerate(bracket_stream(pb, seed)):
        if fixed and index >= TRACED_BRACKET_OPS:
            break
        if length is not None and index and length.done():
            break
        census.add(dof, f, seen)
        census.add(dof, g, seen)
        label = f"op {index} (dof={dof})"
        if speed is not None:
            speed.maybe_sample()
        with tracer.span("bench.bracket_op") if tracer is not None else nullcontext():
            res = ledger.run(label, lambda: bracket_op(pb, sigs[dof], f, g), BRACKET_LIMIT_S)
        ops.append((res.start, res.end))
        if length is not None:
            length.add(res.start, res.end)
        if res.completed:
            paths_agree, homomorphic = res.value
            ledger.check(label, paths_agree and homomorphic,
                         f"paths agree: {paths_agree}, rep_qq homomorphic: {homomorphic}; "
                         f"f = {f}; g = {g}")
    if speed is not None:
        speed.sample()
    return {"ops": ops, "census": census.to_json()}


# ---------------------------------------------------------------------------
# cli_cold

# Commands per block of twenty invocations, each command's share split
# evenly between dof 1 and dof 2; five in a block ask for --json.  Blocks are
# shuffled by the seed, so every run sees the same mix while the polynomials
# vary.
_COMMANDS = (("bracket qc",) * 5 + ("bracket universal",) * 4 + ("mechanise",) * 4
             + ("rep qq",) * 3 + ("rep qc",) * 3 + ("heff",))
CLI_BLOCK = tuple((command, 1 + i % 2) for i, command in enumerate(_COMMANDS))
CLI_JSON_PER_BLOCK = 5
CLI_MAX_DEGREE = 6

# A round of CLI_ROUND_BLOCKS blocks draws the invocations of each
# (command, dof) with stratified_draw, by the summed poly_work of their
# polynomials, and deals them to its blocks in turn, so that each block spans
# the range of work too.
CLI_ROUND_BLOCKS = 4


def _polys_needed(command: str) -> int:
    if command == "heff":
        return 0
    return 2 if command.startswith("bracket") else 1


def cli_round(pb, rng: random.Random) -> List[List[tuple]]:
    """The (command, dof, polynomials) of each block of one round."""
    kinds: Dict[tuple, int] = {}
    for kind in CLI_BLOCK:
        kinds[kind] = kinds.get(kind, 0) + 1
    blocks: List[List[tuple]] = [[] for _ in range(CLI_ROUND_BLOCKS)]
    for (command, dof), per_block in kinds.items():
        n = _polys_needed(command)
        drawn = stratified_draw(
            rng, lambda: [pb.sampling.rand_classical(rng, dof, max_degree=CLI_MAX_DEGREE)
                          for _ in range(n)],
            lambda polys: sum(map(poly_work, polys)), per_block * CLI_ROUND_BLOCKS)
        deal = rng.sample(range(CLI_ROUND_BLOCKS), CLI_ROUND_BLOCKS)
        for j, polys in enumerate(drawn):
            blocks[deal[j % CLI_ROUND_BLOCKS]].append((command, dof, polys))
    return blocks


def cli_plan(pb, seed: int) -> Iterator[dict]:
    """Endless seeded stream of CLI invocations, in blocks in a seeded order.

    Polynomials have dof 1 or 2 and degree <= 6, are drawn by cli_round and
    are written with ClassicalPoly.__str__; heff gets two positive rationals.
    """
    rng = random.Random(seed)
    n = len(CLI_BLOCK)
    while True:
        for block in cli_round(pb, rng):
            rng.shuffle(block)
            as_json = rng.sample([True] * CLI_JSON_PER_BLOCK
                                 + [False] * (n - CLI_JSON_PER_BLOCK), n)
            for (command, dof, polys), json_flag in zip(block, as_json):
                yield _invocation(rng, command, json_flag, dof, polys)


def _invocation(rng: random.Random, command: str, as_json: bool, dof: int, polys: list) -> dict:
    inv = {"command": command, "json": as_json, "dof": dof, "polys": polys}
    if command == "heff":
        inv["args"] = [str(Fraction(rng.randint(1, 9), rng.randint(1, 9))) for _ in range(2)]
    else:
        inv["args"] = [str(p) for p in polys]
    flags = ["--json"] if as_json else []
    if dof != 1:
        flags += ["--signature", f"n={dof}"]
    inv["argv"] = flags + command.split() + ["--"] + inv["args"]
    return inv


def cli_expected(pb, inv: dict, harvest: Optional[Harvest] = None) -> str:
    """The library's in-process result, rendered as the CLI prints it."""
    command = inv["command"]
    if command == "heff":
        value = pb.qc_bracket.h_eff(Fraction(inv["args"][0]), Fraction(inv["args"][1]))
        payload, text = {"h_eff": [value.numerator, value.denominator]}, str(value)
    else:
        sig = pb.group_algebra.GroupSignature(inv["dof"])
        elements = [pb.pmech.mechanise_weyl(sig, p) for p in inv["polys"]]
        if command == "mechanise":
            result = elements[0]
            payload = pb.group_algebra.element_to_json(result)
        else:
            if command == "bracket universal":
                result = pb.pmech.universal_bracket(*elements)
            elif command == "bracket qc":
                rep_qc = pb.representations.rep_qc
                result = pb.qc_bracket.qc_bracket(rep_qc(elements[0]), rep_qc(elements[1]))
            elif command == "rep qq":
                result = pb.representations.rep_qq(elements[0])
            else:
                result = pb.representations.rep_qc(elements[0])
            payload = result.to_json()
        text = str(result)
        if harvest is not None:
            harvest.add(result)
    return (json.dumps(payload, sort_keys=True) if inv["json"] else text) + "\n"


def load_cli_reference() -> List[dict]:
    with open(CLI_REFERENCE, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def run_cli_cold(pb, seed: int, seconds: float, ledger: Ledger, root: str,
                 fixed: bool = False, traced: bool = False,
                 harvest: Optional[Harvest] = None, speed: Optional[Speed] = None) -> dict:
    """Sequential fresh `pbracket` processes, one at a time.

    An invocation fails on a non-zero exit, on a timeout, or when its stdout
    differs from the in-process result (and, for the default seed, from the
    stored reference).  Outputs are checked after the timed loop, so that
    checking does not take time from it.  Traced invocations start through
    cli_child.py, which records spans inside the child and reports them on
    stderr.
    """
    env = child_env(root)
    if traced:
        entry = python_argv(os.path.join(HERE, "cli_child.py"))
    else:
        entry = python_argv("-m", "pbracket.cli")
    census = Census()
    ops, rss_kb, spans, done = [], 0, [], []
    length = None if fixed else RunLength(seconds, speed)
    for index, inv in enumerate(cli_plan(pb, seed)):
        if fixed and index >= TRACED_CLI_INVOCATIONS:
            break
        if length is not None and index and length.done():
            break
        seen: set = set()
        for p in inv["polys"]:
            census.add(inv["dof"], p, seen)
        label = "pbracket " + " ".join(repr(a) if " " in a else a for a in inv["argv"])
        ledger.attempted += 1
        if speed is not None:
            speed.maybe_sample()
        child = run_child(entry + inv["argv"], env, CLI_LIMIT_S)
        rss_kb = max(rss_kb, child.maxrss_kb)
        ops.append((child.start, child.end))
        if length is not None:
            length.add(child.start, child.end)
        if child.timed_out:
            ledger.fail(label, f"time limit of {CLI_LIMIT_S:g} s exceeded")
            continue
        stderr = child.stderr.decode(errors="replace")
        if traced:
            stderr, span_json = _split_spans(stderr)
            if span_json is not None:
                spans.append(span_json)
        if child.returncode != 0:
            ledger.fail(label, f"exit {child.returncode}: {stderr.strip()[-300:]}")
            continue
        done.append((index, inv, label, child.stdout.decode(errors="replace")))
    if speed is not None:
        speed.sample()
    check_cli_outputs(pb, seed, done, ledger, harvest)
    return {"ops": ops, "census": census.to_json(),
            "child_maxrss_kb": rss_kb, "child_spans": spans}


def check_cli_outputs(pb, seed: int, done: List[tuple], ledger: Ledger,
                      harvest: Optional[Harvest]) -> None:
    """Compare each stdout with the in-process result and the stored reference.

    Checking stops after CLI_CHECK_BUDGET_S; the invocations left unchecked
    then count as failed.
    """
    reference = load_cli_reference() if seed == DEFAULT_SEED else []
    deadline = time.perf_counter() + CLI_CHECK_BUDGET_S
    for index, inv, label, stdout in done:
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            ledger.fail(label, "not checked: the check budget ran out")
            continue
        want = Ledger()
        got = want.run(label, lambda: cli_expected(pb, inv, harvest), min(CLI_LIMIT_S, remaining))
        if not got.completed:
            ledger.fail(label, "in-process result: " + want.reasons[0])
        elif index < len(reference) and reference[index]["argv"] != inv["argv"]:
            ledger.fail(label, "stored reference is for other arguments", mismatch=True)
        elif index < len(reference) and reference[index]["stdout"] != stdout:
            ledger.fail(label, "stdout differs from the stored reference", mismatch=True)
        else:
            ledger.check(label, stdout == got.value,
                         "stdout differs from the in-process result")


def _split_spans(stderr: str):
    keep, found = [], None
    for line in stderr.splitlines(keepends=True):
        if line.startswith(SPAN_MARKER):
            found = json.loads(line[len(SPAN_MARKER):])
        else:
            keep.append(line)
    return "".join(keep), found


def cli_probes(root: str, reps: int = 5) -> Dict[str, float]:
    """Interpreter start, and import times from ``python -X importtime``."""
    env = child_env(root)
    interp, imports, numpy_ms = [], [], []
    for _ in range(reps):
        child = run_child(python_argv("-c", "pass"), env, CLI_LIMIT_S)
        interp.append(child.seconds * 1e3)
        child = run_child(python_argv("-X", "importtime", "-c", "import pbracket.cli"),
                          env, CLI_LIMIT_S)
        top, numpy_us = 0, 0
        for line in child.stderr.decode(errors="replace").splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            name = parts[2].rstrip()
            depth = (len(name) - len(name.lstrip())) // 2
            if depth == 0 and name.strip().startswith("pbracket"):
                top += int(parts[1])
            if name.strip() == "numpy":
                numpy_us = int(parts[1])
        imports.append(top / 1e3)
        numpy_ms.append(numpy_us / 1e3)
    return {"cli.interpreter_ms": statistics.median(interp),
            "cli.import_ms": statistics.median(imports),
            "cli.numpy_import_ms": statistics.median(numpy_ms)}


def run_workload(pb, workload: str, seed: int, seconds: float, ledger: Ledger, root: str,
                 fixed: bool = False, tracer=None, harvest: Optional[Harvest] = None,
                 speed: Optional[Speed] = None) -> dict:
    """Run one workload; ``fixed`` does the fixed amount of work of a traced run.

    Returns the (start, end) of every attempted operation under "ops".
    """
    if workload == "verify_paper":
        return run_verify_paper(pb, seed, ledger, speed)
    if workload == "bracket_session":
        return run_bracket_session(pb, seed, seconds, ledger, fixed, tracer, speed)
    return run_cli_cold(pb, seed, seconds, ledger, root, fixed,
                        traced=tracer is not None, harvest=harvest, speed=speed)


# ---------------------------------------------------------------------------
# Set-up: import plus input generation, as a fresh process does it


SETUP_INPUTS = 200


def generate_inputs(pb, workload: str, seed: int) -> int:
    """Make the inputs a run starts from; returns how many were made."""
    if workload == "verify_paper":
        for dof in (1, 2):
            pb.config.EngineConfig(pb.group_algebra.ConventionTuple.standard(), dof).signature()
        return 2
    stream = bracket_stream(pb, seed) if workload == "bracket_session" else cli_plan(pb, seed)
    for _, _ in zip(range(SETUP_INPUTS), stream):
        pass
    return SETUP_INPUTS


WORKLOADS = ("verify_paper", "bracket_session", "cli_cold")


ENGINE_MODULES = ("config", "group_algebra", "pmech", "representations", "qc_bracket",
                  "sampling", "verify", "expressions", "cli")


def import_engine(root: str):
    """Import pbracket from the checkout's sources, never from elsewhere.

    Returns a namespace of its modules.  The package itself cannot serve:
    ``pbracket.qc_bracket`` is the function, not the module.
    """
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "pbracket", "__init__.py")):
        raise SystemExit(f"error: no pbracket sources under {src}")
    sys.path.insert(0, src)
    import pbracket
    if os.path.dirname(os.path.abspath(pbracket.__file__)) != os.path.join(src, "pbracket"):
        raise SystemExit(f"error: pbracket imported from {pbracket.__file__}, not {src}")
    return types.SimpleNamespace(**{name: importlib.import_module(f"pbracket.{name}")
                                    for name in ENGINE_MODULES})
