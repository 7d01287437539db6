#!/usr/bin/env python3
"""Compare two source trees on the bracket_session operations, in one process.

Separate benchmark runs of two trees are minutes apart, and a shared host's
speed drifts over minutes, so a small difference between trees drowns in
the drift between runs.  This script imports both trees into one process,
under the package names ``pbracket_base`` and ``pbracket_head``, draws the
same seeded stream of operations for each (``bracket_stream`` and
``bracket_op`` of ``perfbench/workloads.py``) and runs operation i of both
sides back to back, alternating which side goes first.  The drift then
lands on both sides alike.

Usage, from the root of a checkout:

    python3 scripts/ab_session.py BASE_ROOT [HEAD_ROOT] [--ops N] [--seed S [S ...]]

BASE_ROOT and HEAD_ROOT are checkouts with a ``src/pbracket``; HEAD_ROOT
defaults to this checkout.  For each seed, in the order given, prints each
side's median and 99th percentile of the per-operation time, its total, and
head/base ratios.  It also splits the seed's operations into 10 equal blocks
in stream order and prints how many blocks head won, by a lower median, so
a rule such as "head wins at least 9 of 10" reads off one run.  With
several seeds a last table lists each seed's median ratio and blocks won.
A tree compared with itself reads about +0.0% and wins about half the
blocks.  The operations and their checks come from this checkout's
``perfbench``, which is only read: no bytecode is written.

Outside the timed region, each operation's outputs are also compared
between the trees: the text and JSON of ``rep_qc(k1)``,
``qc_bracket(rep_qc(k1), rep_qc(k2))`` and ``rep_qq(k1)``.  The script
prints the number of operations whose outputs differ and exits 1 when any
does, or when any operation's checks fail.
"""

import argparse
import importlib
import importlib.util
import json
import os
import statistics
import sys
import time
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("base", "head")


def load_tree(root: str, name: str, modules) -> types.SimpleNamespace:
    """The engine modules of root/src/pbracket, imported as package ``name``."""
    pkg_dir = os.path.join(os.path.abspath(root), "src", "pbracket")
    init = os.path.join(pkg_dir, "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"error: no pbracket sources under {pkg_dir}")
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[pkg_dir])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return types.SimpleNamespace(**{m: importlib.import_module(f"{name}.{m}") for m in modules})


def outputs(pb, sig, f, g) -> list:
    """The text and JSON of rep_qc(k1), qc_bracket(rep_qc(k1), rep_qc(k2))
    and rep_qq(k1) for one operation's pair."""
    k1, k2 = (pb.pmech.mechanise_weyl(sig, x) for x in (f, g))
    rep_qc = pb.representations.rep_qc
    results = (rep_qc(k1), pb.qc_bracket.qc_bracket(rep_qc(k1), rep_qc(k2)),
               pb.representations.rep_qq(k1))
    return [(str(r), json.dumps(r.to_json())) for r in results]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of a nonempty list."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


BLOCKS = 10


def blocks_won(base, head) -> int:
    """Of BLOCKS equal consecutive blocks of operations, those where head's
    median time is below base's; a remainder of fewer than BLOCKS operations
    is left out."""
    size = len(base) // BLOCKS
    return sum(statistics.median(head[i:i + size]) < statistics.median(base[i:i + size])
               for i in range(0, size * BLOCKS, size)) if size else 0


def run_seed(engines, workloads, seed: int, ops: int) -> dict:
    """Operation i of both sides back to back, alternating which goes first;
    the per-operation times, failed checks and differing outputs."""
    streams = {side: workloads.bracket_stream(pb, seed) for side, pb in engines.items()}
    sigs = {side: {dof: pb.group_algebra.GroupSignature(dof) for dof in (1, 2, 3)}
            for side, pb in engines.items()}
    times = {side: [] for side in SIDES}
    failed = {side: 0 for side in SIDES}
    mismatches = 0
    for i in range(ops):
        seen = {}
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            dof, f, g = next(streams[side])
            pb = engines[side]
            t0 = time.perf_counter()
            verdicts = workloads.bracket_op(pb, sigs[side][dof], f, g)
            times[side].append(time.perf_counter() - t0)
            failed[side] += not all(verdicts)
            seen[side] = outputs(pb, sigs[side][dof], f, g)
        mismatches += seen["base"] != seen["head"]
    return {"times": times, "failed": failed, "mismatches": mismatches}


def report(seed: int, ops: int, run: dict) -> tuple:
    """Print one seed's table; return its median ratio and blocks won."""
    times, failed = run["times"], run["failed"]
    stats = {side: (statistics.median(t) * 1e3, percentile(t, 0.99) * 1e3, sum(t))
             for side, t in times.items()}
    print(f"{ops} operations per side, seed {seed}")
    print(f"{'':6} {'median_ms':>10} {'p99_ms':>10} {'total_s':>10} {'failed':>7}")
    for side in SIDES:
        median, p99, total = stats[side]
        print(f"{side:6} {median:10.4f} {p99:10.4f} {total:10.3f} {failed[side]:7d}")
    ratios = [h / b - 1 for b, h in zip(stats["base"], stats["head"])]
    print(f"{'ratio':6} " + " ".join(f"{r:+10.1%}" for r in ratios))
    won = blocks_won(times["base"], times["head"])
    print(f"head won {won} of {BLOCKS} blocks of {ops // BLOCKS} operations (by median)")
    print(f"outputs differ on {run['mismatches']} of {ops} operations")
    return ratios[0], won


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="root of the checkout to compare against")
    parser.add_argument("head", nargs="?", default=ROOT,
                        help="root of the checkout under test (default: this one)")
    parser.add_argument("--ops", type=int, default=3000, help="operations per side and seed")
    parser.add_argument("--seed", type=int, nargs="+", default=[2024],
                        help="seeds of the input streams, run one after another")
    args = parser.parse_args(argv)

    sys.dont_write_bytecode = True
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads

    engines = {side: load_tree(root, f"pbracket_{side}", workloads.ENGINE_MODULES)
               for side, root in zip(SIDES, (args.base, args.head))}
    summary, bad = [], False
    for n, seed in enumerate(args.seed):
        if n:
            print()
        run = run_seed(engines, workloads, seed, args.ops)
        summary.append((seed,) + report(seed, args.ops, run))
        bad = bad or run["mismatches"] or any(run["failed"].values())
    if len(summary) > 1:
        print()
        print(f"{'seed':>8} {'median':>8} {'blocks won':>11}")
        for seed, ratio, won in summary:
            print(f"{seed:8d} {ratio:+8.1%} {won:>5d} of {BLOCKS}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
