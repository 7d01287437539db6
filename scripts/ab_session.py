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

    python3 scripts/ab_session.py BASE_ROOT [HEAD_ROOT] [--ops N] [--seed S]

BASE_ROOT and HEAD_ROOT are checkouts with a ``src/pbracket``; HEAD_ROOT
defaults to this checkout.  Prints each side's median and 99th percentile
of the per-operation time, its total, and head/base ratios.  The
operations and their checks come from this checkout's ``perfbench``, which
is only read: no bytecode is written.

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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="root of the checkout to compare against")
    parser.add_argument("head", nargs="?", default=ROOT,
                        help="root of the checkout under test (default: this one)")
    parser.add_argument("--ops", type=int, default=3000, help="operations per side")
    parser.add_argument("--seed", type=int, default=2024, help="seed of the input stream")
    args = parser.parse_args(argv)

    sys.dont_write_bytecode = True
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads

    engines = {side: load_tree(root, f"pbracket_{side}", workloads.ENGINE_MODULES)
               for side, root in zip(SIDES, (args.base, args.head))}
    streams = {side: workloads.bracket_stream(pb, args.seed) for side, pb in engines.items()}
    sigs = {side: {dof: pb.group_algebra.GroupSignature(dof) for dof in (1, 2, 3)}
            for side, pb in engines.items()}
    times = {side: [] for side in SIDES}
    failed = {side: 0 for side in SIDES}
    mismatches = 0
    for i in range(args.ops):
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

    stats = {side: (statistics.median(t) * 1e3, percentile(t, 0.99) * 1e3, sum(t))
             for side, t in times.items()}
    print(f"{args.ops} operations per side, seed {args.seed}")
    print(f"{'':6} {'median_ms':>10} {'p99_ms':>10} {'total_s':>10} {'failed':>7}")
    for side in SIDES:
        median, p99, total = stats[side]
        print(f"{side:6} {median:10.4f} {p99:10.4f} {total:10.3f} {failed[side]:7d}")
    ratios = [h / b - 1 for b, h in zip(stats["base"], stats["head"])]
    print(f"{'ratio':6} " + " ".join(f"{r:+10.1%}" for r in ratios))
    print(f"outputs differ on {mismatches} of {args.ops} operations")
    return 1 if mismatches or any(failed.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
