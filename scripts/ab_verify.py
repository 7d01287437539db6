#!/usr/bin/env python3
"""Compare two source trees on ``run_verify``, in one process.

The verify_paper workload runs ``run_verify(seed)`` at dof 1 and then at
dof 2, and its wall time spreads widely between benchmark runs.  This
script imports both trees into one process, as ``ab_session.py`` does
(under the package names ``pbracket_base`` and ``pbracket_head``), and
times one round of both calls per tree, alternating which tree goes first.
The drift of a shared host then lands on both sides alike.  The first
round of each side meets cold caches; later rounds find them warm.

Usage, from the root of a checkout:

    python3 scripts/ab_verify.py BASE_ROOT [HEAD_ROOT] [--rounds N] [--seed S]

BASE_ROOT and HEAD_ROOT are checkouts with a ``src/pbracket``; HEAD_ROOT
defaults to this checkout.  Prints each side's median and interquartile
range of the per-round time, the head/base ratio of the medians, and how
many rounds head won, pairing each round's two times, so a rule such as
"better in 9 of 10 pairs" reads off one run.  Each
round's ``render()`` and ``to_json()`` at both dofs are compared between
the trees; the script prints the number of rounds that differ and exits 1
when any does.
"""

import argparse
import json
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("base", "head")
DOFS = (1, 2)


def verify_round(pb, seed: int) -> list:
    """The render() text and JSON of run_verify(seed) at each dof."""
    out = []
    for dof in DOFS:
        cfg = pb.config.EngineConfig(pb.group_algebra.ConventionTuple.standard(), dof)
        report = pb.verify.run_verify(seed, cfg)
        out.append((report.render(), json.dumps(report.to_json())))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="root of the checkout to compare against")
    parser.add_argument("head", nargs="?", default=ROOT,
                        help="root of the checkout under test (default: this one)")
    parser.add_argument("--rounds", type=int, default=8, help="rounds per side")
    parser.add_argument("--seed", type=int, default=2024, help="seed of run_verify")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    sys.dont_write_bytecode = True
    sys.path.insert(0, os.path.join(ROOT, "scripts"))
    from ab_session import load_tree

    engines = {side: load_tree(root, f"pbracket_{side}", ("config", "group_algebra", "verify"))
               for side, root in zip(SIDES, (args.base, args.head))}
    times = {side: [] for side in SIDES}
    mismatches = 0
    for i in range(args.rounds):
        seen = {}
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            t0 = time.perf_counter()
            seen[side] = verify_round(engines[side], args.seed)
            times[side].append(time.perf_counter() - t0)
        mismatches += seen["base"] != seen["head"]

    print(f"{args.rounds} rounds per side of run_verify({args.seed}) at dof "
          + " and ".join(map(str, DOFS)))
    print(f"{'':6} {'median_s':>10} {'q1_s':>10} {'q3_s':>10}")
    medians = {}
    for side in SIDES:
        t = times[side]
        q1, _, q3 = statistics.quantiles(t, n=4) if len(t) > 1 else (t[0], t[0], t[0])
        medians[side] = statistics.median(t)
        print(f"{side:6} {medians[side]:10.4f} {q1:10.4f} {q3:10.4f}")
    print(f"{'ratio':6} {medians['head'] / medians['base'] - 1:+10.1%}")
    won = sum(h < b for b, h in zip(times["base"], times["head"]))
    print(f"head won {won} of {args.rounds} rounds (paired by round)")
    print(f"outputs differ on {mismatches} of {args.rounds} rounds")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
