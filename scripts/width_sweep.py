#!/usr/bin/env python3
"""Time the same bracket operations at growing width: does a term's cost
follow its support or the signature's width?

Draws seeded random pairs of dof-1 classical polynomials (``rand_classical``,
degree <= 4, both sectors) and embeds each at a larger dof, on degree of
freedom 1 of each sector, so every operation has the same nonzero exponents
at every dof and only the width of the exponent keys grows.  Each embedded
pair runs through ``bracket_op`` of ``perfbench/workloads.py`` (mechanise
both, universal bracket, path-equivalence and rep_qq homomorphism checks).

Usage, from the root of a checkout:

    python3 scripts/width_sweep.py [ROOT ...] [--pairs N] [--seed S]
                                   [--dofs D [D ...]] [--repeats R]

Each ROOT is a checkout with a ``src/pbracket``, loaded as
``scripts/ab_session.py`` loads a tree; with none, this checkout.  Passes
over the pairs alternate between the trees, and each (tree, dof) keeps its
fastest of R passes.  Prints the milliseconds per operation at each dof and
the ratio of the largest dof's time to the smallest's, per tree.  Exits 1
when any operation's checks fail.  ``perfbench`` is only read: no bytecode
is written.
"""

import argparse
import os
import random
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def embed(pb, f, dof: int):
    """A dof-1 classical polynomial at dof ``dof``: sector 1's (q, p) on
    slot 0, sector 2's on slot ``dof``, every other exponent zero."""
    terms = {}
    for m, c in f.terms.items():
        mono = [0] * (4 * dof)
        mono[0:2], mono[2 * dof:2 * dof + 2] = m[0:2], m[2:4]
        terms[tuple(mono)] = c
    return pb.pmech.ClassicalPoly(dof, terms)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("roots", nargs="*", default=[ROOT],
                        help="checkouts to time (default: this one)")
    parser.add_argument("--pairs", type=int, default=300, help="random pairs per dof")
    parser.add_argument("--seed", type=int, default=5, help="seed of the pairs")
    parser.add_argument("--dofs", type=int, nargs="+", default=[1, 4, 16, 64],
                        help="dofs to embed the pairs at")
    parser.add_argument("--repeats", type=int, default=3, help="passes per tree and dof")
    args = parser.parse_args(argv)

    sys.dont_write_bytecode = True
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import workloads
    from ab_session import load_tree

    trees = [load_tree(root, f"pbracket_{n}", workloads.ENGINE_MODULES)
             for n, root in enumerate(args.roots)]
    cases = []      # per tree, per dof: (signature, [(f, g), ...])
    for pb in trees:
        rng = random.Random(args.seed)
        pairs = [tuple(pb.sampling.rand_classical(rng, 1) for _ in range(2))
                 for _ in range(args.pairs)]
        cases.append({dof: (pb.group_algebra.GroupSignature(dof),
                            [(embed(pb, f, dof), embed(pb, g, dof)) for f, g in pairs])
                      for dof in args.dofs})
    best = [{dof: float("inf") for dof in args.dofs} for _ in trees]
    failed = 0
    for _ in range(args.repeats):
        for dof in args.dofs:
            for n, pb in enumerate(trees):
                sig, pairs = cases[n][dof]
                t0 = time.perf_counter()
                verdicts = [workloads.bracket_op(pb, sig, f, g) for f, g in pairs]
                best[n][dof] = min(best[n][dof], time.perf_counter() - t0)
                failed += sum(not all(v) for v in verdicts)

    lo, hi = min(args.dofs), max(args.dofs)
    print(f"{args.pairs} pairs at dof 1 (seed {args.seed}), ms per operation, "
          f"best of {args.repeats} passes")
    print(f"{'tree':>4} " + " ".join(f"{f'dof {d}':>9}" for d in args.dofs)
          + f" {f'{hi}/{lo}':>7}  root")
    for n, root in enumerate(args.roots):
        ms = {dof: best[n][dof] / args.pairs * 1e3 for dof in args.dofs}
        print(f"{n:>4} " + " ".join(f"{ms[d]:9.3f}" for d in args.dofs)
              + f" {ms[hi] / ms[lo]:6.2f}x  {root}")
    if failed:
        print(f"{failed} operations failed their checks")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
