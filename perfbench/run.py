"""pbracket benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the engine is imported from its ``src``.
Workloads (see workloads.py):

  verify_paper     run_verify(seed) at dof=1, then dof=2, in one process.
  bracket_session  a long-lived library session over a seeded stream of pairs.
  cli_cold         sequential fresh `pbracket` processes, one at a time.

With ``--trace 0`` the run measures ``--seconds`` of operation time at the
nominal machine speed (verify_paper: one pass, whatever its length), or three
times that of wall time on a host slower than that, and reports the
end-to-end metrics, each per operation of the workload: a verify pass (dof=1
and dof=2), a bracket-session operation, or a CLI invocation including
interpreter start.  Times are scaled to a nominal machine speed (see
speed.py); the record holds them unscaled under "raw".

  p50_ms       median operation latency; failed operations count with the
               time they took, a timed-out one with its time limit
  tail_ms      highest percentile with 10 samples beyond it (that of the
               11th largest), estimated by Harrell-Davis; the record gives
               the percentile, the sample count and the 11th largest
  ops_per_s    operations per second of operation time
  setup_s      median over fresh processes of import plus input generation,
               each scaled by the speed reference timed in that process
  peak_rss_mb  ru_maxrss of this process, or of the largest CLI child

Under the names used for single workloads, verify_s is verify_paper's
p50_ms / 1000, brackets_per_s / bracket_p50_ms / bracket_tail_ms are
bracket_session's, and cli_p50_ms / cli_tail_ms are cli_cold's; the record
lists them, with failed_ratio = failed / attempted.

With ``--trace 1`` the run does a fixed amount of work with spans recorded
around the calls into each module, and reports the per-layer metrics; the
same work is also done untraced in a fresh process, and the difference is
``trace.overhead_ratio``.  Layers a workload does not call read 0.

Every output is checked.  ``failed`` counts operations that gave a wrong
output, raised, timed out, or (verify_paper) verification items whose verdict
is not pass.  ``correct`` is false when an output disagreed with an
independent expectation (the in-process library result, a stored reference,
the bracket identities), when the accounting self-test failed, or when the
exact counts of two executions of the same seed differed.

The lines before the last one are a readable report and a JSON run record;
the last line is the result object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys

import harness
import workloads
from harness import Ledger, child_env, python_argv, run_child
from speed import NOMINAL_MS, Speed
from tracing import Tracer, merge

ROOT = os.path.dirname(workloads.HERE)

END_TO_END = (("p50_ms", "ms"), ("tail_ms", "ms"), ("ops_per_s", "1/s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))

# Per-layer metric -> (unit, span name, field).  Times are self times summed
# over the traced work; counts are exact.
LAYER_SPANS = {
    "group_algebra.commutator_s": ("s", "group_algebra.commutator", "self_s"),
    "group_algebra.commutator_calls": ("count", "group_algebra.commutator", "calls"),
    "group_algebra.terms_out": ("count", "group_algebra.commutator", "terms_out"),
    "pmech.mechanise_s": ("s", "pmech.mechanise_weyl", "self_s"),
    "pmech.mechanise_calls": ("count", "pmech.mechanise_weyl", "calls"),
    "pmech.terms_out": ("count", "pmech.mechanise_weyl", "terms_out"),
    "pmech.antiderivative_s": ("s", "pmech.apply_antiderivative", "self_s"),
    "representations.rep_qc_s": ("s", "representations.rep_qc", "self_s"),
    "representations.rep_qq_s": ("s", "representations.rep_qq", "self_s"),
    "representations.weyl_mul_s": ("s", "representations.weyl_mul", "self_s"),
    "representations.hybrid_terms_out": ("count", "representations.rep_qc", "terms_out"),
    "qc_bracket.qc_bracket_s": ("s", "qc_bracket.qc_bracket", "self_s"),
    "qc_bracket.terms_out": ("count", "qc_bracket.qc_bracket", "terms_out"),
    "calibration.report_s": ("s", "calibration.calibration_report", "self_s"),
    "calibration.candidates": ("count", "calibration.calibration_report", "candidates"),
    "calibration.passing": ("count", "calibration.calibration_report", "passing"),
    "oracle.vector_field_s": ("s", "oracle.check_vector_field_suite", "self_s"),
    "oracle.algebra_laws_s": ("s", "oracle.check_algebra_laws", "self_s"),
    "oracle.matrix_s": ("s", "oracle.check_matrix_suite", "self_s"),
    "verify.rest_s": ("s", "verify.run_verify", "self_s"),
}
OTHER_LAYER_UNITS = {
    "expressions.evaluate_ms": "ms",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.numpy_import_ms": "ms",
    "scalars.crat_mul_us": "us",
    "scalars.crat_add_us": "us",
    "scalars.const_scalar_mul_us": "us",
    "scalars.scalar_mul_us": "us",
    "scalars.scalar_add_us": "us",
    "trace.overhead_ratio": "ratio",
}

SETUP_REPS = 5
SETUP_LIMIT_S = 20.0
# An untraced verify pass may use both of its calls' time limits.
PASS_LIMIT_S = 2 * workloads.VERIFY_LIMIT_S + 10.0


def git_revision(root: str) -> str:
    """HEAD of the checkout, read from .git without looking above ``root``."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def source_digest(root: str) -> str:
    """sha256 over the engine's source files, to name the code measured."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "pbracket")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()[:16]


def probe(mode: str, workload: str, seed: int) -> dict:
    """Run probe.py in a fresh process; a probe that fails stops the run."""
    child = run_child(python_argv(os.path.join(workloads.HERE, "probe.py"),
                                  mode, workload, str(seed)),
                      child_env(ROOT), SETUP_LIMIT_S if mode == "setup" else PASS_LIMIT_S)
    if child.returncode != 0:
        raise RuntimeError(f"probe {mode} failed: "
                           f"{child.stderr.decode(errors='replace').strip()[-500:]}")
    return json.loads(child.stdout.decode().strip().splitlines()[-1])


def end_to_end(latencies: list, setups: list, rss_kb: int) -> dict:
    tail = harness.tail(latencies)
    return {
        "p50_ms": statistics.median(latencies) * 1e3,
        "tail_ms": tail["value"] * 1e3,
        "ops_per_s": len(latencies) / sum(latencies),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_kb / 1024.0,
    }


def measure(pb, args, record: dict, problems: list) -> tuple:
    setups = [probe("setup", args.workload, args.seed) for _ in range(SETUP_REPS)]
    speed = Speed()
    ledger = Ledger()
    result = workloads.run_workload(pb, args.workload, args.seed, args.seconds, ledger, ROOT,
                                    speed=speed)
    if args.workload == "cli_cold":
        rss_kb = result["child_maxrss_kb"]
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ops = result["ops"]
    latencies = [speed.normalise(s, e) for s, e in ops]
    metrics = end_to_end(latencies, [p["setup_s"] * NOMINAL_MS / 1e3 / p["reference_s"]
                                     for p in setups], rss_kb)
    raw = end_to_end([e - s - speed.stolen(s, e) for s, e in ops],
                     [p["setup_s"] for p in setups], rss_kb)
    tail = harness.tail(latencies)
    record["tail"] = {"percentile": tail["percentile"], "samples": tail["samples"],
                      "beyond": tail["beyond"],
                      "order_statistic_ms": tail["order_statistic"] * 1e3}
    record["speed"] = speed.summary()
    record["raw"] = raw
    record["census"] = result["census"]
    record["named"] = named_metrics(args.workload, metrics, ledger)
    return metrics, ledger


def named_metrics(workload: str, m: dict, ledger: Ledger) -> dict:
    """The end-to-end metrics under the names used for each workload."""
    out = {}
    if workload == "verify_paper":
        out["verify_s"] = m["p50_ms"] / 1e3
    elif workload == "bracket_session":
        out.update(brackets_per_s=m["ops_per_s"], bracket_p50_ms=m["p50_ms"],
                   bracket_tail_ms=m["tail_ms"])
    else:
        out.update(cli_p50_ms=m["p50_ms"], cli_tail_ms=m["tail_ms"])
    out.update(setup_s=m["setup_s"], peak_rss_mb=m["peak_rss_mb"],
               failed_ratio=ledger.failed / max(ledger.attempted, 1))
    return out


def trace(pb, args, record: dict, problems: list) -> tuple:
    untraced = probe("pass", args.workload, args.seed)
    ledger = Ledger()
    harvest = workloads.Harvest()
    # verify_paper makes its inputs inside run_verify; take its census from
    # the arguments of the mechanisation calls.
    census = workloads.Census() if args.workload == "verify_paper" else None
    seen: set = set()

    def on_result(name, call_args, value):
        harvest.on_result(name, call_args, value)
        if census is not None and name == "pmech.mechanise_weyl":
            census.add(call_args[1].dof, call_args[1], seen)

    tracer = Tracer(on_result=on_result)
    in_process = args.workload != "cli_cold"
    if in_process:
        tracer.install()
    try:
        result = workloads.run_workload(pb, args.workload, args.seed, 0.0, ledger, ROOT,
                                        fixed=True, tracer=tracer, harvest=harvest)
    finally:
        if in_process:
            tracer.uninstall()
    summary = tracer.summary()
    for spans in result.get("child_spans", []):
        merge(summary, spans)

    if census is not None:
        result["census"] = census.to_json()
    counts = {"attempted": ledger.attempted, "failed": ledger.failed}
    if untraced["census"] is not None:
        counts["census"] = result["census"]
    again = {k: untraced[k] for k in counts}
    if counts != again:
        problems.append(f"exact counts differ between two executions of seed "
                        f"{args.seed}: {counts} vs {again}")

    metrics = {}
    for name, (_, span, field) in LAYER_SPANS.items():
        metrics[name] = summary.get(span, {}).get(field, 0)
    evaluate = summary.get("expressions.evaluate", {})
    metrics["expressions.evaluate_ms"] = (evaluate["self_s"] / evaluate["calls"] * 1e3
                                          if evaluate.get("calls") else 0.0)
    probes = (workloads.cli_probes(ROOT) if args.workload == "cli_cold" else
              {"cli.interpreter_ms": 0.0, "cli.import_ms": 0.0, "cli.numpy_import_ms": 0.0})
    metrics.update(probes)
    metrics.update(workloads.scalar_metrics(harvest))
    traced_s = sum(end - start for start, end in result["ops"])
    metrics["trace.overhead_ratio"] = traced_s / untraced["op_s"] - 1.0
    record["spans"] = {name: {k: (round(v, 6) if isinstance(v, float) else v)
                              for k, v in row.items()}
                       for name, row in sorted(summary.items())}
    record["census"] = result["census"]
    record["untraced_layers"] = tracer.missing
    record["harvested"] = {"crat": len(harvest.crat), "const": len(harvest.const),
                           "symbolic": len(harvest.symbolic)}
    record["traced_op_s"] = traced_s
    record["untraced_op_s"] = untraced["op_s"]
    return metrics, ledger


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="pbracket benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # The speed reference must run on the CPU the measured work runs on, CLI
    # children included; on a shared host two CPUs can run at different speeds.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    pb = workloads.import_engine(ROOT)
    import numpy

    problems = harness.self_test(ROOT)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "git_revision": git_revision(ROOT),
        "source_sha256": source_digest(ROOT), "nproc": os.cpu_count(),
        "self_test": "pass" if not problems else "fail",
    }
    if args.trace:
        metrics, ledger = trace(pb, args, record, problems)
        units = {name: unit for name, (unit, _, _) in LAYER_SPANS.items()}
        units.update(OTHER_LAYER_UNITS)
    else:
        metrics, ledger = measure(pb, args, record, problems)
        units = dict(END_TO_END)
    if ledger.mismatches:
        problems.append(f"{ledger.mismatches} outputs disagreed with their expectation")
    record.update(attempted=ledger.attempted, failed=ledger.failed,
                  failures=ledger.reasons, problems=problems)

    for name, value in metrics.items():
        print(f"{name:36s} {value:14.6g} {units[name]}")
    print(f"{'attempted':36s} {ledger.attempted:14d}")
    print(f"{'failed':36s} {ledger.failed:14d}")
    for reason in ledger.reasons:
        print(f"  failed: {reason}")
    for problem in problems:
        print(f"  problem: {problem}")
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
