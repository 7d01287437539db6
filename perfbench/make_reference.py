"""Write the stored references the benchmark checks at the default seed.

    python3 perfbench/make_reference.py

Writes reference/verify_dof1_seed2024.txt, the dof=1 ``run_verify`` report,
and reference/cli_cold_seed2024.jsonl, the arguments and stdout of the first
CLI_REFERENCE_INVOCATIONS cli_cold invocations.  Run it only when a change
to the program is meant to change these outputs, and say so in the change.
"""

import json
import os
import sys

import workloads
from harness import child_env, python_argv, run_child

ROOT = os.path.dirname(workloads.HERE)
CLI_REFERENCE_INVOCATIONS = 80


def main() -> int:
    pb = workloads.import_engine(ROOT)
    os.makedirs(workloads.REFERENCE_DIR, exist_ok=True)
    cfg = pb.config.EngineConfig(pb.group_algebra.ConventionTuple.standard(), 1)
    report = pb.verify.run_verify(workloads.DEFAULT_SEED, cfg)
    with open(workloads.VERIFY_REFERENCE, "w", encoding="utf-8") as fh:
        fh.write(report.render() + "\n")
    env = child_env(ROOT)
    with open(workloads.CLI_REFERENCE, "w", encoding="utf-8") as fh:
        plan = workloads.cli_plan(pb, workloads.DEFAULT_SEED)
        for _, inv in zip(range(CLI_REFERENCE_INVOCATIONS), plan):
            child = run_child(python_argv("-m", "pbracket.cli") + inv["argv"], env,
                              workloads.CLI_LIMIT_S)
            if child.returncode != 0:
                raise SystemExit(f"pbracket {inv['argv']} failed: {child.stderr.decode()}")
            stdout = child.stdout.decode()
            if stdout != workloads.cli_expected(pb, inv):
                raise SystemExit(f"pbracket {inv['argv']} differs from the library")
            fh.write(json.dumps({"argv": inv["argv"], "stdout": stdout}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
