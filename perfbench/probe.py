"""Child-process probes of the benchmark.

    python probe.py setup <workload> <seed>
        Import pbracket and make the workload's inputs; print the time taken,
        and the time of the speed reference in this process.
    python probe.py pass <workload> <seed>
        Run the fixed amount of work a traced run does, untraced; print the
        summed operation time and the exact counts.

Both print one JSON object.  A traced run compares its own traced pass with
this untraced one, in a fresh process so that both start with cold caches.
"""

import json
import os
import sys
import time

import speed
import workloads
from harness import Ledger

ROOT = os.path.dirname(workloads.HERE)


def main(argv) -> int:
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    start = time.perf_counter()
    pb = workloads.import_engine(ROOT)
    if mode == "setup":
        made = workloads.generate_inputs(pb, workload, seed)
        setup_s = time.perf_counter() - start
        print(json.dumps({"setup_s": setup_s, "reference_s": speed.reference_s(),
                          "inputs": made}))
        return 0
    ledger = Ledger()
    result = workloads.run_workload(pb, workload, seed, 0.0, ledger, ROOT, fixed=True)
    print(json.dumps({"op_s": sum(end - start for start, end in result["ops"]),
                      "attempted": ledger.attempted,
                      "failed": ledger.failed, "census": result["census"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
