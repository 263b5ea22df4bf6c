"""One set-up sample, run in a fresh interpreter by run.py.

    python3 perfbench/probe.py <workload> <scratch dir>

Times ``import fluxtube``, then one warm-up item of each kind the workload
runs (which also imports the benchmark's own item runners), and prints
{"import_s": ..., "warmup_s": ...} as one JSON line.
"""

import json
import os
import sys
import time
from pathlib import Path


def main() -> int:
    workload, outdir = sys.argv[1], sys.argv[2]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    t0 = time.perf_counter()
    import fluxtube  # noqa: F401
    t1 = time.perf_counter()
    import workloads

    os.environ["FLUXTUBE_OUTDIR"] = outdir
    for item in workloads.warmup_items(workload):
        workloads.run_item(item)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "warmup_s": t2 - t1}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
