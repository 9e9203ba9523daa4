#!/usr/bin/env python3
"""Record the golden outputs: stdout and exit code of every job any seed
can draw, run through the same worker as the benchmark.

    python3 perfbench/record_golden.py [workload ...]

Run it only on a commit whose outputs are known good; later commits must
reproduce these files byte for byte.
"""

from __future__ import annotations

import json
import sys
import time

from run import GOLDEN, run_pass
from workloads import WORKLOADS, job_id, pool


def record(workload):
    jobs = pool(workload)
    reply = run_pass(jobs, False, time.monotonic() + 3600)
    if reply is None:
        raise SystemExit(f"{workload}: worker failed")
    out = {}
    for argv, res in zip(jobs, reply["jobs"]):
        if res["status"] != "ok":
            raise SystemExit(f"{job_id(argv)}: {res['status']}")
        out[job_id(argv)] = {"exit": res["rc"], "stdout": res["stdout"]}
    GOLDEN.mkdir(exist_ok=True)
    with open(GOLDEN / f"{workload}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "jobs": out}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
    print(f"{workload}: {len(out)} jobs in {reply['wall_s']:.1f} s")


if __name__ == "__main__":
    for name in sys.argv[1:] or sorted(WORKLOADS):
        record(name)
