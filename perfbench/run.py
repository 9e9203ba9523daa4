#!/usr/bin/env python3
"""macprod benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload basis --seed 1 --seconds 40 --trace 0

The seed picks the job list (see workloads.py).  A pass runs that list
through ``macprod.cli.main`` in a fresh interpreter (worker.py), so the
package's caches start cold as in a new CLI call: a closed loop with one
client, one process and one thread.  Passes repeat while another one
fits in ``--seconds``, and each job's stdout and exit code are checked
against the golden outputs in golden/.

``--trace 0`` prints the end-to-end metrics.  Each job's time is taken
at its best over the passes, because on a shared 2-vCPU virtual machine
the same job was seen to run up to 1.7x slower from minute to minute,
and noise of that kind only ever adds time.  ``wall_ref`` (the whole job
list) and ``max_job_ref`` (the slowest job) count that time in reference
chunks: while a job runs, a fixed loop is timed every 50 ms of its CPU
time on the same thread (worker.Speedometer), and the job's seconds are
divided by the mean chunk time it saw, which cancels most of the
machine's slowdown.  The same figures in seconds are printed on the
summary line.  ``peak_rss_mb`` is the median over passes of the pass's
ru_maxrss, and ``setup_s`` the time from spawning an interpreter to
``import macprod`` being done: the median over passes of the fastest of
the few probes made before each pass.
``--trace 1`` runs untraced passes for half the time and then one traced
pass (tracer.py), and prints the per-layer metrics of that pass with the
tracing overhead (traced wall time minus the untraced best-per-job
seconds).  The spans go to out/.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit code 0 when the run
completed, 2 when the checkout holds no macprod sources.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import LAYERS  # noqa: E402
from workloads import WORKLOADS, job_id, jobs_for  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden"
OUT = HERE / "out"

JOB_BUDGET_S = 30.0     # a job over this is a failure, not a hang
RUN_DEADLINE_S = 150.0  # no pass starts, and no job runs, past this
SETUP_PROBES_PER_PASS = 8  # spread over the run, not taken in one burst
PROBE_TIMEOUT_S = 30.0
# CLOCK_MONOTONIC, which time.monotonic reads on Linux, is shared by all
# processes, so the probe can stamp the moment its import finished
PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); import macprod; "
         "print(repr(time.monotonic()))")


def load_specs():
    """The end-to-end and per-layer metric lists of BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    return doc["end_to_end"], doc["per_layer"]


def load_golden(workload):
    with open(GOLDEN / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)["jobs"]


def probe_setup():
    """Seconds from spawning an interpreter to macprod imported."""
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-I", "-c", PROBE, str(SRC)],
                          capture_output=True, text=True, check=True,
                          timeout=PROBE_TIMEOUT_S)
    return float(proc.stdout) - start


def run_pass(jobs, trace, deadline, spans_path=None):
    """One worker pass; a dead or stalled worker fails every job it
    did not report."""
    request = {"src": str(SRC), "jobs": jobs, "budget_s": JOB_BUDGET_S,
               "deadline_s": max(deadline - time.monotonic(), 0.0),
               "trace": trace, "spans_path": spans_path}
    try:
        proc = subprocess.run([sys.executable, "-I", str(HERE / "worker.py")],
                              input=json.dumps(request), capture_output=True,
                              text=True, timeout=request["deadline_s"] + 10)
        reply = json.loads(proc.stdout.strip().splitlines()[-1])
    except (subprocess.TimeoutExpired, IndexError, json.JSONDecodeError) as exc:
        why = getattr(exc, "stderr", None) or str(exc)
        print(f"worker failed: {str(why)[-2000:]}", file=sys.stderr)
        return None
    return reply


def check_pass(jobs, reply, golden):
    """Failure messages, one per failed job."""
    if reply is None:
        return [f"{job_id(j)}: worker died" for j in jobs]
    bad = []
    for argv, res in zip(jobs, reply["jobs"]):
        key = job_id(argv)
        want = golden.get(key)
        if res["status"] != "ok":
            bad.append(f"{key}: {res['status']}")
        elif want is None:
            bad.append(f"{key}: no golden output")
        elif res["rc"] != want["exit"]:
            bad.append(f"{key}: exit {res['rc']}, golden {want['exit']}; "
                       f"stderr {res['stderr'][-300:]!r}")
        elif res["stdout"] != want["stdout"]:
            bad.append(f"{key}: stdout differs from golden")
    return bad


def best_job_times(replies):
    """Per job that ran, its best time over the passes: in seconds, and in
    reference chunks (seconds over the mean chunk time the job saw)."""
    secs, refs = [], []
    for k in range(len(replies[0]["jobs"])):
        ran = [r["jobs"][k] for r in replies if r["jobs"][k]["seconds"] is not None]
        if ran:
            secs.append(min(j["seconds"] for j in ran))
            refs.append(min(j["seconds"] / j["ref_s"] for j in ran))
    return secs, refs


def run(workload, seed, seconds, trace):
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    jobs = jobs_for(workload, seed)
    golden = load_golden(workload)
    e2e_specs, layer_specs = load_specs()

    if not trace:
        probe_setup()  # compiles the bytecode cache; not counted
    setup_mins = []   # the fastest of each burst of probes
    untraced_for = seconds / 2 if trace else seconds
    replies = []
    failures = []   # one message per failed job
    problems = []   # broken invariants of the benchmark itself
    attempted = 0
    while True:
        pass_start = time.monotonic()
        if not trace:
            setup_mins.append(min(probe_setup() for _ in range(SETUP_PROBES_PER_PASS)))
        reply = run_pass(jobs, False, deadline)
        attempted += len(jobs)
        failures += check_pass(jobs, reply, golden)
        if reply is None:
            break
        replies.append(reply)
        now = time.monotonic()
        # stop when another pass like this one would overrun the time
        if now + (now - pass_start) > min(start + untraced_for, deadline):
            break
    best_s, best_ref = best_job_times(replies) if replies else ([], [])

    traced = None
    if trace:
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{workload}-{seed}.json.gz"
        traced = run_pass(jobs, True, deadline, str(spans_path))
        attempted += len(jobs)
        failures += check_pass(jobs, traced, golden)
        if traced is not None:
            problems += [f"wrapper left behind at {name}"
                         for name in traced["leftover_patches"]]
            if traced["missing_targets"]:
                print("not traced (absent): " + ", ".join(traced["missing_targets"]),
                      file=sys.stderr)

    metrics = {}
    if not trace and best_ref:
        values = {
            "wall_ref": sum(best_ref),
            "max_job_ref": max(best_ref),
            "setup_s": statistics.median(setup_mins),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in replies),
        }
        metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
                   for s in e2e_specs}
    elif trace and traced is not None and best_s:
        values = dict(traced["layers"])
        values["trace.overhead_s"] = traced["wall_s"] - sum(best_s)
        self_sum = sum(values[f"{layer}.self_s"] for layer in LAYERS)
        if self_sum > traced["wall_s"]:
            problems.append("layer self times exceed the traced wall time")
        metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
                   for s in layer_specs}

    if not metrics:
        problems.append("no pass completed")
    for msg in failures + problems:
        print(f"FAILED {msg}", file=sys.stderr)
    failed = len(failures)
    correct = not failures and not problems
    print(f"{workload} seed={seed}: {len(replies)} untraced pass(es)"
          f"{' + 1 traced' if trace else ''}, {len(jobs)} jobs each; "
          f"failed_frac {failed / attempted:.4f} ({failed}/{attempted})")
    if best_s:
        print(f"  wall_s {sum(best_s):.4f} s, max_job_s {max(best_s):.4f} s "
              f"(best per job); pass wall_s "
              + " ".join(f"{r['wall_s']:.3f}" for r in replies))
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "macprod" / "__init__.py").is_file():
        print(f"no macprod sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
