"""One benchmark pass in a fresh interpreter.

Reads a request from stdin as JSON: ``src`` (directory holding the
macprod package), ``jobs`` (argv lists), ``budget_s`` (per-job time
limit), ``deadline_s`` (time left for the whole pass), ``trace`` (bool)
and ``spans_path``.  Imports macprod, then runs each job through
``macprod.cli.main`` in-process, one after another, with stdout and
stderr captured.  A job over its budget is interrupted by SIGALRM and
recorded as a timeout; the pass goes on with the next job.  Outside the
traced pass a Speedometer samples the machine's speed during each job.
Writes one JSON result line to stdout.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import signal
import sys
import time
from pathlib import Path


class JobTimeout(BaseException):
    """Raised in the running job when its budget is spent.  A
    BaseException, so that no handler inside the program swallows it."""


def _alarm(signum, frame):
    raise JobTimeout()


REF_ITERS = 2000     # one reference chunk: about a millisecond of dict and int work
REF_PERIOD_S = 0.05  # one chunk per 50 ms of the job's CPU time


class Speedometer:
    """The machine's speed while a job runs.  SIGVTALRM interrupts the job
    every REF_PERIOD_S of CPU time to run one fixed reference chunk on the
    same thread, so the mean chunk time is the speed the job itself saw;
    the chunks' own time is taken out of the job's."""

    def __init__(self):
        self.chunks = 0
        self.spent = 0.0

    def chunk(self, signum=None, frame=None):
        start = time.perf_counter()
        acc = {}
        for i in range(REF_ITERS):
            key = (i % 31, i % 17)
            acc[key] = acc.get(key, 0) * 3 + (i << 40) // 7
        self.spent += time.perf_counter() - start
        self.chunks += 1


def run_job(cli, argv, budget_s, sample):
    out, err = io.StringIO(), io.StringIO()
    status = "ok"
    rc = None
    speed = Speedometer()
    if sample:
        for _ in range(3):  # a reading for jobs shorter than one period
            speed.chunk()
        signal.signal(signal.SIGVTALRM, speed.chunk)
    spent_before = speed.spent
    signal.setitimer(signal.ITIMER_REAL, budget_s)
    signal.setitimer(signal.ITIMER_VIRTUAL, REF_PERIOD_S if sample else 0,
                     REF_PERIOD_S)
    start = time.perf_counter()
    try:
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        finally:
            signal.setitimer(signal.ITIMER_VIRTUAL, 0)
            signal.setitimer(signal.ITIMER_REAL, 0)
    except JobTimeout:
        status = "timeout"
    except Exception as exc:  # a crash of one job must not end the pass
        status = f"raised {type(exc).__name__}: {exc}"
    end = time.perf_counter()
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:],
            "status": status, "start": start, "end": end,
            "seconds": end - start - (speed.spent - spent_before),
            "ref_s": speed.spent / speed.chunks if speed.chunks else None}


def run_pass(request):
    sys.path.insert(0, request["src"])
    from macprod import cli

    tracer = None
    if request["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    signal.signal(signal.SIGALRM, _alarm)
    pass_end = time.perf_counter() + request["deadline_s"]
    results = []
    try:
        for idx, argv in enumerate(request["jobs"]):
            left = pass_end - time.perf_counter()
            if left <= 0:
                results.append({"rc": None, "stdout": "", "stderr": "",
                                "status": "deadline", "start": None, "end": None,
                                "seconds": None, "ref_s": None})
                continue
            if tracer:
                tracer.job = idx
            # the traced pass reports layer times, which the chunks would blur
            results.append(run_job(cli, argv, min(request["budget_s"], left),
                                   sample=tracer is None))
    finally:
        if tracer:
            tracer.uninstall()

    ran = [r for r in results if r["start"] is not None]
    wall = ran[-1]["end"] - ran[0]["start"] if ran else 0.0
    reply = {
        "jobs": [{k: r[k] for k in ("rc", "stdout", "stderr", "status",
                                    "seconds", "ref_s")} for r in results],
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        reply["layers"] = tracer.metrics(wall)
        reply["leftover_patches"] = tracer.leftover_patches()
        reply["missing_targets"] = tracer.missing
        tracer.dump(request["spans_path"], request["jobs"])
    return reply


def main():
    request = json.load(sys.stdin)
    reply = run_pass(request)
    sys.stdout.write(json.dumps(reply) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
