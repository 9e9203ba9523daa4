"""Seeded job lists for the macprod benchmark.

A workload is a list of slots plus a list of fixed jobs.  Each slot holds
a few interchangeable jobs of about equal cost (timed on the seed commit);
the seed picks one job per slot, adds the fixed jobs and shuffles the
order.  So the inputs change with the seed while the work per run stays
comparable.  The largest job of each workload is fixed, so that
``max_job_ref`` measures the same job on every seed.  A job is the argv
list given to ``macprod.cli.main``.
"""

from __future__ import annotations

import random
from typing import NamedTuple


class Workload(NamedTuple):
    why: str
    slots: tuple   # tuples of interchangeable argv lists
    fixed: tuple   # argv lists run on every seed


def _f(lam):
    return ("compute", "f", "--lambda", lam, "--format", "json")


def _E(lam):
    return ("compute", "E", "--lambda", lam, "--format", "json")


def _verify(target, flag, lam):
    return ("verify", target, flag, lam)


WORKLOADS = {
    "basis": Workload(
        why="configuration-sum f and P: matprod enumeration, oscillator "
            "traces and gcd-heavy qtfield sums; hecke and lattice idle; no "
            "job reuses another's f",
        slots=(
            # f of 6 parts
            tuple(_f(lam) for lam in (
                "3,0,0,1,3,2", "3,2,0,0,3,1", "0,3,1,3,2,0")),
            tuple(_f(lam) for lam in (
                "3,0,1,3,2,0", "0,2,3,3,0,1", "3,1,0,0,3,2")),
            # f of 7 parts
            tuple(_f(lam) for lam in (
                "0,2,3,1,2,0,1", "3,0,1,1,2,2,0", "0,1,1,0,2,2,3")),
            tuple(_f(lam) for lam in (
                "2,0,2,3,0,1,1", "2,1,2,1,0,3,0", "0,3,1,1,2,2,0")),
        ),
        # the f of 8 parts is the largest job of the run; arrangements of
        # that shape differ in cost by up to a third, so it is the same on
        # every seed and max_job_ref does not depend on the seed
        fixed=(("compute", "P", "--lambda", "3,2,1,0,0", "--format", "json"),
               _f("2,1,3,3,2,0,0,1")),
    ),
    "raising": Workload(
        why="E by Baxterised raising: hecke eigen checks and xpoly Demazure "
            "operators do the work; jobs of one orbit share the anti-dominant "
            "f, so reuse and memoisation can show",
        slots=(
            tuple(_E(lam) for lam in ("3,1,0,2", "2,3,0,1")),
            tuple(_E(lam) for lam in ("3,0,2,1", "1,2,0,1,0", "1,2,1,0,0")),
            tuple(_E(lam) for lam in ("2,1,0,0,1", "2,0,1,1,0")),
            tuple(_E(lam) for lam in ("2,0,1,0,1", "1,3,0,2")),
        ),
        # the largest job of the run, the same on every seed
        fixed=(_E("3,2,0,1"),),
    ),
    "certify": Workload(
        why="verification suites: truncated-Fock evaluation multiplies many "
            "monomials in lattice and qtfield, and the oracle runs an RREF "
            "with general division",
        slots=(
            tuple(_verify("qkz", "--lambda-plus", lam)
                  for lam in ("3,1,0", "3,2,0", "2,1,1,0,0")),
            tuple(_verify("recursion", "--lambda", lam)
                  for lam in ("0,1,2,3", "3,1,0,2", "2,3,0,1", "1,3,0,2")),
            tuple(_verify("oracle", "--lambda", lam)
                  for lam in ("1,2,0,1", "2,1,0,1")),
            tuple(_verify("oracle", "--lambda", lam)
                  for lam in ("1,0,1,2", "2,0,1,1", "1,1,0,2")),
        ),
        fixed=tuple(("verify", kind, "--rank", str(r), "--cutoff", "4")
                    for kind in ("yba", "rll", "zf", "twist")
                    for r in (1, 2, 3)),
    ),
}


def job_id(argv):
    return " ".join(argv)


def jobs_for(name, seed):
    """The seeded job list of a workload, as a list of argv lists."""
    wl = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    jobs = [list(rng.choice(slot)) for slot in wl.slots] + [None] * len(wl.fixed)
    rng.shuffle(jobs)
    # fixed jobs keep their listed order: with unbounded caches, the order
    # of the two largest jobs sets the peak RSS
    fixed = iter(wl.fixed)
    return [list(next(fixed)) if job is None else job for job in jobs]


def pool(name):
    """Every job any seed can draw for a workload, in a fixed order."""
    wl = WORKLOADS[name]
    return [list(job) for slot in wl.slots for job in slot] + \
        [list(job) for job in wl.fixed]
