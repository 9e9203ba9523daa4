"""Acceptance gate: the ten headline identities at their stated tolerances.

Each test prints one pass/fail line; every comparison here is exact (the
only tolerance that is not literally zero is the 2^-40 margin on the
truncated numeric trace, which is a partial-sum bound, not roundoff).
Timed criteria assert their stated wall-clock budgets.
"""

import itertools
import random
import time
from fractions import Fraction
from functools import reduce

from helpers import add, eval_ones, mul, murphy_apply, scale
from macprod import hecke, lattice, matprod, oracles
from macprod.compositions import antidominant, dominant, eigen_exponents, orbit
from macprod.oscillator import (LOWER, RAISE, dyck_map, kpow, psi_eval,
                                trace_closed_form)
from macprod.qtfield import QTRat, specialize
from macprod.xpoly import XPoly
from ref_field import Rat, q as Q, t as T

_ONE = Rat(1)


def _report(k, ok, detail):
    line = f"criterion {k:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def _partitions_in_box(height, width):
    """Weakly decreasing tuples of the given length with parts <= width."""
    out = []
    for c in itertools.product(range(width, -1, -1), repeat=height):
        if all(c[i] >= c[i + 1] for i in range(height - 1)):
            out.append(c)
    return out


def _x(i, n):
    return XPoly.monomial(tuple(1 if j == i else 0 for j in range(1, n + 1)))


def test_criterion_01_closed_form_rank2_seed():
    t0 = time.perf_counter()
    got = matprod.compute_f((0, 0, 1, 1, 2, 2))
    x1, x2, x3, x4, x5, x6 = (_x(i, 6) for i in range(1, 7))
    c_mid = T * T * (_ONE - T) / (_ONE - Q * T ** 3)
    c_bot = T ** 4 * (_ONE - T) * (_ONE - T * T) \
        / ((_ONE - Q * T ** 3) * (_ONE - Q * T ** 4))
    want = reduce(add, (
        reduce(mul, (x3, x4, x5, x5, x6, x6)),
        scale(reduce(mul, (add(x1, x2), x3, x4, x5, x6, add(x5, x6))), c_mid),
        scale(reduce(mul, (x1, x2, x3, x4, x5, x6)), c_bot)))
    dt = time.perf_counter() - t0
    _report(1, got == want and dt < 10.0,
            f"rank-2 seed polynomial exact in {dt:.2f}s")


def test_criterion_02_exchange_equation_suite():
    t0 = time.perf_counter()
    shapes = _partitions_in_box(3, 3) + _partitions_in_box(4, 2)
    bad = [lam for lam in shapes if not hecke.verify_qkz(lam)]
    dt = time.perf_counter() - t0
    _report(2, not bad and dt < 300.0,
            f"{len(shapes)} rearrangement classes in {dt:.1f}s"
            + (f", failures {bad}" if bad else ""))


def test_criterion_03_eigenvalue_suite():
    shapes = _partitions_in_box(3, 3) + _partitions_in_box(4, 2)
    bad = []
    for lam in shapes:
        delta = antidominant(lam)
        if not hecke.eigen_check(delta, matprod.compute_f(delta)):
            bad.append(delta)
    # the worked rank-2 example: four eigenvalues pinned in their
    # half-integer form (t^{-3/2}, t^{-5/2}, q^2 t^{5/2}, q^2 t^{3/2}
    # times t^{(n+1-2i)/2}), the middle two by the spectral formula
    delta = (0, 0, 1, 1, 2, 2)
    exps = eigen_exponents(delta)
    pinned = exps[0] == (0, 1) and exps[1] == (0, -1) \
        and exps[4] == (2, 1) and exps[5] == (2, -1)
    formula = exps[2] == (1, 1) and exps[3] == (1, -1)
    f = matprod.compute_f(delta)
    acting = all(
        murphy_apply(i, f) == scale(f, QTRat.monomial(qe=qe, te=te))
        for i, (qe, te) in enumerate(exps, start=1))
    ok = not bad and pinned and formula and acting
    _report(3, ok, f"{len(shapes)} anti-dominant eigenfunctions, "
            "rank-2 spectrum pinned")


def test_criterion_04_exchange_relations_on_fock():
    t0 = time.perf_counter()
    bad = []
    for kind in ("yba", "rll", "zf", "twist"):
        for r in (1, 2, 3):
            if not lattice.verify_intertwining(kind, r, 4):
                bad.append((kind, r))
    dt = time.perf_counter() - t0
    _report(4, not bad and dt < 600.0,
            f"yba/rll/zf/twist at ranks 1-3 in {dt:.1f}s"
            + (f", failures {bad}" if bad else ""))


def test_criterion_05_normalization_consistency():
    bad = []
    for lam in _partitions_in_box(4, 3):
        raw = matprod.raw_trace_sum(lam)
        if raw.coeff_of(lam) != matprod.omega_norm(lam):
            bad.append(lam)
        elif not matprod.compute_f(lam).coeff_of(lam).is_one():
            bad.append(lam)
    _report(5, not bad, "raw leading coefficient equals the normalization "
            f"on all {len(_partitions_in_box(4, 3))} shapes")


def test_criterion_06_rank_lowering_recursion():
    bad = []
    count = 0
    for n in range(1, 5):
        for lam in itertools.product(range(4), repeat=n):
            count += 1
            if not matprod.verify_recursion(lam):
                bad.append(lam)
    rep = matprod.recursion_report((3, 1, 0, 2))
    mus = {mu for mu, _ in rep.terms}
    want_mus = {(2, 0, 0, 1), (0, 0, 2, 1), (2, 0, 1, 0), (1, 0, 2, 0)}
    want_pref = (_ONE - Q * T) * (_ONE - Q * Q * T * T)
    instance = mus == want_mus and rep.prefactor == want_pref
    _report(6, not bad and instance,
            f"{count} compositions, worked 4-part instance exact")


def test_criterion_07_symmetric_family():
    shapes = [(0, 0, 0), (1, 0, 0), (2, 0, 0), (1, 1, 0), (2, 1, 0),
              (2, 2, 0), (1, 1, 1), (2, 1, 1), (2, 2, 1)]
    bad = []
    for lam in shapes:
        P = matprod.compute_P(lam)  # asserts is_symmetric internally
        if not P.is_symmetric():
            bad.append((lam, "sym"))
        if P.specialize(q="t") != oracles.schur(lam, len(lam)):
            bad.append((lam, "schur"))
        if P.specialize(q=0) != oracles.hall_littlewood(lam, len(lam)):
            bad.append((lam, "hall-littlewood"))
    gen = [rn for rn in ((1, 2), (1, 3), (2, 2))
           if not matprod.verify_generating(*rn)]
    _report(7, not bad and not gen,
            f"{len(shapes)} shapes vs two oracles"
            + (f", failures {bad + gen}" if bad or gen else ""))


def test_criterion_08_eigenproblem_oracle():
    bad = []
    count = 0
    for n in (1, 2, 3):
        for lam in itertools.product(range(5), repeat=n):
            if sum(lam) > 4:
                continue
            count += 1
            if oracles.eigen_solve_E(lam) != hecke.compute_E(lam):
                bad.append(lam)
    _report(8, not bad, f"linear solver agrees on all {count} shapes"
            + (f", failures {bad}" if bad else ""))


def test_criterion_09_stationary_state():
    t0 = time.perf_counter()
    th = Fraction(1, 2)
    weights = {}
    for mu in orbit((2, 1, 0)):
        v = eval_ones(matprod.compute_f(mu).specialize(q=1, t=th))
        weights[mu] = v.as_fraction()
    total = sum(weights.values())
    matches = []
    for conv in oracles.CONVENTIONS:
        pi = oracles.asep_stationary((2, 1, 0), th, conv)
        if all(pi[mu] == w / total for mu, w in weights.items()):
            matches.append(conv)
    dt = time.perf_counter() - t0
    _report(9, matches == ["ascending_free"] and dt < 30.0,
            f"stationary law matches exactly one hop convention in {dt:.1f}s")


def _dyck_strings(npairs):
    if npairs == 0:
        return [""]
    out = []
    for k in range(npairs):
        for inner in _dyck_strings(k):
            for rest in _dyck_strings(npairs - 1 - k):
                out.append("(" + inner + ")" + rest)
    return out


def test_criterion_10_trace_engine():
    rng = random.Random(20260815)
    th, qh = Fraction(1, 2), Fraction(1, 3)
    tol = Fraction(1, 2 ** 40)
    checked = 0
    while checked < 50:
        npairs = rng.randint(0, 3)
        nk = rng.randint(1, 8 - 2 * npairs)
        atoms = [LOWER] * npairs + [RAISE] * npairs \
            + [kpow(rng.randint(0, 2), rng.randint(0, 2)) for _ in range(nk)]
        if all(a[1] == a[2] == 0 for a in atoms if a[0] == "k"):
            continue  # ratio-1 series, divergent by construction
        rng.shuffle(atoms)
        word = tuple(atoms)
        closed = specialize(trace_closed_form(word), q=qh, t=th)
        partial = oracles.numeric_trace(word, th, qh, 60)
        assert abs(partial - closed.as_fraction()) < tol, word
        checked += 1
    dycks = 0
    for npairs in (1, 2, 3, 4):
        for s in _dyck_strings(npairs):
            word = tuple(LOWER if ch == "(" else RAISE for ch in s)
            lhs = psi_eval(dyck_map(word), QTRat.monomial(te=1))
            assert lhs == trace_closed_form(word + (kpow(1, 0),)), s
            dycks += 1
    _report(10, checked == 50 and dycks == 22,
            f"{checked} random words within 2^-40, "
            f"{dycks} nesting profiles exact")
