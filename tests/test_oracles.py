import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

import oracle_faults
import rref_oracle
from helpers import add, eval_ones, mul, net_change, scale, variable
from macprod import oracles as om
from macprod.errors import (InternalError, InternalNonDivisibility,
                            ReducibleChain)
from macprod.hecke import compute_E
from macprod.matprod import compute_P, compute_f
from macprod.oracles import (CONVENTIONS, asep_stationary, eigen_solve_E,
                             hall_littlewood, numeric_trace, schur,
                             _div_linear)
from macprod.oscillator import LOWER, RAISE, kpow, trace_closed_form
from macprod.qtfield import specialize
from macprod.xpoly import XPoly
from ref_field import Rat, q as Q, t as T

ONE = Rat(1)


def test_eigen_solve_hand_cases():
    assert eigen_solve_E((0, 1)) == variable(2, 2)
    want = add(variable(1, 2),
               scale(variable(2, 2), Q * (ONE - T) / (ONE - Q * T)))
    assert eigen_solve_E((1, 0)) == want


def test_eigen_solve_matches_raising():
    # a few shapes with a part 3, and every composition with 1-5 parts in
    # {0, 1, 2}
    shapes = [(0, 1, 3), (3, 1, 0, 2)] + \
        [lam for n in (1, 2, 3, 4, 5) for lam in product(range(3), repeat=n)]
    for lam in shapes:
        assert eigen_solve_E(lam) == compute_E(lam), lam


def test_eigen_solve_matches_rref_reference():
    # every composition with 1-4 parts in {0, 1, 2}
    for n in (1, 2, 3, 4):
        for lam in product(range(3), repeat=n):
            assert eigen_solve_E(lam) == rref_oracle.eigen_solve_E(lam), lam


@pytest.mark.parametrize("name", list(oracle_faults.FAULTS))
def test_eigen_solve_invariants_raise(monkeypatch, name):
    fake, error = oracle_faults.FAULTS[name]
    monkeypatch.setattr(om, "murphy_apply", fake)
    with pytest.raises(error):
        eigen_solve_E(oracle_faults.LAM)


@pytest.mark.parametrize("name, named", [("outside", "Y_1 x^(1, 0)"),
                                         ("backward", "Y_1 x^(0, 1)")])
def test_a_bad_image_term_names_its_murphy_element(monkeypatch, name,
                                                    named):
    monkeypatch.setattr(om, "murphy_apply", oracle_faults.FAULTS[name][0])
    with pytest.raises(InternalError, match=re.escape(named)):
        eigen_solve_E(oracle_faults.LAM)


def test_eigen_solve_applies_murphy_only_from_lambda_on(monkeypatch):
    # the support of (1, 0, 1, 2) is the four exponents at or after it in
    # the triangular order; the 9 before it are never acted on
    seen = []
    real = om.murphy_apply
    monkeypatch.setattr(om, "murphy_apply",
                        lambda i, f: seen.append((i, *f.terms)) or real(i, f))
    eigen_solve_E((1, 0, 1, 2))
    assert len(seen) == 16
    starts = {nu for _, nu in seen}
    assert len(starts) == 4 and (1, 0, 1, 2) in starts
    assert all(om._order(nu) >= om._order((1, 0, 1, 2)) for nu in starts)


def test_eigen_solve_invariants_raise_under_optimize():
    # the checks are typed raises, not asserts, so -O keeps them
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-O", str(root / "tests" / "oracle_faults.py")],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        f"{name}:{error.__name__}"
        for name, (_, error) in oracle_faults.FAULTS.items()]


def test_schur_values():
    x1, x2 = variable(1, 2), variable(2, 2)
    assert schur((1,), 2) == add(x1, x2)
    assert schur((1, 1), 2) == mul(x1, x2)
    s21 = schur((2, 1), 3)
    # 8 tableaux; x1x2x3 carries multiplicity 2
    assert s21.coeff_of((1, 1, 1)) == ONE + ONE
    assert eval_ones(s21).as_fraction() == 8
    assert s21.is_symmetric()
    assert schur((1, 1, 1), 2) == XPoly.zero(2)


def test_schur_pieri_cross():
    # s_1 * s_1 = s_2 + s_11
    n = 3
    assert mul(schur((1,), n), schur((1,), n)) == \
        add(schur((2,), n), schur((1, 1), n))


def test_div_linear():
    # (x1 - x3)(x1 x2 + t x3^2), coefficients as Laurent dicts
    g = {(1, 1, 0): {(0, 0): 1}, (0, 0, 2): {(0, 1): 1}}
    f = {(2, 1, 0): {(0, 0): 1}, (1, 1, 1): {(0, 0): -1},
         (1, 0, 2): {(0, 1): 1}, (0, 0, 3): {(0, 1): -1}}
    assert _div_linear(f, 1, 3) == g
    with pytest.raises(InternalNonDivisibility):
        _div_linear(g, 1, 3)


def test_hall_littlewood_values():
    x1, x2 = variable(1, 2), variable(2, 2)
    assert hall_littlewood((1,), 2) == add(x1, x2)
    assert hall_littlewood((1, 1), 2) == mul(x1, x2)
    # P_(2) = m_2 + (1-t) m_11
    assert hall_littlewood((2,), 2) == add(
        add(mul(x1, x1), mul(x2, x2)), scale(mul(x1, x2), ONE - T))
    hl = hall_littlewood((2, 1), 3)
    assert hl.is_symmetric()
    assert hl.coeff_of((2, 1, 0)).is_one()


def test_specialization_cross_pipeline():
    P = compute_P((2, 1), 3)
    assert P.specialize(q="t") == schur((2, 1), 3)
    assert P.specialize(q=0) == hall_littlewood((2, 1), 3)


def test_asep_uniform_cases():
    pi = asep_stationary((1, 0), Fraction(1, 2))
    assert pi == {(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 2)}
    pi = asep_stationary((1, 1, 0), Fraction(1, 3))
    assert set(pi.values()) == {Fraction(1, 3)}


def test_asep_convention_fixed_by_trace():
    t = Fraction(1, 2)
    weights = {}
    for mu in asep_stationary((2, 1, 0), t):
        v = eval_ones(compute_f(mu))
        weights[mu] = specialize(v, q=1, t=t).as_fraction()
    total = sum(weights.values())
    matches = []
    for conv in CONVENTIONS:
        pi = asep_stationary((2, 1, 0), t, conv)
        matches.append(all(pi[mu] == weights[mu] / total for mu in pi))
    assert matches.count(True) == 1
    assert asep_stationary((2, 1, 0), t) == \
        asep_stationary((2, 1, 0), t, "ascending_free")


def test_asep_reducible_guard(monkeypatch):
    # the ring dynamics itself is always irreducible for t > 0, so the
    # null-space guard is exercised with a disconnected generator
    import macprod.oracles as om

    def fake(species, t, convention):
        states = [(1, 0), (0, 1)]
        return states, [[Fraction(0)] * 2 for _ in range(2)]

    monkeypatch.setattr(om, "asep_generator", fake)
    with pytest.raises(ReducibleChain):
        om.asep_stationary((1, 0), Fraction(1, 2))


def test_numeric_trace_geometric():
    got = numeric_trace((kpow(2, 0),), Fraction(1, 2), Fraction(1, 3), 200)
    assert abs(got - Fraction(4, 3)) < Fraction(1, 2 ** 100)
    assert numeric_trace((RAISE,), Fraction(1, 2), Fraction(1, 3), 40) == 0
    assert numeric_trace("a A k^(2,1)", Fraction(1, 2), Fraction(1, 3), 10) \
        == numeric_trace((LOWER, RAISE, kpow(2, 1)), Fraction(1, 2),
                         Fraction(1, 3), 10)


def test_numeric_trace_vs_closed_form():
    rng = random.Random(99)
    atoms = [RAISE, LOWER, kpow(1, 0), kpow(0, 1), kpow(1, 1), kpow(2, 1)]
    t, q = Fraction(1, 2), Fraction(1, 3)
    tol = Fraction(1, 2 ** 40)
    checked = 0
    while checked < 20:
        w = tuple(rng.choice(atoms) for _ in range(rng.randint(1, 8)))
        if net_change(w):
            continue
        if not any(a[0] == "k" and (a[1] or a[2]) for a in w):
            continue  # needs a convergence factor
        closed = specialize(trace_closed_form(w), q=q, t=t).as_fraction()
        assert abs(numeric_trace(w, t, q, 60) - closed) < tol, w
        checked += 1
