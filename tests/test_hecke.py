import gc
import importlib
import os
import pkgutil
import random
import re
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

import gcd_raising
import qtrat_hecke as oracle
from helpers import demazure_T, lower_term_move, murphy_apply

import macprod
from macprod import clear_caches, hecke, qtfield
from macprod.cli import main
from macprod.compositions import (antidominant, dominance_leq,
                                  eigen_exponents, orbit, raising_word)
from macprod.errors import (BranchResolutionFailure, IndexOutOfRange,
                            InternalError, NotRaisable)
from macprod.hecke import (compute_E, eigen_check, raise_E,
                           triangular_expand, verify_qkz)
from macprod.matprod import compute_f
from macprod.oracles import eigen_solve_E
from macprod.qtfield import QTRat, _dict_divexact, _dict_mul, one
from macprod.xpoly import XNum, XPack, XPoly

Q = QTRat.monomial(qe=1)
T = QTRat.monomial(te=1)
ONE = one()

E10 = XPoly.variable(1, 2) + \
    XPoly.variable(2, 2).scale(Q * (ONE - T) / (ONE - Q * T))


# the compositions of the raising benchmark pool
POOL = ((3, 1, 0, 2), (2, 3, 0, 1), (3, 0, 2, 1), (1, 2, 0, 1, 0),
        (1, 2, 1, 0, 0), (2, 1, 0, 0, 1), (2, 0, 1, 1, 0), (2, 0, 1, 0, 1),
        (1, 3, 0, 2), (3, 2, 0, 1))

SMALL = [lam for n in (2, 3, 4) for lam in product(range(3), repeat=n)]
# every composition with 2-5 parts in {0, 1, 2}
FS = [lam for n in (2, 3, 4, 5) for lam in product(range(3), repeat=n)]


def _random_poly(rng, n, nterms=4, deg=3):
    f = XPoly.zero(n)
    for _ in range(nterms):
        e = tuple(rng.randint(0, deg) for _ in range(n))
        c = QTRat.monomial(qe=rng.randint(0, 1), te=rng.randint(0, 2),
                           c=rng.randint(-3, 3))
        f = f + XPoly.monomial(e, c)
    return f


def test_murphy_hand_values():
    x2 = XPoly.variable(2, 2)
    assert murphy_apply(2, x2) == x2.scale(Q)
    assert murphy_apply(1, x2) == x2
    for n in (2, 3, 4):
        c = XPoly.one(n)
        for i in range(1, n + 1):
            assert murphy_apply(i, c) == c.scale(QTRat.monomial(te=n + 1 - 2 * i))
    with pytest.raises(IndexOutOfRange):
        murphy_apply(3, x2)


def test_murphy_commute():
    rng = random.Random(7)
    for n in (2, 3, 4):
        f = _random_poly(rng, n)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                assert murphy_apply(i, murphy_apply(j, f)) == \
                    murphy_apply(j, murphy_apply(i, f))


def test_baxterised_yang_baxter():
    # (T_i + c(u))(T_{i+1} + c(u+v))(T_i + c(v)) with c(w) = (1-t)/(1-d_w),
    # the spectral monomials treated formally: d_{u+v} = d_u d_v
    def bax(f, i, d):
        return demazure_T(f, i) + f.scale((ONE - T) * (ONE - d).inverse())

    rng = random.Random(11)
    du = QTRat.monomial(qe=1, te=1)
    dv = QTRat.monomial(qe=0, te=2)
    for n, i in ((3, 1), (4, 2)):
        f = _random_poly(rng, n)
        lhs = bax(bax(bax(f, i, dv), i + 1, du * dv), i, du)
        rhs = bax(bax(bax(f, i + 1, du), i, du * dv), i + 1, dv)
        assert lhs == rhs


def test_eigen_check_examples():
    assert eigen_check((0, 1), XPoly.variable(2, 2))
    assert not eigen_check((1, 0), XPoly.variable(1, 2))
    delta = (0, 0, 1, 1, 2, 2)
    assert eigen_check(delta, compute_f(delta))


def test_eigen_check_clears_by_the_hhl_denominator(monkeypatch):
    lam = (2, 0, 1)
    E = compute_E(lam)
    words = []
    real = hecke.murphy_apply
    monkeypatch.setattr(hecke, "murphy_apply",
                        lambda i, N: words.append(i) or real(i, N))
    # a zero coefficient at x^lam, and a denominator 1 - q^5 t^7 outside
    # D_lam: False, without a Murphy word
    assert not eigen_check(lam, E - XPoly.monomial(lam))
    outside = QTRat(1, {(0, 0): 1, (5, 7): -1})
    assert not eigen_check(lam, E + XPoly.monomial((0, 1, 2), outside))
    assert words == []
    # any nonzero scale, here (2 + q)/(1 - q^5 t^7)
    assert eigen_check(lam, E.scale(QTRat({(0, 0): 2, (1, 0): 1}) * outside))
    assert words == [1, 2, 3]


def test_eigenvalues_delta_001122():
    # in the half-integer normalization the spectrum reads t^{-3/2},
    # t^{-5/2}, ..., q^2 t^{5/2}, q^2 t^{3/2}; multiplying position i by
    # t^{(n+1-2i)/2} must land on integer exponent pairs.  Positions 3,4
    # are fixed by the spectral-vector formula alone (qt, qt^{-1} there
    # would leave half-integer exponents after the same rescale)
    assert eigen_exponents((0, 0, 1, 1, 2, 2)) == \
        ((0, 1), (0, -1), (1, 1), (1, -1), (2, 1), (2, -1))


def test_qkz_small():
    assert verify_qkz((1, 0))
    assert verify_qkz((1, 1))
    assert verify_qkz((2, 1, 0))
    assert verify_qkz((2, 2, 1, 1, 0, 0))


def test_qkz_clears_the_orbit_once(monkeypatch):
    calls = []
    real = hecke._integral
    monkeypatch.setattr(hecke, "_integral",
                        lambda *args: calls.append(args[0]) or real(*args))
    assert verify_qkz((2, 1, 0))
    assert calls == [(0, 1, 2)]


@pytest.mark.parametrize("bad", orbit((2, 1, 0)))
def test_qkz_names_a_member_that_gains_a_term(monkeypatch, bad):
    monkeypatch.setattr(hecke, "compute_f", lambda lam: compute_f(lam) + (
        XPoly.monomial((1, 1, 1)) if lam == bad else XPoly.zero(3)))
    assert bad in {mu for mu, _ in hecke.qkz_failures((2, 1, 0))}


def test_raise_E_hand():
    assert raise_E((0, 1), 1, XPoly.variable(2, 2)) == E10
    with pytest.raises(NotRaisable):
        raise_E((1, 0), 1, XPoly.variable(1, 2))
    delta = (0, 0, 1, 1, 2, 2)
    up = raise_E(delta, 2, compute_f(delta))
    assert eigen_check((0, 1, 0, 1, 2, 2), up)
    assert up.coeff_of((0, 1, 0, 1, 2, 2)).is_one()


def test_compute_E_base_and_one_step():
    assert compute_E((0, 1)) == XPoly.variable(2, 2)
    assert compute_E((1, 0)) == E10
    delta = (0, 0, 1, 1, 2, 2)
    assert compute_E(delta) == compute_f(delta)


def test_compute_E_word_independence():
    # two different reduced words from (0,1,2) to (2,1,0)
    lam = (2, 1, 0)
    E = compute_f((0, 1, 2))
    for cur, i in (((0, 1, 2), 1), ((1, 0, 2), 2), ((1, 2, 0), 1)):
        E = raise_E(cur, i, E)
    word_a = E
    E = compute_f((0, 1, 2))
    for cur, i in (((0, 1, 2), 2), ((0, 2, 1), 1), ((2, 0, 1), 2)):
        E = raise_E(cur, i, E)
    assert word_a == E == compute_E(lam)


def test_compute_E_support_and_leading():
    # support: sorted shape dominated by lam+; within the rearrangement
    # class the finer composition order applies
    from macprod.compositions import dominant
    for lam in [(2, 0), (1, 0, 2), (2, 0, 1), (3, 1)]:
        E = compute_E(lam)
        assert E.coeff_of(lam).is_one()
        for exps in E.terms:
            assert dominance_leq(dominant(exps), dominant(lam))
            if dominant(exps) == dominant(lam):
                assert dominance_leq(exps, lam)


def test_triangular_expand():
    assert triangular_expand((0, 1)) == {(0, 1): ONE}
    assert triangular_expand((1, 1)) == {(1, 1): ONE}
    got = triangular_expand((1, 0))
    assert got == {(1, 0): ONE, (0, 1): Q * (ONE - T) / (ONE - Q * T)}
    # reconstruction and dominance-support on a 3-variable case
    lam = (2, 0, 1)
    coeffs = triangular_expand(lam)
    acc = XPoly.zero(3)
    for mu, c in coeffs.items():
        assert dominance_leq(mu, lam)
        acc = acc + compute_f(mu, 2).scale(c)
    assert acc == compute_E(lam)


def test_triangular_expand_rebuilds_E_4210():
    lam = (4, 2, 1, 0)
    acc = XPoly.zero(4)
    for mu, c in triangular_expand(lam).items():
        acc = acc + compute_f(mu).scale(c)
    assert acc == compute_E(lam)


def test_compute_E_result_is_owned_by_the_caller():
    clear_caches()
    E = compute_E((1, 0))
    E.terms.clear()
    assert compute_E((1, 0)) == E10
    compute_E((2, 0, 1)).terms.clear()
    assert compute_E((2, 0, 1)).coeff_of((2, 0, 1)).is_one()
    # nor does a coefficient share a dict with the f cache that the walk
    # reads, or with a constant of the field
    want = compute_E((2, 1, 0)).to_obj()
    E = compute_E((2, 1, 0))
    E.terms[(1, 1, 1)].num[(9, 9)] = 1
    for c in E.terms.values():
        c.den[(9, 9)] = 1
    assert compute_E((2, 1, 0)).to_obj() == want
    compute_f((0, 1, 2)).terms[(1, 1, 1)].num[(9, 9)] = 1
    # the f cache stays warm, so the walk rereads the f handed out above
    assert compute_E((2, 1, 0)).to_obj() == want


def test_raising_covers_small_compositions():
    # all 117 compositions with 2-4 parts in {0, 1, 2}: monic at x^lam, a
    # Murphy eigenfunction by the QTRat check, and a second walk from cold
    # caches agrees
    assert len(SMALL) == 117
    got = {}
    for lam in SMALL:
        E = compute_E(lam)
        assert E.coeff_of(lam).is_one()
        assert oracle.eigen_check(lam, E)
        got[lam] = E
    for lam in SMALL:
        clear_caches()
        assert compute_E(lam) == got[lam]


def test_factored_chain_matches_gcd_reduction():
    # the chain reduces by trial division; the reference clears and
    # reduces every move with gcds
    memo = {}
    for lam in SMALL + list(POOL):
        assert compute_E(lam) == gcd_raising.compute_E(lam, memo)


@pytest.fixture
def gcd_calls(monkeypatch):
    """The argument pairs of every _dict_gcd call made after the caches
    are cleared."""
    calls = []
    real = qtfield._dict_gcd
    monkeypatch.setattr(qtfield, "_dict_gcd",
                        lambda a, b: calls.append((a, b)) or real(a, b))
    clear_caches()
    return calls


def test_compute_E_takes_no_gcd(gcd_calls):
    for lam in POOL + ((3, 2, 1, 0, 0),):
        compute_E(lam)
    assert gcd_calls == []
    # the counter does see QTRat arithmetic on a coefficient of E (the
    # reference route gcd_raising runs in the reference field instead)
    compute_E((1, 0)).coeff_of((0, 1)) + 1
    assert gcd_calls


def test_eigen_solve_E_takes_no_gcd(gcd_calls):
    # the oracle compositions of the certify benchmark pool, a 5-part
    # one and the frontier shape (4, 2, 1, 0)
    for lam in ((1, 2, 0, 1), (2, 1, 0, 1), (1, 0, 1, 2), (2, 0, 1, 1),
                (1, 1, 0, 2), (2, 0, 0, 2, 2), (4, 2, 1, 0)):
        eigen_solve_E(lam)
    assert gcd_calls == []


def test_eigen_check_and_verify_eigen_take_no_gcd(gcd_calls, capsys):
    for lam in POOL[:3] + ((3, 2, 1, 0, 0),):
        assert eigen_check(lam, compute_E(lam))
        assert main(["verify", "eigen", "--lambda",
                     ",".join(map(str, lam))]) == 0
    assert capsys.readouterr().out.count(": pass") == 4
    assert gcd_calls == []


def test_verify_qkz_takes_no_gcd(gcd_calls):
    for lam in ((3, 1, 0), (3, 2, 0), (2, 1, 1, 0, 0)):
        assert verify_qkz(lam)
    assert gcd_calls == []


def _hhl_denominator(lam):
    """Haglund-Haiman-Loehr D_lam = prod over the cells u = (i, j) of
    dg(lam), column i of height lam_i, of 1 - q^(leg+1) t^(arm+1)."""
    D = {(0, 0): 1}
    for i, h in enumerate(lam):
        for j in range(1, h + 1):
            leg = h - j
            arm = len([k for k in range(i + 1, len(lam))
                       if j <= lam[k] <= h]) + \
                len([k for k in range(i) if j - 1 <= lam[k] < h])
            D = _dict_mul(D, {(0, 0): 1, (leg + 1, arm + 1): -1})
    return D


def test_E_denominators_divide_hhl_denominator():
    # the chain trial-divides by the factors of D_lam on every move; this
    # checks the values it returns against a D_lam built independently
    for lam in ((4, 2, 1, 0), (3, 2, 1, 0, 0)):
        D = _hhl_denominator(lam)
        dens = {frozenset(c.den.items()): c.den
                for c in compute_E(lam).terms.values()}
        assert len(dens) > 1
        for den in dens.values():
            _dict_divexact(D, den)


def test_f_denominators_divide_hhl_denominator_of_the_orbit():
    # qkz clears every f_mu by the factors of D_delta, delta the
    # anti-dominant member of the orbit
    for lam in FS + list(POOL):
        D = _hhl_denominator(antidominant(lam))
        for c in compute_f(lam).terms.values():
            _dict_divexact(D, c.den)


def test_raise_E_invariants_raise_internal_error():
    # an E that is not monic at x^lam breaks the lead identity t (1-d) D
    E = compute_E((0, 1, 2))
    with pytest.raises(InternalError):
        raise_E((0, 1, 2), 1, E.scale(2))
    assert raise_E((0, 1, 2), 1, E) == compute_E((1, 0, 2))
    # 1 - q^2 t does not divide D_(0,1) = 1 - q t^2
    outside = ONE / QTRat({(0, 0): 1, (2, 1): -1})
    with pytest.raises(InternalError):
        raise_E((0, 1), 1, XPoly.variable(2, 2).scale(outside))


def test_frontier_E_4210_from_cold_caches():
    # at the gcd-reducing chain this took about 26 s
    clear_caches()
    lam = (4, 2, 1, 0)
    E = compute_E(lam)
    assert E.coeff_of(lam).is_one()
    assert eigen_check(lam, E)


def test_clear_caches_empties_every_cache_of_the_package():
    modules = [importlib.import_module(f"macprod.{m.name}")
               for m in pkgutil.iter_modules(macprod.__path__)]
    compute_E((3, 1, 0, 2))
    assert verify_qkz((2, 1, 0))
    assert main(["compute", "P", "--lambda", "2,1,0"]) == 0
    caches = {f"{m.__name__}.{name}": obj for m in modules
              for name, obj in vars(m).items() if hasattr(obj, "cache_info")}
    for name in ("matprod._trace", "matprod._level", "matprod._compute_f",
                 "xpoly._image", "xpoly._bias", "cli.build_parser"):
        assert caches[f"macprod.{name}"].cache_info().currsize, name
    assert not [name for name in caches if name.startswith("macprod.hecke.")]
    clear_caches()
    assert {name: c.cache_info().currsize for name, c in caches.items()
            if c.cache_info().currsize} == {}


def _leftmost_descent_word(lam):
    """The word that raises lam from its anti-dominant rearrangement by
    undoing, from lam down, the leftmost descent each time."""
    word = []
    while True:
        i = next((i for i in range(1, len(lam)) if lam[i - 1] > lam[i]), None)
        if i is None:
            return tuple(reversed(word))
        word.append(i)
        lam = lam[:i - 1] + (lam[i], lam[i - 1]) + lam[i + 1:]


def _fold(lam, memo):
    """E_lam by the public raise_E, each move checked on its own, along
    the leftmost-descent word from the anti-dominant f; memo maps
    compositions to their E."""
    cur = antidominant(lam)
    E = compute_f(cur)
    for i in _leftmost_descent_word(lam):
        nxt = cur[:i - 1] + (cur[i], cur[i - 1]) + cur[i + 1:]
        if nxt not in memo:
            memo[nxt] = raise_E(cur, i, E)
        cur, E = nxt, memo[nxt]
    return E


def test_each_E_costs_one_exact_check(monkeypatch):
    clear_caches()
    checked = []
    real = hecke.eigen_failure
    monkeypatch.setattr(hecke, "eigen_failure",
                        lambda lam, N: checked.append(lam) or real(lam, N))
    # no POOL member is anti-dominant; (2, 3, 0, 1) and (2, 0, 3, 1) lie
    # on the chain of (3, 2, 0, 1)
    for lam in POOL:
        compute_E(lam)
        assert checked == [lam]
        checked.clear()
    # no E is memoised, so a repeated call is checked again
    for _ in range(2):
        compute_E((2, 0, 3, 1))
    assert checked == [(2, 0, 3, 1)] * 2
    monkeypatch.undo()
    # every E handed out equals the walk of individually checked moves,
    # on a word that often differs from raising_word
    lams = SMALL + list(POOL) + [(3, 2, 1, 0, 0), (4, 2, 1, 0)]
    assert sum(_leftmost_descent_word(lam) != raising_word(lam)
               for lam in lams) == 19
    memo = {}
    for lam in lams:
        assert compute_E(lam).to_obj() == _fold(lam, memo).to_obj(), lam


def test_compute_E_moves_once_per_letter_of_its_word(monkeypatch):
    clear_caches()
    moves = []
    real = hecke._move
    monkeypatch.setattr(hecke, "_move",
                        lambda *args: moves.append(args[:2]) or real(*args))
    # (2, 0, 3, 1) lies on the walk of (3, 2, 0, 1), and is walked again
    # when asked for; no E is memoised, so a repeated call walks again
    for lam in ((3, 2, 0, 1), (2, 0, 3, 1)):
        for _ in range(2):
            compute_E(lam)
            assert len(moves) == len(raising_word(lam)), lam
            moves.clear()


def test_no_integral_form_outlives_compute_E():
    # no numerator of a walk is kept once its E is handed out
    clear_caches()
    compute_E((3, 2, 0, 1))
    compute_E((4, 2, 1, 0))
    gc.collect()
    assert sum(isinstance(o, (XNum, XPack)) for o in gc.get_objects()) == 0


# the third of five moves on the walk of (3, 2, 0, 1)
BAD_MOVE = ((2, 0, 1, 3), 3)


def test_a_failing_move_is_named(monkeypatch, capsys):
    clear_caches()
    monkeypatch.setattr(hecke, "_move", lower_term_move(BAD_MOVE))
    named = f"at {BAD_MOVE[0]}, i={BAD_MOVE[1]}"
    try:
        with pytest.raises(BranchResolutionFailure, match=re.escape(named)):
            compute_E((3, 2, 0, 1))
        clear_caches()
        assert main(["compute", "E", "--lambda", "3,2,0,1"]) == 2
        assert named in capsys.readouterr().err
    finally:
        clear_caches()


@pytest.mark.parametrize("fault, code, message", [
    (f"hecke._move = lower_term_move({BAD_MOVE})", 2,
     f"the spectral branch fails at {BAD_MOVE[0]}, i={BAD_MOVE[1]}"),
    ("hecke.compute_f = lambda lam: compute_f(lam).scale(QTRat(2))", 3,
     "the move at (0, 1, 2, 3), i=2 breaks the lead identity"),
])
def test_chain_faults_under_optimize(fault, code, message):
    # the eigen fault is a typed error (exit 2) and the lead identity an
    # InternalError (exit 3), and -O keeps both
    script = ("import sys; from helpers import lower_term_move; "
              "from macprod import cli, hecke; "
              "from macprod.matprod import compute_f; "
              "from macprod.qtfield import QTRat; "
              f"{fault}; "
              "sys.exit(cli.main(['compute', 'E', '--lambda', '3,2,0,1']))")
    tests = Path(__file__).resolve().parent
    path = f"{tests.parent / 'src'}{os.pathsep}{tests}"
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == code, proc.stderr
    assert message in proc.stderr
