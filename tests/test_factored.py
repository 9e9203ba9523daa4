"""Factored-denominator sums against the gcd-reduced QTRat route, which runs
in the reference field (conftest.reference_field) so that it shares no
trial division with the Factored code it checks."""

import inspect
import os
import subprocess
import sys
from itertools import permutations
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_field
from macprod import clear_caches, matprod, qtfield, xpoly
from macprod.compositions import check_composition, is_partition
from macprod.errors import InternalError
from macprod.matprod import (compute_P, compute_f, expand_configurations,
                             raw_trace_sum)
from macprod.qtfield import (Factored, QTRat, _dict_iadd, _dict_mul,
                             binomial_factors, zero)
from macprod.xpoly import XNum, XPoly

# binomials 1 - q^A t^B, gcd(A, B) > 1 included (1 - t^4, 1 - q^2 t^2)
binomials = st.sampled_from([(0, 1), (1, 0), (1, 1), (0, 4), (2, 2), (1, 2),
                             (3, 0), (2, 4), (3, 6), (4, 2)])
# extra numerator factors: binomials and single cyclotomic pieces
# 1 + t^2 (of 1 - t^4) and 1 + q t (of 1 - q^2 t^2)
pieces = st.sampled_from([{(0, 0): 1, (0, 1): -1},
                          {(0, 0): 1, (0, 2): 1},
                          {(0, 0): 1, (1, 1): 1},
                          {(0, 0): 1, (2, 2): -1},
                          {(0, 0): 1, (1, 2): -1}])
polys = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                        st.integers(-3, 3).filter(bool), max_size=4)
monomials = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


@st.composite
def terms(draw):
    """(Factored value, the same value through QTRat's gcd reduction)."""
    num = draw(polys)
    for p in draw(st.lists(pieces, max_size=3)):
        num = _dict_mul(num, p)
    dens = draw(st.lists(binomials, max_size=4))
    mq, mt = draw(monomials)
    den = {(0, 0): 1}
    x = Factored({(qe + mq, te + mt): c for (qe, te), c in num.items()})
    for A, B in dens:
        den = _dict_mul(den, {(0, 0): 1, (A, B): -1})
        x = x * Factored.binomial(A, B, -1)
    with reference_field():
        return x, QTRat(num, den) * QTRat.monomial(mq, mt)


def same(a, b):
    return a.num == b.num and a.den == b.den


@settings(max_examples=150, deadline=None)
@given(terms())
def test_reduce_matches_gcd_route(pair):
    x, want = pair
    assert same(x.reduce(), want)


@settings(max_examples=100, deadline=None)
@given(st.lists(terms(), max_size=4))
def test_sum_over_lcm_matches_gcd_route(pairs):
    want = zero()
    with reference_field():
        for _, w in pairs:
            want = want + w
    assert same(Factored.sum([x for x, _ in pairs]).reduce(), want)


@settings(max_examples=60, deadline=None)
@given(terms(), terms())
def test_product_and_binomial_powers(p1, p2):
    (x, a), (y, b) = p1, p2
    with reference_field():
        ab = a * b
    assert same((x * y).reduce(), ab)
    # multiplying in a binomial cancels its listed factors again
    back = x * Factored.binomial(2, 2, -1) * Factored.binomial(2, 2, 1)
    assert same(back.reduce(), a)


def test_binomial_factors_values():
    assert binomial_factors(0, 4) == (-1, (((1, 0, 1), 1), ((2, 0, 1), 1),
                                           ((4, 0, 1), 1)))
    assert binomial_factors(2, 2) == (-1, (((1, 1, 1), 1), ((2, 1, 1), 1)))
    assert binomial_factors(2, 3) == (-1, (((1, 2, 3), 1),))
    for A, B in ((-1, 2), (1, -2), (0, 0)):
        with pytest.raises(InternalError):
            binomial_factors(A, B)


def test_cyclotomic_cache_is_read_only():
    phi = qtfield._cyclotomic((2, 1, 1))
    assert dict(phi) == {(0, 0): 1, (1, 1): 1}
    with pytest.raises(TypeError):
        phi[(0, 0)] = 5
    assert qtfield._cyclotomic((2, 1, 1)) == {(0, 0): 1, (1, 1): 1}


def test_cyclotomic_table_multiplies_back_to_x_d_minus_one():
    # prod over e | d of Phi_e(x) is x^d - 1, and Phi_d has degree phi(d),
    # checked by multiplication alone
    for d in range(1, 61):
        prod = {(0, 0): 1}
        for e in range(1, d + 1):
            if d % e == 0:
                prod = _dict_mul(prod, qtfield._cyclotomic((e, 1, 0)))
        assert prod == {(0, 0): -1, (d, 0): 1}, d
        phi = sum(1 for k in range(1, d + 1) if gcd(k, d) == 1)
        assert len(qtfield._cyclotomic_coeffs(d)) - 1 == phi, d


def _reference_divide_factor(num, factor):
    """qtfield._divide_factor without its line-sum test: synthetic
    division along each line (i, j) + k (a, b), None at the first line
    that leaves a remainder."""
    p = qtfield._cyclotomic_coeffs(factor[0])
    a, b = factor[1], factor[2]
    step = a * a + b * b
    dp = len(p) - 1
    lines = {}
    for (i, j), c in num.items():
        lines.setdefault(b * i - a * j, []).append((i * a + j * b, i, j, c))
    out = {}
    for terms in lines.values():
        s0, i0, j0, _ = min(terms)
        u = [0] * ((max(terms)[0] - s0) // step + 1)
        if len(u) <= dp:
            return None
        for s, _, _, c in terms:
            u[(s - s0) // step] = c
        for k in range(len(u) - 1, dp - 1, -1):
            c = u[k]
            if c:
                out[(i0 + (k - dp) * a, j0 + (k - dp) * b)] = c
                for e, pc in enumerate(p):
                    u[k - dp + e] -= c * pc
        if any(u):
            return None
    return out


laurent = st.dictionaries(monomials, st.integers(-3, 3).filter(bool),
                          max_size=6)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6),
       st.sampled_from([(1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (3, 2)]),
       laurent, monomials, st.integers(-2, 2).filter(bool), laurent)
def test_divide_factor_matches_the_reference(d, direction, g, at, bump, h):
    factor = (d,) + direction
    num = _dict_mul(g, qtfield._cyclotomic(factor))
    assert qtfield._divide_factor(num, factor) == g
    # one coefficient moved: that line alone fails, the others divide
    one_line = _dict_iadd(dict(num), {at: bump})
    assert qtfield._divide_factor(one_line, factor) is None
    assert _reference_divide_factor(one_line, factor) is None
    for p in (h, _dict_iadd(dict(num), h), _dict_mul(num, h)):
        assert qtfield._divide_factor(p, factor) == \
            _reference_divide_factor(p, factor)


def test_line_sums_decide_division_by_phi_1_and_phi_2():
    # 1 + q t = Phi_2(q t): on its line the sum is 2, the alternating sum 0
    one_plus = {(0, 0): 1, (1, 1): 1}
    assert qtfield._divide_factor(one_plus, (2, 1, 1)) == {(0, 0): 1}
    assert qtfield._divide_factor(one_plus, (1, 1, 1)) is None
    # q^-1 t^2 (1 - q^2 t^2) = -q^-1 t^2 Phi_1(q t) Phi_2(q t)
    num = {(-1, 2): 1, (1, 4): -1}
    assert qtfield._divide_factor(num, (2, 1, 1)) == {(-1, 2): 1, (0, 3): -1}
    assert qtfield._divide_factor(num, (1, 1, 1)) == {(-1, 2): -1, (0, 3): -1}
    # two lines of direction (1, 0): 1 - q + t (1 + q) has one of each
    num = {(0, 0): 1, (1, 0): -1, (0, 1): 1, (1, 1): 1}
    assert qtfield._divide_factor(num, (1, 1, 0)) is None
    assert qtfield._divide_factor(num, (2, 1, 0)) is None


def test_zero_and_cancellation():
    assert not Factored.sum([])
    assert Factored({}).reduce() == zero()
    x = Factored({(0, 0): 1}) * Factored.binomial(0, 1, -1)
    minus = Factored({(0, 0): -1}) * Factored.binomial(0, 1, -1)
    assert not Factored.sum([x, minus])
    # (1 - t^4)/(1 - t^2) = 1 + t^2 with no denominator left
    r = (Factored.binomial(0, 4, 1) * Factored.binomial(0, 2, -1)).reduce()
    assert r == QTRat({(0, 0): 1, (0, 2): 1})


SHAPES = [(1, 0), (0, 1, 1), (2, 0, 1), (1, 2, 0, 1), (0, 0, 1, 2), (2, 2, 1),
          (3, 0, 1, 2), (1, 0, 2, 0, 1)]


@pytest.mark.parametrize("lam", SHAPES)
def test_raw_trace_sum_matches_per_configuration_sum(lam):
    acc = {}
    for cfg in expand_configurations(lam):
        acc[cfg.exps] = acc.get(cfg.exps, zero()) + cfg.weight
    want = XPoly(len(lam), acc)
    assert raw_trace_sum(lam) == want


@pytest.mark.parametrize("lam", [(1,), (1, 1), (2, 1), (2, 1, 0), (2, 2, 0),
                                 (3, 1, 0), (2, 1, 1, 0), (1, 1, 0, 0)])
def test_compute_P_matches_orbit_sum_of_f(lam):
    acc = {}
    for mu in set(permutations(lam)):
        for e, c in compute_f(mu).terms.items():
            acc[e] = acc.get(e, zero()) + c
    assert compute_P(lam) == XPoly(len(lam), acc)


def test_rank4_five_parts_monic_homogeneous():
    lam = (0, 1, 2, 3, 4)
    f = compute_f(lam)
    assert f.coeff_of(lam).is_one()
    assert f.is_homogeneous(sum(lam))


def test_compute_f_and_P_take_no_gcd(monkeypatch):
    # basis-pool compositions: the configuration sum reduces by trial
    # division only
    calls = []
    real = qtfield._dict_gcd
    monkeypatch.setattr(qtfield, "_dict_gcd",
                        lambda a, b: calls.append((a, b)) or real(a, b))
    clear_caches()
    for lam in ((3, 0, 0, 1, 3, 2), (0, 2, 3, 1, 2, 0, 1), (2, 1, 2, 1, 0, 3, 0)):
        compute_f(lam)
    compute_P((3, 2, 1, 0, 0))
    # the certify pool's recursion checks: transfers, prefactor and rhs
    for lam in ((0, 1, 2, 3), (1, 3, 0, 2), (2, 3, 0, 1), (3, 1, 0, 2)):
        assert matprod.recursion_report(lam).ok
    assert calls == []
    # the counter does see a reduction that needs a gcd
    QTRat({(0, 0): 1, (0, 2): -1}, {(0, 0): 1, (0, 1): -1})
    assert calls


def test_bool_parts_rejected():
    with pytest.raises(ValueError):
        check_composition((True, 0, 1))
    assert not is_partition((True, 0))
    with pytest.raises(ValueError):
        compute_f((True, 0, 1))


def _short_symmetrise(self):
    """XNum.symmetrise with the top generator left out of its first stage:
    a symmetriser that misses part of S_n."""
    steps = self.n * (self.n - 1) // 2
    out, = xpoly.pack((self,), steps, t_up=steps)
    for k in range(self.n - 1, 0, -1):
        acc = out
        for j in range(1, k if k == self.n - 1 else k + 1):
            acc = out + acc.demazure_T(j)
        out = acc
    return out.unpack()


def test_compute_P_raises_when_not_symmetric(monkeypatch):
    monkeypatch.setattr(XNum, "symmetrise", _short_symmetrise)
    for lam in ((2, 1), (2, 1, 0)):
        with pytest.raises(InternalError, match="not symmetric"):
            compute_P(lam)


def test_internal_error_exit_3_under_optimize():
    # invariants are raises, not asserts, so -O keeps them
    src = Path(__file__).resolve().parents[1] / "src"
    code = (inspect.getsource(_short_symmetrise) +
            "import sys\nfrom macprod import cli, xpoly\n"
            "xpoly.XNum.symmetrise = _short_symmetrise\n"
            "sys.exit(cli.main(['compute', 'P', '--lambda', '2,1,0']))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert "internal" in proc.stderr
