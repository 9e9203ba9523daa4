"""x-ring and the rescaled Hecke action: quadratic, braid, shift relations."""

import json
import random
import re

import pytest

import qtrat_hecke as oracle
import xnum_dict
from helpers import (add, bracket, demazure_T, demazure_T_inv,
                     eval_at, eval_ones, mul, scale, shift_omega, sub)
from helpers import variable as x
from macprod.errors import IndexOutOfRange
from macprod.qtfield import QTRat
from macprod.xpoly import XNum, XPoly
from ref_field import Rat, q, t


def rand_poly(rng, n, deg=3, nterms=4):
    p = XPoly.zero(n)
    for _ in range(nterms):
        e = tuple(rng.randrange(deg + 1) for _ in range(n))
        c = rng.randrange(-3, 4)
        if c:
            p = add(p, XPoly.monomial(e, c))
    return p


def test_demazure_frozen_rank1():
    # T~_1 x_1 = x_2, T~_1 x_2 = t x_1 + (t-1) x_2, T~_1 (x_1 x_2) = t x_1 x_2
    n = 2
    assert demazure_T(x(1, n), 1) == x(2, n)
    assert demazure_T(x(2, n), 1) == add(scale(x(1, n), t),
                                         scale(x(2, n), t - 1))
    assert demazure_T(mul(x(1, n), x(2, n)), 1) == \
        scale(mul(x(1, n), x(2, n)), t)


def test_constant_eigen():
    f = XPoly.monomial((0, 0, 0))
    assert demazure_T(f, 2) == scale(f, t)


def test_divided_difference_exactness():
    rng = random.Random(21)
    for _ in range(40):
        n = rng.randrange(2, 5)
        f = rand_poly(rng, n)
        i = rng.randrange(1, n)
        dd = oracle.divided_difference(f, i)
        ei = [0] * n
        ei[i - 1] = 1
        ej = [0] * n
        ej[i] = 1
        xdiff = sub(XPoly.monomial(ei), XPoly.monomial(ej))
        assert mul(dd, xdiff) == sub(f, f.apply_s(i))


def test_quadratic_relation():
    # (T~ - t)(T~ + 1) = 0, i.e. T~^2 = (t-1) T~ + t
    rng = random.Random(22)
    for _ in range(25):
        n = rng.randrange(2, 5)
        f = rand_poly(rng, n)
        i = rng.randrange(1, n)
        lhs = demazure_T(demazure_T(f, i), i)
        rhs = add(scale(demazure_T(f, i), t - 1), scale(f, t))
        assert lhs == rhs


def test_braid_relation():
    rng = random.Random(23)
    for _ in range(15):
        n = rng.randrange(3, 5)
        f = rand_poly(rng, n)
        i = rng.randrange(1, n - 1)
        lhs = demazure_T(demazure_T(demazure_T(f, i), i + 1), i)
        rhs = demazure_T(demazure_T(demazure_T(f, i + 1), i), i + 1)
        assert lhs == rhs


def test_commuting_relation():
    rng = random.Random(24)
    for _ in range(10):
        f = rand_poly(rng, 4)
        assert demazure_T(demazure_T(f, 1), 3) == \
            demazure_T(demazure_T(f, 3), 1)


def test_inverse():
    rng = random.Random(25)
    for _ in range(20):
        n = rng.randrange(2, 5)
        f = rand_poly(rng, n)
        i = rng.randrange(1, n)
        assert demazure_T_inv(demazure_T(f, i), i) == f
        assert demazure_T(demazure_T_inv(f, i), i) == f


def test_shift_omega_frozen():
    # n=3: w(x_1^2 x_3) = q^2 x_2 x_3^2
    f = XPoly.monomial((2, 0, 1))
    assert shift_omega(f) == scale(XPoly.monomial((0, 1, 2), None), q * q)
    # n=2: w(x_1) = q x_2, w(x_2) = x_1
    assert shift_omega(x(1, 2)) == scale(x(2, 2), q)
    assert shift_omega(x(2, 2)) == x(1, 2)


def test_shift_omega_affine_compatibility():
    # w T~_{i+1} = T~_i w for 1 <= i <= n-2
    rng = random.Random(26)
    for _ in range(15):
        n = 4
        f = rand_poly(rng, n)
        i = rng.randrange(1, n - 1)
        assert shift_omega(demazure_T(f, i + 1)) == \
            demazure_T(shift_omega(f), i)


def test_symmetric_polynomials_are_t_eigen():
    # on s_i-symmetric f, T~_i acts by t
    f = add(add(x(1, 3), x(2, 3)), x(3, 3))
    for i in (1, 2):
        assert demazure_T(f, i) == scale(f, t)
    assert f.is_symmetric()
    assert not add(f, x(1, 3)).is_symmetric()


def _sum_over_words(N):
    """sum over w in S_n of T~_w N: a breadth-first walk reaches each
    permutation once, by a reduced word, with T~_w N beside it."""
    level = {tuple(range(N.n)): N}
    seen = set(level)
    total = N
    while level:
        nxt = {}
        for w, M in level.items():
            for i in range(1, N.n):
                v = w[:i - 1] + (w[i], w[i - 1]) + w[i + 1:]
                if v not in seen:
                    seen.add(v)
                    nxt[v] = xnum_dict.demazure_T(M, i)
                    total = xnum_dict.add(total, nxt[v])
        level = nxt
    return total


def rand_num(rng, n, deg=2, nterms=4):
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randrange(deg + 1) for _ in range(n))
        qt = (rng.randrange(2), rng.randrange(2))
        terms[e] = {qt: rng.choice((-2, 1, 3))}
    return XNum(n, terms)


def test_symmetrise_is_the_sum_over_the_group():
    rng = random.Random(27)
    for n in (1, 2, 3, 4):
        for _ in range(3):
            N = rand_num(rng, n)
            S = N.symmetrise()
            assert S == _sum_over_words(N)
            # the sum is symmetric: T~_i acts on it by t
            for i in range(1, n):
                assert xnum_dict.demazure_T(S, i) == \
                    xnum_dict.times(S, {(0, 1): 1})


def test_mul_and_eval():
    f = mul(add(x(1, 2), x(2, 2)), sub(x(1, 2), x(2, 2)))
    assert f == sub(XPoly.monomial((2, 0)), XPoly.monomial((0, 2)))
    v = eval_at(f, [QTRat(3), QTRat(1)])
    assert v == QTRat(8)
    assert eval_ones(add(x(1, 2), x(2, 2))) == QTRat(2)


def test_specialize_coefficientwise():
    f = scale(XPoly.monomial((1, 0), None), bracket(2, 1))  # (1-q t^2)/(1-t) x_1
    g = f.specialize(q="t")
    assert g == scale(XPoly.monomial((1, 0), None), bracket(3))


def test_json_round_trip():
    rng = random.Random(27)
    for _ in range(10):
        f = scale(rand_poly(rng, 3), Rat(1) / (1 - q * t))
        blob = json.dumps(f.to_obj(), sort_keys=True)
        g = XPoly.from_obj(json.loads(blob))
        assert g == f
        assert json.dumps(g.to_obj(), sort_keys=True) == blob


def test_str_and_latex_order():
    f = XPoly(2, {(0, 2): QTRat(1), (1, 0): QTRat(1), (1, 1): QTRat(1)})
    # graded-lex descending: x1 x2, x2^2, x1
    assert str(f) == "x1*x2 + x2^2 + x1"
    assert f.latex() == "x_{1} x_{2} + x_{2}^{2} + x_{1}"


def test_from_obj_drops_zero_terms():
    obj = {"n": 2, "terms": [
        {"exp": [1, 0], "coef": {"num": [], "den": [[0, 0, 1]]}},
        {"exp": [0, 1], "coef": {"num": [[0, 0, 0]], "den": [[0, 0, 1]]}}]}
    p = XPoly.from_obj(obj)
    assert not p
    assert p == XPoly.zero(2)
    assert str(p) == "0"


@pytest.mark.parametrize("exps", [(1, 2, 3), (1,), (-1, 0), (True, 0),
                                  (1.0, 0), "ab", 5])
def test_constructor_rejects_a_bad_exponent(exps):
    with pytest.raises(IndexOutOfRange):
        XPoly(2, {exps: QTRat(1)})
    assert XPoly(2, {(1, 0): QTRat(1)}) == XPoly.monomial((1, 0))


def _one_term(n, exp):
    return {"n": n, "terms": [{"exp": exp, "coef": QTRat(2).to_obj()}]}


@pytest.mark.parametrize("exp", [[1, 2, 3], [1], [-1, 0]])
def test_from_obj_rejects_an_exponent_outside_n_variables(exp):
    # [-1, 0] once printed as 2*x1, and [1, 2, 3] was accepted by the
    # constructor and written by to_obj, then rejected by from_obj
    with pytest.raises(IndexOutOfRange):
        XPoly.from_obj(_one_term(2, exp))
    assert str(XPoly.from_obj(_one_term(2, [0, 1]))) == "2*x2"


@pytest.mark.parametrize("n, exp, bad", [
    (1.9, [2], "n"), (True, [2], "n"), ("1", [2], "n"),
    (1, [2.7], "terms[0].exp"), (1, [True], "terms[0].exp"),
    (1, ["2"], "terms[0].exp")])
def test_from_obj_accepts_only_json_integers(n, exp, bad):
    # n = 1.9 with exponent [2.7] once loaded as x1^2
    with pytest.raises(ValueError, match=re.escape(bad)):
        XPoly.from_obj(_one_term(n, exp))
