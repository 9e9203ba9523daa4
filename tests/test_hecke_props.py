"""Property tests for the Hecke layer on random XPolys over Q(q, t).

The operators under test run on denominator-cleared integral numerators
(the XPoly helpers clear and reduce around them); qtrat_hecke holds the
definitional QTRat formulas they must match."""

from hypothesis import given, settings
from hypothesis import strategies as st

import qtrat_hecke as oracle
import xnum_dict
from helpers import (demazure_T, demazure_T_inv, murphy_apply, numerator,
                     shift_omega, value)
from macprod.hecke import compute_E, eigen_check
from macprod.qtfield import QTRat, _dict_mul
from macprod.xpoly import XPoly, pack

T = QTRat.monomial(te=1)
ONE = QTRat(1)

# denominators 1 - q^A t^B, the kind raising and the traces produce
binomials = st.sampled_from([(0, 1), (1, 0), (1, 1), (1, 2), (2, 1), (0, 2)])
small_polys = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                              st.integers(-3, 3).filter(bool),
                              min_size=1, max_size=3)


@st.composite
def coefficients(draw):
    den = {(0, 0): 1}
    for A, B in draw(st.lists(binomials, max_size=2)):
        den = _dict_mul(den, {(0, 0): 1, (A, B): -1})
    c = QTRat(draw(small_polys), den)
    return c * QTRat.monomial(draw(st.integers(-1, 1)), draw(st.integers(-1, 1)))


@st.composite
def xpolys(draw, n_min=2, n_max=5):
    n = draw(st.integers(n_min, n_max))
    exps = st.tuples(*[st.integers(0, 3)] * n)
    terms = draw(st.dictionaries(exps, coefficients(), max_size=4))
    return XPoly(n, terms)


@st.composite
def poly_and_index(draw, n_min=2):
    f = draw(xpolys(n_min=n_min))
    return f, draw(st.integers(1, f.n - 1))


def tee(f, *word):
    for i in word:
        f = demazure_T(f, i)
    return f


@settings(max_examples=40, deadline=None)
@given(poly_and_index())
def test_operators_match_definitions(fi):
    f, i = fi
    e = [0] * f.n
    e[i - 1] = 1
    x_i = XPoly.monomial(e)
    assert oracle.divided_difference(f, i) * (x_i - x_i.apply_s(i)) == \
        f - f.apply_s(i)
    assert demazure_T(f, i) == oracle.demazure_T(f, i)
    assert demazure_T_inv(f, i) == oracle.demazure_T_inv(f, i)
    assert shift_omega(f) == oracle.shift_omega(f)


@settings(max_examples=40, deadline=None)
@given(xpolys())
def test_numerator_round_trip(f):
    N, D = numerator(f)
    assert value(N, D) == f
    X, = pack((N,), 0, 3, t_down=1)
    assert X.times({(2, -1): 3}) == X.times({(2, -1): 1}).times({(0, 0): 3})
    assert X.times({(2, -1): 3}).unpack() == \
        xnum_dict.times(N, {(2, -1): 3})


@settings(max_examples=40, deadline=None)
@given(poly_and_index())
def test_quadratic_relation(fi):
    # (T~_i - t)(T~_i + 1) f = 0
    f, i = fi
    g = demazure_T(f, i) + f
    assert not (demazure_T(g, i) - g.scale(T))


@settings(max_examples=30, deadline=None)
@given(poly_and_index(n_min=3), st.data())
def test_braid_relations(fi, data):
    f, i = fi
    i = min(i, f.n - 2)
    assert tee(f, i, i + 1, i) == tee(f, i + 1, i, i + 1)
    far = [j for j in range(1, f.n) if abs(i - j) >= 2]
    if far:
        j = data.draw(st.sampled_from(far))
        assert tee(f, i, j) == tee(f, j, i)


@settings(max_examples=40, deadline=None)
@given(poly_and_index())
def test_inverse(fi):
    f, i = fi
    assert demazure_T_inv(demazure_T(f, i), i) == f
    assert demazure_T(demazure_T_inv(f, i), i) == f


@settings(max_examples=25, deadline=None)
@given(xpolys(n_max=3), st.data())
def test_murphy_elements_commute(f, data):
    i = data.draw(st.integers(1, f.n))
    j = data.draw(st.integers(1, f.n))
    assert murphy_apply(i, murphy_apply(j, f)) == \
        murphy_apply(j, murphy_apply(i, f))
    assert murphy_apply(i, f) == oracle.murphy_apply(i, f)


compositions = st.lists(st.integers(0, 2), min_size=2, max_size=3).map(tuple)


@settings(max_examples=25, deadline=None)
@given(compositions, coefficients(), st.data())
def test_eigen_check_is_exact_and_scale_invariant(lam, c, data):
    E = compute_E(lam)
    assert eigen_check(lam, E.scale(c))
    assert oracle.eigen_check(lam, E)
    g = E + data.draw(xpolys(n_min=len(lam), n_max=len(lam)))
    assert eigen_check(lam, g) == oracle.eigen_check(lam, g)
