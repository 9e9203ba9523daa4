"""Definitional Hecke operators on XPoly with QTRat coefficients.

The test oracle for macprod.xpoly and macprod.hecke, which run the same
operators on denominator-cleared integral numerators.  Everything here is
plain Q(q, t) arithmetic straight from the definitions, in the reference
field:

    d_i f  = (f - s_i f)/(x_i - x_{i+1})    by synthetic division
    T~_i f = t f - (t x_i - x_{i+1}) d_i f
    T~_i^{-1} f = (T~_i f - (t - 1) f)/t
    (w f)(x_1..x_n) = f(q x_n, x_1, .., x_{n-1})
"""

from conftest import reference_field
from macprod.compositions import check_composition, eigen_exponents
from macprod.qtfield import QTRat, one
from macprod.xpoly import XPoly

T = QTRat.monomial(te=1)
ONE = one()


@reference_field()
def divided_difference(f, i):
    diff = f - f.apply_s(i)
    k = i - 1
    buckets = {}
    for e, c in diff.terms.items():
        buckets.setdefault(e[k], {})[e] = c
    if not buckets:
        return XPoly.zero(f.n)
    quot = {}
    for d in range(max(buckets), 0, -1):
        for e, c in buckets.get(d, {}).items():
            if not c:
                continue
            qe = list(e)
            qe[k] -= 1
            qe = tuple(qe)
            nv = quot.get(qe)
            nv = c if nv is None else nv + c
            if nv:
                quot[qe] = nv
            else:
                del quot[qe]
            re = list(qe)
            re[k + 1] += 1
            re = tuple(re)
            lower = buckets.setdefault(d - 1, {})
            lv = lower.get(re)
            lower[re] = c if lv is None else lv + c
    if any(buckets.get(0, {}).values()):
        raise AssertionError(f"x_{i} - x_{i + 1} does not divide f - s_i f")
    return XPoly._raw(f.n, quot)


@reference_field()
def demazure_T(f, i):
    ei = [0] * f.n
    ei[i - 1] = 1
    ej = [0] * f.n
    ej[i] = 1
    fac = XPoly._raw(f.n, {tuple(ei): T, tuple(ej): -ONE})
    return f.scale(T) - fac * divided_difference(f, i)


@reference_field()
def demazure_T_inv(f, i):
    return (demazure_T(f, i) - f.scale(T - ONE)).scale(T.inverse())


@reference_field()
def shift_omega(f):
    out = {}
    for e, c in f.terms.items():
        out[e[1:] + (e[0],)] = c * QTRat.monomial(qe=e[0])
    return XPoly._raw(f.n, out)


@reference_field()
def murphy_apply(i, f):
    g = f
    for j in range(i - 1, 0, -1):
        g = demazure_T_inv(g, j)
    g = shift_omega(g)
    for j in range(f.n - 1, i - 1, -1):
        g = demazure_T(g, j)
    return g


@reference_field()
def eigen_check(lam, f):
    lam = check_composition(lam)
    if len(lam) != f.n or not f:
        return False
    return all(murphy_apply(i, f) == f.scale(QTRat.monomial(qe=qe, te=te))
               for i, (qe, te) in enumerate(eigen_exponents(lam), start=1))
