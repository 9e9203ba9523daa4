"""The bivariate primitive-PRS gcd in Z[q, t], kept as the reference field.

The package cancels only by denominators it can split into cyclotomic
factors Phi_d(q^a t^b), or univariate ones.  This is the gcd it took before,
which works for any pair of polynomials.  ref_field.Rat cancels by
dict_gcd, so that reference computations run on the whole field Q(q, t)
and share no trial division with the code they check.
"""

from math import gcd as _igcd

from macprod.qtfield import _dict_neg, _trim, _uni_content, _uni_gcd


def _uni_divexact(a, b):
    # exact division in Z[t]; ArithmeticError when it is not exact
    a = a[:]
    out = [0] * (len(a) - len(b) + 1) if len(a) >= len(b) else []
    lb = b[-1]
    while a and len(a) >= len(b):
        d = len(a) - len(b)
        c = a[-1] // lb
        out[d] = c
        for i, cb in enumerate(b):
            a[i + d] -= c * cb
        _trim(a)
    if a:
        raise ArithmeticError("inexact univariate division")
    return _trim(out)


def _uni_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _trim(out)


def _bi_content(A):
    g = []
    for c in A:
        if c:
            g = _uni_gcd(g, c)
            if g == [1]:
                return g
    return g


def _bi_prem(U, V):
    U = [c[:] for c in U]
    dv = len(V) - 1
    lv = V[-1]
    while U and len(U) - 1 >= dv:
        d = len(U) - 1 - dv
        lu = U[-1]
        U = [_uni_mul(lv, c) for c in U]
        for i, cv in enumerate(V):
            t = _uni_mul(lu, cv)
            c = U[i + d]
            if len(c) < len(t):
                c += [0] * (len(t) - len(c))
            for j, tj in enumerate(t):
                c[j] -= tj
            U[i + d] = _trim(c)
        while U and not U[-1]:
            U.pop()
    return U


def _bi_gcd(U, V):
    cU, cV = _bi_content(U), _bi_content(V)
    c = _uni_gcd(cU, cV)
    U = [_uni_divexact(x, cU) if x else [] for x in U]
    V = [_uni_divexact(x, cV) if x else [] for x in V]
    while V:
        R = _bi_prem(U, V)
        if R:
            cR = _bi_content(R)
            R = [_uni_divexact(x, cR) if x else [] for x in R]
        U, V = V, R
    cU = _bi_content(U)
    U = [_uni_divexact(x, cU) if x else [] for x in U]
    return [_uni_mul(c, x) if x else [] for x in U]


def dict_gcd(a: dict, b: dict) -> dict:
    """gcd in Z[q, t], leading (lex) coefficient positive."""
    if not a or not b:
        out = a or b
        if not out:
            return {}
        return _dict_neg(out) if out[max(out)] < 0 else dict(out)
    amq = min(k[0] for k in a)
    amt = min(k[1] for k in a)
    bmq = min(k[0] for k in b)
    bmt = min(k[1] for k in b)
    gq, gt = min(amq, bmq), min(amt, bmt)
    ca = _uni_content(list(a.values()))
    cb = _uni_content(list(b.values()))
    c = _igcd(ca, cb)
    if len(a) == 1 or len(b) == 1:
        return {(gq, gt): c}
    G = _bi_gcd(_bi_dense(a, amq, amt, ca), _bi_dense(b, bmq, bmt, cb))
    out = {(gq + i, gt + j): c * v
           for i, col in enumerate(G) for j, v in enumerate(col) if v}
    return _dict_neg(out) if out[max(out)] < 0 else out


def _bi_dense(a, mq, mt, content):
    """a / (content q^mq t^mt) as a list over q-degree of dense t-lists."""
    U = [[] for _ in range(max(k[0] for k in a) - mq + 1)]
    for (i, j), v in a.items():
        col = U[i - mq]
        j -= mt
        if len(col) <= j:
            col += [0] * (j + 1 - len(col))
        col[j] = v // content
    return U
