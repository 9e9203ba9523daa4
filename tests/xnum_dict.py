"""The Hecke operators on XNum one Laurent monomial at a time, kept as a
test reference for the packed kernel.

These are the dict loops that XNum ran before xpoly.XPack: every operator
touches every monomial q^a t^b of every coefficient in Python.  They act
on XNum values and share only the closed forms xpoly._image with the
kernel; qtrat_hecke checks those forms against the definitions.
"""

from macprod.errors import IndexOutOfRange
from macprod.qtfield import _dict_iadd, _dict_mul
from macprod.xpoly import XNum, _image


def add(N, M):
    if N.n != M.n:
        raise IndexOutOfRange(f"mixed variable counts {N.n} and {M.n}")
    out = {e: dict(c) for e, c in N.terms.items()}
    for e, c in M.terms.items():
        _dict_iadd(out.setdefault(e, {}), c)
    return XNum(N.n, {e: c for e, c in out.items() if c})


def times(N, m):
    """Every coefficient times the Laurent dict m."""
    out = {}
    for e, c in N.terms.items():
        p = _dict_mul(c, m)
        if p:
            out[e] = p
    return XNum(N.n, out)


def _apply(N, kind, i):
    if not 1 <= i <= N.n - 1:
        raise IndexOutOfRange(f"s_{i} out of range for n={N.n}")
    k = i - 1
    out = {}
    for e, c in N.terms.items():
        head, tail = e[:k], e[k + 2:]
        for (a, b), row in _image(kind, e[k], e[k + 1]):
            key = head + (a, b) + tail
            acc = out.get(key)
            if acc is None:
                acc = out[key] = {}
            for s, m in row:
                for (qe, te), v in c.items():
                    kk = (qe, te + s)
                    nv = acc.get(kk, 0) + m * v
                    if nv:
                        acc[kk] = nv
                    else:
                        del acc[kk]
    return XNum(N.n, {e: c for e, c in out.items() if c})


def demazure_T(N, i):
    return _apply(N, "T", i)


def demazure_T_inv(N, i):
    return _apply(N, "Tinv", i)


def shift_omega(N):
    """Rotate exponents and pay q^(e_1)."""
    out = {}
    for e, c in N.terms.items():
        out[e[1:] + (e[0],)] = \
            {(qe + e[0], te): v for (qe, te), v in c.items()} if e[0] else c
    return XNum(N.n, out)


def symmetrise(N):
    """The sum over w in S_n of T~_w N, as C_1 C_2 .. C_{n-1} with
    C_k = 1 + T~_k (1 + T~_{k-1} (.. (1 + T~_1)))."""
    out = N
    for k in range(N.n - 1, 0, -1):
        acc = out
        for j in range(1, k + 1):
            acc = add(out, demazure_T(acc, j))
        out = acc
    return out
