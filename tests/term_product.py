"""The term-by-term operator product, kept as the test reference.

macprod.lattice holds every entry grouped by word and builds the sides of
an exchange relation one matrix position at a time from its leaves.  Here
an entry is a tuple of OpTerms, one per (word, x-degree, y-degree), whole
matrices are multiplied and Kronecker-multiplied term by term, and every
sum is collected again.  `sides` builds both sides of a relation this way
from the package's leaves, read as terms; `grouped` merges a term tuple
by word into the package's layout, so the two can be compared position by
position.
"""

from typing import NamedTuple

from macprod.lattice import build_L, build_R, build_tildeL, twist_term
from macprod.qtfield import _ONE_D, _dict_iadd, _dict_mul

_CLEARED = {(): {(1, 0, 0, 1): 1, (0, 1, 0, 0): -1}}  # t x - y


class OpTerm(NamedTuple):
    xdeg: int
    ydeg: int
    scalar: dict    # Laurent dict {(q_exp, t_exp): int}, never mutated
    factors: tuple  # sorted ((space, family), atoms) pairs


def term_mul(t1, t2):
    """Operator product t1 * t2 (t1 applied last)."""
    merged = dict(t1.factors)
    for slot, atoms in t2.factors:
        merged[slot] = merged.get(slot, ()) + atoms
    s1, s2 = t1.scalar, t2.scalar
    scalar = s2 if s1 == _ONE_D else s1 if s2 == _ONE_D else _dict_mul(s1, s2)
    return OpTerm(t1.xdeg + t2.xdeg, t1.ydeg + t2.ydeg, scalar,
                  tuple(sorted(merged.items())))


def collect(terms):
    """Merge terms with equal (xdeg, ydeg, factors); drop zero scalars."""
    acc = {}
    for t in terms:
        key = (t.xdeg, t.ydeg, t.factors)
        cur = acc.get(key)
        if cur is None:
            acc[key] = dict(t.scalar)
        else:
            _dict_iadd(cur, t.scalar)
    return tuple(OpTerm(x, y, s, f) for (x, y, f), s in acc.items() if s)


def entry_add(*entries):
    return collect(t for e in entries for t in e)


def entry_mul(e1, e2):
    return collect(term_mul(t1, t2) for t1 in e1 for t2 in e2)


def terms(entry):
    """A grouped entry of the package as a term tuple."""
    out = {}
    for w, c in entry.items():
        for (x, y, qe, te), v in c.items():
            out.setdefault((x, y, w), {})[qe, te] = v
    return tuple(OpTerm(x, y, s, w) for (x, y, w), s in out.items())


def grouped(entry):
    """A term tuple merged by word, in the package's layout: zero
    coefficients and empty words dropped."""
    out = {}
    for t in entry:
        _dict_iadd(out.setdefault(t.factors, {}),
                   {(t.xdeg, t.ydeg) + k: v for k, v in t.scalar.items()})
    return {w: c for w, c in out.items() if c}


class OpMatrix:
    """Sparse matrix of term-tuple entries."""

    def __init__(self, nrows, ncols, entries=None):
        self.nrows = nrows
        self.ncols = ncols
        self.entries = {pos: e for pos, e in (entries or {}).items() if e}

    @classmethod
    def of(cls, nrows, ncols, matrix):
        """A matrix of the package, {(row, col): grouped entry}."""
        return cls(nrows, ncols, {pos: terms(e) for pos, e in matrix.items()})

    def entry(self, i, j):
        return self.entries.get((i, j), ())

    def __mul__(self, other):
        assert self.ncols == other.nrows
        acc = {}
        for (i, k), e1 in self.entries.items():
            for (kk, j), e2 in other.entries.items():
                if k == kk:
                    acc.setdefault((i, j), []).extend(entry_mul(e1, e2))
        return OpMatrix(self.nrows, other.ncols,
                        {pos: collect(ts) for pos, ts in acc.items()})

    def map_terms(self, fn):
        return OpMatrix(self.nrows, self.ncols,
                        {pos: entry_add(tuple(fn(t) for t in e))
                         for pos, e in self.entries.items()})

    def swap_xy(self):
        return self.map_terms(
            lambda t: OpTerm(t.ydeg, t.xdeg, t.scalar, t.factors))

    def slots(self):
        return {slot for e in self.entries.values() for t in e
                for slot, _ in t.factors}


def kron_prod(A, B):
    """[(i,j),(k,l)] -> A[i,k] * B[j,l] (operator product, A applied last)."""
    out = OpMatrix(A.nrows * B.nrows, A.ncols * B.ncols)
    for (i, k), e1 in A.entries.items():
        for (j, l), e2 in B.entries.items():
            p = entry_mul(e1, e2)
            if p:
                out.entries[(i * B.nrows + j, k * B.ncols + l)] = p
    return out


def r_matrix(r):
    return OpMatrix.of((r + 1) ** 2, (r + 1) ** 2, build_R(r))


def sides(kind, r):
    """Both sides of an exchange relation as whole term matrices: the
    column product A as a product of whole tL matrices, then whole matrix
    and Kronecker products, every entry collected term by term."""
    if kind == "yba":
        L = OpMatrix.of(r + 1, r + 1, build_L(r))
        return (r_matrix(r) * kron_prod(L, L.swap_xy()),
                kron_prod(L.swap_xy(), L) * r_matrix(r))
    if kind == "rll":
        tL = OpMatrix.of(r + 1, r, build_tildeL(r))
        return (r_matrix(r) * kron_prod(tL, tL.swap_xy()),
                kron_prod(tL.swap_xy(), tL) * OpMatrix.of(r * r, r * r,
                                                          build_R(r - 1)))
    mat = OpMatrix.of(r + 1, r, build_tildeL(r, space=r))
    for j in range(r - 1, 0, -1):
        mat = mat * OpMatrix.of(j + 1, j, build_tildeL(j, space=j))
    if kind == "zf":
        A = OpMatrix(r + 1, 1, {(i, 0): mat.entry(i, 0) for i in range(r + 1)})
        lhs = r_matrix(r) * kron_prod(A, A.swap_xy())
        rhs = kron_prod(A.swap_xy(), A) * OpMatrix.of(1, 1, {(0, 0): _CLEARED})
        return lhs, rhs
    if kind == "twist":
        S = terms(twist_term(r))
        lhs = OpMatrix(r + 1, 1)
        rhs = OpMatrix(r + 1, 1)
        for i in range(r + 1):
            e = mat.entry(i, 0)
            shifted = tuple(OpTerm(t.xdeg, t.ydeg,
                                   {(qe + t.xdeg, te): v
                                    for (qe, te), v in t.scalar.items()},
                                   t.factors) for t in e)
            lhs.entries[(i, 0)] = entry_mul(S, shifted)
            rhs.entries[(i, 0)] = entry_mul(
                entry_mul(e, S), (OpTerm(0, 0, {(i, 0): 1}, ()),))
        return lhs, rhs
    raise ValueError(kind)
