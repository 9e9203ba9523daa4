"""Vertex-model layer: R-matrix, oscillator-valued L-matrices, products.

Operator matrices hold formal sums of terms (x-degree, y-degree, scalar,
oscillator factors).  Factors are keyed by a slot (space, family): rank-r
single matrices use space 0 and families 1..r; nested column products use
space = level.  Distinct slots commute; within one slot the atom tuple is
an ordered word, leftmost applied last, exactly as in the trace engine.

The rational R-matrix entries b+- = t(x-y)/(tx-y), (x-y)/(tx-y) and
c+- = y(t-1)/(tx-y), x(t-1)/(tx-y) are stored cleared of the common
denominator (tx-y), so every verification below is a polynomial identity
in x, y between operators on the Fock space.

Every scalar here lies in Z[q^+-1, t^+-1]: the R entries are t, -1 and
t - 1, the twist contributes powers of q, and the Fock action only
multiplies by 1 - t^m and monomials.  Scalars are therefore Laurent dicts
{(q_exp, t_exp): int}, as in xpoly.XNum, and the whole comparison runs on
integer arithmetic with no division and no gcd.

A relation is checked on every Fock state at once.  Each matrix position
takes the formal difference of the two sides, merges its terms that carry
the same word on every slot, and contracts it one slot at a time to a
normal form: per slot, the output shift d and the exponents (alpha, beta)
of (t^m)^alpha (q^m)^beta in the input occupation m, as
oscillator.normal_form gives them.  The relation holds exactly when
every normal form is empty.  A failure is located on the truncated box
of input states whose occupations are all at most cutoff-2, grown until
a state fails; the counterexample reported is the least failing state in
itertools.product order.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple

from .errors import CutoffTooSmall, IndexOutOfRange, InternalError
from .oscillator import LOWER, RAISE, kpow, normal_form
from .qtfield import _ONE_D, _dict_iadd, _dict_mul, _dict_neg

_T = {(0, 1): 1}
_MINUS_T = {(0, 1): -1}
_T_MINUS_1 = {(0, 1): 1, (0, 0): -1}


class OpTerm(NamedTuple):
    xdeg: int
    ydeg: int
    scalar: dict    # Laurent dict {(q_exp, t_exp): int}, never mutated
    factors: tuple  # sorted ((space, family), atoms) pairs


def _laurent(c):
    """An int or a Laurent dict as a new Laurent dict of its nonzero
    terms."""
    if isinstance(c, int) and not isinstance(c, bool):
        return {(0, 0): c} if c else {}
    if isinstance(c, dict):
        return {k: v for k, v in c.items() if v}
    raise InternalError(f"lattice scalar {c!r} is not a Laurent polynomial")


def term(scalar=1, xdeg=0, ydeg=0, factors=()):
    return OpTerm(xdeg, ydeg, _laurent(scalar),
                  tuple(sorted((slot, tuple(atoms))
                               for slot, atoms in factors if atoms)))


def term_mul(t1, t2):
    """Operator product t1 * t2 (t1 applied last).  A unit scalar on
    either side reuses the other scalar: scalars are never mutated."""
    if not t2.factors:
        factors = t1.factors
    elif not t1.factors:
        factors = t2.factors
    else:
        merged = dict(t1.factors)
        for slot, atoms in t2.factors:
            merged[slot] = merged.get(slot, ()) + atoms
        factors = tuple(sorted(merged.items()))
    s1, s2 = t1.scalar, t2.scalar
    scalar = s2 if s1 == _ONE_D else s1 if s2 == _ONE_D else _dict_mul(s1, s2)
    return OpTerm(t1.xdeg + t2.xdeg, t1.ydeg + t2.ydeg, scalar, factors)


def _collect(terms):
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
    return _collect(t for e in entries for t in e)


def entry_mul(e1, e2):
    return _collect(term_mul(t1, t2) for t1 in e1 for t2 in e2)


def entry_scale(e, c):
    c = _laurent(c)
    return tuple(OpTerm(t.xdeg, t.ydeg, _dict_mul(t.scalar, c), t.factors)
                 for t in e)


class OpMatrix:
    """Sparse matrix of formal operator entries."""

    __slots__ = ("nrows", "ncols", "entries")

    def __init__(self, nrows, ncols, entries=None):
        self.nrows = nrows
        self.ncols = ncols
        self.entries = dict(entries) if entries else {}

    def set(self, i, j, entry):
        if not 0 <= i < self.nrows or not 0 <= j < self.ncols:
            raise IndexOutOfRange(f"({i},{j}) outside {self.nrows}x{self.ncols}")
        if entry:
            self.entries[(i, j)] = tuple(entry)
        else:
            self.entries.pop((i, j), None)

    def entry(self, i, j):
        return self.entries.get((i, j), ())

    def __mul__(self, other):
        if self.ncols != other.nrows:
            raise IndexOutOfRange("matrix shape mismatch")
        out = OpMatrix(self.nrows, other.ncols)
        by_row = {}
        for (i, k), e in self.entries.items():
            by_row.setdefault(i, []).append((k, e))
        by_col = {}
        for (k, j), e in other.entries.items():
            by_col.setdefault(k, []).append((j, e))
        for i, row in by_row.items():
            acc = {}
            for k, e1 in row:
                for j, e2 in by_col.get(k, ()):
                    p = entry_mul(e1, e2)
                    if p:
                        acc[j] = entry_add(acc[j], p) if j in acc else p
            for j, e in acc.items():
                if e:
                    out.entries[(i, j)] = e
        return out

    def map_terms(self, fn):
        out = OpMatrix(self.nrows, self.ncols)
        for pos, e in self.entries.items():
            ne = entry_add(tuple(fn(t) for t in e))
            if ne:
                out.entries[pos] = ne
        return out

    def swap_xy(self):
        return self.map_terms(
            lambda t: OpTerm(t.ydeg, t.xdeg, t.scalar, t.factors))

    def slots(self):
        out = set()
        for e in self.entries.values():
            for t in e:
                for slot, _ in t.factors:
                    out.add(slot)
        return out


#### builders

def _pair(i, j, width):
    return i * width + j


def build_R(r):
    """Cleared R-matrix: (tx-y) R~(x, y) on the (r+1)^2 basis of pairs."""
    w = r + 1
    m = OpMatrix(w * w, w * w)
    diag = (term(_T, xdeg=1), term(-1, ydeg=1))              # t x - y
    b_plus = (term(_T, xdeg=1), term(_MINUS_T, ydeg=1))      # t (x - y)
    b_minus = (term(xdeg=1), term(-1, ydeg=1))               # x - y
    c_plus = (term(_T_MINUS_1, ydeg=1),)                     # y (t - 1)
    c_minus = (term(_T_MINUS_1, xdeg=1),)                    # x (t - 1)
    for i in range(w):
        m.set(_pair(i, i, w), _pair(i, i, w), diag)
        for j in range(i + 1, w):
            m.set(_pair(i, j, w), _pair(i, j, w), c_minus)
            m.set(_pair(i, j, w), _pair(j, i, w), b_plus)
            m.set(_pair(j, i, w), _pair(i, j, w), b_minus)
            m.set(_pair(j, i, w), _pair(j, i, w), c_plus)
    return m


def _ktail(space, lo, r):
    """k factors for families lo..r at the given space."""
    return [((space, f), (kpow(),)) for f in range(lo, r + 1)]


def build_L(r, space=0):
    """(r+1) x (r+1) oscillator-valued L with families 1..r."""
    m = OpMatrix(r + 1, r + 1)
    m.set(0, 0, (term(),))
    for j in range(1, r + 1):
        m.set(0, j, (term(factors=[((space, j), (LOWER,))]),))
    for i in range(1, r + 1):
        tail = _ktail(space, i + 1, r)
        m.set(i, 0, (term(xdeg=1, factors=[((space, i), (RAISE,))] + tail),))
        m.set(i, i, (term(xdeg=1, factors=tail),))
        for j in range(1, i):
            m.set(i, j, (term(xdeg=1, factors=[((space, j), (LOWER,)),
                                               ((space, i), (RAISE,))] + tail),))
    return m


def build_tildeL(r, space=0):
    """(r+1) x r reduction of L: family 1 frozen (a_1, a_1+ -> 1, k_1 -> 0).

    L has no k_1 atom (the k tail of row i starts at family i + 1), so the
    substitution erases the family-1 slot.  Columns 0 and 1 of L then
    agree; column 0 is kept and the surviving columns are the old
    (0, 2, 3, .., r).
    """
    frozen = (space, 1)
    m = OpMatrix(r + 1, r)
    for (i, j), e in build_L(r, space).entries.items():
        if j != 1:
            m.set(i, j - (j > 1), tuple(
                t._replace(factors=tuple(f for f in t.factors
                                         if f[0] != frozen)) for t in e))
    return m


def zf_components(r):
    """Nested column product: components A_0..A_r of tildeL^(r)...tildeL^(1),
    level j acting on space j."""
    mat = build_tildeL(r, space=r)
    for j in range(r - 1, 0, -1):
        mat = mat * build_tildeL(j, space=j)
    return tuple(mat.entry(i, 0) for i in range(r + 1))


def twist_term(r, space=None):
    """Diagonal twist q^((f-1) m_f) on families 2..r of one space; without
    a space, the nested layout: the union of the twists of levels 1..r,
    level j on space j."""
    if space is None:
        return term(factors=[fac for j in range(1, r + 1)
                             for fac in twist_term(j, space=j).factors])
    return term(factors=[((space, f), (kpow(0, f - 1),))
                         for f in range(2, r + 1)])


#### normal-form comparison

def _groups(terms, slot_index, n):
    """Merge the terms that carry the same word on every slot.

    Returns {words: {(xdeg, ydeg, q_exp, t_exp): int}}, words being a
    tuple of n atom tuples aligned with slot_index (a dict slot ->
    position); zero coefficients and empty groups are dropped."""
    out = {}
    for t in terms:
        words = [()] * n
        for slot, atoms in t.factors:
            words[slot_index[slot]] = atoms
        _dict_iadd(out.setdefault(tuple(words), {}),
                   {(t.xdeg, t.ydeg) + k: v for k, v in t.scalar.items()})
    return {w: c for w, c in out.items() if c}


def _contract(groups):
    """The normal form of a sum of grouped terms, on every state at once.

    Slot by slot, each group's word on that slot is walked once
    (oscillator.normal_form), and scalar * coefficient is added into a
    table keyed by the (d, alpha, beta) of the slots done so far and
    grouped under the words still to come, so terms that agree on the
    slots ahead merge as soon as the slots behind them are contracted.
    Zero entries are dropped after each slot.  The slots run from the
    last to the first: the k tails of the L rows sit on the high
    families, so their words tell the terms apart and the low-family
    words left over coincide sooner.
    Returns {(d_1, alpha_1, beta_1, .., d_n, alpha_n, beta_n):
    {(xdeg, ydeg, q_exp, t_exp): int}}, nonzero; see _at for its value
    on one input state."""
    table = {(): groups} if groups else {}
    for _ in range(len(next(iter(groups), ()))):  # once per slot
        forms = {}  # word -> [((d, alpha, beta), items, or None for 1)]
        nxt = {}
        for key, rests in table.items():
            for rest, coeff in rests.items():
                word, tail = rest[-1], rest[:-1]
                form = forms.get(word)
                if form is None:
                    d, cs = normal_form(word)
                    form = forms[word] = [
                        ((d,) + ab, None if c == _ONE_D else tuple(c.items()))
                        for ab, c in cs.items()]
                for head, f in form:
                    tails = nxt.setdefault(head + key, {})
                    acc = tails.get(tail)
                    if f is None:
                        if acc is None:
                            tails[tail] = dict(coeff)
                        else:
                            for k, v in coeff.items():
                                acc[k] = acc.get(k, 0) + v
                        continue
                    if acc is None:
                        acc = tails[tail] = {}
                    for (qb, tb), vb in f:
                        for (x, y, qa, ta), va in coeff.items():
                            k = (x, y, qa + qb, ta + tb)
                            acc[k] = acc.get(k, 0) + va * vb
        table = {}
        for key, tails in nxt.items():
            kept = {}
            for tail, c in tails.items():
                c = {k: v for k, v in c.items() if v}
                if c:
                    kept[tail] = c
            if kept:
                table[key] = kept
    return {key: tails[()] for key, tails in table.items()}


def _at(form, state):
    """A contracted normal form on one input state:
    {out_state: {(xdeg, ydeg, q_exp, t_exp): int}}, nonzero.  The key
    (d, alpha, beta) of each slot sends occupation m to m + d and
    multiplies by (t^m)^alpha (q^m)^beta."""
    out = {}
    for key, coeff in form.items():
        st = sum(a * m for a, m in zip(key[1::3], state))
        sq = sum(b * m for b, m in zip(key[2::3], state))
        acc = out.setdefault(tuple(m + d for m, d in zip(state, key[0::3])),
                             {})
        for (x, y, qe, te), v in coeff.items():
            k = (x, y, qe + sq, te + st)
            acc[k] = acc.get(k, 0) + v
    return {o: c for o, acc in out.items()
            if (c := {k: v for k, v in acc.items() if v})}


def matrices_first_mismatch(m1, m2, cutoff):
    """First disagreeing matrix element, as (position, slots, state), or
    None when the two matrices agree on every Fock state.

    Evaluation is linear in the entry, so each position contracts the
    formal difference of its two entries to a normal form, which is empty
    exactly when both sides agree on every state.  A failure is located
    as a truncated box would see it: the first failing position, and in
    it the first failing state in itertools.product order, over the
    occupations up to cutoff-2.  While no position fails there, the box
    grows by one occupation per slot.  By a Vandermonde argument a
    nonzero normal form fails on the box of side its largest count of
    distinct (alpha, beta) on one slot, so the search ends there."""
    if cutoff < 2:
        raise CutoffTooSmall("need cutoff >= 2 for the comparison margin")
    if (m1.nrows, m1.ncols) != (m2.nrows, m2.ncols):
        return ((), (), ())
    slots = sorted(m1.slots() | m2.slots())
    slot_index = {s: i for i, s in enumerate(slots)}
    failing = []
    for pos in sorted(set(m1.entries) | set(m2.entries)):
        diff = m1.entry(*pos) + tuple(t._replace(scalar=_dict_neg(t.scalar))
                                      for t in m2.entry(*pos))
        form = _contract(_groups(diff, slot_index, len(slots)))
        if form:
            failing.append((pos, form))
    if not failing:
        return None
    bound = max((len({key[i + 1:i + 3] for key in form})
                 for _, form in failing for i in range(0, 3 * len(slots), 3)),
                default=1)
    for side in range(cutoff - 1, max(cutoff - 1, bound) + 1):
        for pos, form in failing:
            for state in product(range(side), repeat=len(slots)):
                if _at(form, state):
                    return (pos, tuple(slots), state)
    raise InternalError(f"the nonzero normal form at {failing[0][0]} "
                        f"vanishes on the box of side {bound}")


def _kron_prod(A, B):
    """[(i,j),(k,l)] -> A[i,k] * B[j,l] (operator product, A applied last)."""
    out = OpMatrix(A.nrows * B.nrows, A.ncols * B.ncols)
    for (i, k), e1 in A.entries.items():
        for (j, l), e2 in B.entries.items():
            p = entry_mul(e1, e2)
            if p:
                out.entries[(i * B.nrows + j, k * B.ncols + l)] = p
    return out


def intertwining_sides(kind, r):
    """Left and right sides of an exchange relation, as operator matrices.

    kind: "yba"   R(x,y) L(x)oL(y) = L(y)oL(x) R(x,y), full rank-r L
          "rll"   R^(r)(x,y) tL(x)otL(y) = tL(y)otL(x) R^(r-1)(x,y)
          "zf"    R(x,y) A(x)oA(y) = A(y)oA(x) (nested column product)
          "twist" S A_i(qx) = q^i A_i(x) S componentwise

    Both sides are cleared of the (tx - y) denominator."""
    if r < 1:
        raise IndexOutOfRange("rank must be >= 1")
    if kind == "yba":
        L = build_L(r)
        R = build_R(r)
        return R * _kron_prod(L, L.swap_xy()), _kron_prod(L.swap_xy(), L) * R
    if kind == "rll":
        tL = build_tildeL(r)
        lhs = build_R(r) * _kron_prod(tL, tL.swap_xy())
        rhs = _kron_prod(tL.swap_xy(), tL) * build_R(r - 1)
        return lhs, rhs
    if kind == "zf":
        comps = zf_components(r)
        A = OpMatrix(r + 1, 1, {(i, 0): e for i, e in enumerate(comps) if e})
        lhs = build_R(r) * _kron_prod(A, A.swap_xy())
        cleared = (term(_T, xdeg=1), term(-1, ydeg=1))
        rhs = _kron_prod(A.swap_xy(), A)
        for pos in list(rhs.entries):
            rhs.entries[pos] = entry_mul(cleared, rhs.entries[pos])
        return lhs, rhs
    if kind == "twist":
        comps = zf_components(r)
        S = (twist_term(r),)
        lhs = OpMatrix(r + 1, 1)
        rhs = OpMatrix(r + 1, 1)
        for i, e in enumerate(comps):
            shifted = tuple(OpTerm(t.xdeg, t.ydeg,
                                   {(qe + t.xdeg, te): v
                                    for (qe, te), v in t.scalar.items()},
                                   t.factors) for t in e)
            lhs.set(i, 0, entry_mul(S, shifted))
            rhs.set(i, 0, entry_scale(entry_mul(e, S), {(i, 0): 1}))
        return lhs, rhs
    raise ValueError(f"unknown intertwining kind {kind!r}")


def intertwining_mismatch(kind, r, cutoff=4):
    """None when the relation holds on every Fock state; else the first
    disagreeing (matrix position, slot layout, input state), looked for
    first among the occupations up to cutoff-2 (matrices_first_mismatch)."""
    lhs, rhs = intertwining_sides(kind, r)
    return matrices_first_mismatch(lhs, rhs, cutoff)


def verify_intertwining(kind, r, cutoff=4):
    """Exact check of an exchange relation on every Fock state."""
    return intertwining_mismatch(kind, r, cutoff) is None
