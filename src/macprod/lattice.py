"""Vertex-model layer: R-matrix, oscillator-valued L-matrices, products.

An operator entry is a formal sum grouped by word,
{factors: {(xdeg, ydeg, q_exp, t_exp): int}}.  factors is a sorted tuple
of (slot, atoms) pairs with nonempty atoms, and a slot is a (space,
family) Fock factor: rank-r single matrices use space 0 and families
1..r; nested column products use space = level.  Distinct slots commute;
within one slot the atom tuple is an ordered word, leftmost applied
last, exactly as in the trace engine.  A matrix is a dict
{(row, col): entry} of its nonzero entries.  A product multiplies word by
word into one accumulator and drops zero coefficients once per entry.

The rational R-matrix entries b+- = t(x-y)/(tx-y), (x-y)/(tx-y) and
c+- = y(t-1)/(tx-y), x(t-1)/(tx-y) are stored cleared of the common
denominator (tx-y), so every verification below is a polynomial identity
in x, y between operators on the Fock space.

Every scalar here lies in Z[q^+-1, t^+-1]: the R entries are t, -1 and
t - 1, the twist contributes powers of q, and the Fock action only
multiplies by 1 - t^m and monomials.  Coefficients are therefore Laurent
in q, t, as in xpoly.XNum, and the whole comparison runs on integer
arithmetic with no division and no gcd.

A relation is checked on every Fock state at once, one output matrix
position at a time: only the leaves (L, tL, or the column components A)
stay alive, and each position of both sides is built from them when it
is reached.  Its formal difference, each word aligned to the slots, is
contracted one slot at a time to a normal form: per slot, the output
shift d and the exponents (alpha, beta) of (t^m)^alpha (q^m)^beta in the
input occupation m, as oscillator.normal_form gives them.  The relation
holds exactly when every normal form is empty.  A failure is located on
the truncated box of input states whose occupations are all at most
cutoff-2, grown until a state fails; the counterexample reported is the
least failing state in itertools.product order.
"""

from __future__ import annotations

from itertools import product

from .errors import CutoffTooSmall, IndexOutOfRange, InternalError
from .oscillator import LOWER, RAISE, kpow, normal_form
from .qtfield import _ONE_D

_CLEARED = {(): {(1, 0, 0, 1): 1, (0, 1, 0, 0): -1}}  # t x - y


def _laurent(c):
    """An int or a Laurent dict as a new Laurent dict of its nonzero
    terms."""
    if isinstance(c, int) and not isinstance(c, bool):
        return {(0, 0): c} if c else {}
    if isinstance(c, dict):
        return {k: v for k, v in c.items() if v}
    raise InternalError(f"lattice scalar {c!r} is not a Laurent polynomial")


def term(scalar=1, xdeg=0, ydeg=0, factors=()):
    """One word times scalar x^xdeg y^ydeg, as an entry."""
    coeff = {(xdeg, ydeg) + k: v for k, v in _laurent(scalar).items()}
    if not coeff:
        return {}
    return {tuple(sorted((slot, tuple(atoms)) for slot, atoms in factors
                         if atoms)): coeff}


def _join(w1, w2):
    """The word of an operator product: on each slot, w1's atoms, applied
    last, before w2's."""
    if not w2:
        return w1
    if not w1:
        return w2
    merged = dict(w1)
    for slot, atoms in w2:
        merged[slot] = merged.get(slot, ()) + atoms
    return tuple(sorted(merged.items()))


def _mul_into(acc, e1, e2):
    """acc += e1 * e2 (e1 applied last), word by word; zero coefficients
    stay until _nonzero."""
    for w1, c1 in e1.items():
        for w2, c2 in e2.items():
            out = acc.setdefault(_join(w1, w2), {})
            for (x1, y1, q1, t1), v1 in c1.items():
                for (x2, y2, q2, t2), v2 in c2.items():
                    k = (x1 + x2, y1 + y2, q1 + q2, t1 + t2)
                    out[k] = out.get(k, 0) + v1 * v2
    return acc


def _nonzero(acc):
    """An accumulated entry with its zero coefficients, and then its empty
    words, dropped."""
    out = {}
    for w, c in acc.items():
        c = {k: v for k, v in c.items() if v}
        if c:
            out[w] = c
    return out


def _mul(e1, e2):
    return _nonzero(_mul_into({}, e1, e2))


def _swap_xy(m):
    """A matrix with x and y exchanged in every entry."""
    return {pos: {w: {(y, x, q, t): v for (x, y, q, t), v in c.items()}
                  for w, c in e.items()} for pos, e in m.items()}


def _slots(entries):
    return sorted({slot for e in entries for w in e for slot, _ in w})


#### builders

def _pair(i, j, width):
    return i * width + j


def build_R(r):
    """Cleared R-matrix: (tx-y) R~(x, y) on the (r+1)^2 basis of pairs."""
    w = r + 1
    b_plus = {(): {(1, 0, 0, 1): 1, (0, 1, 0, 1): -1}}    # t (x - y)
    b_minus = {(): {(1, 0, 0, 0): 1, (0, 1, 0, 0): -1}}   # x - y
    c_plus = {(): {(0, 1, 0, 1): 1, (0, 1, 0, 0): -1}}    # y (t - 1)
    c_minus = {(): {(1, 0, 0, 1): 1, (1, 0, 0, 0): -1}}   # x (t - 1)
    m = {}
    for i in range(w):
        m[_pair(i, i, w), _pair(i, i, w)] = _CLEARED
        for j in range(i + 1, w):
            m[_pair(i, j, w), _pair(i, j, w)] = c_minus
            m[_pair(i, j, w), _pair(j, i, w)] = b_plus
            m[_pair(j, i, w), _pair(i, j, w)] = b_minus
            m[_pair(j, i, w), _pair(j, i, w)] = c_plus
    return m


def _ktail(space, lo, r):
    """k factors for families lo..r at the given space."""
    return [((space, f), (kpow(),)) for f in range(lo, r + 1)]


def build_L(r, space=0):
    """(r+1) x (r+1) oscillator-valued L with families 1..r."""
    m = {(0, 0): term()}
    for j in range(1, r + 1):
        m[0, j] = term(factors=[((space, j), (LOWER,))])
    for i in range(1, r + 1):
        tail = _ktail(space, i + 1, r)
        m[i, 0] = term(xdeg=1, factors=[((space, i), (RAISE,))] + tail)
        m[i, i] = term(xdeg=1, factors=tail)
        for j in range(1, i):
            m[i, j] = term(xdeg=1, factors=[((space, j), (LOWER,)),
                                            ((space, i), (RAISE,))] + tail)
    return m


def build_tildeL(r, space=0):
    """(r+1) x r reduction of L: family 1 frozen (a_1, a_1+ -> 1, k_1 -> 0).

    L has no k_1 atom (the k tail of row i starts at family i + 1), so the
    substitution erases the family-1 slot.  Columns 0 and 1 of L then
    agree; column 0 is kept and the surviving columns are the old
    (0, 2, 3, .., r).
    """
    frozen = (space, 1)
    return {(i, j - (j > 1)): {tuple(f for f in w if f[0] != frozen): c
                               for w, c in e.items()}
            for (i, j), e in build_L(r, space).items() if j != 1}


def zf_components(r):
    """Nested column product: components A_0..A_r of tildeL^(r)...tildeL^(1),
    level j acting on space j.  Only the column is built: the unit column
    is multiplied on the left by tildeL^(1), .., tildeL^(r) in turn."""
    col = [term()]
    for j in range(1, r + 1):
        tl = build_tildeL(j, space=j)
        nxt = []
        for i in range(j + 1):
            acc = {}
            for k, e in enumerate(col):
                if (i, k) in tl:
                    _mul_into(acc, tl[i, k], e)
            nxt.append(_nonzero(acc))
        col = nxt
    return tuple(col)


def twist_term(r, space=None):
    """Diagonal twist q^((f-1) m_f) on families 2..r of one space, as a
    one-word entry; without a space, the nested layout: the product of
    the twists of levels 1..r, level j on space j."""
    levels = [(j, j) for j in range(1, r + 1)] if space is None else \
        [(space, r)]
    return term(factors=[((s, f), (kpow(0, f - 1),))
                         for s, j in levels for f in range(2, j + 1)])


#### normal-form comparison

def _difference(lhs, rhs, index):
    """lhs - rhs with each word aligned to the slots.

    Returns {words: {(xdeg, ydeg, q_exp, t_exp): int}}, words being a
    tuple with one atom tuple per slot of index (a dict slot ->
    position); zero coefficients and empty groups are dropped."""
    out = {}
    for sign, entry in ((1, lhs), (-1, rhs)):
        for w, coeff in entry.items():
            words = [()] * len(index)
            for slot, atoms in w:
                words[index[slot]] = atoms
            acc = out.setdefault(tuple(words), {})
            for k, v in coeff.items():
                acc[k] = acc.get(k, 0) + sign * v
    return {w: c for w, acc in out.items()
            if (c := {k: v for k, v in acc.items() if v})}


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


def matrices_first_mismatch(slots, sides, cutoff):
    """First disagreeing matrix element, as (position, slots, state), or
    None when the two sides agree on every Fock state.

    sides yields (position, lhs, rhs) in sorted order of position, each
    word on the given sorted slots.  Evaluation is linear in the entry,
    so each position contracts the formal difference of its two entries
    to a normal form, which is empty exactly when both sides agree on
    every state; only the forms of failing positions are kept.  A failure
    is located as a truncated box would see it: the first failing
    position, and in it the first failing state in itertools.product
    order, over the occupations up to cutoff-2.  While no position fails
    there, the box grows by one occupation per slot.  By a Vandermonde
    argument a nonzero normal form fails on the box of side its largest
    count of distinct (alpha, beta) on one slot, and slot by slot the
    least failing state of any larger box lies in that one, so the box
    never grows past that side, nor starts beyond it."""
    if cutoff < 2:
        raise CutoffTooSmall("need cutoff >= 2 for the comparison margin")
    index = {s: i for i, s in enumerate(slots)}
    failing = []
    for pos, lhs, rhs in sides:
        form = _contract(_difference(lhs, rhs, index))
        if form:
            failing.append((pos, form))
    if not failing:
        return None
    bound = max((len({key[i + 1:i + 3] for key in form})
                 for _, form in failing for i in range(0, 3 * len(slots), 3)),
                default=1)
    for side in range(min(cutoff - 1, bound), bound + 1):
        for pos, form in failing:
            for state in product(range(side), repeat=len(slots)):
                if _at(form, state):
                    return (pos, tuple(slots), state)
    raise InternalError(f"the nonzero normal form at {failing[0][0]} "
                        f"vanishes on the box of side {bound}")


def _exchange(R, X, Y, R2, nrows, ncols):
    """(position, lhs, rhs) of lhs = R (X o Y) and rhs = (Y o X) R2, at
    each position where a side is nonzero, in sorted order.

    X and Y are nrows x ncols, and (X o Y)[(i, j), (k, l)] =
    X[i, k] Y[j, l] with X applied last.  Every row of R and column of R2
    has at most two entries, so a position multiplies at most two pairs
    of leaf entries into each side, and no product matrix is built."""
    rows, cols = {}, {}
    for (p, k), e in R.items():
        rows.setdefault(p, []).append((k, e))
    for (k, c), e in R2.items():
        cols.setdefault(c, []).append((k, e))
    for p in range(nrows * nrows):
        p1, p2 = divmod(p, nrows)
        for c in range(ncols * ncols):
            c1, c2 = divmod(c, ncols)
            lhs, rhs = {}, {}
            for k, e in rows.get(p, ()):
                k1, k2 = divmod(k, nrows)
                x, y = X.get((k1, c1)), Y.get((k2, c2))
                if x and y:
                    _mul_into(lhs, _mul_into({}, e, x), y)
            for k, e in cols.get(c, ()):
                k1, k2 = divmod(k, ncols)
                y, x = Y.get((p1, k1)), X.get((p2, k2))
                if x and y:
                    _mul_into(rhs, y, _mul_into({}, x, e))
            lhs, rhs = _nonzero(lhs), _nonzero(rhs)
            if lhs or rhs:
                yield (p, c), lhs, rhs


def _twisted(comps, S):
    """(position, S A_i(qx), q^i A_i(x) S) for each component A_i."""
    for i, e in enumerate(comps):
        shifted = {w: {(x, y, q + x, t): v for (x, y, q, t), v in c.items()}
                   for w, c in e.items()}
        lhs = _mul(S, shifted)
        rhs = _mul(e, {w: {(0, 0, i, 0): 1} for w in S})
        if lhs or rhs:
            yield (i, 0), lhs, rhs


def intertwining_sides(kind, r):
    """The two sides of an exchange relation, one matrix position at a
    time.

    kind: "yba"   R(x,y) L(x)oL(y) = L(y)oL(x) R(x,y), full rank-r L
          "rll"   R^(r)(x,y) tL(x)otL(y) = tL(y)otL(x) R^(r-1)(x,y)
          "zf"    R(x,y) A(x)oA(y) = A(y)oA(x) (nested column product)
          "twist" S A_i(qx) = q^i A_i(x) S componentwise

    Returns (slots, sides): the sorted slots the leaves act on, and an
    iterator of (position, lhs, rhs) over the positions where a side is
    nonzero, in sorted order, each built from the leaves when it is
    reached.  Both sides are cleared of the (tx - y) denominator."""
    if r < 1:
        raise IndexOutOfRange("rank must be >= 1")
    if kind == "yba":
        L = build_L(r)
        return _slots(L.values()), _exchange(build_R(r), L, _swap_xy(L),
                                             build_R(r), r + 1, r + 1)
    if kind == "rll":
        tL = build_tildeL(r)
        return _slots(tL.values()), _exchange(build_R(r), tL, _swap_xy(tL),
                                              build_R(r - 1), r + 1, r)
    if kind == "zf":
        A = {(i, 0): e for i, e in enumerate(zf_components(r)) if e}
        return _slots(A.values()), _exchange(build_R(r), A, _swap_xy(A),
                                             {(0, 0): _CLEARED}, r + 1, 1)
    if kind == "twist":
        comps = zf_components(r)
        S = twist_term(r)
        return _slots(comps + (S,)), _twisted(comps, S)
    raise ValueError(f"unknown intertwining kind {kind!r}")


def intertwining_mismatch(kind, r, cutoff=4):
    """None when the relation holds on every Fock state; else the first
    disagreeing (matrix position, slot layout, input state), looked for
    first among the occupations up to cutoff-2 (matrices_first_mismatch)."""
    slots, sides = intertwining_sides(kind, r)
    return matrices_first_mismatch(slots, sides, cutoff)


def verify_intertwining(kind, r, cutoff=4):
    """Exact check of an exchange relation on every Fock state."""
    return intertwining_mismatch(kind, r, cutoff) is None
