"""Truncated Fock space with QTRat coefficients.

The test oracle for macprod.oscillator.walk and macprod.lattice, which
evaluate operator words on Fock states with Laurent dicts over
Z[q^+-1, t^+-1].  Everything here is plain Q(q, t) arithmetic, in the
reference field:

    A|m> = |m+1> (A|M> = 0 at the cutoff M)
    a|m> = (1 - t^m)|m-1>
    kpow(p, c)|m> = t^(p m) q^(c m)|m>

and the comparator evaluates both matrices separately on every state.
"""

from itertools import product

from conftest import reference_field
from macprod.errors import CutoffTooSmall
from macprod.qtfield import QTRat, one, zero


@reference_field()
def walk(word, m, cutoff=None):
    """Apply the word to |m>; return (m_out, QTRat factor), or
    (None, 0) when it leaves the truncated space."""
    h = m
    factor = one()
    for atom in reversed(word):
        tag = atom[0]
        if tag == "A":
            if cutoff is not None and h >= cutoff:
                return None, zero()
            h += 1
        elif tag == "a":
            if h == 0:
                return None, zero()
            factor = factor * (1 - QTRat.monomial(te=h))
            h -= 1
        else:
            _, te, qe = atom
            if te * h or qe * h:
                factor = factor * QTRat.monomial(qe=qe * h, te=te * h)
    return h, factor


class FockMatrix:
    """Dense (M+1) x (M+1) matrix of QTRat entries."""

    __slots__ = ("size", "rows")

    def __init__(self, size, rows=None):
        self.size = size
        self.rows = rows if rows is not None else \
            [[zero()] * size for _ in range(size)]

    @classmethod
    def identity(cls, size):
        m = cls(size)
        for i in range(size):
            m.rows[i][i] = one()
        return m

    @reference_field()
    def __mul__(self, other):
        if isinstance(other, (QTRat, int)):
            return FockMatrix(self.size,
                              [[v * other for v in row] for row in self.rows])
        out = FockMatrix(self.size)
        for i in range(self.size):
            arow = self.rows[i]
            orow = out.rows[i]
            for k in range(self.size):
                a = arow[k]
                if not a:
                    continue
                brow = other.rows[k]
                for j in range(self.size):
                    if brow[j]:
                        orow[j] = orow[j] + a * brow[j]
        return out

    __rmul__ = __mul__

    @reference_field()
    def __add__(self, other):
        return FockMatrix(self.size, [[a + b for a, b in zip(r1, r2)]
                                      for r1, r2 in zip(self.rows, other.rows)])

    @reference_field()
    def __sub__(self, other):
        return FockMatrix(self.size, [[a - b for a, b in zip(r1, r2)]
                                      for r1, r2 in zip(self.rows, other.rows)])

    def __eq__(self, other):
        return (isinstance(other, FockMatrix) and self.size == other.size
                and self.rows == other.rows)

    def entry(self, i, j):
        return self.rows[i][j]


@reference_field()
def fock_matrix(word, cutoff):
    """Truncated matrix of a word (or single atom) on states 0..cutoff."""
    if cutoff < 0:
        raise CutoffTooSmall("cutoff must be >= 0")
    if word and isinstance(word[0], str):
        word = (word,)  # single atom
    size = cutoff + 1
    out = FockMatrix(size)
    for m in range(size):
        h, factor = walk(word, m, cutoff=cutoff)
        if h is not None and factor:
            out.rows[h][m] = out.rows[h][m] + factor
    return out


@reference_field()
def delta_t_operator(prefix, m):
    """Coefficientwise z^n -> (1 - t^n)^m z^(n+1) on a series prefix."""
    out = [zero()]
    for n, c in enumerate(prefix):
        out.append(c * (1 - QTRat.monomial(te=n)) ** m)
    return out


@reference_field()
def qtrat(laurent):
    """A Laurent dict {(q_exp, t_exp): int} as a QTRat."""
    total = zero()
    for (qe, te), v in laurent.items():
        total = total + QTRat.monomial(qe=qe, te=te, c=v)
    return total


def laurent(value):
    """A QTRat whose denominator is a monic monomial, as a Laurent dict."""
    ((dq, dt), dv), = value.den.items()
    assert dv == 1, value
    return {(a - dq, b - dt): v for (a, b), v in value.num.items()}


@reference_field()
def eval_entry(entry, slot_index, state, cutoff):
    """Matrix elements of a formal lattice entry on |state>, as
    {out_state: {(xdeg, ydeg): QTRat}}."""
    out = {}
    for t in entry:
        occ = list(state)
        fac = qtrat(t.scalar)
        dead = False
        for slot, atoms in t.factors:
            i = slot_index[slot]
            h, f = walk(atoms, occ[i], cutoff=cutoff)
            if h is None or not f:
                dead = True
                break
            fac = fac * f
            occ[i] = h
        if dead or not fac:
            continue
        bucket = out.setdefault(tuple(occ), {})
        xy = (t.xdeg, t.ydeg)
        nv = bucket[xy] + fac if xy in bucket else fac
        if nv:
            bucket[xy] = nv
        else:
            del bucket[xy]
    return {k: v for k, v in out.items() if v}


def flatten(values):
    """eval_entry's output in the {(xdeg, ydeg, q_exp, t_exp): int} layout
    of macprod.lattice.eval_entry."""
    return {st: {(x, y, qe, te): v
                 for (x, y), c in bucket.items()
                 for (qe, te), v in laurent(c).items()}
            for st, bucket in values.items()}


def matrices_first_mismatch(m1, m2, cutoff):
    """First disagreeing matrix element over all input states with
    occupations <= cutoff-2, as (position, slots, state), or None."""
    if cutoff < 2:
        raise CutoffTooSmall("need cutoff >= 2 for the comparison margin")
    if (m1.nrows, m1.ncols) != (m2.nrows, m2.ncols):
        return ((), (), ())
    slots = sorted(m1.slots() | m2.slots())
    slot_index = {s: i for i, s in enumerate(slots)}
    states = list(product(range(cutoff - 1), repeat=len(slots)))
    for pos in sorted(set(m1.entries) | set(m2.entries)):
        e1, e2 = m1.entry(*pos), m2.entry(*pos)
        for st in states:
            if eval_entry(e1, slot_index, st, cutoff) != \
                    eval_entry(e2, slot_index, st, cutoff):
                return (pos, tuple(slots), st)
    return None
