"""Truncated Fock space with QTRat coefficients.

The test oracle for macprod.oscillator.normal_form and macprod.lattice,
which give the matrix elements of operator words on every Fock state at
once, with Laurent dicts over Z[q^+-1, t^+-1].  Everything here is plain
Q(q, t) arithmetic, in the reference field ref_field.Rat:

    A|m> = |m+1> (A|M> = 0 at the cutoff M)
    a|m> = (1 - t^m)|m-1>
    kpow(p, c)|m> = t^(p m) q^(c m)|m>

and the comparator evaluates both matrices separately on every state of
the truncated box.
"""

from itertools import product

from macprod.errors import CutoffTooSmall
from macprod.qtfield import QTRat
from ref_field import Rat


def walk(word, m, cutoff=None):
    """Apply the word to |m>; return (m_out, QTRat factor), or
    (None, 0) when it leaves the truncated space."""
    h = m
    factor = Rat(1)
    for atom in reversed(word):
        tag = atom[0]
        if tag == "A":
            if cutoff is not None and h >= cutoff:
                return None, Rat(0)
            h += 1
        elif tag == "a":
            if h == 0:
                return None, Rat(0)
            factor = factor * (1 - Rat.monomial(te=h))
            h -= 1
        else:
            _, te, qe = atom
            if te * h or qe * h:
                factor = factor * Rat.monomial(qe=qe * h, te=te * h)
    return h, factor


class FockMatrix:
    """Dense (M+1) x (M+1) matrix of QTRat entries."""

    __slots__ = ("size", "rows")

    def __init__(self, size, rows=None):
        self.size = size
        self.rows = rows if rows is not None else \
            [[Rat(0)] * size for _ in range(size)]

    @classmethod
    def identity(cls, size):
        m = cls(size)
        for i in range(size):
            m.rows[i][i] = Rat(1)
        return m

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

    def __add__(self, other):
        return FockMatrix(self.size, [[a + b for a, b in zip(r1, r2)]
                                      for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other):
        return FockMatrix(self.size, [[a - b for a, b in zip(r1, r2)]
                                      for r1, r2 in zip(self.rows, other.rows)])

    def __eq__(self, other):
        return (isinstance(other, FockMatrix) and self.size == other.size
                and self.rows == other.rows)

    def entry(self, i, j):
        return self.rows[i][j]


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


def delta_t_operator(prefix, m):
    """Coefficientwise z^n -> (1 - t^n)^m z^(n+1) on a series prefix."""
    out = [Rat(0)]
    for n, c in enumerate(prefix):
        out.append(c * (1 - Rat.monomial(te=n)) ** m)
    return out


def laurent(value):
    """A QTRat whose denominator is a monic monomial, as a Laurent dict."""
    ((dq, dt), dv), = value.den.items()
    assert dv == 1, value
    return {(a - dq, b - dt): v for (a, b), v in value.num.items()}


def eval_entry(entry, slot_index, state, cutoff):
    """Matrix elements of a formal lattice entry, {word: {(xdeg, ydeg,
    q_exp, t_exp): int}} as in macprod.lattice, on |state>, as
    {out_state: {(xdeg, ydeg): QTRat}}."""
    out = {}
    for w, coeff in entry.items():
        occ = list(state)
        fac = Rat(1)
        for slot, atoms in w:
            i = slot_index[slot]
            h, f = walk(atoms, occ[i], cutoff=cutoff)
            if h is None or not f:
                break
            fac = fac * f
            occ[i] = h
        else:
            bucket = out.setdefault(tuple(occ), {})
            for (x, y, qe, te), v in coeff.items():
                nv = fac * Rat.monomial(qe=qe, te=te, c=v)
                if (x, y) in bucket:
                    nv = bucket[x, y] + nv
                if nv:
                    bucket[x, y] = nv
                else:
                    bucket.pop((x, y), None)
    return {k: v for k, v in out.items() if v}


def flatten(values):
    """eval_entry's output in the {(xdeg, ydeg, q_exp, t_exp): int} layout
    of macprod.lattice._at."""
    return {st: {(x, y, qe, te): v
                 for (x, y), c in bucket.items()
                 for (qe, te), v in laurent(c).items()}
            for st, bucket in values.items()}


def matrices_first_mismatch(sides, cutoff):
    """First disagreeing matrix element of sides, a list of (position,
    lhs, rhs) in sorted order of position, over all input states with
    occupations <= cutoff-2, as (position, slots, state), or None.  The
    slots are those the entries carry."""
    if cutoff < 2:
        raise CutoffTooSmall("need cutoff >= 2 for the comparison margin")
    slots = sorted({slot for _, lhs, rhs in sides for e in (lhs, rhs)
                    for w in e for slot, _ in w})
    slot_index = {s: i for i, s in enumerate(slots)}
    states = list(product(range(cutoff - 1), repeat=len(slots)))
    for pos, e1, e2 in sides:
        for st in states:
            if eval_entry(e1, slot_index, st, cutoff) != \
                    eval_entry(e2, slot_index, st, cutoff):
                return (pos, tuple(slots), st)
    return None
