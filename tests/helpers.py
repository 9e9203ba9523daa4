"""Small helpers the tests share; the package itself never needs them."""

from macprod.lattice import OpMatrix, OpTerm, entry_add
from macprod.oscillator import LOWER, RAISE
from macprod.qtfield import QTRat


def bracket(m, c=0):
    """(1 - q^c t^m)/(1 - t); the t-integer [m] when c = 0."""
    if m < 0 or c < 0:
        raise ValueError("bracket arguments must be nonnegative")
    num = {(0, 0): 1}
    num[(c, m)] = num.get((c, m), 0) - 1
    return QTRat(num, {(0, 0): 1, (0, 1): -1})


def net_change(word):
    """Raises minus lowers in an oscillator word."""
    return sum(1 if a == RAISE else -1 if a == LOWER else 0 for a in word)


def merge_family_one(mat, space=0):
    """Substitute a_1 = a_1+ = 1, k_1 = 0 in the family-1 slot."""
    out = OpMatrix(mat.nrows, mat.ncols)
    for pos, e in mat.entries.items():
        terms = []
        for t in e:
            dead = False
            kept = []
            for slot, atoms in t.factors:
                if slot != (space, 1):
                    kept.append((slot, atoms))
                    continue
                for atom in atoms:
                    if atom[0] == "k" and atom[1] > 0:
                        dead = True
                        break
                if dead:
                    break
            if not dead:
                terms.append(OpTerm(t.xdeg, t.ydeg, t.scalar, tuple(kept)))
        ne = entry_add(tuple(terms))
        if ne:
            out.entries[pos] = ne
    return out
