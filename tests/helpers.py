"""Small helpers the tests share; the package itself never needs them."""

from math import factorial

from conftest import reference_field
from macprod import hecke, qtfield
from macprod.compositions import check_composition, w_plus_inv
from macprod.errors import IndexOutOfRange
from macprod.lattice import OpMatrix, OpTerm, entry_add
from macprod.oscillator import LOWER, RAISE
from macprod.qtfield import (_ONE_D, QTRat, _dict_divexact, _dict_mul,
                             factor_product, zero)
from macprod.xpoly import XNum, XPoly, pack


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


def orbit_size(lam):
    """The number of distinct rearrangements of lam."""
    lam = check_composition(lam)
    n = factorial(len(lam))
    for v in set(lam):
        n //= factorial(lam.count(v))
    return n


def w_plus(lam):
    """The inverse of compositions.w_plus_inv(lam)."""
    inv = w_plus_inv(lam)
    out = [0] * len(inv)
    for pos, label in enumerate(inv, start=1):
        out[label - 1] = pos
    return tuple(out)


def eval_at(f, xs):
    """The XPoly f at x_i = xs[i-1] (QTRat or int entries)."""
    if len(xs) != f.n:
        raise IndexOutOfRange("wrong number of values")
    xs = [QTRat(v) if isinstance(v, int) else v for v in xs]
    total = zero()
    for e, c in f.terms.items():
        v = c
        for ei, xi in zip(e, xs):
            if ei:
                v = v * xi ** ei
        total = total + v
    return total


@reference_field()
def numerator(f):
    """(D f, D) for any XPoly f: D f as an XNum and D, the lcm of its
    coefficient denominators, as a Laurent dict; one gcd per distinct
    denominator, in the reference field.  The package clears only by the
    HHL denominator (hecke._integral); this works for any f."""
    D = _ONE_D
    for den in {frozenset(c.den.items()): c.den
                for c in f.terms.values()}.values():
        if den != D:
            D = _dict_mul(D, _dict_divexact(den, qtfield._dict_gcd(D, den)))
    return XNum(f.n, {e: _dict_mul(c.num, _dict_divexact(D, c.den))
                      for e, c in f.terms.items()}), D


@reference_field()
def value(N, D):
    """The XPoly N / D for an XNum N and a Laurent dict D, each
    coefficient reduced by a gcd in the reference field."""
    return XPoly._raw(N.n, {e: QTRat(c, D) for e, c in N.terms.items()})


def packed(N, steps):
    """The XNum N packed for `steps` generator steps either way."""
    X, = pack((N,), steps, t_down=steps, t_up=steps)
    return X


def demazure_T(f, i):
    """T~_i on an XPoly, through its packed numerator."""
    N, D = numerator(f)
    return value(packed(N, 1).demazure_T(i).unpack(), D)


def demazure_T_inv(f, i):
    """T~_i^{-1} on an XPoly, through its packed numerator."""
    N, D = numerator(f)
    return value(packed(N, 1).demazure_T_inv(i).unpack(), D)


def shift_omega(f):
    """f(x) -> f(q x_n, x_1, .., x_{n-1}) on an XPoly."""
    N, D = numerator(f)
    return value(packed(N, 0).shift_omega().unpack(), D)


def murphy_apply(i, f):
    """Murphy element number i on an XPoly, through its packed
    numerator."""
    N, D = numerator(f)
    return value(hecke.murphy_apply(i, packed(N, f.n - 1)).unpack(), D)


def lower_term_move(bad):
    """A replacement for hecke._move that, at the move bad = (lam, i), adds
    1 to the raised polynomial.  The constant has lower degree than every
    monomial the later moves read at their targets, so each lead identity
    still holds while the eigen equations fail."""
    real = hecke._move

    def move(lam, i, P, factors):
        P, factors = real(lam, i, P, factors)
        if (lam, i) == bad:
            P = XNum(P.n, {**P.terms, (0,) * P.n: factor_product(factors)})
        return P, factors
    return move
