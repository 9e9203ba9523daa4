"""Small helpers the tests share; the package itself never needs them."""

from math import factorial

from macprod import hecke
from macprod.compositions import check_composition, w_plus_inv
from macprod.errors import IndexOutOfRange
from macprod.oscillator import LOWER, RAISE
from macprod.qtfield import _ONE_D, _dict_divexact, _dict_mul, factor_product
from macprod.xpoly import XNum, XPoly, pack
from prs_gcd import dict_gcd
from ref_field import Rat


def bracket(m, c=0):
    """(1 - q^c t^m)/(1 - t); the t-integer [m] when c = 0."""
    if m < 0 or c < 0:
        raise ValueError("bracket arguments must be nonnegative")
    num = {(0, 0): 1}
    num[(c, m)] = num.get((c, m), 0) - 1
    return Rat(num, {(0, 0): 1, (0, 1): -1})


#### polynomial arithmetic in the reference field

def _poly(n, terms):
    return XPoly._raw(n, {e: c for e, c in terms.items() if c})


def add(f, g):
    """f + g for XPolys."""
    if f.n != g.n:
        raise IndexOutOfRange(f"mixed variable counts {f.n} and {g.n}")
    out = {e: Rat.of(c) for e, c in f.terms.items()}
    for e, c in g.terms.items():
        out[e] = out[e] + c if e in out else Rat.of(c)
    return _poly(f.n, out)


def scale(f, c):
    """c f for an int or QTRat c."""
    c = Rat.of(c)
    return _poly(f.n, {e: c * v for e, v in f.terms.items()})


def sub(f, g):
    return add(f, scale(g, -1))


def mul(f, g):
    """f g for XPolys, as a sum of shifted scalings of f (add checks that
    f and g have the same variables)."""
    out = XPoly.zero(g.n)
    for eb, cb in g.terms.items():
        out = add(out, scale(XPoly._raw(f.n, {
            tuple(x + y for x, y in zip(ea, eb)): c
            for ea, c in f.terms.items()}), cb))
    return out


def variable(i, n):
    """x_i among x_1..x_n."""
    return XPoly.monomial(tuple(int(k == i - 1) for k in range(n)))


def eval_ones(f):
    """f at x = (1, .., 1)."""
    return sum(f.terms.values(), Rat(0))


def net_change(word):
    """Raises minus lowers in an oscillator word."""
    return sum(1 if a == RAISE else -1 if a == LOWER else 0 for a in word)


def merge_family_one(mat, space=0):
    """Substitute a_1 = a_1+ = 1, k_1 = 0 in the family-1 slot of a matrix
    {(row, col): entry} of words grouped as in macprod.lattice."""
    out = {}
    for pos, e in mat.items():
        acc = {}
        for w, c in e.items():
            atoms = dict(w).get((space, 1), ())
            if any(atom[0] == "k" and atom[1] > 0 for atom in atoms):
                continue
            merged = acc.setdefault(tuple(f for f in w if f[0] != (space, 1)),
                                    {})
            for k, v in c.items():
                merged[k] = merged.get(k, 0) + v
        entry = {w: c for w, merged in acc.items()
                 if (c := {k: v for k, v in merged.items() if v})}
        if entry:
            out[pos] = entry
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
    total = Rat(0)
    for e, c in f.terms.items():
        for ei, xi in zip(e, xs):
            c = Rat.of(c) * Rat.of(xi) ** ei
        total = total + c
    return total


def numerator(f):
    """(D f, D) for any XPoly f: D f as an XNum and D, the lcm of its
    coefficient denominators, as a Laurent dict; one PRS gcd per distinct
    denominator.  The package clears only by the HHL denominator
    (hecke._integral); this works for any f."""
    D = _ONE_D
    for den in {frozenset(c.den.items()): c.den
                for c in f.terms.values()}.values():
        if den != D:
            D = _dict_mul(D, _dict_divexact(den, dict_gcd(D, den)))
    return XNum(f.n, {e: _dict_mul(c.num, _dict_divexact(D, c.den))
                      for e, c in f.terms.items()}), D


def value(N, D):
    """The XPoly N / D for an XNum N and a Laurent dict D, each
    coefficient reduced by the PRS gcd."""
    return XPoly._raw(N.n, {e: Rat(c, D) for e, c in N.terms.items()})


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
