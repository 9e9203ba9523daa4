"""The eigen oracle as it was before the triangular solve, kept as a test
reference.

E_lam is the unique monic solution of the Murphy eigen-equations, found by
a dense QTRat row reduction over every (i, monomial) equation, with a gcd
on every add, in the reference field (its pivots, such as q t^2 - q t - 1,
leave the field the package cancels in).  It trusts no triangularity: the narrow support (sorted
shapes dominated by lam+) is widened to the whole degree slice when the
system is inconsistent there, and uniqueness is read off the pivots.
"""

from conftest import reference_field
from helpers import murphy_apply
from macprod.compositions import (check_composition, dominance_leq,
                                  dominant, eigen_exponents)
from macprod.errors import NoSolution, NonUnique
from macprod.oracles import _degree_slice, _rref
from macprod.qtfield import QTRat, one
from macprod.xpoly import XPoly

_ONE = one()


def _solve_unique(rows, ncols):
    """[A|b] rows -> solution vector, or NoSolution/NonUnique."""
    piv = _rref(rows)
    for row in rows:
        if not any(row[:ncols]) and row[ncols]:
            raise NoSolution("inconsistent eigen system")
    if piv and piv[-1] == ncols:
        raise NoSolution("inconsistent eigen system")
    if len(piv) < ncols:
        raise NonUnique("eigen system is underdetermined")
    sol = [None] * ncols
    for r, c in enumerate(piv):
        sol[c] = rows[r][ncols]
    return sol


@reference_field()
def eigen_solve_E(lam):
    """E_lam by row reduction of the eigen system on the narrow support,
    widened to the whole degree slice on inconsistency."""
    lam = check_composition(lam)
    n, d = len(lam), sum(lam)
    shape = dominant(lam)
    spectrum = [QTRat.monomial(qe=qe, te=te)
                for qe, te in eigen_exponents(lam)]
    slice_all = _degree_slice(n, d)
    narrow = [e for e in slice_all
              if dominance_leq(dominant(e), shape)]
    for support in (narrow, slice_all):
        colidx = {e: j for j, e in enumerate(support)}
        ncols = len(support)
        zero = _ONE - _ONE
        eqs = {}
        for i in range(1, n + 1):
            for nu in support:
                j = colidx[nu]
                acted = murphy_apply(i, XPoly.monomial(nu, _ONE))
                for kappa, c in acted.terms.items():
                    row = eqs.setdefault((i, kappa), [zero] * (ncols + 1))
                    row[j] = row[j] + c
                row = eqs.setdefault((i, nu), [zero] * (ncols + 1))
                row[j] = row[j] - spectrum[i - 1]
        rows = [r for r in eqs.values() if any(r)]
        norm = [zero] * (ncols + 1)
        norm[colidx[lam]] = _ONE
        norm[ncols] = _ONE
        rows.append(norm)
        try:
            sol = _solve_unique(rows, ncols)
        except NoSolution:
            if support is narrow:
                continue
            raise
        return XPoly._raw(n, {e: c for e, c in zip(support, sol) if c})
    raise NoSolution("unreachable")
