"""Faulty Murphy image tables for the invariant checks of the triangular
eigen oracle.

Each fault wraps the oracle's own murphy_apply and breaks one property that
oracles.eigen_solve_E relies on, and FAULTS names the error it must raise.
Run as a script, the module patches oracles.murphy_apply with each fault
in turn and prints name:error pairs, so the checks can be run under
python -O:

    PYTHONPATH=src python -O tests/oracle_faults.py
"""

from macprod import oracles
from macprod.compositions import eigen_exponents
from macprod.errors import InternalError, MacprodError, NoSolution, NonUnique
from macprod.oracles import murphy_apply
from macprod.xpoly import XNum

LAM = (1, 0)


def outside(i, f):
    """Every image gains a term of the wrong degree."""
    g = murphy_apply(i, f)
    return XNum(g.n, {**g.terms, (9,) * g.n: {(0, 0): 1}})


def repeated(i, f):
    """Every monomial other than x^LAM gets LAM's spectrum as diagonal."""
    g = murphy_apply(i, f)
    (nu,) = f.terms
    if nu == LAM:
        return g
    return XNum(g.n, {**g.terms, nu: {eigen_exponents(LAM)[i - 1]: 1}})


def skewed(i, f):
    """The last Murphy element has every off-diagonal coefficient
    doubled, so its equations disagree with those of the first."""
    g = murphy_apply(i, f)
    (nu,) = f.terms
    if i < g.n:
        return g
    return XNum(g.n, {k: c if k == nu else {e: 2 * v for e, v in c.items()}
                      for k, c in g.terms.items()})


def backward(i, f):
    """Every monomial other than x^LAM gains a term at x^LAM, which is in
    the support but comes first in the triangular order."""
    g = murphy_apply(i, f)
    (nu,) = f.terms
    if nu == LAM:
        return g
    return XNum(g.n, {**g.terms, LAM: {(0, 0): 1}})


FAULTS = {"outside": (outside, InternalError),
          "repeated": (repeated, NonUnique),
          "skewed": (skewed, NoSolution),
          "backward": (backward, InternalError)}


def raised(name):
    """The name of the error eigen_solve_E(LAM) raises under a fault."""
    real = oracles.murphy_apply
    oracles.murphy_apply = FAULTS[name][0]
    try:
        oracles.eigen_solve_E(LAM)
    except MacprodError as exc:
        return type(exc).__name__
    finally:
        oracles.murphy_apply = real
    return None


if __name__ == "__main__":
    print(" ".join(f"{name}:{raised(name)}" for name in FAULTS))
