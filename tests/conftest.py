"""The reference field for the tests.

QTRat cancels through qtfield._dict_gcd, which accepts only denominators
that are univariate or split into cyclotomic factors Phi_d(q^a t^b), and
the products and inverses that form a denominator without a gcd check it
with qtfield._gated.  The references the tests compare against run instead
on the whole field Q(q, t), with the bivariate PRS gcd of prs_gcd:

    with reference_field():
        want = rref_oracle.eigen_solve_E(lam)   # PRS gcd
    got = eigen_solve_E(lam)                    # production gcd

reference_field() also decorates a function, so a reference module wraps
its entry points once.  gcd_checked() runs production code unchanged and
compares each _dict_gcd call it makes with the PRS gcd.
"""

from contextlib import contextmanager

import prs_gcd
from macprod import qtfield


@contextmanager
def reference_field():
    """Inside the block QTRat cancels by the PRS gcd and takes every
    denominator to lie in the field; the functions in force before it are
    restored on exit, so blocks nest."""
    outer = qtfield._dict_gcd, qtfield._gated
    qtfield._dict_gcd, qtfield._gated = prs_gcd.dict_gcd, _whole_field
    try:
        yield
    finally:
        qtfield._dict_gcd, qtfield._gated = outer


def _whole_field(p):
    return p


@contextmanager
def gcd_checked():
    """Inside the block every production _dict_gcd call is compared with
    the PRS gcd (AssertionError on a difference); yields the list of the
    calls' argument pairs, so a test can see that the check ran."""
    production = qtfield._dict_gcd
    calls = []

    def checked(a, b):
        g = production(a, b)
        assert g == prs_gcd.dict_gcd(a, b), (a, b)
        calls.append((a, b))
        return g

    qtfield._dict_gcd = checked
    try:
        yield calls
    finally:
        qtfield._dict_gcd = production
