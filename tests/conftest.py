"""gcd_checked() runs production code unchanged and compares each
qtfield._dict_gcd call it makes with the bivariate PRS gcd of prs_gcd.
The tests' own field arithmetic runs in ref_field.Rat, over that gcd."""

from contextlib import contextmanager

import prs_gcd
from macprod import qtfield


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
