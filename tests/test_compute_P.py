"""P_lam from one trace sum and the Hecke symmetriser, checked against the
orbit trace sum it replaced and against two limits of Macdonald's book
(ch. VI, (4.14)): P_lam(x; 1, t) = e_lam'(x) and P_lam(x; q, 1) = m_lam(x).
Both limits are built here from the integer partition alone, with no
trace, Hecke or lattice code."""

from itertools import combinations, combinations_with_replacement, permutations

import pytest

from macprod import matprod
from macprod.errors import InternalError
from macprod.matprod import compute_P
from macprod.qtfield import _divide_factor
from macprod.xpoly import XNum
from orbit_sum import orbit_trace_sum

# every partition with at most 5 parts, each at most 3, zeros included
SMALL = [c for n in range(1, 6)
         for c in combinations_with_replacement(range(3, -1, -1), n)]


@pytest.mark.parametrize("n", range(1, 6))
def test_matches_orbit_trace_sum_on_small_partitions(n):
    for lam in SMALL:
        if len(lam) == n:
            assert compute_P(lam) == orbit_trace_sum(lam), lam


@pytest.mark.parametrize("lam, n", [((4, 2, 1, 0), None),
                                    ((4, 3, 2, 1, 0), None),
                                    ((2, 1), 4), ((1,), 3), ((2, 2), 5)])
def test_matches_orbit_trace_sum(lam, n):
    assert compute_P(lam, n) == orbit_trace_sum(lam, n)


def _conjugate(lam):
    return tuple(sum(1 for p in lam if p >= j)
                 for j in range(1, max(lam, default=0) + 1))


def _times(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(map(sum, zip(ea, eb)))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def elementary(parts, n):
    """e_parts(x_1..x_n) = prod_k e_k as {exponents: int}."""
    out = {(0,) * n: 1}
    for k in parts:
        out = _times(out, {tuple(int(i in s) for i in range(n)): 1
                           for s in combinations(range(n), k)})
    return out


def monomial(lam, n):
    """m_lam(x_1..x_n) as {exponents: int}."""
    padded = tuple(lam) + (0,) * (n - len(lam))
    return {e: 1 for e in set(permutations(padded))}


def _specialised(P, **at):
    """{exponents: int} for the XPoly P at q = 1 or t = 1, whose
    coefficients must then be integers."""
    out = {}
    for e, c in P.specialize(**at).terms.items():
        v = c.as_fraction()
        assert v.denominator == 1, (e, c)
        out[e] = int(v)
    return out


@pytest.mark.parametrize("n", range(1, 6))
def test_q_one_gives_elementary_and_t_one_gives_monomial(n):
    for lam in SMALL:
        if len(lam) == n:
            P = compute_P(lam)
            assert _specialised(P, q=1) == elementary(_conjugate(lam), n), lam
            assert _specialised(P, t=1) == monomial(lam, n), lam


def test_limits_tell_shapes_apart():
    # (3, 1)' = (2, 1, 1); moving one box of either shape breaks the match
    P = compute_P((3, 1, 0, 0))
    assert _specialised(P, q=1) == elementary((2, 1, 1), 4)
    assert _specialised(P, q=1) != elementary((2, 2), 4)
    assert _specialised(P, t=1) != monomial((2, 2), 4)


def test_rank5_P_is_elementary_at_q_one():
    lam = (5, 4, 3, 2, 1, 0)
    assert _specialised(compute_P(lam), q=1) == \
        elementary(_conjugate(lam), len(lam))


def test_stabiliser_is_a_product_of_t_factorials():
    # [3]_t! [2]_t! = (1 + t) (1 + t + t^2) (1 + t) = Phi_2(t)^2 Phi_3(t)
    assert matprod._stabiliser((1, 1, 1, 0, 0)) == (((2, 0, 1), 2),
                                                    ((3, 0, 1), 1))
    assert matprod._stabiliser((3, 2, 1, 0)) == ()


def _stripped(N, factor):
    """N with one factor divided out of each coefficient it divides."""
    return XNum(N.n, {e: _divide_factor(c, factor) or c
                      for e, c in N.terms.items()})


def test_symmetriser_output_missing_a_stabiliser_factor_raises(monkeypatch):
    # (2, 1, 1, 0, 0) has W_J(t) = [2]_t! [2]_t! = (1 + t)^2; the sum with
    # one [2]_t dropped leaves a remainder on dividing by W_J
    real = XNum.symmetrise
    monkeypatch.setattr(XNum, "symmetrise",
                        lambda self: _stripped(real(self), (2, 0, 1)))
    with pytest.raises(InternalError, match="not divisible by its stabiliser"):
        compute_P((2, 1, 1, 0, 0))
