"""compute_P as it was before the Hecke symmetriser, kept as a test
reference: the trace sum of every member of the orbit of lam, all sharing
one memo, added exponent by exponent over each coefficient's lcm and
reduced once with the normalisation Omega of the shape.  It uses no
exchange relation and no Hecke operator."""

from macprod.compositions import check_partition, orbit
from macprod.matprod import (_omega, _rank, _raw_sums, _reduced_poly,
                             _sum_groups)


def orbit_trace_sum(lam, n=None):
    """P_lam in n variables (default len(lam)) as the sum of the f_mu over
    the rearrangements mu of lam padded with zeros."""
    lam = check_partition(lam)
    n = len(lam) if n is None else n
    padded, r = _rank(tuple(lam) + (0,) * (n - len(lam)), None)
    memo = {}
    groups = {}
    for mu in orbit(padded):
        for e, c in _raw_sums(mu, r, memo).items():
            groups.setdefault(e, []).append(c)
    return _reduced_poly(n, _sum_groups(groups), _omega(padded, r, 1))
