"""The raising chain as it was before E was held over its factored
denominator, kept as a test reference.

Each move clears the denominators of E_lam with one gcd per distinct
denominator (`helpers.numerator`), forms Q = (1-d) T~_i P + (1-t) P with
the dict operators of `xnum_dict`, certifies it by the Murphy eigen check
and divides by Q's coefficient at the target monomial with one gcd per
coefficient (`helpers.value`).  It trusts no lead identity and no
denominator bound, so it checks both.  Its gcds are the PRS gcd of
prs_gcd.
"""

import xnum_dict
from helpers import numerator, value
from macprod.compositions import raising_word, rho_of
from macprod.errors import BranchResolutionFailure
from macprod.hecke import eigen_failure
from macprod.matprod import compute_f


def raise_E(lam, i, E):
    """E_{s_i lam} from the XPoly E_lam, for an ascent of lam at i."""
    target = lam[:i - 1] + (lam[i], lam[i - 1]) + lam[i + 1:]
    rho2 = rho_of(lam)
    d = (lam[i] - lam[i - 1], (rho2[i] - rho2[i - 1]) // 2)
    P, _ = numerator(E)
    Q = xnum_dict.add(xnum_dict.times(xnum_dict.demazure_T(P, i),
                                      {(0, 0): 1, d: -1}),
                      xnum_dict.times(P, {(0, 0): 1, (0, 1): -1}))
    lead = Q.terms.get(target)
    if not lead or eigen_failure(target, Q) is not None:
        raise BranchResolutionFailure(
            f"the spectral branch fails at {lam}, i={i}")
    return value(Q, lead)


def compute_E(lam, memo):
    """E_lam along the raising chain, memoised in the dict memo."""
    if lam not in memo:
        word = raising_word(lam)
        if not word:
            memo[lam] = compute_f(lam)
        else:
            i = word[-1]
            prev = lam[:i - 1] + (lam[i], lam[i - 1]) + lam[i + 1:]
            memo[lam] = raise_E(prev, i, compute_E(prev, memo))
    return memo[lam]
