"""Affine Hecke layer: Murphy elements, qKZ checks, raising to E_lam.

The commuting Murphy elements are realised as operator words in the
rescaled Demazure generators and the q-shift.  Their joint eigenfunctions
with integer-exponent eigenvalues q^(lam_i) t^(n+1-i-w+^{-1}(i)) are the
non-symmetric Macdonald polynomials; the anti-dominant ones coincide with
the trace polynomials f_delta, and the rest are reached by Baxterised
raising moves."""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate

from .compositions import (antidominant, check_composition, dominant,
                           eigen_exponents, orbit, raising_word, rho_of)
from .errors import (BranchResolutionFailure, IndexOutOfRange, InternalError,
                     NotRaisable, SingularSystem)
from .matprod import compute_f
from .qtfield import QTRat, one
from .xpoly import XPoly

_T = QTRat.monomial(te=1)
_ONE = one()


def murphy_apply(i, f):
    """Murphy element number i acting on f: the chain of inverse
    generators 1..i-1, the q-shift, then generators n-1 down to i."""
    n = f.n
    if not 1 <= i <= n:
        raise IndexOutOfRange(f"murphy index {i} outside 1..{n}")
    g = f
    for j in range(i - 1, 0, -1):
        g = g.demazure_T_inv(j)
    g = g.shift_omega()
    for j in range(n - 1, i - 1, -1):
        g = g.demazure_T(j)
    return g


def eigen_check(lam, f):
    """True iff f is a joint Murphy eigenfunction with the spectrum of lam."""
    lam = check_composition(lam)
    if len(lam) != f.n or not f:
        return False
    for i, (qe, te) in enumerate(eigen_exponents(lam), start=1):
        if murphy_apply(i, f) != f.scale(QTRat.monomial(qe=qe, te=te)):
            return False
    return True


def qkz_failures(lam_plus):
    """Violated exchange relations over the rearrangement class of a
    partition, as (member, relation description) pairs.

    Relations: the equal-part relation T f = t f, the descent relation
    T f_mu = f_{s_i mu}, and the q-cycling of the shift."""
    lam_plus = dominant(lam_plus)
    r = max(lam_plus) if lam_plus else 0
    fs = {mu: compute_f(mu, r) for mu in orbit(lam_plus)}
    n = len(lam_plus)
    bad = []
    for mu, f in fs.items():
        for i in range(1, n):
            a, b = mu[i - 1], mu[i]
            if a == b:
                if f.demazure_T(i) != f.scale(_T):
                    bad.append((mu, f"T_{i} f != t f"))
            elif a > b:
                smu = mu[:i - 1] + (b, a) + mu[i + 1:]
                if f.demazure_T(i) != fs[smu]:
                    bad.append((mu, f"T_{i} f != f at swap {i}"))
        rot = (mu[-1],) + mu[:-1]
        if fs[rot].shift_omega() != f.scale(QTRat.monomial(qe=mu[-1])):
            bad.append((mu, "shift cycle misses q^(last part)"))
    return bad


def verify_qkz(lam_plus):
    """Exchange equations for the whole rearrangement class of a partition."""
    return not qkz_failures(lam_plus)


def raise_E(lam, i, E):
    """One Baxterised raising move: E_lam -> E_{s_i lam} for an ascent at i.

    The additive scalar is (1-t)/(1-d) where d is the spectral-vector
    quotient of the two swapped positions; the rescaling leaves the
    direction of the quotient ambiguous, so both readings are tried and
    the one passing the eigenvalue check wins.  The result is normalised
    monic at the target monomial."""
    lam = check_composition(lam)
    n = len(lam)
    if not 1 <= i <= n - 1:
        raise IndexOutOfRange(f"raising index {i} outside 1..{n - 1}")
    if lam[i - 1] >= lam[i]:
        raise NotRaisable(f"{lam} has no ascent at {i}")
    target = lam[:i - 1] + (lam[i], lam[i - 1]) + lam[i + 1:]
    rho2 = rho_of(lam)
    d0 = QTRat.monomial(qe=lam[i] - lam[i - 1],
                        te=(rho2[i] - rho2[i - 1]) // 2)
    base = E.demazure_T(i)
    for d in (d0, d0.inverse()):
        cand = base + E.scale((_ONE - _T) * (_ONE - d).inverse())
        lead = cand.coeff_of(target)
        if not lead:
            continue
        cand = cand.scale(lead.inverse())
        if eigen_check(target, cand):
            return cand
    raise BranchResolutionFailure(f"no spectral branch works at {lam}, i={i}")


@lru_cache(maxsize=None)
def _compute_E(lam):
    cur = antidominant(lam)
    E = compute_f(cur)
    for i in raising_word(lam):
        nxt = cur[:i - 1] + (cur[i], cur[i - 1]) + cur[i + 1:]
        E = raise_E(cur, i, E)
        cur = nxt
    if cur != lam:
        raise InternalError(f"raising word of {lam} ended at {cur}")
    return E


def compute_E(lam):
    """Non-symmetric Macdonald polynomial, monic at x^lam."""
    return _compute_E(check_composition(lam))


def _psums(mu):
    return tuple(accumulate(mu))


def triangular_expand(lam):
    """Coefficients of E_lam in the basis f_mu, mu running over the
    rearrangement class.  Greedy peeling down a linear extension of the
    dominance order is exact because every f_mu is monic at x^mu with
    support only at dominated exponents."""
    lam = check_composition(lam)
    r = max(lam) if lam else 0
    resid = compute_E(lam)
    coeffs = {}
    for mu in sorted(orbit(lam), key=_psums, reverse=True):
        c = resid.coeff_of(mu)
        if c:
            coeffs[mu] = c
            resid = resid - compute_f(mu, r).scale(c)
    if resid:
        raise SingularSystem(f"residual after peeling the orbit of {lam}")
    return coeffs
