"""Affine Hecke layer: Murphy elements, qKZ checks, raising to E_lam.

The commuting Murphy elements are realised as operator words in the
rescaled Demazure generators and the q-shift.  Their joint eigenfunctions
with integer-exponent eigenvalues q^(lam_i) t^(n+1-i-w+^{-1}(i)) are the
non-symmetric Macdonald polynomials; the anti-dominant ones coincide with
the trace polynomials f_delta, and the rest are reached by Baxterised
raising moves.

Every raising move is certified by the exact Murphy eigen check, run on
the denominator-cleared numerator D f (xpoly.XNum): each Murphy word acts
on D f in Z[q^+-1, t^+-1][x] and is compared exactly with the eigenvalue
times D f.  Scaling by a nonzero D is injective, so this is the full
symbolic check over Q(q, t), with no gcd inside a word."""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate

from .compositions import (check_composition, dominant, eigen_exponents,
                           orbit, raising_word, rho_of)
from .errors import (BranchResolutionFailure, IndexOutOfRange, NotRaisable,
                     SingularSystem)
from .matprod import compute_f
from .xpoly import XNum


def _numerator(f):
    return f if isinstance(f, XNum) else f.numerator()


def murphy_apply(i, f):
    """Murphy element number i acting on f: the chain of inverse
    generators 1..i-1, the q-shift, then generators n-1 down to i.

    An XNum stays integral; an XPoly is cleared of denominators once and
    the result reduced once."""
    n = f.n
    if not 1 <= i <= n:
        raise IndexOutOfRange(f"murphy index {i} outside 1..{n}")
    g = _numerator(f)
    for j in range(i - 1, 0, -1):
        g = g.demazure_T_inv(j)
    g = g.shift_omega()
    for j in range(n - 1, i - 1, -1):
        g = g.demazure_T(j)
    return g if isinstance(f, XNum) else g.reduce()


def eigen_check(lam, f):
    """True iff f (an XPoly, or an XNum of any scale) is a joint Murphy
    eigenfunction with the spectrum of lam: each Murphy word is applied to
    the integral numerator N and compared exactly with q^a t^b N."""
    lam = check_composition(lam)
    if len(lam) != f.n or not f:
        return False
    N = _numerator(f)
    for i, (qe, te) in enumerate(eigen_exponents(lam), start=1):
        if murphy_apply(i, N) != N.times({(qe, te): 1}):
            return False
    return True


def qkz_failures(lam_plus):
    """Violated exchange relations over the rearrangement class of a
    partition, as (member, relation description) pairs.

    Relations: the equal-part relation T f = t f, the descent relation
    T f_mu = f_{s_i mu}, and the q-cycling of the shift."""
    lam_plus = dominant(lam_plus)
    fs = {mu: compute_f(mu).numerator() for mu in orbit(lam_plus)}
    n = len(lam_plus)
    bad = []
    for mu, f in fs.items():
        for i in range(1, n):
            a, b = mu[i - 1], mu[i]
            if a == b:
                if f.demazure_T(i) != f.times({(0, 1): 1}):
                    bad.append((mu, f"T_{i} f != t f"))
            elif a > b:
                smu = mu[:i - 1] + (b, a) + mu[i + 1:]
                if f.demazure_T(i) != fs[smu]:
                    bad.append((mu, f"T_{i} f != f at swap {i}"))
        rot = (mu[-1],) + mu[:-1]
        if fs[rot].shift_omega() != f.times({(mu[-1], 0): 1}):
            bad.append((mu, "shift cycle misses q^(last part)"))
    return bad


def verify_qkz(lam_plus):
    """Exchange equations for the whole rearrangement class of a partition."""
    return not qkz_failures(lam_plus)


def raise_E(lam, i, E):
    """One Baxterised raising move: E_lam -> E_{s_i lam} for an ascent at i.

    The move is T~_i + (1-t)/(1-d) with d = q^a t^b the spectral-vector
    quotient of the two swapped positions.  On the numerator P = D E it
    forms Q = (1-d) T~_i P + (1-t) P, certifies Q by the exact eigen check
    (which ignores scale), and divides by Q's coefficient at the target
    monomial, so the result is monic there."""
    lam = check_composition(lam)
    n = len(lam)
    if not 1 <= i <= n - 1:
        raise IndexOutOfRange(f"raising index {i} outside 1..{n - 1}")
    if lam[i - 1] >= lam[i]:
        raise NotRaisable(f"{lam} has no ascent at {i}")
    target = lam[:i - 1] + (lam[i], lam[i - 1]) + lam[i + 1:]
    rho2 = rho_of(lam)
    d = (lam[i] - lam[i - 1], (rho2[i] - rho2[i - 1]) // 2)
    P = E.numerator()
    Q = P.demazure_T(i).times({(0, 0): 1, d: -1}) + \
        P.times({(0, 0): 1, (0, 1): -1})
    lead = Q.terms.get(target)
    if not lead or not eigen_check(target, Q):
        raise BranchResolutionFailure(
            f"the spectral branch fails at {lam}, i={i}")
    return XNum(n, Q.terms, lead).reduce()


@lru_cache(maxsize=None)
def _compute_E(lam):
    """E_lam, memoised along the raising chain: the last letter i of the
    raising word of lam raises E_{s_i lam}, which comes from the cache."""
    word = raising_word(lam)
    if not word:
        return compute_f(lam)
    i = word[-1]
    prev = lam[:i - 1] + (lam[i], lam[i - 1]) + lam[i + 1:]
    return raise_E(prev, i, _compute_E(prev))


def compute_E(lam):
    """Non-symmetric Macdonald polynomial, monic at x^lam; the caller owns
    the returned polynomial (the cache keeps its own)."""
    return _compute_E(check_composition(lam)).copy()


def _psums(mu):
    return tuple(accumulate(mu))


def triangular_expand(lam):
    """Coefficients of E_lam in the basis f_mu, mu running over the
    rearrangement class.  Greedy peeling down a linear extension of the
    dominance order is exact because every f_mu is monic at x^mu with
    support only at dominated exponents."""
    lam = check_composition(lam)
    resid = compute_E(lam)
    coeffs = {}
    for mu in sorted(orbit(lam), key=_psums, reverse=True):
        c = resid.coeff_of(mu)
        if c:
            coeffs[mu] = c
            resid = resid - compute_f(mu).scale(c)
    if resid:
        raise SingularSystem(f"residual after peeling the orbit of {lam}")
    return coeffs
