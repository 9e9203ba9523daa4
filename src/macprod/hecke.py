"""Affine Hecke layer: Murphy elements, qKZ checks, raising to E_lam.

The commuting Murphy elements are realised as operator words in the
rescaled Demazure generators and the q-shift.  Their joint eigenfunctions
with integer-exponent eigenvalues q^(lam_i) t^(n+1-i-w+^{-1}(i)) are the
non-symmetric Macdonald polynomials; the anti-dominant ones coincide with
the trace polynomials f_delta, and the rest are reached by Baxterised
raising moves.

The operators act only on a numerator D f (xpoly.XNum), which does not
carry D.  By the theorem of Haglund-Haiman-Loehr the denominator

    D_lam = prod over cells u of dg(lam) of (1 - q^(leg(u)+1) t^(arm(u)+1))

clears every coefficient of E_lam, and since the qKZ relations
f_{s_i mu} = T~_i f_mu have coefficients in Z[t^+-1], D_delta of the
anti-dominant delta clears every f_mu of its orbit too.  The one way to
clear, _integral, trial-divides each distinct coefficient denominator by
the cyclotomic factors Phi_d(q^a t^b) of D_lam and takes the numerators
over the lcm D of the factor multisets found, usually far smaller than
D_lam.  Its sorted factor multiset is the only record of D: a move
carries it, and XPoly.from_factored divides by it on the way back.  One
call clears several polynomials over one D, as qkz_failures does with a
whole orbit.  No gcd is taken here.  Each Murphy word acts on D f in
Z[q^+-1, t^+-1][x] and is compared exactly with the eigenvalue times
D f; scaling by a nonzero D is injective, so this is the full check.

Every operator here runs on xpoly.XPack, the Kronecker-packed form of an
XNum, in which a coefficient is one integer and a generator step is a
few shifted big-int adds per monomial of x.  Each caller packs what it
acts on with xpoly.pack and declares what it will do: eigen_failure
n - 1 generator steps and t shifts of up to n - 1 either way (a Murphy
word and its eigenvalue), _move one step and products whose l1 norms
multiply to 2, qkz_failures one step and a product with t.  pack sizes
the digits from the l1 bound those steps reach, so a value whose bound
or exponents outgrow the layout raises InternalError instead of
wrapping.  Comparisons are int equality, and nothing is unpacked except
the Q of a move, whose trial divisions stay on Laurent dicts.

Raising is one integral walk, _walk, shared by compute_E, its failure
replay and raise_E.  It holds only the current (P, factors), P = D E
over a known factor multiset, unchecked and unreduced.  A move forms
Q = (1 - d) T~_i P + (1 - t) P, whose coefficient at the target monomial
is exactly t (1 - d) D (the lead identity, checked on every move), and
carries -Q/t over the factors of D and of 1 - d, cancelling a factor only
where it divides every coefficient.  E_lam is the only joint Murphy
eigenfunction with lam's spectrum that is monic at x^lam, so compute_E
walks raising_word(lam) from f_delta, certifies the E it hands out by one
exact eigen check of the final numerator, then reduces each coefficient
by trial division; when the check fails, the walk is replayed with every
move checked and the error names the first bad move.  No E is
memoised: the intermediates of a walk are dropped as it goes, and each
call walks and checks its E afresh.  A coefficient that D_lam does not
clear, in the f_delta that starts a walk, on any qKZ member, in verify
eigen or in the E given to raise_E, or a move whose lead identity fails,
raises InternalError."""

from __future__ import annotations

from itertools import accumulate, chain

from .compositions import (antidominant, check_composition, dominant,
                           eigen_exponents, orbit, raising_word, rho_of)
from .errors import (BranchResolutionFailure, IndexOutOfRange, InternalError,
                     NotRaisable, SingularSystem)
from .matprod import compute_f
from .qtfield import (Factored, QTRat, _dict_mul, _divide_factor,
                      binomial_factors, divide_out, factor_product, over_lcm)
from .xpoly import XNum, XPoly, pack


def murphy_apply(i, N):
    """Murphy element number i acting on the XPack N: the chain of inverse
    generators 1..i-1, the q-shift, then generators n-1 down to i.  Every
    step is Z[q^+-1, t^+-1]-linear, so on N = D f it gives D (Y_i f)."""
    n = N.n
    if not 1 <= i <= n:
        raise IndexOutOfRange(f"murphy index {i} outside 1..{n}")
    for j in range(i - 1, 0, -1):
        N = N.demazure_T_inv(j)
    N = N.shift_omega()
    for j in range(n - 1, i - 1, -1):
        N = N.demazure_T(j)
    return N


def eigen_failure(lam, N):
    """The first Murphy index i at which the XNum N (of any scale, in
    len(lam) variables) fails Y_i N = q^a t^b N with q^a t^b the i-th
    eigenvalue of lam, or None when every equation holds.  Each Murphy
    word, n - 1 generator steps and the shift on N packed, is compared
    exactly with q^a t^b N; the eigenvalue's t exponent lies within
    n - 1 of 0, as the words' t shifts do."""
    n = N.n
    P, = pack((N,), n - 1, t_down=n - 1, t_up=n - 1)
    for i, (qe, te) in enumerate(eigen_exponents(lam), start=1):
        if murphy_apply(i, P) != P.times({(qe, te): 1}):
            return i
    return None


def eigen_check(lam, f):
    """True iff the XPoly f is a nonzero joint Murphy eigenfunction with
    the spectrum of lam.

    Such an f is c E_lam with c = f[x^lam] nonzero, since E_lam spans the
    eigenspace and is monic at x^lam.  Then f den(c) = num(c) E_lam has its
    denominators in the HHL denominator D_lam, so it must be cleared by
    D_lam (False otherwise, with no Murphy word run), and its numerator goes
    to eigen_failure; num(c) is never divided by, so needs no gcd."""
    lam = check_composition(lam)
    c = f.coeff_of(lam)
    if len(lam) != f.n or not c:
        return False
    if c.den != {(0, 0): 1}:
        f = f.scale(QTRat(c.den))
    try:
        N, _ = _integral(lam, f)
    except InternalError:
        return False
    return eigen_failure(lam, N) is None


def qkz_failures(lam_plus):
    """Violated exchange relations over the rearrangement class of a
    partition, as (member, relation description) pairs.

    Relations: the equal-part relation T f = t f, the descent relation
    T f_mu = f_{s_i mu}, and the q-cycling of the shift.  The members are
    cleared over one D and packed in one layout, for one generator step
    and a product with t."""
    lam_plus = dominant(lam_plus)
    members = orbit(lam_plus)
    *nums, _ = _integral(antidominant(lam_plus),
                         *(compute_f(mu) for mu in members))
    fs = dict(zip(members, pack(nums, 1, t_up=1)))
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


def _hhl_factors(lam):
    """The factor multiset of the Haglund-Haiman-Loehr denominator D_lam,
    as a dict.  Column i of dg(lam) has height lam_i; its cell (i, j) has
    leg lam_i - j and arm #{k > i : j <= lam_k <= lam_i} +
    #{k < i : j - 1 <= lam_k < lam_i}."""
    out = {}
    for i, h in enumerate(lam):
        for j in range(1, h + 1):
            arm = sum(1 for p in lam[i + 1:] if j <= p <= h) + \
                sum(1 for p in lam[:i] if j - 1 <= p < h)
            for f, m in binomial_factors(h - j + 1, arm + 1)[1]:
                out[f] = out.get(f, 0) + m
    return out


def _integral(lam, *polys):
    """(P_1, .., P_k, factors) for XPolys E_1, .., E_k whose denominators
    divide D_lam: P_j = D E_j as an XNum, all over one D, given as a
    sorted multiset of cyclotomic factors ((d, a, b), m) with
    D = prod Phi_d(q^a t^b)^m exactly.

    Each distinct coefficient denominator is trial-divided once by the
    factors of D_lam, and what is left must be a unit monomial; D is the
    lcm of the multisets found, so the P_j take no gcd."""
    hhl = _hhl_factors(lam)
    split = {}
    coeffs = []
    for c in chain.from_iterable(E.terms.values() for E in polys):
        key = frozenset(c.den.items())
        if key not in split:
            den, have = c.den, []
            for f, m in hhl.items():
                den, k = divide_out(den, f, m)
                if k:
                    have.append((f, k))
            if len(den) != 1 or abs(next(iter(den.values()))) != 1:
                raise InternalError(f"a coefficient denominator does not "
                                    f"divide D_{lam}")
            split[key] = den, tuple(sorted(have))
        unit, have = split[key]
        ((qe, te), s), = unit.items()
        coeffs.append(Factored({(a - qe, b - te): s * v
                                for (a, b), v in c.num.items()}, have))
    factors, nums = over_lcm(coeffs)
    nums = iter(nums)
    return (*(XNum(E.n, dict(zip(E.terms, nums))) for E in polys), factors)


def _swap(lam, i):
    return lam[:i - 1] + (lam[i], lam[i - 1]) + lam[i + 1:]


def _move(lam, i, P, factors):
    """One Baxterised raising move T~_i + (1-t)/(1-d) on the integral form
    (P, factors) of E_lam, P = D E_lam with D the product of the factors:
    the integral form of E_{s_i lam}, unchecked and unreduced.

    d = q^a t^b (a, b > 0) is the spectral-vector quotient of the two
    swapped positions, and Q = (1-d) T~_i P + (1-t) P.  P' = -Q/t is
    formed on P packed, one generator step and products with two-term
    dicts, and unpacked; its lead identity P'[target] = (d-1) D is checked
    (InternalError), and P' is carried over the factors of D and of 1-d,
    whose product is (d-1) D, by trial division on the Laurent dicts."""
    target = _swap(lam, i)
    rho2 = rho_of(lam)
    a, b = lam[i] - lam[i - 1], (rho2[i] - rho2[i - 1]) // 2
    X, = pack((P,), 1, 2, t_down=1, t_up=b)
    terms = (X.demazure_T(i).times({(0, -1): -1, (a, b - 1): 1}) +
             X.times({(0, -1): -1, (0, 0): 1})).unpack().terms
    if terms.get(target) != _dict_mul({(0, 0): -1, (a, b): 1},
                                      factor_product(factors)):
        raise InternalError(
            f"the move at {lam}, i={i} breaks the lead identity t (1-d) D")
    merged = dict(factors)
    for f, m in binomial_factors(a, b)[1]:
        merged[f] = merged.get(f, 0) + m
    kept = []
    for f, m in sorted(merged.items()):
        while m:
            quo = _divide_all(terms, f)
            if quo is None:
                break
            terms, m = quo, m - 1
        if m:
            kept.append((f, m))
    return XNum(P.n, terms), tuple(kept)


def _divide_all(terms, f):
    """terms with every coefficient divided by the cyclotomic factor f, or
    None as soon as one coefficient is not divisible."""
    out = {}
    for e, c in terms.items():
        c = _divide_factor(c, f)
        if c is None:
            return None
        out[e] = c
    return out


def _reduce(P, factors):
    """The XPoly P / prod of factors, each coefficient reduced by trial
    division over the factors."""
    return XPoly.from_factored(P.n, ((e, Factored(c, factors))
                                     for e, c in P.terms.items()))


def _walk(lam, E, word, check):
    """The integral form (P, factors) of E_lam raised by one _move per
    index of word, unreduced; only the current form is held.  The XPoly E
    is cleared by _integral.  With check, each move's result must pass
    eigen_failure with the spectrum it reaches, and the first that fails
    raises BranchResolutionFailure naming that move."""
    P, factors = _integral(lam, E)
    for i in word:
        prev, lam = lam, _swap(lam, i)
        P, factors = _move(prev, i, P, factors)
        if check and eigen_failure(lam, P) is not None:
            raise BranchResolutionFailure(
                f"the spectral branch fails at {prev}, i={i}")
    return P, factors


def raise_E(lam, i, E):
    """One Baxterised raising move: E_lam -> E_{s_i lam} for an ascent at i,
    certified on its own by a checked _walk of one move, then reduced by
    trial division."""
    lam = check_composition(lam)
    n = len(lam)
    if not 1 <= i <= n - 1:
        raise IndexOutOfRange(f"raising index {i} outside 1..{n - 1}")
    if lam[i - 1] >= lam[i]:
        raise NotRaisable(f"{lam} has no ascent at {i}")
    return _reduce(*_walk(lam, E, (i,), check=True))


def compute_E(lam):
    """Non-symmetric Macdonald polynomial, monic at x^lam, certified: the
    walk along raising_word(lam) from f_delta runs unchecked, and its
    final numerator passes one exact eigen check with the spectrum of lam,
    then is reduced.  When that check fails, the walk is replayed with
    every move checked; the last move's check is the one that failed, so
    the replay always raises, naming the first bad move.  No E is
    memoised, so the caller owns the polynomial just built."""
    lam = check_composition(lam)
    word = raising_word(lam)
    if not word:
        return compute_f(lam)
    delta = antidominant(lam)
    P, factors = _walk(delta, compute_f(delta), word, check=False)
    if eigen_failure(lam, P) is not None:
        _walk(delta, compute_f(delta), word, check=True)
    return _reduce(P, factors)


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
