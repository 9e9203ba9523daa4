"""Independent ground truths for validating the trace pipeline.

Nothing here goes through the lattice/trace construction: E comes from
the Murphy eigen-equations, solved by triangular back-substitution over
factored denominators, Schur from tableau enumeration, Hall-Littlewood
from the symmetrization formula over Z[t] with one final division by
v_lam(t), exclusion process weights from a generator null space, traces
from partial sums.  None of them does QTRat arithmetic, which the package
does not have.  The eigen solve shares
only the closed forms xpoly._image with the raising route: it applies
the Murphy elements to single monomials by its own dict action, not by
the packed kernel, which a prototype found 2-3 times slower there.  It takes no
gcd: the Murphy elements act on monomials triangularly (Cherednik,
"Nonsymmetric Macdonald polynomials", IMRN 1995), Y_i x^nu being a unit
monomial times x^nu plus terms later in _order, whose sorted shape is
lower in dominance or equal with more ascents.  So the solve runs over
the exponents at or after lam in that order with no search, checks
each image term by term, and every pivot is a monomial times a binomial
1 - q^A t^B.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import accumulate, combinations, permutations

from .compositions import (check_composition, check_partition, dominance_leq,
                           dominant, eigen_exponents, orbit)
from .errors import (InternalError, InternalNonDivisibility, NoSolution,
                     NonUnique, ReducibleChain)
from .oscillator import parse_word
from .qtfield import _ONE_D, Factored, QTRat, _dict_iadd, _dict_mul, over_lcm
from .xpoly import XNum, XPoly, _image


def _rref(rows):
    """Reduced row echelon form in place, generic over an exact field.
    Returns the pivot column indices."""
    if not rows:
        return []
    ncols = len(rows[0])
    piv = []
    r = 0
    for c in range(ncols):
        k = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        p = rows[r][c]
        rows[r] = [v / p for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        piv.append(c)
        r += 1
        if r == len(rows):
            break
    return piv


def _degree_slice(n, d):
    if n == 1:
        return [(d,)]
    out = []
    for head in range(d + 1):
        for tail in _degree_slice(n - 1, d - head):
            out.append((head,) + tail)
    return out


def _order(nu):
    """The sort key of x^nu in the triangular order of the Murphy elements:
    the negated partial sums of nu's decreasing rearrangement, then the
    number of ascents of nu (pairs i < j with nu_i < nu_j).  By Cherednik's
    triangularity every off-diagonal term of Y_i x^nu lies strictly later."""
    n = len(nu)
    ascents = sum(1 for i in range(n) for j in range(i + 1, n)
                  if nu[i] < nu[j])
    return tuple(-s for s in accumulate(dominant(nu))) + (ascents,)


def _apply(kind, i, terms):
    """T~_i ("T") or its inverse ("Tinv") on the terms of an XNum, one
    Laurent monomial at a time from the closed forms of _image."""
    k = i - 1
    out = {}
    for e, c in terms.items():
        head, tail = e[:k], e[k + 2:]
        for (a, b), row in _image(kind, e[k], e[k + 1]):
            key = head + (a, b) + tail
            acc = out.get(key)
            if acc is None:
                acc = out[key] = {}
            for s, m in row:
                for (qe, te), v in c.items():
                    kk = (qe, te + s)
                    nv = acc.get(kk, 0) + m * v
                    if nv:
                        acc[kk] = nv
                    else:
                        del acc[kk]
    return {e: c for e, c in out.items() if c}


def murphy_apply(i, f):
    """Murphy element number i on the XNum f, as hecke.murphy_apply
    composes it: T~^{-1} 1..i-1, the shift x^e -> q^(e_1) x^(e rotated),
    then T~ n-1 down to i."""
    n = f.n
    terms = f.terms
    for j in range(i - 1, 0, -1):
        terms = _apply("Tinv", j, terms)
    terms = {e[1:] + (e[0],): {(qe + e[0], te): v for (qe, te), v in c.items()}
             if e[0] else c for e, c in terms.items()}
    for j in range(n - 1, i - 1, -1):
        terms = _apply("T", j, terms)
    return XNum(n, terms)


def _murphy_table(lam, support):
    """(images, diag): images[i, nu] is the Murphy image Y_i x^nu as a dict
    of integral Laurent coefficients, and diag[nu] the tuple of its
    diagonal exponents (q_exp, t_exp) over i.  Raises InternalError, naming
    Y_i and x^nu, unless every off-diagonal term lies in the support and
    strictly later than nu in _order and every diagonal entry is a unit
    monomial; and unless lam's diagonal is its spectrum."""
    n = len(lam)
    key = {nu: _order(nu) for nu in support}
    images, diag = {}, {}
    for nu in support:
        exps = []
        for i in range(1, n + 1):
            img = murphy_apply(i, XNum(n, {nu: _ONE_D})).terms
            # a term outside the support counts as not later than nu
            if any(kappa != nu and key.get(kappa, key[nu]) <= key[nu]
                   for kappa in img):
                raise InternalError(f"Y_{i} x^{nu} has a term outside the "
                                    f"support of {lam} or not after x^{nu}")
            d = img.get(nu, {})
            if list(d.values()) != [1]:
                raise InternalError(f"Y_{i} x^{nu} has diagonal entry {d}, "
                                    f"not a unit monomial")
            images[i, nu] = img
            exps.append(next(iter(d)))
        diag[nu] = tuple(exps)
    if diag[lam] != eigen_exponents(lam):
        raise InternalError(f"the diagonal at x^{lam} is not its spectrum")
    return images, diag


def _inverse_gap(y, d):
    """1 / (Y - D) for the distinct unit monomials Y = q^y0 t^y1 and
    D = q^d0 t^d1, given as exponent pairs y and d, as a Factored value:
    a monomial over one binomial 1 - q^A t^B with A, B >= 0."""
    A, B = d[0] - y[0], d[1] - y[1]
    if A >= 0 and B >= 0:
        return Factored({(-y[0], -y[1]): 1}) * Factored.binomial(A, B, -1)
    if A <= 0 and B <= 0:
        return Factored({(-d[0], -d[1]): -1}) * \
            Factored.binomial(-A, -B, -1)
    raise InternalError(f"the eigenvalue gap between exponents {y} and "
                        f"{d} is a mixed-sign binomial")


def eigen_solve_E(lam):
    """E_lam as the unique monic solution of the Murphy eigen-equations.

    The support is the degree slice cut to sorted shapes dominated by
    lam+, keeping only the exponents at or after lam in _order, sorted by
    it.  Y_i x^nu is nu's diagonal monomial d_i(nu) times x^nu plus terms
    strictly later in the support (checked term by term), so the system
    is solved by triangular back-substitution: c_lam = 1 and, in order,
    c_kappa = -sum_nu A_i[kappa, nu] c_nu / (d_i(kappa) - y_i(lam)) at the
    first i where kappa's diagonal differs from lam's spectrum.  Every
    gap is a monomial times a binomial 1 - q^A t^B, so the coefficients
    stay Factored and no gcd is taken.  An exponent of the support other
    than lam whose diagonal repeats lam's spectrum raises NonUnique; a
    residual of any equation, for any i, raises NoSolution."""
    lam = check_composition(lam)
    n, d = len(lam), sum(lam)
    shape, start = dominant(lam), _order(lam)
    support = sorted((e for e in _degree_slice(n, d)
                      if dominance_leq(dominant(e), shape)
                      and _order(e) >= start), key=_order)
    images, diag = _murphy_table(lam, support)
    spectrum = diag[lam]
    column = {}
    for (i, nu), img in images.items():
        for kappa, a in img.items():
            if kappa != nu:
                column.setdefault((i, kappa), []).append((nu, a))
    coeffs = {lam: Factored(_ONE_D)}
    for kappa in support:
        if kappa == lam:
            continue
        k = next((k for k in range(n) if diag[kappa][k] != spectrum[k]), None)
        if k is None:
            raise NonUnique(f"x^{kappa} repeats the spectrum of {lam}")
        s = Factored.sum(Factored(a) * coeffs[nu]
                         for nu, a in column.get((k + 1, kappa), ())
                         if nu in coeffs)
        if s:
            gap = _inverse_gap(spectrum[k], diag[kappa][k])
            coeffs[kappa] = (s * gap).cancel()
    _, nums = over_lcm(list(coeffs.values()))
    cleared = dict(zip(coeffs, nums))
    for i in range(1, n + 1):
        minus_y = {spectrum[i - 1]: -1}
        resid = {}
        for nu, c in cleared.items():
            for kappa, a in images[i, nu].items():
                _dict_iadd(resid.setdefault(kappa, {}), _dict_mul(a, c))
            _dict_iadd(resid.setdefault(nu, {}), _dict_mul(minus_y, c))
        bad = next((kappa for kappa, r in resid.items() if r), None)
        if bad is not None:
            raise NoSolution(f"the eigen equation of Y_{i} fails at "
                             f"x^{bad} for {lam}")
    return XPoly.from_factored(n, coeffs.items())


def schur(lam, n):
    """Schur polynomial by semistandard tableau enumeration."""
    lam = tuple(p for p in check_partition(lam) if p)
    if len(lam) > n:
        return XPoly.zero(n)
    acc = {}
    cells = [(r, c) for r in range(len(lam)) for c in range(lam[r])]

    def fill(pos, tab, content):
        if pos == len(cells):
            key = tuple(content)
            acc[key] = acc.get(key, 0) + 1
            return
        r, c = cells[pos]
        lo = 1
        if c > 0:
            lo = max(lo, tab[(r, c - 1)])
        if r > 0:
            lo = max(lo, tab[(r - 1, c)] + 1)
        for v in range(lo, n + 1):
            tab[(r, c)] = v
            content[v - 1] += 1
            fill(pos + 1, tab, content)
            content[v - 1] -= 1
        tab.pop((r, c), None)

    fill(0, {}, [0] * n)
    return XPoly._raw(n, {e: QTRat(m) for e, m in acc.items()})


def _div_linear(f, a, b):
    """Exact division of f, a dict {exps: Laurent dict}, by (x_a - x_b),
    1-based indices.  With f_k the coefficient of x_a^k in f, the
    quotient's coefficient of x_a^(k-1) is G_k = f_k + x_b G_(k+1), from
    the top degree down, and the remainder f_0 + x_b G_1 must vanish."""
    buckets = {}
    for e, c in f.items():
        buckets.setdefault(e[a - 1], {})[e[:a - 1] + (0,) + e[a:]] = c
    out, g = {}, {}
    for k in range(max(buckets, default=0), -1, -1):
        nxt = {e: dict(c) for e, c in buckets.get(k, {}).items()}
        for e, c in g.items():
            _dict_iadd(nxt.setdefault(e[:b - 1] + (e[b - 1] + 1,) + e[b:], {}),
                       c)
        g = {e: c for e, c in nxt.items() if c}
        if k:
            out.update((e[:a - 1] + (k - 1,) + e[a:], c) for e, c in g.items())
    if g:
        raise InternalNonDivisibility(f"(x{a} - x{b}) does not divide")
    return out


def _perm_sign(w):
    return (-1) ** sum(1 for i in range(len(w))
                       for j in range(i + 1, len(w)) if w[i] > w[j])


def hall_littlewood(lam, n):
    """P_lam(x; t) by the symmetrization formula: antisymmetrize
    x^lam prod_{i<j} (x_i - t x_j), divide by the Vandermonde, normalise
    by v_lam(t), the product of the t-factorials [m]_t! of the part
    multiplicities (zeros included).  Coefficients stay in Z[t] until the
    one division by v_lam(t), through Factored."""
    lam = check_partition(lam)
    if len(lam) > n:
        raise ValueError(f"{lam} needs more than {n} variables")
    padded = tuple(lam) + (0,) * (n - len(lam))
    base = {padded: _ONE_D}
    for i, j in combinations(range(n), 2):
        out = {}
        for e, c in base.items():
            for k, m in ((i, _ONE_D), (j, {(0, 1): -1})):
                _dict_iadd(out.setdefault(e[:k] + (e[k] + 1,) + e[k + 1:], {}),
                           _dict_mul(c, m))
        base = out
    num = {}
    for w in permutations(range(n)):
        s = _perm_sign(w)
        for e, c in base.items():
            _dict_iadd(num.setdefault(tuple(e[k] for k in w), {}),
                       {k: s * v for k, v in c.items()})
    for i, j in combinations(range(1, n + 1), 2):
        num = _div_linear(num, i, j)
    # [k]_t = (1 - t^k)/(1 - t) is the product of Phi_d(t), 1 < d | k
    v_lam = Counter((d, 0, 1) for part in set(padded)
                    for k in range(2, padded.count(part) + 1)
                    for d in range(2, k + 1) if k % d == 0)
    v_lam = tuple(sorted(v_lam.items()))
    P = XPoly.from_factored(n, ((e, Factored(c, v_lam))
                                for e, c in num.items()))
    if not P.coeff_of(padded).is_one():
        raise InternalError(f"symmetrization of {lam} lost monicity")
    return P


CONVENTIONS = ("descending_free", "ascending_free")


def asep_generator(species, t, convention):
    """Ring generator over the arrangements of the species multiset.
    In descending_free a higher species hops rightward past a lower one
    at rate 1 and back at rate t; ascending_free is the mirror."""
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    t = Fraction(t)
    states = orbit(check_composition(species))
    idx = {s: i for i, s in enumerate(states)}
    size = len(states)
    G = [[Fraction(0)] * size for _ in range(size)]
    n = len(species)
    for s in states:
        col = idx[s]
        for k in range(n):
            j = (k + 1) % n
            a, b = s[k], s[j]
            if a == b:
                continue
            swapped = list(s)
            swapped[k], swapped[j] = b, a
            row = idx[tuple(swapped)]
            if convention == "descending_free":
                rate = Fraction(1) if a > b else t
            else:
                rate = Fraction(1) if a < b else t
            G[row][col] += rate
            G[col][col] -= rate
    return states, G


def asep_stationary(species, t, convention="ascending_free"):
    """Exact stationary distribution of the ring process, total mass 1.

    The default convention is the one whose stationary weights match the
    q=1 specialization of the trace polynomials (checked in the tests);
    under it a higher species hops leftward at rate 1."""
    states, G = asep_generator(species, t, convention)
    size = len(states)
    rows = [list(r) for r in G]
    piv = _rref(rows)
    free = [c for c in range(size) if c not in piv]
    if len(free) != 1:
        raise ReducibleChain(f"null space dimension {len(free)}")
    v = [Fraction(0)] * size
    v[free[0]] = Fraction(1)
    for r, c in enumerate(piv):
        v[c] = -rows[r][free[0]]
    total = sum(v)
    if total == 0:
        raise ReducibleChain("null vector has zero mass")
    return {s: val / total for s, val in zip(states, v)}


def numeric_trace(word, t, q, M):
    """Partial trace sum_{m=0}^{M} <m|word|m> in exact rationals."""
    if isinstance(word, str):
        word = parse_word(word)
    t, q = Fraction(t), Fraction(q)
    total = Fraction(0)
    for m in range(M + 1):
        occ = m
        val = Fraction(1)
        for atom in reversed(word):
            kind = atom[0]
            if kind == "A":
                occ += 1
            elif kind == "a":
                if occ == 0:
                    val = Fraction(0)
                    break
                val *= 1 - t ** occ
                occ -= 1
            else:
                val *= t ** (atom[1] * occ) * q ** (atom[2] * occ)
        if val and occ == m:
            total += val
    return total
