"""Matrix product construction of the polynomial basis f_lam.

The nested column product A(x) = tL^(r)(x) .. tL^(1)(x) is enumerated one
level at a time.  A level-j transfer from mu to nu picks, in variable x_i,
the entry of tL^(j) in row mu_i and column nu_i < j, one word with
coefficient 1 or x_i in lattice's grouped layout; the level operator is
the product of those entries followed by the level-j twist (lattice's
twist_term, a one-word entry), and its weight is the product of the traces
of its family words: the atoms the rows take from tL^(j) on that family,
in row order, then the twist atom.  Family f (2 <= f <= j) is raised once
by each row with mu_i = f that leaves the diagonal column f-1 and lowered
once by each row that lands in column f-1 from another part, so every
family balances exactly when nu is a rearrangement of star(mu); an
unbalanced family traces to zero.  So only these transfers are generated:
a walk over the rows takes a column only while star(mu) still owes it, and
no other row combination is visited.  A configuration (one lattice path
nu_r = part, .., nu_0 = 0 per row) is a chain of transfers down to rank 0,
with the product of the level weights as its weight.

Every public entry point passes its input through one gate, _rank: the
composition is checked, the rank defaults to the largest part, and a part
above the rank raises IndexOutOfRange.

compute_f sums the chains level by level, memoised on (mu, j) within one
call: each coefficient of Omega_lam f_lam stays an unreduced Factored
value.  Levels 1 and 2 are written directly, since level 1 is x^mu alone
and each level-2 coefficient is one cancelled trace; from level 3 on
each coefficient is a sum over its lcm, cancelled once.  Dividing by
the q-binomial-type normalisation from the conjugate shape reduces it
once, with no gcd, to f_lam monic at x^lam.
compute_P takes this sum for the dominant member of the orbit alone and
reaches the rest through the qKZ exchange relations f_{s_i mu} = T~_i f_mu,
by the Hecke symmetriser on the numerator over one denominator.
expand_configurations lists the chains themselves; it is the definitional
oracle behind raw_trace_sum, verify_generating and the lhs of
recursion_report, so verify_generating checks compute_P against trace
sums of every word.  Everything here is exact.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import product
from operator import add
from types import MappingProxyType
from typing import NamedTuple

from .compositions import (check_composition, check_partition, conjugate,
                           dominant, multiplicities, star)
from .errors import (IndexOutOfRange, InternalError, InternalNonPolynomial,
                     LengthMismatch)
from .lattice import build_tildeL, twist_term
from .oscillator import trace_factored
from .qtfield import Factored, QTRat, divide_out, over_lcm
from .xpoly import XNum, XPoly

_ONE_F = Factored({(0, 0): 1})


@lru_cache(maxsize=None)
def _trace(word):
    """trace_factored(word), cached with a read-only numerator."""
    x = trace_factored(word)
    return Factored(MappingProxyType(x.num), x.den)


def _rank(lam, r):
    """The input gate: the checked composition and its rank, which
    defaults to the largest part and may not lie below it."""
    lam = check_composition(lam)
    r = max(lam, default=0) if r is None else r
    if lam and max(lam) > r:
        raise IndexOutOfRange(f"rank {r} below largest part of {lam}")
    return lam, r


@lru_cache(maxsize=None)
def _level(r):
    """tL^(r) and its twist as the walk reads them, (rows, twist).
    rows[p] maps the column of each nonzero entry of row p, in ascending
    order, to (xdeg, atoms), with atoms the entry's word on each family
    2..r, empty or one atom; twist holds each family's twist atom."""
    rows = [{} for _ in range(r + 1)]
    if r:  # tL^(0) has no column
        for (part, col), e in sorted(build_tildeL(r, space=r).items()):
            (w, coeff), = e.items()
            (xdeg, _, _, _), = coeff
            words = dict(w)
            rows[part][col] = (xdeg, tuple(words.get((r, f), ())
                                           for f in range(2, r + 1)))
    (w, _), = twist_term(r, space=r).items()
    twist = tuple(atoms for _, atoms in w)
    return tuple(map(MappingProxyType, rows)), twist


def _weight(words, twist):
    """The unreduced product of the traces of the family words, each with
    its twist atom appended; zero as soon as one trace is."""
    w = _ONE_F
    for word, atoms in zip(words, twist):
        x = _trace(word + atoms)
        if not x:
            return x
        w = x if w is _ONE_F else w * x
    return w


def _transfers(lam, r):
    """Balanced level-r transfers out of lam, those with mu a
    rearrangement of star(lam), as (mu, exps, weight) in lexicographic
    order of mu: row i takes the entry (lam_i, mu_i) of tL^(r), and weight
    is the unreduced product of the traces of the family words of the
    twisted level operator.  Transfers of weight zero are dropped.

    The balanced transfers are generated, not filtered: a depth-first walk
    over the rows counts how often each column of star(lam) is still owed
    and takes only such columns, in ascending order.  Each family word is
    the rows' atoms in row order."""
    table, twist = _level(r)
    out = []
    _walk([table[part] for part in lam], Counter(star(lam)), twist,
          ((),) * (r - 1), [], [], out)
    return out


def _walk(rows, owed, twist, words, mu, exps, out):
    """One step of the _transfers walk: row len(mu) takes each column
    still owed.  A module function rather than a recursive closure, which
    would be a reference cycle holding out until the cycle collector ran."""
    if len(mu) == len(rows):
        w = _weight(words, twist)
        if w:
            out.append((tuple(mu), tuple(exps), w))
        return
    for col, (xdeg, atoms) in rows[len(mu)].items():
        if owed[col]:
            owed[col] -= 1
            mu.append(col)
            exps.append(xdeg)
            _walk(rows, owed, twist, tuple(map(add, words, atoms)), mu, exps,
                  out)
            owed[col] += 1
            mu.pop()
            exps.pop()


def _raw_sums(lam, r, memo):
    """Omega_lam f_lam by levels as {exps: Factored}, each coefficient
    cancelled; memo is keyed on (lam, r).

    Every entry of tL^(r) in a row p >= 1 has x-degree 1, and row 0 has
    x-degree 0, so level 1 is x^lam alone and level 2 holds one transfer
    per exponent: its trace, already cancelled, is the coefficient of
    x^([lam >= 1] + mu).  Only levels 3 and up sum over an lcm."""
    key = (lam, r)
    if key not in memo:
        if r <= 0:
            memo[key] = {(0,) * len(lam): _ONE_F}
        elif r == 1:
            memo[key] = {lam: _ONE_F}
        elif r == 2:
            sums = {}
            for mu, exps, w in _transfers(lam, r):
                e = tuple(map(add, exps, mu))
                if e in sums:
                    raise InternalError(f"two level-2 transfers out of {lam} "
                                        f"reach x^{e}")
                sums[e] = w
            memo[key] = sums
        else:
            groups = {}
            for mu, exps, w in _transfers(lam, r):
                for e, c in _raw_sums(mu, r - 1, memo).items():
                    groups.setdefault(tuple(map(add, exps, e)), []).append(w * c)
            memo[key] = _sum_groups(groups)
    return memo[key]


def _sum_groups(groups):
    """{exps: [Factored]} -> {exps: cancelled sum}, zero sums dropped."""
    sums = {e: Factored.sum(ws).cancel() for e, ws in groups.items()}
    return {e: s for e, s in sums.items() if s}


class Config(NamedTuple):
    paths: tuple         # one lattice path (nu_r, .., nu_0) per row
    exps: tuple          # x-exponents per row
    factored: Factored   # product of the per-family traces, unreduced

    @property
    def weight(self):
        """The trace weight as a reduced QTRat."""
        return self.factored.reduce()


def expand_configurations(lam, r=None):
    """Balanced path configurations of lam with their trace weights, in
    lexicographic order of their row paths."""
    lam, r = _rank(lam, r)
    memo = {}

    def chains(mu, j):
        if (mu, j) not in memo:
            if j <= 0:
                memo[mu, j] = [Config(tuple((p,) for p in mu),
                                      (0,) * len(mu), _ONE_F)]
            else:
                memo[mu, j] = [
                    Config(tuple((p,) + path for p, path in zip(mu, c.paths)),
                           tuple(map(add, exps, c.exps)), w * c.factored)
                    for nu, exps, w in _transfers(mu, j)
                    for c in chains(nu, j - 1)]
        return memo[mu, j]

    return sorted(chains(lam, r), key=lambda c: c.paths)


def _config_sums(configs):
    """Factored weight sum per x-exponent, each over its own lcm."""
    groups = {}
    for cfg in configs:
        groups.setdefault(cfg.exps, []).append(cfg.factored)
    return _sum_groups(groups)


def _reduced_poly(n, sums, scale=_ONE_F):
    """XPoly from factored coefficients, each scaled and reduced once."""
    return XPoly.from_factored(n, ((e, s * scale) for e, s in sums.items()))


def raw_trace_sum(lam, r=None):
    """Sum over configurations before normalisation: Omega_lam * f_lam."""
    lam, r = _rank(lam, r)
    return _reduced_poly(len(lam), _config_sums(expand_configurations(lam, r)))


def _omega(lam, r, power):
    """Omega_lam^(-power): prod_{i<j<=r} (1 - q^(j-i) t^(lam'_i - lam'_j))^power
    over the conjugate shape."""
    conj = conjugate(dominant(lam), width=r)
    w = _ONE_F
    for i in range(1, r + 1):
        for j in range(i + 1, r + 1):
            w = w * Factored.binomial(j - i, conj[i - 1] - conj[j - 1], power)
    return w


def omega_norm(lam, r=None):
    """prod_{i<j<=r} 1/(1 - q^(j-i) t^(lam'_i - lam'_j)), conjugate shape."""
    lam, r = _rank(lam, r)
    return _omega(lam, r, -1).reduce()


@lru_cache(maxsize=None)
def _compute_f(lam, r):
    f = _reduced_poly(len(lam), _raw_sums(lam, r, {}), _omega(lam, r, 1))
    if not f.is_homogeneous(sum(lam)):
        raise InternalNonPolynomial(f"trace sum of {lam} lost homogeneity")
    if not f.coeff_of(lam).is_one():
        raise InternalNonPolynomial(
            f"normalised sum of {lam} is not monic at x^lam")
    return f


def compute_f(lam, r=None):
    """The basis polynomial f_lam, monic at x^lam; the caller owns the
    returned polynomial (the cache keeps its own)."""
    return _compute_f(*_rank(lam, r)).copy()


def transition(lam, mu, r=None):
    """Single-layer transfer weight T_{lam,mu}(x): the rank-r matrix row
    lam_i, column mu_i picked in variable x_i, traced with the level-r
    twist.  Zero unless every entry is admissible and mu is a
    rearrangement of star(lam)."""
    lam, r = _rank(lam, r)
    mu = check_composition(mu)
    if len(lam) != len(mu):
        raise LengthMismatch(f"{lam} vs {mu}")
    if mu and max(mu) > r - 1:
        raise IndexOutOfRange(f"column index {max(mu)} needs rank > {r}")
    zero = XPoly.zero(len(lam))
    if sorted(mu) != sorted(star(lam)):
        return zero
    table, twist = _level(r)
    words, exps = ((),) * (r - 1), []
    for part, col in zip(lam, mu):
        entry = table[part].get(col)
        if entry is None:
            return zero
        exps.append(entry[0])
        words = tuple(map(add, words, entry[1]))
    w = _weight(words, twist)
    return XPoly.monomial(tuple(exps), w.reduce()) if w else zero


def _prefactor(lam, r):
    m = multiplicities(lam, top=r)
    pref = _ONE_F
    for i in range(1, r):
        pref = pref * Factored.binomial(i, sum(m[:i]), 1)
    return pref


def recursion_prefactor(lam, r=None):
    """prod_{i=1}^{r-1} (1 - q^i t^(m_1+..+m_i)) from the part counts."""
    return _prefactor(*_rank(lam, r)).reduce()


def transfer_table(lam, r=None):
    """The recursion prefactor and the nonzero single-layer transfers out
    of lam, as (prefactor, ((mu, T_{lam,mu} XPoly), ..)) in lexicographic
    order of mu."""
    lam, r = _rank(lam, r)
    return _prefactor(lam, r).reduce(), tuple(
        (mu, XPoly.monomial(exps, w.reduce()))
        for mu, exps, w in _transfers(lam, r))


class RecursionReport(NamedTuple):
    prefactor: QTRat
    terms: tuple   # (mu, transfer weight XPoly) with nonzero weight
    lhs: XPoly
    rhs: XPoly
    ok: bool


def recursion_report(lam, r=None):
    """Peel one rank: f_lam = prefactor * sum_mu T_{lam,mu} f_mu.  The
    terms and rhs come from the level recursion behind compute_f, the lhs
    from the configuration sum."""
    lam, r = _rank(lam, r)
    n = len(lam)
    lhs = _reduced_poly(n, _config_sums(expand_configurations(lam, r)),
                        _omega(lam, r, 1))
    # every f_mu has the shape of star(lam), hence its normalisation
    rhs = _reduced_poly(n, _raw_sums(lam, r, {}), _prefactor(lam, r) *
                        _omega(dominant(star(lam)), r - 1, 1))
    return RecursionReport(*transfer_table(lam, r), lhs, rhs, lhs == rhs)


def verify_recursion(lam, r=None):
    return recursion_report(lam, r).ok


def _stabiliser(lam):
    """The Poincare polynomial W_J(t) of the stabiliser of lam, the product
    over the part multiplicities m of [m]_t!, as a sorted multiset of
    cyclotomic factors Phi_d(t): [k]_t = (1 - t^k)/(1 - t)."""
    w = _ONE_F
    for m in Counter(lam).values():
        for k in range(2, m + 1):
            w = w * Factored.binomial(0, k, 1) * Factored.binomial(0, 1, -1)
    return tuple((f, -m) for f, m in w.den)


def _over_stabiliser(N, lam):
    """{exps: numerator} for the XNum N with every coefficient divided
    exactly by W_J(t) of lam; a remainder raises InternalError."""
    stab = _stabiliser(lam)
    out = {}
    for e, c in N.terms.items():
        for f, m in stab:
            c, k = divide_out(c, f, m)
            if k < m:
                raise InternalError(f"symmetrised f_{lam} at x^{e} is not "
                                    f"divisible by its stabiliser")
        out[e] = c
    return out


def compute_P(lam, n=None):
    """The symmetric polynomial P_lam in n variables, monic at x^lam.

    Only the dominant f_lam is a trace sum.  Its coefficients, Omega
    included, go over one denominator D, and the Hecke symmetriser sums
    T~_w D f_lam over all w in S_n.  Each w is u v with v in the
    stabiliser of lam: T~_v acts by t^l(v) and T~_u f_lam = f_{u lam} (the
    qKZ exchange relations), so the sum is W_J(t) D P_lam.  W_J divides out
    exactly by trial division, and each coefficient is reduced once."""
    lam = check_partition(lam)
    if n is None:
        n = len(lam)
    if n < len(lam):
        raise LengthMismatch(f"{n} variables cannot hold {lam}")
    padded, r = _rank(tuple(lam) + (0,) * (n - len(lam)), None)
    sums = _raw_sums(padded, r, {})
    omega = _omega(padded, r, 1)
    den, nums = over_lcm([c * omega for c in sums.values()])
    N = XNum(n, dict(zip(sums, nums))).symmetrise()
    P = XPoly.from_factored(n, ((e, Factored(c, den)) for e, c in
                                _over_stabiliser(N, padded).items()))
    if not P.is_symmetric():
        raise InternalError(f"symmetrised f_{padded} is not symmetric")
    if not P.is_homogeneous(sum(padded)):
        raise InternalError(f"symmetrised f_{padded} is not homogeneous")
    if not P.coeff_of(padded).is_one():
        raise InternalError(f"symmetrised f_{padded} is not monic at x^lam")
    return P


def _shape_sums(r, n):
    """{shape: {exps: Factored}}: the configuration weights of all
    length-n compositions in components 0..r, summed per sorted shape and
    exponent over their lcm and cancelled once."""
    groups = {}
    for mu in product(range(r + 1), repeat=n):
        by_exps = groups.setdefault(tuple(sorted(mu, reverse=True)), {})
        for cfg in expand_configurations(mu, r):
            by_exps.setdefault(cfg.exps, []).append(cfg.factored)
    return {key: _sum_groups(g) for key, g in groups.items()}


def verify_generating(r, n):
    """Grouped raw traces times Omega must reproduce P_lam shape by
    shape."""
    return all(_reduced_poly(n, sums, _omega(key, r, 1)) ==
               compute_P(tuple(p for p in key if p), n)
               for key, sums in _shape_sums(r, n).items())
