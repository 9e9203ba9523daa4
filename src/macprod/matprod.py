"""Matrix product construction of the polynomial basis f_lam.

Each component of the nested column product A(x) = tL^(r)(x) .. tL^(1)(x)
is a sum over lattice paths nu = (nu_r = part, nu_{r-1}, .., nu_0 = 0)
through the nonzero entries of the reduced L-matrices.  Multiplying one
component per variable, applying the diagonal twist and tracing family by
family gives a polynomial in x with coefficients in Q(q, t); dividing by
the q-binomial-type normalisation built from the conjugate shape makes it
monic at x^lam.  Everything here is exact.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import NamedTuple

from .compositions import (check_composition, check_partition, conjugate,
                           dominant, multiplicities, orbit, star)
from .errors import (IndexOutOfRange, InternalError, InternalNonPolynomial,
                     LengthMismatch)
from .lattice import build_tildeL
from .oscillator import kpow, net_change, trace_factored
from .qtfield import Factored, QTRat, one
from .xpoly import XPoly

_ONE_F = Factored({(0, 0): 1})


@lru_cache(maxsize=None)
def _tl(level):
    return build_tildeL(level, space=level)


@lru_cache(maxsize=None)
def _trace(word):
    return trace_factored(word)


def _slots(r):
    return [(j, f) for j in range(2, r + 1) for f in range(2, j + 1)]


class RowPath(NamedTuple):
    path: tuple    # (nu_r, .., nu_0)
    xdeg: int
    factors: tuple  # ((level, family), atoms) pairs
    net: tuple      # per-slot net occupation change


@lru_cache(maxsize=None)
def _row_paths(part, r):
    """All admissible single-row paths for a part value at rank r."""
    if part > r:
        raise IndexOutOfRange(f"part {part} exceeds rank {r}")
    paths = [(part,)]
    for j in range(r, 0, -1):
        nxt = []
        for p in paths:
            row = p[-1]
            for col in range(j):
                if col == 0 or row == 0 or row > col:
                    nxt.append(p + (col,))
        paths = nxt
    out = []
    for p in paths:
        xdeg = 0
        fac = {}
        for idx, j in enumerate(range(r, 0, -1)):
            e = _tl(j).entry(p[idx], p[idx + 1])
            if not e:
                break
            t = e[0]
            xdeg += t.xdeg
            for slot, atoms in t.factors:
                fac[slot] = atoms
        else:
            net = tuple((slot, net_change(atoms)) for slot, atoms in fac.items())
            out.append(RowPath(p, xdeg, tuple(sorted(fac.items())), net))
    return tuple(out)


class Config(NamedTuple):
    paths: tuple         # one lattice path per row
    exps: tuple          # x-exponents per row
    factored: Factored   # product of the per-family traces, unreduced

    @property
    def weight(self):
        """The trace weight as a reduced QTRat."""
        return self.factored.reduce()


def expand_configurations(lam, r=None):
    """Balanced path configurations of lam with their trace weights."""
    lam = check_composition(lam)
    if r is None:
        r = max(lam) if lam else 0
    rows = [_row_paths(p, r) for p in lam]
    slots = _slots(r)
    twist = {(j, f): (kpow(0, f - 1),) for j, f in slots}
    out = []
    for combo in product(*rows):
        net = {}
        for rp in combo:
            for slot, d in rp.net:
                net[slot] = net.get(slot, 0) + d
        if any(net.values()):
            continue
        weight = _ONE_F
        for slot in slots:
            word = ()
            for rp in combo:
                word += dict(rp.factors).get(slot, ())
            weight = weight * _trace(word + twist[slot])
            if not weight:
                break
        if weight:
            out.append(Config(tuple(rp.path for rp in combo),
                              tuple(rp.xdeg for rp in combo), weight))
    return out


def _config_sums(configs):
    """Factored weight sum per x-exponent, each over its own lcm."""
    groups = {}
    for cfg in configs:
        groups.setdefault(cfg.exps, []).append(cfg.factored)
    return {e: Factored.sum(ws) for e, ws in groups.items()}


def _reduced_poly(n, sums, scale=_ONE_F):
    """XPoly from factored coefficients, each scaled and reduced once."""
    out = {}
    for e, s in sums.items():
        c = (s * scale).reduce()
        if c:
            out[e] = c
    return XPoly._raw(n, out)


def raw_trace_sum(lam, r=None):
    """Sum over configurations before normalisation: Omega_lam * f_lam."""
    lam = check_composition(lam)
    if r is None:
        r = max(lam) if lam else 0
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
    lam = check_composition(lam)
    if r is None:
        r = max(lam) if lam else 0
    return _omega(lam, r, -1).reduce()


@lru_cache(maxsize=None)
def _compute_f(lam, r):
    f = _reduced_poly(len(lam), _config_sums(expand_configurations(lam, r)),
                      _omega(lam, r, 1))
    if not f.is_homogeneous(sum(lam)):
        raise InternalNonPolynomial(f"trace sum of {lam} lost homogeneity")
    if not f.coeff_of(lam).is_one():
        raise InternalNonPolynomial(
            f"normalised sum of {lam} is not monic at x^lam")
    return f


def compute_f(lam, r=None):
    """The basis polynomial f_lam, monic at x^lam; the caller owns the
    returned polynomial (the cache keeps its own)."""
    lam = check_composition(lam)
    if r is None:
        r = max(lam) if lam else 0
    if lam and max(lam) > r:
        raise IndexOutOfRange(f"rank {r} below largest part of {lam}")
    return _compute_f(lam, r).copy()


def transition(lam, mu, r=None):
    """Single-layer transfer weight T_{lam,mu}(x): the rank-r matrix row
    lam_i, column mu_i picked in variable x_i, traced with the level-r
    twist.  Zero unless every entry is admissible and each family
    balances."""
    lam = check_composition(lam)
    mu = check_composition(mu)
    if len(lam) != len(mu):
        raise LengthMismatch(f"{lam} vs {mu}")
    if r is None:
        r = max(lam) if lam else 0
    if mu and max(mu) > r - 1:
        raise IndexOutOfRange(f"column index {max(mu)} needs rank > {r}")
    n = len(lam)
    fac = {}
    exps = []
    for li, mi in zip(lam, mu):
        e = _tl(r).entry(li, mi)
        if not e:
            return XPoly.zero(n)
        t = e[0]
        exps.append(t.xdeg)
        for slot, atoms in t.factors:
            fac[slot] = fac.get(slot, ()) + atoms
    coeff = _ONE_F
    for f in range(2, r + 1):
        word = fac.get((r, f), ()) + (kpow(0, f - 1),)
        if net_change(word):
            return XPoly.zero(n)
        coeff = coeff * _trace(word)
    return XPoly.monomial(tuple(exps), coeff.reduce())


def recursion_prefactor(lam, r=None):
    """prod_{i=1}^{r-1} (1 - q^i t^(m_1+..+m_i)) from the part counts."""
    lam = check_composition(lam)
    if r is None:
        r = max(lam) if lam else 0
    m = multiplicities(lam, top=r)
    pref = one()
    run = 0
    for i in range(1, r):
        run += m[i - 1]
        pref = pref * (one() - QTRat.monomial(qe=i, te=run))
    return pref


class RecursionReport(NamedTuple):
    prefactor: QTRat
    terms: tuple   # (mu, transfer weight XPoly) with nonzero weight
    lhs: XPoly
    rhs: XPoly
    ok: bool


def recursion_report(lam, r=None):
    """Peel one rank: f_lam = prefactor * sum_mu T_{lam,mu} f_mu."""
    lam = check_composition(lam)
    if r is None:
        r = max(lam) if lam else 0
    n = len(lam)
    lhs = compute_f(lam, r)
    if r == 0:
        return RecursionReport(one(), (), lhs, XPoly.one(n), lhs == XPoly.one(n))
    target = dominant(star(lam))
    terms = []
    rhs = XPoly.zero(n)
    for mu in product(range(r), repeat=n):
        w = transition(lam, mu, r)
        if not w:
            continue
        if dominant(mu) != target:
            raise InternalError(
                f"transfer from {lam} reached the foreign shape {mu}")
        terms.append((mu, w))
        rhs = rhs + w * compute_f(mu, r - 1)
    pref = recursion_prefactor(lam, r)
    rhs = rhs.scale(pref)
    return RecursionReport(pref, tuple(terms), lhs, rhs, lhs == rhs)


def verify_recursion(lam, r=None):
    return recursion_report(lam, r).ok


def compute_P(lam, n=None):
    """Symmetric sum of f_mu over all rearrangements of the partition.

    Omega depends only on the sorted shape, so the configurations of the
    whole orbit are summed together and each coefficient is reduced once."""
    lam = check_partition(lam)
    if n is None:
        n = len(lam)
    if n < len(lam):
        raise LengthMismatch(f"{n} variables cannot hold {lam}")
    padded = tuple(lam) + (0,) * (n - len(lam))
    r = max(padded) if padded else 0
    configs = [c for mu in orbit(padded) for c in expand_configurations(mu, r)]
    P = _reduced_poly(n, _config_sums(configs), _omega(padded, r, 1))
    if not P.is_symmetric():
        raise InternalError(f"orbit sum of {lam} failed to symmetrise")
    if not P.is_homogeneous(sum(padded)):
        raise InternalError(f"orbit sum of {lam} is not homogeneous")
    if not P.coeff_of(padded).is_one():
        raise InternalError(f"orbit sum of {lam} is not monic at x^lam")
    return P


def generating_trace(r, n):
    """Raw trace sums of all length-n words in components 0..r, grouped by
    sorted shape."""
    out = {}
    for mu in product(range(r + 1), repeat=n):
        key = tuple(sorted(mu, reverse=True))
        cur = out.get(key)
        v = raw_trace_sum(mu, r)
        out[key] = v if cur is None else cur + v
    return out


def verify_generating(r, n):
    """Grouped raw traces must reproduce Omega_lam P_lam shape by shape."""
    for key, val in generating_trace(r, n).items():
        want = compute_P(tuple(p for p in key if p), n).scale(omega_norm(key, r))
        if val != want:
            return False
    return True
