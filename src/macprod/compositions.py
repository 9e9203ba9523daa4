"""Compositions, partitions, orbits, and spectral bookkeeping.

A composition is a tuple of nonnegative ints.  The shortest permutation
w+ sorting a composition to its decreasing rearrangement is encoded
1-based; rho vectors are returned doubled so they stay integral.
"""

from __future__ import annotations

from itertools import permutations

from .errors import LengthMismatch, NotAPartition


def _is_part(p):
    # bool is an int subclass, but True is not a part
    return isinstance(p, int) and not isinstance(p, bool) and p >= 0


def check_composition(lam):
    lam = tuple(lam)
    for p in lam:
        if not _is_part(p):
            raise ValueError(f"not a composition: {lam}")
    return lam


def is_partition(lam):
    lam = tuple(lam)
    return all(_is_part(p) for p in lam) and \
        all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1))


def check_partition(lam):
    lam = tuple(lam)
    if not is_partition(lam):
        raise NotAPartition(f"{lam} is not weakly decreasing")
    return lam


def dominant(lam):
    return tuple(sorted(check_composition(lam), reverse=True))


def antidominant(lam):
    return tuple(sorted(check_composition(lam)))


def star(lam):
    """Lower every part by one, floored at zero."""
    return tuple(max(p - 1, 0) for p in check_composition(lam))


def conjugate(lam, width=None):
    """Column lengths lam'_k = #{j : lam_j >= k}, k = 1..width."""
    lam = check_partition(lam)
    w = width if width is not None else (lam[0] if lam else 0)
    return tuple(sum(1 for p in lam if p >= k) for k in range(1, w + 1))


def multiplicities(lam, top=None):
    """(m_1, ..., m_top) where m_j counts parts equal to j."""
    lam = check_composition(lam)
    r = top if top is not None else (max(lam) if lam else 0)
    return tuple(sum(1 for p in lam if p == j) for j in range(1, r + 1))


def orbit(lam):
    """All distinct rearrangements, sorted descending (dominant first)."""
    return sorted(set(permutations(check_composition(lam))), reverse=True)


def dominance_leq(mu, lam):
    """Partial-sum dominance on equal-length, equal-size compositions."""
    mu, lam = check_composition(mu), check_composition(lam)
    if len(mu) != len(lam):
        raise LengthMismatch(f"lengths {len(mu)} != {len(lam)}")
    if sum(mu) != sum(lam):
        raise LengthMismatch(f"sizes {sum(mu)} != {sum(lam)}")
    s = 0
    for a, b in zip(lam, mu):
        s += a - b
        if s < 0:
            return False
    return True


def w_plus_inv(lam):
    """Label entries 1..n from the biggest value down, ties left to right."""
    lam = check_composition(lam)
    order = sorted(range(len(lam)), key=lambda i: (-lam[i], i))
    out = [0] * len(lam)
    for label, pos in enumerate(order, start=1):
        out[pos] = label
    return tuple(out)


def rho_of(lam):
    """Doubled staircase 2*rho permuted by w+: entry_i = n + 1 - 2*w+inv(i)."""
    lam = check_composition(lam)
    n = len(lam)
    inv = w_plus_inv(lam)
    return tuple(n + 1 - 2 * inv[i] for i in range(n))


def eigen_exponents(lam):
    """Per position i the (q_exp, t_exp) of the i-th Murphy eigenvalue."""
    lam = check_composition(lam)
    n = len(lam)
    inv = w_plus_inv(lam)
    return tuple((lam[i], n + 1 - (i + 1) - inv[i]) for i in range(n))


def raising_word(lam):
    """1-based indices i1, i2, ... such that swapping positions (i, i+1)
    in that order, starting from the ascending rearrangement, yields lam;
    every step swaps a strictly smaller entry past its right neighbor."""
    cur = list(check_composition(lam))
    word = []
    changed = True
    while changed:
        changed = False
        for i in range(len(cur) - 1):
            if cur[i] > cur[i + 1]:
                cur[i], cur[i + 1] = cur[i + 1], cur[i]
                word.append(i + 1)
                changed = True
    word.reverse()
    return tuple(word)
