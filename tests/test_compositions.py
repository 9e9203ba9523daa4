"""Combinatorial layer: sorting permutations, rho vectors, dominance."""

import random

import pytest

from helpers import orbit_size, w_plus
from macprod.compositions import (antidominant, conjugate, dominance_leq,
                                  dominant, eigen_exponents, multiplicities,
                                  orbit, raising_word, rho_of, star,
                                  w_plus_inv)
from macprod.errors import LengthMismatch, NotAPartition


def test_w_plus_inv_pinned():
    assert w_plus_inv((3, 0, 4, 4, 2)) == (3, 5, 1, 2, 4)
    assert w_plus_inv((0, 0, 1, 1, 2, 2)) == (5, 6, 3, 4, 1, 2)


def test_w_plus_is_inverse():
    rng = random.Random(3)
    for _ in range(50):
        lam = tuple(rng.randrange(4) for _ in range(rng.randrange(1, 7)))
        wp, wi = w_plus(lam), w_plus_inv(lam)
        n = len(lam)
        assert sorted(wp) == list(range(1, n + 1))
        assert all(wp[wi[i] - 1] == i + 1 for i in range(n))
        # w+ applied to the decreasing rearrangement gives lam back
        lam_plus = dominant(lam)
        assert tuple(lam_plus[wi[i] - 1] for i in range(n)) == lam


def test_rho_pinned():
    assert rho_of((3, 0, 4, 4, 2)) == (0, -4, 4, 2, -2)
    assert rho_of((0, 0, 1, 1, 2, 2)) == (-3, -5, 1, -1, 5, 3)
    # on a dominant composition rho is the doubled staircase itself
    assert rho_of((4, 2, 1)) == (2, 0, -2)


def test_star_and_conjugate():
    assert star((3, 1, 0, 2)) == (2, 0, 0, 1)
    assert conjugate((2, 2, 1, 1, 0, 0)) == (4, 2)
    assert conjugate((3, 2, 1, 0)) == (3, 2, 1)
    assert conjugate((3, 2, 1, 0), width=4) == (3, 2, 1, 0)
    assert conjugate(()) == ()
    with pytest.raises(NotAPartition):
        conjugate((1, 2))


def test_multiplicities():
    assert multiplicities((3, 1, 0, 2)) == (1, 1, 1)
    assert multiplicities((0, 0, 1, 1, 2, 2)) == (2, 2)
    assert multiplicities((1, 1), top=3) == (2, 0, 0)


def test_dominance():
    assert dominance_leq((1, 1), (2, 0))
    assert not dominance_leq((2, 0), (1, 1))
    assert dominance_leq((2, 0), (2, 0))
    with pytest.raises(LengthMismatch):
        dominance_leq((1, 1), (2,))
    with pytest.raises(LengthMismatch):
        dominance_leq((1, 1), (3, 0))


def test_orbit():
    orb = orbit((2, 0, 0))
    assert orb == [(2, 0, 0), (0, 2, 0), (0, 0, 2)]
    rng = random.Random(11)
    for _ in range(30):
        lam = tuple(rng.randrange(3) for _ in range(rng.randrange(1, 7)))
        assert len(orbit(lam)) == orbit_size(lam)


def test_sorted_forms():
    assert antidominant((3, 0, 2)) == (0, 2, 3)
    assert dominant((3, 0, 2)) == (3, 2, 0)


def test_raising_word_reaches_target():
    rng = random.Random(5)
    for _ in range(60):
        lam = tuple(rng.randrange(4) for _ in range(rng.randrange(1, 7)))
        cur = list(antidominant(lam))
        for i in raising_word(lam):
            assert cur[i - 1] < cur[i]
            cur[i - 1], cur[i] = cur[i], cur[i - 1]
        assert tuple(cur) == lam


def test_eigen_exponents_pinned():
    # (q_exp, t_exp) per position
    assert eigen_exponents((1, 0)) == ((1, 1), (0, -1))
    assert eigen_exponents((0, 0, 1, 1, 2, 2)) == (
        (0, 1), (0, -1), (1, 1), (1, -1), (2, 1), (2, -1))
