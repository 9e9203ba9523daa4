"""Oscillator traces: closed forms vs independent geometric-series oracles."""

import random

import pytest

import qtrat_fock as oracle
from helpers import bracket
from macprod.errors import DivergentTrace, NotDyck
from macprod.oscillator import (LOWER, RAISE, dyck_map, kpow, parse_word,
                                psi_eval, trace_closed_form, walk, word_str)
from macprod.qtfield import QTRat, one, zero
from qtrat_fock import FockMatrix, delta_t_operator, fock_matrix

t = QTRat.monomial(te=1)
q = QTRat.monomial(qe=1)


def geom(qe, te):
    # independent oracle: sum_m (q^qe t^te)^m = 1/(1 - q^qe t^te)
    return 1 / (1 - QTRat.monomial(qe=qe, te=te))


def test_trace_pure_kpow():
    for p, c in [(1, 0), (2, 0), (2, 1), (0, 3), (3, 2)]:
        assert trace_closed_form((kpow(p, c),)) == geom(c, p)


def test_trace_lower_raise_ratio():
    # Tr[a A k^p] / Tr[k^p] = (1 - t)/(1 - t^(p+1)) = 1/[p+1]
    for p in (1, 2, 3, 5):
        w = (LOWER, RAISE, kpow(p, 0))
        lhs = trace_closed_form(w) / trace_closed_form((kpow(p, 0),))
        assert lhs == bracket(p + 1).inverse()


def test_trace_double_lower_raise_ratio():
    # Tr[a a A A k^p] / Tr[k^p] = [2]/([p+1][p+2])
    for p in (1, 2, 4):
        w = (LOWER, LOWER, RAISE, RAISE, kpow(p, 0))
        lhs = trace_closed_form(w) / trace_closed_form((kpow(p, 0),))
        assert lhs == bracket(2) / (bracket(p + 1) * bracket(p + 2))


def test_trace_needs_no_normal_ordering():
    # Tr[A k k a k k^(0,2)] walks straight through an out-of-order word:
    # equals q^2 t (1-t) / ((1 - q^2 t^2)(1 - q^2 t^3))
    w = (RAISE, kpow(), LOWER, kpow(), kpow(0, 2))
    expect = (q ** 2 * t * (1 - t)) / ((1 - q ** 2 * t ** 2) * (1 - q ** 2 * t ** 3))
    assert trace_closed_form(w) == expect
    # and agrees with q^2 t times the normally ordered Tr[a A k^(2,2)]
    assert trace_closed_form(w) == q ** 2 * t * trace_closed_form(
        (LOWER, RAISE, kpow(2, 2)))


def test_trace_below_zero_dip():
    # Tr[A a k^p]: the m = 0 term dies via the (1 - t^0) = 0 factor
    for p in (1, 3):
        w = (RAISE, LOWER, kpow(p, 0))
        assert trace_closed_form(w) == geom(0, p) - geom(0, p + 1)


def test_trace_unbalanced_is_zero():
    assert trace_closed_form((LOWER, kpow(1, 0))) == zero()
    assert trace_closed_form((RAISE, RAISE, LOWER, kpow(2, 1))) == zero()


def test_trace_divergent():
    with pytest.raises(DivergentTrace):
        trace_closed_form(())
    with pytest.raises(DivergentTrace):
        trace_closed_form((LOWER, RAISE))


def test_walk_factors():
    h, f = walk((LOWER, RAISE), 2)
    assert (h, f) == (2, {(0, 0): 1, (0, 3): -1})
    h, f = walk((LOWER,), 0)
    assert h is None and not f
    h, f = walk((RAISE,), 4, cutoff=4)
    assert h is None and not f
    h, f = walk((kpow(2, 1), LOWER, kpow(0, 3)), 2)
    assert (h, f) == (1, {(7, 2): 1, (7, 4): -1})


def test_walk_matches_qtrat_oracle():
    atoms = (LOWER, RAISE, kpow(), kpow(0, 1), kpow(2, 1))
    rng = random.Random(7)
    for _ in range(200):
        word = tuple(rng.choice(atoms) for _ in range(rng.randrange(6)))
        m = rng.randrange(5)
        cutoff = rng.choice((None, 3, 4))
        h, f = walk(word, m, cutoff)
        oh, of = oracle.walk(word, m, cutoff)
        assert h == oh
        assert (not f) if h is None else f == oracle.laurent(of)


def test_walk_cache_is_read_only():
    word = (LOWER, kpow(1, 1))
    h, f = walk(word, 3)
    with pytest.raises(TypeError):
        f[(0, 0)] = 5
    assert walk(word, 3) == (h, f)


def test_fock_matrix_relations():
    M = 5
    a = fock_matrix(LOWER, M)
    A = fock_matrix(RAISE, M)
    k = fock_matrix(kpow(), M)
    ident = FockMatrix.identity(M + 1)
    # a k = t k a and k A = t A k hold exactly on the truncation
    assert a * k == t * (k * a)
    assert k * A == t * (A * k)
    # A a = 1 - k exactly
    assert A * a == ident - k
    # a A - t A a = (1 - t) on columns m <= M-1 (top state is truncated)
    lhs = a * A - t * (A * a)
    for m in range(M):
        for i in range(M + 1):
            want = (1 - t) if i == m else zero()
            assert lhs.entry(i, m) == want


def test_fock_matrix_matches_walk_composition():
    M = 4
    w = (LOWER, RAISE, kpow(1, 1), LOWER)
    prod = FockMatrix.identity(M + 1)
    for atom in w:
        prod = prod * fock_matrix(atom, M)
    assert prod == fock_matrix(w, M)


def test_parse_and_print():
    w = parse_word("a A k k^(2,1)")
    assert w == (LOWER, RAISE, kpow(), kpow(2, 1))
    assert word_str(w) == "a A k k^(2,1)"
    with pytest.raises(ValueError):
        parse_word("b")


def test_dyck_map_frozen():
    assert dyck_map("(()(()))") == (1, 2, 1)
    assert dyck_map("()") == (1,)
    assert dyck_map("()(())") == (2, 1)
    assert dyck_map("") == ()
    assert dyck_map((LOWER, RAISE)) == (1,)


def test_dyck_map_errors():
    with pytest.raises(NotDyck):
        dyck_map("(()")
    with pytest.raises(NotDyck):
        dyck_map(")(")
    with pytest.raises(NotDyck):
        dyck_map((LOWER, kpow(), RAISE))


def test_psi_matches_direct_expansion():
    # oracle: truncated direct sum; closed form minus truncation is a tail
    rng = random.Random(31)
    for _ in range(12):
        mvec = tuple(rng.randrange(3) for _ in range(rng.randrange(3)))
        x = QTRat.monomial(qe=rng.randrange(1, 3), te=rng.randrange(3))
        N = 9
        direct = zero()
        for n in range(N):
            term = x ** n
            for i, mi in enumerate(mvec, start=1):
                term = term * (1 - t ** (n + i)) ** mi
            direct = direct + term
        # tail: sum_k c_k (x t^k)^N/(1 - x t^k) with the same c_k expansion
        coeffs = [{0: 1}]
        for i, mi in enumerate(mvec, start=1):
            for _ in range(mi):
                new = [dict(c) for c in coeffs] + [{}]
                for k2, c in enumerate(coeffs):
                    for te, v in c.items():
                        new[k2 + 1][te + i] = new[k2 + 1].get(te + i, 0) - v
                coeffs = new
        tail = zero()
        for k2, c in enumerate(coeffs):
            for te, v in c.items():
                if v:
                    r = x * t ** k2
                    tail = tail + QTRat.monomial(te=te, c=v) * r ** N / (1 - r)
        assert psi_eval(mvec, x) == direct + tail


def test_psi_trace_consistency():
    # Tr[D k^(P,Q)] = psi_{dyck_map(D)}(t^P q^Q) for Dyck words
    words = ["()", "(())", "()()", "(()())", "(()(()))"]
    for s in words:
        D = tuple(LOWER if ch == "(" else RAISE for ch in s)
        for (P, Q) in [(1, 0), (2, 1), (0, 2)]:
            lhs = trace_closed_form(D + (kpow(P, Q),))
            rhs = psi_eval(dyck_map(s), QTRat.monomial(qe=Q, te=P))
            assert lhs == rhs


def test_delta_pipeline_matches_psi_expansion():
    # start from z/(1 - x z), apply the finite-difference maps, truncate
    x = q * t
    N = 8
    for mvec in [(1,), (2,), (1, 1), (2, 1), (1, 0, 2)]:
        prefix = [zero()] + [x ** n for n in range(N)]
        for m in mvec:
            prefix = delta_t_operator(prefix, m)
        # coefficient of z^(n+1+len(mvec)) is x^n prod_i (1 - t^(n+i))^(m_i)
        for n in range(N):
            want = x ** n
            for i, mi in enumerate(mvec, start=1):
                want = want * (1 - t ** (n + i)) ** mi
            assert prefix[n + 1 + len(mvec)] == want
