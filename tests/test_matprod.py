import gc
import os
import random
import subprocess
import sys
from itertools import product
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macprod import clear_caches, matprod
from macprod.errors import IndexOutOfRange, InternalError, LengthMismatch
from macprod.hecke import eigen_check
from macprod.matprod import (_ONE_F, _raw_sums, _transfers, compute_P,
                             compute_f, expand_configurations,
                             generating_trace, omega_norm, raw_trace_sum,
                             recursion_prefactor, recursion_report,
                             transfer_table, transition, verify_generating,
                             verify_recursion)
from macprod.qtfield import QTRat, one
from macprod.xpoly import XPoly
from product_walk import level_transfers, product_configurations

Q = QTRat.monomial(qe=1)
T = QTRat.monomial(te=1)
ONE = one()


def test_f_001122_frozen():
    # three coefficient bands: 1, t^2(1-t)/(1-qt^3),
    # t^4(1+t)(1-t)^2/((1-qt^3)(1-qt^4))
    f = compute_f((0, 0, 1, 1, 2, 2))
    c_top = ONE
    c_mid = T ** 2 * (ONE - T) / (ONE - Q * T ** 3)
    c_bot = T ** 4 * (ONE + T) * (ONE - T) ** 2 / \
        ((ONE - Q * T ** 3) * (ONE - Q * T ** 4))
    want = {}
    want[(0, 0, 1, 1, 2, 2)] = c_top
    for a in ((1, 0), (0, 1)):
        for b in ((2, 1), (1, 2)):
            want[a + (1, 1) + b] = c_mid
    want[(1, 1, 1, 1, 1, 1)] = c_bot
    assert f == XPoly._raw(6, want)


def test_configuration_count_001122():
    assert len(expand_configurations((0, 0, 1, 1, 2, 2), 2)) == 6


def test_configuration_counts_at_rank_4():
    # the row-path product walk visits 78,750 and 5.9 million combinations
    assert len(expand_configurations((0, 1, 2, 3, 4))) == 288
    assert len(expand_configurations((0, 0, 1, 1, 2, 3, 4))) == 4050


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=5), st.booleans())
def test_configurations_match_product_walk(parts, above):
    lam = tuple(parts)
    r = max(lam) + above
    got = [(c.paths, c.exps, c.weight) for c in expand_configurations(lam, r)]
    want = [(paths, exps, w.reduce())
            for paths, exps, w in product_configurations(lam, r)]
    assert got == want


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=1, max_size=7), st.booleans())
def test_shape_rule_matches_family_balance(parts, above):
    # the walk over the owed columns of star(lam) keeps exactly the row
    # combinations whose families all balance; with every trace stubbed
    # to 1 no combination is dropped for a zero weight.  The rank stays
    # at most 4, where the reference visits at most 4^7 combinations
    lam = tuple(parts)
    r = min(max(lam) + above, 4)
    kept = level_transfers(lam, r)
    with mock.patch.object(matprod, "_trace", lambda word: _ONE_F):
        assert [mu for mu, _, _ in _transfers(lam, r)] == \
            [mu for mu, _, _ in kept]
    # the weights built from the cached row atoms match the per-family
    # words with the twist atom appended
    got = [(mu, exps, w.reduce()) for mu, exps, w in _transfers(lam, r)]
    assert got == [(mu, exps, w.reduce()) for mu, exps, w in kept if w]


def test_transfers_leave_no_cyclic_garbage():
    # the walk's working lists and its output are freed by reference
    # counting alone, not kept until the cycle collector happens to run
    lam = (2, 1, 3, 3, 2, 0, 0, 1)
    _transfers(lam, 3)  # fills the trace and level caches
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        assert _transfers(lam, 3)
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


def test_level_1_is_x_to_the_mu():
    for n in range(1, 7):
        for mu in product((0, 1), repeat=n):
            sums = _raw_sums(mu, 1, {})
            assert list(sums) == [mu]
            assert sums[mu].reduce().is_one()


def test_level_2_coefficients_are_cancelled_traces():
    # each level-2 exponent is reached by one transfer, whose trace is
    # already cancelled, so the level stores it without a sum
    for n in range(1, 7):
        for lam in product(range(3), repeat=n):
            for e, c in _raw_sums(lam, 2, {}).items():
                x = c.cancel()
                assert (dict(x.num), x.den) == (dict(c.num), c.den), (lam, e)


def _doubled_transfers(lam, r, real=_transfers):
    return real(lam, r) * 2


def test_a_repeated_level_2_exponent_raises(monkeypatch):
    monkeypatch.setattr(matprod, "_transfers", _doubled_transfers)
    with pytest.raises(InternalError, match="reach x"):
        _raw_sums((2, 1, 0), 2, {})
    # invariants are raises, not asserts, so -O keeps them
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys\nfrom macprod import cli, matprod\n"
            "real = matprod._transfers\n"
            "matprod._transfers = lambda lam, r: real(lam, r) * 2\n"
            "sys.exit(cli.main(['compute', 'f', '--lambda', '2,1,0']))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert "reach x" in proc.stderr


def test_part_above_rank_is_rejected():
    lam, r = (3, 0), 2
    for fn in (compute_f, expand_configurations, raw_trace_sum, omega_norm,
               recursion_prefactor, recursion_report, transfer_table):
        with pytest.raises(IndexOutOfRange):
            fn(lam, r)
    with pytest.raises(IndexOutOfRange):
        transition(lam, (1, 0), r)
    with pytest.raises(IndexOutOfRange):
        omega_norm((1, 0), 0)


def test_omega_norm_values():
    assert omega_norm((2, 2, 1, 1, 0, 0), 2) == (ONE - Q * T ** 2).inverse()
    want = ((ONE - Q * T) ** 2 * (ONE - Q ** 2 * T ** 2)).inverse()
    assert omega_norm((3, 2, 1, 0), 3) == want
    assert omega_norm((1, 0), 1) == ONE
    # rows of equal length leave pure q factors
    assert omega_norm((2, 2), 2) == (ONE - Q).inverse()


def test_raw_sum_leading_coefficient():
    for lam in [(2, 0, 1), (1, 1), (3, 0, 2, 1), (2, 2)]:
        r = max(lam)
        assert raw_trace_sum(lam, r).coeff_of(lam) == omega_norm(lam, r)


def test_f_rank_stability():
    assert compute_f((1, 0), 1) == compute_f((1, 0), 2)
    assert compute_f((2, 1), 2) == compute_f((2, 1), 3)
    assert compute_f((0, 0), 0) == XPoly.one(2)


def test_f_monic_homogeneous_random():
    rng = random.Random(20260815)
    for _ in range(8):
        n = rng.randint(1, 4)
        lam = tuple(rng.randint(0, 3) for _ in range(n))
        f = compute_f(lam)
        assert f.coeff_of(lam) == ONE
        assert f.is_homogeneous(sum(lam))


def test_all_parts_positive_factorisation():
    for lam in [(1, 1), (2, 1), (3, 2, 1), (3, 1, 2)]:
        n = len(lam)
        xs = XPoly.one(n)
        for i in range(1, n + 1):
            xs = xs * XPoly.variable(i, n)
        assert compute_f(lam) == xs * compute_f(tuple(p - 1 for p in lam))


def test_recursion_3102():
    rep = recursion_report((3, 1, 0, 2))
    assert rep.prefactor == (ONE - Q * T) * (ONE - Q ** 2 * T ** 2)
    assert sorted(m for m, _ in rep.terms) == [
        (0, 0, 2, 1), (1, 0, 2, 0), (2, 0, 0, 1), (2, 0, 1, 0)]
    assert rep.ok


def test_recursion_small_sweep():
    for n in (1, 2, 3):
        for lam in product(range(4), repeat=n):
            assert verify_recursion(lam), lam


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=6), st.booleans())
def test_recursion_matches_configuration_sum(parts, above):
    # the level recursion behind compute_f against the configuration sum
    lam = tuple(parts)
    assert verify_recursion(lam, max(lam) + above)


def test_recursion_at_rank_4_with_7_parts():
    # level recursion against the configuration sum, out of reach of the
    # product walk (5.9 million combinations)
    assert verify_recursion((0, 0, 1, 1, 2, 3, 4))


def test_antidominant_f_is_E_at_rank_5():
    # for antidominant delta, f_delta is the eigenfunction E_delta
    delta = (0, 1, 2, 3, 4, 5)
    assert eigen_check(delta, compute_f(delta))


def test_recursion_prefactor_values():
    assert recursion_prefactor((3, 1, 0, 2)) == \
        (ONE - Q * T) * (ONE - Q ** 2 * T ** 2)
    assert recursion_prefactor((1, 0)) == ONE
    assert recursion_prefactor((2, 2)) == ONE - Q * T ** 0  # no parts equal 1


def test_transition_guards():
    with pytest.raises(LengthMismatch):
        transition((1, 0), (0,))
    with pytest.raises(IndexOutOfRange):
        transition((2, 0), (2, 0))
    assert not transition((1, 1), (1, 0), 2)  # inadmissible entry (1,1)


def test_transition_monomial_shape():
    w = transition((3, 1, 0, 2), (2, 0, 0, 1))
    assert set(w.terms) == {(1, 1, 0, 1)}


def test_transition_is_the_transfer_table_entry():
    # transition builds one transfer; the table walks them all
    for n in range(1, 5):
        for lam in product(range(4), repeat=n):
            for r in (max(lam), max(lam) + 1):
                table = dict(transfer_table(lam, r)[1])
                zero = XPoly.zero(n)
                for mu in product(range(r), repeat=n):
                    assert transition(lam, mu, r) == table.get(mu, zero), \
                        (lam, mu, r)


def test_transition_weight_is_owned_by_the_caller():
    # a level-2 weight is one cached trace, -1/(q - 1) here; its value
    # shares no dict with the trace cache
    c, = transition((2, 0), (1, 0), 2).terms.values()
    want = c.to_obj()
    c.num[(9, 9)] = 1
    c, = transition((2, 0), (1, 0), 2).terms.values()
    assert c.to_obj() == want


def test_transfer_table_lists_the_recursion_terms():
    pref, terms = transfer_table((3, 1, 0, 2))
    assert pref == recursion_prefactor((3, 1, 0, 2))
    assert terms == recursion_report((3, 1, 0, 2)).terms
    for mu, w in terms:
        assert w == transition((3, 1, 0, 2), mu)


def test_compute_P_small():
    x1, x2 = XPoly.variable(1, 2), XPoly.variable(2, 2)
    assert compute_P((1,), 2) == x1 + x2
    assert compute_P((1, 1)) == x1 * x2
    assert compute_P((2, 1)) == x1 * x1 * x2 + x1 * x2 * x2
    # Gram-Schmidt against e_2 in the power-sum basis gives the m_11 weight
    assert compute_P((2,), 2).coeff_of((1, 1)) == \
        (ONE + Q) * (ONE - T) / (ONE - Q * T)
    with pytest.raises(LengthMismatch):
        compute_P((2, 1), 1)


def test_generating_identity():
    assert verify_generating(1, 2)
    assert verify_generating(2, 2)
    gt = generating_trace(1, 2)
    assert set(gt) == {(0, 0), (1, 0), (1, 1)}


def test_trace_cache_is_read_only(monkeypatch):
    words = []
    real = matprod.trace_factored
    monkeypatch.setattr(matprod, "trace_factored",
                        lambda word: words.append(word) or real(word))
    clear_caches()
    want = compute_f((0, 1, 1, 2)).to_obj()
    x = next(x for x in map(matprod._trace, words) if x)
    k = next(iter(x.num))
    with pytest.raises(TypeError):
        x.num[k] += 7
    matprod._compute_f.cache_clear()
    assert compute_f((0, 1, 1, 2)).to_obj() == want


def test_compute_f_result_is_owned_by_the_caller():
    f = compute_f((0, 1))
    want = dict(f.terms)
    f.terms.clear()
    assert compute_f((0, 1)).terms == want
    # nor does a coefficient share a dict with the cache
    want = compute_f((0, 1, 2)).to_obj()
    c = compute_f((0, 1, 2)).terms[(1, 1, 1)]
    c.num[(9, 9)] = 1
    c.den[(9, 9)] = 1
    assert compute_f((0, 1, 2)).to_obj() == want
