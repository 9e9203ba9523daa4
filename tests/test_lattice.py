from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qtrat_fock as oracle
from helpers import merge_family_one
from macprod import lattice
from macprod.errors import CutoffTooSmall, InternalError
from macprod.lattice import (OpMatrix, OpTerm, build_L, build_R, build_tildeL,
                             entry_add, entry_mul, entry_scale, eval_entry,
                             intertwining_mismatch, intertwining_sides,
                             matrices_first_mismatch, term, twist_term,
                             verify_intertwining, zf_components)
from macprod.oscillator import LOWER, RAISE, kpow
from macprod.qtfield import QTRat, one
from qtrat_fock import fock_matrix, laurent

T = QTRat.monomial(te=1)


def entries_same(e1, e2):
    return not entry_add(e1, entry_scale(e2, QTRat(-1)))


def test_tildeL_rank1_and_2():
    tl = build_tildeL(1)
    assert entries_same(tl.entry(0, 0), (term(),))
    assert entries_same(tl.entry(1, 0), (term(xdeg=1),))

    tl = build_tildeL(2)
    s = (0, 2)
    assert entries_same(tl.entry(0, 0), (term(),))
    assert entries_same(tl.entry(0, 1), (term(factors=[(s, (LOWER,))]),))
    assert entries_same(tl.entry(1, 0), (term(xdeg=1, factors=[(s, (kpow(),))]),))
    assert tl.entry(1, 1) == ()
    assert entries_same(tl.entry(2, 0), (term(xdeg=1, factors=[(s, (RAISE,))]),))
    assert entries_same(tl.entry(2, 1), (term(xdeg=1),))


def test_tildeL_rank3_structure():
    tl = build_tildeL(3)
    f2, f3 = (0, 2), (0, 3)
    expected = {
        (0, 0): (term(),),
        (0, 1): (term(factors=[(f2, (LOWER,))]),),
        (0, 2): (term(factors=[(f3, (LOWER,))]),),
        (1, 0): (term(xdeg=1, factors=[(f2, (kpow(),)), (f3, (kpow(),))]),),
        (2, 0): (term(xdeg=1, factors=[(f2, (RAISE,)), (f3, (kpow(),))]),),
        (2, 1): (term(xdeg=1, factors=[(f3, (kpow(),))]),),
        (3, 0): (term(xdeg=1, factors=[(f3, (RAISE,))]),),
        (3, 1): (term(xdeg=1, factors=[(f2, (LOWER,)), (f3, (RAISE,))]),),
        (3, 2): (term(xdeg=1),),
    }
    for i in range(4):
        for b in range(3):
            assert entries_same(tl.entry(i, b), expected.get((i, b), ()))


def test_L_merge_consistency():
    # freezing family 1 makes columns 0 and 1 of L equal, and the kept
    # columns reproduce tildeL
    for r in (1, 2, 3):
        merged = merge_family_one(build_L(r))
        tl = build_tildeL(r)
        for i in range(r + 1):
            assert entries_same(merged.entry(i, 0), merged.entry(i, 1))
            assert entries_same(merged.entry(i, 0), tl.entry(i, 0))
            for b in range(1, r):
                assert entries_same(merged.entry(i, b + 1), tl.entry(i, b))


def test_zf_components_rank2():
    a0, a1, a2 = zf_components(2)
    s = (2, 2)
    assert entries_same(a0, (term(), term(xdeg=1, factors=[(s, (LOWER,))])))
    assert entries_same(a1, (term(xdeg=1, factors=[(s, (kpow(),))]),))
    assert entries_same(a2, (term(xdeg=1, factors=[(s, (RAISE,))]), term(xdeg=2)))


def test_R_rank1_entries():
    R = build_R(1)
    diag = (term(T, xdeg=1), term(-1, ydeg=1))
    assert entries_same(R.entry(0, 0), diag)
    assert entries_same(R.entry(3, 3), diag)
    assert entries_same(R.entry(1, 1), (term(T - 1, xdeg=1),))
    assert entries_same(R.entry(1, 2), (term(T, xdeg=1), term(-T, ydeg=1)))
    assert entries_same(R.entry(2, 1), (term(xdeg=1), term(-1, ydeg=1)))
    assert entries_same(R.entry(2, 2), (term(T - 1, ydeg=1),))


def test_R_unitarity():
    # cleared form: R(x,y) R(y,x) = (tx-y)(ty-x) Id
    scal = entry_mul((term(T, xdeg=1), term(-1, ydeg=1)),
                     (term(T, ydeg=1), term(-1, xdeg=1)))
    for r in (1, 2):
        R = build_R(r)
        prod = R * R.swap_xy()
        n = (r + 1) ** 2
        for i in range(n):
            for j in range(n):
                want = scal if i == j else ()
                assert entries_same(prod.entry(i, j), want)


def test_R_equal_arguments():
    # at x = y the cleared matrix collapses to (t-1) x Id
    for r in (1, 2):
        R = build_R(r).map_terms(
            lambda t: OpTerm(t.xdeg + t.ydeg, 0, t.scalar, t.factors))
        n = (r + 1) ** 2
        for i in range(n):
            for j in range(n):
                want = (term(T - 1, xdeg=1),) if i == j else ()
                assert entries_same(R.entry(i, j), want)


def test_eval_entry_matches_fock_matrix():
    # the formal-entry evaluator and the dense truncation agree
    cutoff = 5
    word = (RAISE, kpow(), LOWER)
    e = (term(factors=[((0, 2), word)]),)
    dense = fock_matrix(word, cutoff)
    idx = {(0, 2): 0}
    for m in range(cutoff):
        got = eval_entry(e, idx, (m,), cutoff)
        want = {}
        for mm in range(cutoff + 1):
            v = dense.entry(mm, m)
            if v:
                want[(mm,)] = {(0, 0) + k: c for k, c in laurent(v).items()}
        assert got == want
    # scalar and degree bookkeeping
    e2 = (term(T, xdeg=2, ydeg=1, factors=[((0, 2), (RAISE,))]),)
    got = eval_entry(e2, idx, (1,), cutoff)
    assert got == {(2,): {(2, 1, 0, 1): 1}}


def test_intertwining_all_kinds():
    for kind in ("yba", "rll", "zf", "twist"):
        for r in (1, 2, 3):
            assert verify_intertwining(kind, r, cutoff=4)


def test_intertwining_detects_corruption():
    # swapping one off-diagonal pair in R must break the exchange relation
    from macprod.lattice import _kron_prod
    r = 2
    L = build_L(r)
    R = build_R(r)
    bad = OpMatrix(R.nrows, R.ncols, R.entries)
    e13, e31 = bad.entry(1, 3), bad.entry(3, 1)
    assert e13 and e31
    bad.set(1, 3, e31)
    bad.set(3, 1, e13)
    lhs = bad * _kron_prod(L, L.swap_xy())
    rhs = _kron_prod(L.swap_xy(), L) * bad
    assert matrices_first_mismatch(lhs, rhs, 4) is not None


def test_cutoff_too_small():
    m = OpMatrix(1, 1, {(0, 0): (term(),)})
    with pytest.raises(CutoffTooSmall):
        matrices_first_mismatch(m, m, 1)


def test_twist_term_layouts():
    nested = twist_term(3)
    assert nested.factors == (((2, 2), (kpow(0, 1),)),
                              ((3, 2), (kpow(0, 1),)),
                              ((3, 3), (kpow(0, 2),)))
    single = twist_term(3, space=0)
    assert single.factors == (((0, 2), (kpow(0, 1),)),
                              ((0, 3), (kpow(0, 2),)))
    assert twist_term(1).factors == ()


def test_scalars_must_be_laurent():
    assert term(QTRat.monomial(qe=2, te=-1, c=-3)).scalar == {(2, -1): -3}
    assert term(0).scalar == {}
    assert entry_scale((term(T),), 1 / T)[0].scalar == {(0, 0): 1}
    for bad in (1 / (1 - T), QTRat(1, 2), True):
        with pytest.raises(InternalError):
            term(bad)
        with pytest.raises(InternalError):
            entry_scale((term(),), bad)


SLOTS = ((0, 2), (0, 3), (1, 2))
words = st.lists(st.sampled_from([LOWER, RAISE, kpow(), kpow(0, 1), kpow(2, 1)]),
                 max_size=4)
laurents = st.dictionaries(st.tuples(st.integers(-1, 2), st.integers(-1, 2)),
                           st.integers(-2, 2).filter(bool), min_size=1, max_size=3)


@st.composite
def opterms(draw):
    return term(oracle.qtrat(draw(laurents)), xdeg=draw(st.integers(0, 2)),
                ydeg=draw(st.integers(0, 1)),
                factors=[(s, draw(words)) for s in SLOTS])


@settings(max_examples=150, deadline=None)
@given(st.lists(opterms(), min_size=1, max_size=4), st.booleans(),
       st.integers(1, 5), st.data())
def test_eval_entry_matches_qtrat_oracle(entry, cancel, cutoff, data):
    # the Laurent evaluator against Q(q, t) arithmetic, on random words,
    # states and cutoffs; cancel appends -1 times the first term
    if cancel:
        entry = entry + list(entry_scale(entry[:1], -1))
    idx = {s: i for i, s in enumerate(SLOTS)}
    state = tuple(data.draw(st.integers(0, cutoff)) for _ in SLOTS)
    want = oracle.flatten(oracle.eval_entry(entry, idx, state, cutoff))
    assert eval_entry(entry, idx, state, cutoff) == want


@settings(max_examples=100, deadline=None)
@given(st.lists(opterms(), min_size=1, max_size=4), st.booleans(),
       st.integers(2, 5))
def test_box_contraction_matches_qtrat_oracle(entry, cancel, cutoff):
    # the contraction over every input state of the truncation at once,
    # where terms merge across input prefixes, against the oracle one
    # state at a time
    if cancel:
        entry = entry + list(entry_scale(entry[:1], -1))
    idx = {s: i for i, s in enumerate(SLOTS)}
    box = [range(cutoff + 1)] * len(SLOTS)
    got = {}
    groups = lattice._groups(entry, idx, len(SLOTS))
    for (inp, out), c in lattice._contract(groups, box, cutoff).items():
        got.setdefault(inp, {})[out] = c
    for state in product(*box):
        want = oracle.flatten(oracle.eval_entry(entry, idx, state, cutoff))
        assert got.get(state, {}) == want, state


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("kind", ["yba", "rll", "zf", "twist"])
def test_mutation_located_as_by_oracle(kind, r, monkeypatch):
    # multiply one term of one lhs entry by t: the fast comparator must
    # report the same (position, slots, state) as the QTRat oracle
    lhs, rhs = intertwining_sides(kind, r)
    positions = sorted(lhs.entries)
    pos = positions[len(positions) // 2]
    e = lhs.entry(*pos)
    bad = OpMatrix(lhs.nrows, lhs.ncols, lhs.entries)
    bad.set(*pos, entry_scale(e[:1], T) + e[1:])
    want = oracle.matrices_first_mismatch(bad, rhs, 4)
    assert want is not None and want[0] == pos
    assert matrices_first_mismatch(bad, rhs, 4) == want
    monkeypatch.setattr(lattice, "intertwining_sides", lambda k, rank: (bad, rhs))
    assert intertwining_mismatch(kind, r) == want


@pytest.mark.parametrize("kind", ["yba", "zf"])
def test_mismatch_away_from_the_vacuum_located_as_by_oracle(kind):
    # an extra lhs term that lowers every slot vanishes on each state with
    # an empty slot, so the first failing state has no zero occupation
    lhs, rhs = intertwining_sides(kind, 3)
    slots = sorted(lhs.slots() | rhs.slots())
    positions = sorted(lhs.entries)
    pos = positions[len(positions) // 2]
    bad = OpMatrix(lhs.nrows, lhs.ncols, lhs.entries)
    bad.set(*pos, lhs.entry(*pos)
            + (term(xdeg=1, factors=[(s, (LOWER,)) for s in slots]),))
    want = oracle.matrices_first_mismatch(bad, rhs, 4)
    assert want == (pos, tuple(slots), (1,) * len(slots))
    assert matrices_first_mismatch(bad, rhs, 4) == want
