from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qtrat_fock as oracle
from helpers import merge_family_one
from macprod import lattice
from macprod.cli import main
from macprod.errors import CutoffTooSmall, InternalError
from macprod.lattice import (OpMatrix, OpTerm, build_L, build_R, build_tildeL,
                             entry_add, entry_mul, entry_scale,
                             intertwining_mismatch, intertwining_sides,
                             matrices_first_mismatch, term, twist_term,
                             verify_intertwining, zf_components)
from macprod.oscillator import LOWER, RAISE, kpow
from macprod.qtfield import QTRat
from qtrat_fock import fock_matrix, laurent

T = {(0, 1): 1}
T_MINUS_1 = {(0, 1): 1, (0, 0): -1}


def entries_same(e1, e2):
    return not entry_add(e1, entry_scale(e2, -1))


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
    assert entries_same(R.entry(1, 1), (term(T_MINUS_1, xdeg=1),))
    assert entries_same(R.entry(1, 2), (term(T, xdeg=1),
                                        term({(0, 1): -1}, ydeg=1)))
    assert entries_same(R.entry(2, 1), (term(xdeg=1), term(-1, ydeg=1)))
    assert entries_same(R.entry(2, 2), (term(T_MINUS_1, ydeg=1),))


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
                want = (term(T_MINUS_1, xdeg=1),) if i == j else ()
                assert entries_same(R.entry(i, j), want)


def test_eval_entry_matches_fock_matrix():
    # the contracted normal form read on each state and the dense
    # truncation agree
    cutoff = 5
    word = (RAISE, kpow(), LOWER)
    e = (term(factors=[((0, 2), word)]),)
    dense = fock_matrix(word, cutoff)
    idx = {(0, 2): 0}
    form = lattice._contract(lattice._groups(e, idx, 1))
    for m in range(cutoff):
        want = {}
        for mm in range(cutoff + 1):
            v = dense.entry(mm, m)
            if v:
                want[(mm,)] = {(0, 0) + k: c for k, c in laurent(v).items()}
        assert lattice._at(form, (m,)) == want
    # scalar and degree bookkeeping
    e2 = (term(T, xdeg=2, ydeg=1, factors=[((0, 2), (RAISE,))]),)
    form = lattice._contract(lattice._groups(e2, idx, 1))
    assert lattice._at(form, (1,)) == {(2,): {(2, 1, 0, 1): 1}}


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
    assert term({(2, -1): -3, (1, 1): 0}).scalar == {(2, -1): -3}
    assert term(0).scalar == {}
    assert entry_scale((term(T),), {(0, -1): 1})[0].scalar == {(0, 0): 1}
    # a QTRat is a value, even a monomial one, and not a Laurent dict
    for bad in (QTRat.monomial(te=1), QTRat(1, 2), True, 1.5):
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
    return term(draw(laurents), xdeg=draw(st.integers(0, 2)),
                ydeg=draw(st.integers(0, 1)),
                factors=[(s, draw(words)) for s in SLOTS])


@settings(max_examples=100, deadline=None)
@given(st.lists(opterms(), min_size=1, max_size=4), st.booleans())
def test_box_contraction_matches_qtrat_oracle(entry, cancel):
    # the contracted normal form, where terms merge across slots, read on
    # every state of a box against Q(q, t) arithmetic one state at a time;
    # cancel appends -1 times the first term.  The oracle's cutoff clears
    # each state's occupation plus a word's raises (at most 4), so its
    # truncation edge never bites
    if cancel:
        entry = entry + list(entry_scale(entry[:1], -1))
    idx = {s: i for i, s in enumerate(SLOTS)}
    form = lattice._contract(lattice._groups(entry, idx, len(SLOTS)))
    for state in product(range(4), repeat=len(SLOTS)):
        want = oracle.flatten(oracle.eval_entry(entry, idx, state,
                                                max(state) + 4))
        assert lattice._at(form, state) == want, state


@settings(max_examples=150, deadline=None)
@given(st.lists(opterms(), min_size=1, max_size=4), st.booleans(),
       st.lists(st.integers(0, 12), min_size=len(SLOTS), max_size=len(SLOTS)))
def test_eval_entry_matches_qtrat_oracle(entry, cancel, state):
    # the contracted normal form read on one state, far from the vacuum
    # as well, against Q(q, t) arithmetic; the oracle's cutoff clears the
    # state's occupation plus a word's raises (at most 4)
    if cancel:
        entry = entry + list(entry_scale(entry[:1], -1))
    idx = {s: i for i, s in enumerate(SLOTS)}
    state = tuple(state)
    form = lattice._contract(lattice._groups(entry, idx, len(SLOTS)))
    want = oracle.flatten(oracle.eval_entry(entry, idx, state, max(state) + 4))
    assert lattice._at(form, state) == want


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
def test_mismatch_away_from_the_vacuum_located_as_by_oracle(
        kind, capsys, monkeypatch):
    # an extra lhs term that lowers every slot `lowers` times vanishes on
    # each state with an occupation below `lowers`, so the first failing
    # state has every occupation equal to `lowers`.  Three lowers vanish
    # on the whole cutoff-4 box: the search grows the box and reports what
    # a cutoff-5 box does
    lhs, rhs = intertwining_sides(kind, 3)
    slots = sorted(lhs.slots() | rhs.slots())
    positions = sorted(lhs.entries)
    pos = positions[len(positions) // 2]
    for lowers, box_cutoff in ((1, 4), (3, 5)):
        bad = OpMatrix(lhs.nrows, lhs.ncols, lhs.entries)
        bad.set(*pos, lhs.entry(*pos) + (term(xdeg=1, factors=[
            (s, (LOWER,) * lowers) for s in slots]),))
        want = oracle.matrices_first_mismatch(bad, rhs, box_cutoff)
        assert want == (pos, tuple(slots), (lowers,) * len(slots))
        assert matrices_first_mismatch(bad, rhs, 4) == want
        monkeypatch.setattr(lattice, "intertwining_sides",
                            lambda k, rank: (bad, rhs))
        assert main(["verify", kind, "--rank", "3"]) == 1
        assert capsys.readouterr() == (
            f"verify {kind} rank=3 cutoff=4: FAIL\n",
            f"  first mismatch at matrix position {pos}, "
            f"in-state {dict(zip(slots, want[2]))}\n")
