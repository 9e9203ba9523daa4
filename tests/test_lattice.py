from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qtrat_fock as oracle
import term_product as reference
from helpers import merge_family_one
from macprod import lattice
from macprod.cli import main
from macprod.errors import CutoffTooSmall, InternalError
from macprod.lattice import (build_L, build_R, build_tildeL,
                             intertwining_mismatch, intertwining_sides,
                             matrices_first_mismatch, term, twist_term,
                             verify_intertwining, zf_components)
from macprod.oscillator import LOWER, RAISE, kpow
from macprod.qtfield import QTRat
from qtrat_fock import fock_matrix, laurent

T = {(0, 1): 1}
T_MINUS_1 = {(0, 1): 1, (0, 0): -1}


def plus(*entries):
    """The sum of entries grouped by word, zeros dropped."""
    acc = {}
    for e in entries:
        for w, c in e.items():
            merged = acc.setdefault(w, {})
            for k, v in c.items():
                merged[k] = merged.get(k, 0) + v
    return lattice._nonzero(acc)


def matmul(A, B):
    """The matrix product of two {(row, col): entry} matrices."""
    acc = {}
    for (i, k), e1 in A.items():
        for (kk, j), e2 in B.items():
            if k == kk:
                lattice._mul_into(acc.setdefault((i, j), {}), e1, e2)
    return {pos: e for pos, a in acc.items() if (e := lattice._nonzero(a))}


def test_tildeL_rank1_and_2():
    tl = build_tildeL(1)
    assert tl == {(0, 0): term(), (1, 0): term(xdeg=1)}

    tl = build_tildeL(2)
    s = (0, 2)
    assert tl[0, 0] == term()
    assert tl[0, 1] == term(factors=[(s, (LOWER,))])
    assert tl[1, 0] == term(xdeg=1, factors=[(s, (kpow(),))])
    assert (1, 1) not in tl
    assert tl[2, 0] == term(xdeg=1, factors=[(s, (RAISE,))])
    assert tl[2, 1] == term(xdeg=1)


def test_tildeL_rank3_structure():
    tl = build_tildeL(3)
    f2, f3 = (0, 2), (0, 3)
    expected = {
        (0, 0): term(),
        (0, 1): term(factors=[(f2, (LOWER,))]),
        (0, 2): term(factors=[(f3, (LOWER,))]),
        (1, 0): term(xdeg=1, factors=[(f2, (kpow(),)), (f3, (kpow(),))]),
        (2, 0): term(xdeg=1, factors=[(f2, (RAISE,)), (f3, (kpow(),))]),
        (2, 1): term(xdeg=1, factors=[(f3, (kpow(),))]),
        (3, 0): term(xdeg=1, factors=[(f3, (RAISE,))]),
        (3, 1): term(xdeg=1, factors=[(f2, (LOWER,)), (f3, (RAISE,))]),
        (3, 2): term(xdeg=1),
    }
    for i in range(4):
        for b in range(3):
            assert tl.get((i, b), {}) == expected.get((i, b), {})


def test_L_merge_consistency():
    # freezing family 1 makes columns 0 and 1 of L equal, and the kept
    # columns reproduce tildeL
    for r in (1, 2, 3):
        merged = merge_family_one(build_L(r))
        tl = build_tildeL(r)
        for i in range(r + 1):
            assert merged.get((i, 0), {}) == merged.get((i, 1), {})
            assert merged.get((i, 0), {}) == tl.get((i, 0), {})
            for b in range(1, r):
                assert merged.get((i, b + 1), {}) == tl.get((i, b), {})


def test_zf_components_rank2():
    a0, a1, a2 = zf_components(2)
    s = (2, 2)
    assert a0 == plus(term(), term(xdeg=1, factors=[(s, (LOWER,))]))
    assert a1 == term(xdeg=1, factors=[(s, (kpow(),))])
    assert a2 == plus(term(xdeg=1, factors=[(s, (RAISE,))]), term(xdeg=2))


def test_R_rank1_entries():
    R = build_R(1)
    diag = plus(term(T, xdeg=1), term(-1, ydeg=1))
    assert R[0, 0] == diag
    assert R[3, 3] == diag
    assert R[1, 1] == term(T_MINUS_1, xdeg=1)
    assert R[1, 2] == plus(term(T, xdeg=1), term({(0, 1): -1}, ydeg=1))
    assert R[2, 1] == plus(term(xdeg=1), term(-1, ydeg=1))
    assert R[2, 2] == term(T_MINUS_1, ydeg=1)


def test_R_unitarity():
    # cleared form: R(x,y) R(y,x) = (tx-y)(ty-x) Id
    scal = lattice._mul(plus(term(T, xdeg=1), term(-1, ydeg=1)),
                        plus(term(T, ydeg=1), term(-1, xdeg=1)))
    for r in (1, 2):
        R = build_R(r)
        prod = matmul(R, lattice._swap_xy(R))
        n = (r + 1) ** 2
        for i in range(n):
            for j in range(n):
                want = scal if i == j else {}
                assert prod.get((i, j), {}) == want


def test_R_equal_arguments():
    # at x = y the cleared matrix collapses to (t-1) x Id
    for r in (1, 2):
        R = {pos: plus(*({w: {(x + y, 0, qe, te): v}}
                         for w, c in e.items()
                         for (x, y, qe, te), v in c.items()))
             for pos, e in build_R(r).items()}
        n = (r + 1) ** 2
        for i in range(n):
            for j in range(n):
                want = term(T_MINUS_1, xdeg=1) if i == j else {}
                assert R.get((i, j), {}) == want


def test_eval_entry_matches_fock_matrix():
    # the contracted normal form read on each state and the dense
    # truncation agree
    cutoff = 5
    word = (RAISE, kpow(), LOWER)
    e = term(factors=[((0, 2), word)])
    dense = fock_matrix(word, cutoff)
    idx = {(0, 2): 0}
    form = lattice._contract(lattice._difference(e, {}, idx))
    for m in range(cutoff):
        want = {}
        for mm in range(cutoff + 1):
            v = dense.entry(mm, m)
            if v:
                want[(mm,)] = {(0, 0) + k: c for k, c in laurent(v).items()}
        assert lattice._at(form, (m,)) == want
    # scalar and degree bookkeeping
    e2 = term(T, xdeg=2, ydeg=1, factors=[((0, 2), (RAISE,))])
    form = lattice._contract(lattice._difference(e2, {}, idx))
    assert lattice._at(form, (1,)) == {(2,): {(2, 1, 0, 1): 1}}


def test_intertwining_all_kinds():
    for kind in ("yba", "rll", "zf", "twist"):
        for r in (1, 2, 3):
            assert verify_intertwining(kind, r, cutoff=4)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["yba", "rll", "zf", "twist"])
def test_sides_match_the_term_product(kind, r):
    # each position built from the leaves equals the whole term-by-term
    # sides of the reference merged by word, on the same slots and the
    # same nonzero positions
    slots, sides = intertwining_sides(kind, r)
    lhs, rhs = reference.sides(kind, r)
    sides = list(sides)
    assert slots == sorted(lhs.slots() | rhs.slots())
    assert [pos for pos, _, _ in sides] == \
        sorted(set(lhs.entries) | set(rhs.entries))
    for pos, left, right in sides:
        assert left == reference.grouped(lhs.entry(*pos)), pos
        assert right == reference.grouped(rhs.entry(*pos)), pos


def test_intertwining_detects_corruption(monkeypatch):
    # swapping one off-diagonal pair in R must break the exchange relation
    real = lattice.build_R

    def bad_R(r):
        R = real(r)
        assert R[1, 3] and R[3, 1]
        R[1, 3], R[3, 1] = R[3, 1], R[1, 3]
        return R
    monkeypatch.setattr(lattice, "build_R", bad_R)
    assert intertwining_mismatch("yba", 2) is not None


def test_cutoff_too_small():
    with pytest.raises(CutoffTooSmall):
        matrices_first_mismatch((), iter([((0, 0), term(), term())]), 1)


def test_twist_term_layouts():
    one = {(0, 0, 0, 0): 1}
    assert twist_term(3) == {(((2, 2), (kpow(0, 1),)),
                              ((3, 2), (kpow(0, 1),)),
                              ((3, 3), (kpow(0, 2),))): one}
    assert twist_term(3, space=0) == {(((0, 2), (kpow(0, 1),)),
                                       ((0, 3), (kpow(0, 2),))): one}
    assert twist_term(1) == {(): one}


def test_scalars_must_be_laurent():
    assert term({(2, -1): -3, (1, 1): 0}) == {(): {(0, 0, 2, -1): -3}}
    assert term(0) == {}
    assert lattice._mul(term(T), term({(0, -1): 1})) == term()
    # a QTRat is a value, even a monomial one, and not a Laurent dict
    for bad in (QTRat.monomial(te=1), QTRat(1, 2), True, 1.5):
        with pytest.raises(InternalError):
            term(bad)


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
def test_box_contraction_matches_qtrat_oracle(terms, cancel):
    # the contracted normal form, where words merge across slots, read on
    # every state of a box against Q(q, t) arithmetic one state at a time;
    # with cancel the first term is subtracted again as the other side.
    # The oracle's cutoff clears each state's occupation plus a word's
    # raises (at most 4), so its truncation edge never bites
    idx = {s: i for i, s in enumerate(SLOTS)}
    form = lattice._contract(lattice._difference(
        plus(*terms), terms[0] if cancel else {}, idx))
    entry = plus(*terms[cancel:])
    for state in product(range(4), repeat=len(SLOTS)):
        want = oracle.flatten(oracle.eval_entry(entry, idx, state,
                                                max(state) + 4))
        assert lattice._at(form, state) == want, state


@settings(max_examples=150, deadline=None)
@given(st.lists(opterms(), min_size=1, max_size=4), st.booleans(),
       st.lists(st.integers(0, 12), min_size=len(SLOTS), max_size=len(SLOTS)))
def test_eval_entry_matches_qtrat_oracle(terms, cancel, state):
    # the contracted normal form read on one state, far from the vacuum
    # as well, against Q(q, t) arithmetic; the oracle's cutoff clears the
    # state's occupation plus a word's raises (at most 4)
    idx = {s: i for i, s in enumerate(SLOTS)}
    state = tuple(state)
    form = lattice._contract(lattice._difference(
        plus(*terms), terms[0] if cancel else {}, idx))
    want = oracle.flatten(oracle.eval_entry(plus(*terms[cancel:]), idx, state,
                                            max(state) + 4))
    assert lattice._at(form, state) == want


def sides_with(kind, r, edit):
    """The slots and the sides of a relation as a list, with the lhs at
    the middle one of its nonzero positions replaced by edit(lhs); and
    that position."""
    slots, sides = intertwining_sides(kind, r)
    sides = list(sides)
    positions = [pos for pos, lhs, _ in sides if lhs]
    bad = positions[len(positions) // 2]
    return slots, [(pos, edit(lhs) if pos == bad else lhs, rhs)
                   for pos, lhs, rhs in sides], bad


def lowering_term(slots, lowers):
    """x times a word that lowers every slot `lowers` times."""
    return term(xdeg=1, factors=[(s, (LOWER,) * lowers) for s in slots])


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("kind", ["yba", "rll", "zf", "twist"])
def test_mutation_located_as_by_oracle(kind, r, monkeypatch):
    # multiply the coefficient of one word of one lhs entry by t: the
    # fast comparator must report the same (position, slots, state) as
    # the QTRat oracle
    def times_t(lhs):
        (w, c), *rest = lhs.items()
        return {w: {(x, y, qe, te + 1): v for (x, y, qe, te), v in c.items()},
                **dict(rest)}
    slots, bad, pos = sides_with(kind, r, times_t)
    want = oracle.matrices_first_mismatch(bad, 4)
    assert want is not None and want[0] == pos
    assert matrices_first_mismatch(slots, iter(bad), 4) == want
    monkeypatch.setattr(lattice, "intertwining_sides",
                        lambda k, rank: (slots, iter(bad)))
    assert intertwining_mismatch(kind, r) == want


@pytest.mark.parametrize("kind", ["yba", "zf"])
def test_mismatch_away_from_the_vacuum_located_as_by_oracle(
        kind, capsys, monkeypatch):
    # an extra lhs term that lowers every slot `lowers` times vanishes on
    # each state with an occupation below `lowers`, so the first failing
    # state has every occupation equal to `lowers`.  Three lowers vanish
    # on the whole cutoff-4 box: the search grows the box and reports what
    # a cutoff-5 box does
    slots, _ = intertwining_sides(kind, 3)
    for lowers, box_cutoff in ((1, 4), (3, 5)):
        _, bad, pos = sides_with(
            kind, 3, lambda lhs: plus(lhs, lowering_term(slots, lowers)))
        want = oracle.matrices_first_mismatch(bad, box_cutoff)
        assert want == (pos, tuple(slots), (lowers,) * len(slots))
        assert matrices_first_mismatch(slots, iter(bad), 4) == want
        monkeypatch.setattr(lattice, "intertwining_sides",
                            lambda k, rank: (slots, iter(bad)))
        assert main(["verify", kind, "--rank", "3"]) == 1
        assert capsys.readouterr() == (
            f"verify {kind} rank=3 cutoff=4: FAIL\n",
            f"  first mismatch at matrix position {pos}, "
            f"in-state {dict(zip(slots, want[2]))}\n")


def test_failure_search_stops_at_the_vandermonde_side(monkeypatch):
    # the triple-lowering term's form carries (1 - t^m)(1 - t^(m-1))
    # (1 - t^(m-2)), four powers of t^m on each slot, so the least failing
    # state of any box of side at least 4 lies in the box of side 4: a
    # large cutoff reports the cutoff-5 triple and reads at most 4^3 states
    slots, _ = intertwining_sides("yba", 3)
    _, bad, pos = sides_with(
        "yba", 3, lambda lhs: plus(lhs, lowering_term(slots, 3)))
    assert len(slots) == 3
    calls = []
    real = lattice._at

    def counted(form, state):
        calls.append(state)
        return real(form, state)
    monkeypatch.setattr(lattice, "_at", counted)
    assert matrices_first_mismatch(slots, iter(bad), 40) == \
        (pos, tuple(slots), (3, 3, 3))
    assert len(calls) <= 4 ** 3
