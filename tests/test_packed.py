"""The packed kernel against the dict loops it replaced.

Every XPack operator must give exactly what the dict reference of
xnum_dict gives, on hypothesis inputs that include digits at the bound
of a word and exponents at the edges of the window; a value whose bound
or exponents leave its layout must raise InternalError, also under
python -O.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xnum_dict
from macprod.errors import IndexOutOfRange, InternalError
from macprod.xpoly import XNum, pack

EDGE = 2 ** 31 - 1   # the largest digit of a 32-bit word

digits = st.one_of(st.integers(-3, 3).filter(bool),
                   st.sampled_from([EDGE, -EDGE, EDGE + 1, -(EDGE + 1),
                                    2 ** 63 - 1, -(2 ** 63)]))
laurent = st.dictionaries(st.tuples(st.integers(-2, 3), st.integers(-2, 3)),
                          digits, min_size=1, max_size=4)


@st.composite
def xnums(draw, n=None):
    n = draw(st.integers(2, 4)) if n is None else n
    exps = st.tuples(*[st.integers(0, 3)] * n)
    return XNum(n, draw(st.dictionaries(exps, laurent, max_size=4)))


@st.composite
def xnum_and_index(draw):
    N = draw(xnums())
    return N, draw(st.integers(1, N.n - 1))


def packed(N, steps=0, **kw):
    X, = pack((N,), steps, **kw)
    return X


@settings(max_examples=60, deadline=None)
@given(xnum_and_index())
def test_generator_steps_match_the_dict_loops(Ni):
    N, i = Ni
    assert packed(N, 1, t_up=1).demazure_T(i).unpack() == \
        xnum_dict.demazure_T(N, i)
    assert packed(N, 1, t_down=1).demazure_T_inv(i).unpack() == \
        xnum_dict.demazure_T_inv(N, i)
    # a step each way is the identity
    X = packed(N, 2, t_down=1, t_up=1)
    assert X.demazure_T(i).demazure_T_inv(i) == X


@settings(max_examples=60, deadline=None)
@given(xnums(), laurent.filter(lambda m: min(m)[0] >= 0))
def test_shift_and_products_match_the_dict_loops(N, m):
    assert packed(N).shift_omega().unpack() == xnum_dict.shift_omega(N)
    ts = [te for _, te in m]
    X = packed(N, mult=sum(map(abs, m.values())),
               t_down=max(0, -min(ts)), t_up=max(0, max(ts)))
    assert X.times(m).unpack() == xnum_dict.times(N, m)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4).flatmap(lambda n: st.tuples(xnums(n), xnums(n))))
def test_sums_and_equality_match_the_dict_loops(NM):
    N, M = NM
    X, Y = pack((N, M), mult=2)
    assert (X + Y).unpack() == xnum_dict.add(N, M)
    assert (X == Y) == (N == M)
    assert not (X + X.times({(0, 0): -1}))


@settings(max_examples=30, deadline=None)
@given(xnums())
def test_symmetrise_matches_the_dict_loops(N):
    assert N.symmetrise() == xnum_dict.symmetrise(N)


def _edges(d=EDGE):
    """Digits of +-d at both edges of the t window of their own layout,
    t = -2 and t = 3, and at its lowest q; each coefficient is a single
    term, so its l1 norm is d."""
    return XNum(3, {(2, 0, 1): {(0, -2): d}, (1, 0, 2): {(1, 3): -d},
                    (0, 1, 2): {(0, 3): d}, (0, 2, 1): {(1, -2): -d}})


def test_digits_at_the_bound_of_a_word_pack_exactly():
    N = _edges()
    X = packed(N)
    assert (X.lay.K, X.lay.W, X.lay.q0, X.lay.t0) == (32, 6, 0, -2)
    assert X.unpack() == N
    assert X.shift_omega().unpack() == xnum_dict.shift_omega(N)
    assert X.times({(3, 0): -1}).unpack() == xnum_dict.times(N, {(3, 0): -1})
    # one past the bound takes the next word
    N1 = XNum(3, {**N.terms, (1, 1, 1): {(0, 0): -(EDGE + 1)}})
    X1 = packed(N1)
    assert X1.lay.K == 64
    assert X1.unpack() == N1


def test_a_bound_past_the_word_raises():
    X = packed(_edges())
    with pytest.raises(InternalError, match="does not fit 32-bit digits"):
        X + X
    with pytest.raises(InternalError, match="does not fit"):
        X.times({(0, 0): 1, (1, 0): 1})
    with pytest.raises(InternalError, match="does not fit"):
        X.demazure_T(1)


def test_an_exponent_past_the_window_raises():
    X = packed(_edges(1))
    for step in (lambda: X.demazure_T_inv(1), lambda: X.times({(0, -1): 1}),
                 lambda: X.times({(0, 1): 1}), lambda: X.times({(-1, 0): 1})):
        with pytest.raises(InternalError, match="leave the window"):
            step()


def test_values_of_two_layouts_do_not_meet():
    N = _edges()
    X, Y = packed(N), packed(N, t_up=1)
    for op in (lambda: X == Y, lambda: X + Y):
        with pytest.raises(InternalError, match="meet"):
            op()
    with pytest.raises(IndexOutOfRange):
        X + packed(XNum(2, {(1, 0): {(0, 0): 1}}))


def test_the_bound_raises_under_optimize():
    # the checks are typed raises, not asserts, so -O keeps them
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("from macprod.errors import InternalError\n"
            "from macprod.xpoly import XNum, pack\n"
            f"X, = pack((XNum(2, {{(1, 0): {{(0, 0): {EDGE}}}}}),))\n"
            "try:\n"
            "    X + X\n"
            "except InternalError as exc:\n"
            "    print(type(exc).__name__, X.lay.K)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120)
    assert proc.stdout == "InternalError 32\n", proc.stderr
