"""The coefficient field: reduction, field axioms, brackets, JSON.

The field axioms run on arbitrary values of the reference field
ref_field.Rat.  On values of the supported field, QTRat(num, den) of a
value's parts times a common factor must give that value back, with
every production gcd compared to the PRS one."""

import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import gcd_checked
from helpers import bracket
from macprod.errors import (DivisionByZero, NonCyclotomicDenominator,
                            SpecializationPole)
from macprod.matprod import compute_P
from macprod.qtfield import (_ONE_D, QTRat, _dict_gcd, _dict_mul, _split,
                             factor_product, specialize)
from macprod.xpoly import XPoly
from prs_gcd import dict_gcd as reference_gcd
from ref_field import Rat, q, t


def mono(qe=0, te=0, c=1):
    return Rat.monomial(qe, te, c)


def built(a, g):
    """a as QTRat(num, den) makes it from a's parts both times g."""
    return QTRat(_dict_mul(a.num, g), _dict_mul(a.den, g))


def test_reduction_cancels_common_factor():
    # (1 - t^2)/(1 - t) = 1 + t
    r = QTRat({(0, 0): 1, (0, 2): -1}, {(0, 0): 1, (0, 1): -1})
    assert r == 1 + t


def test_reduction_sign_convention():
    # (t - 1)/(t q - q) = 1/q, with positive denominator leading coefficient
    r = QTRat({(0, 1): 1, (0, 0): -1}, {(1, 1): 1, (1, 0): -1})
    assert r == mono(qe=-1)
    assert r.den[max(r.den)] > 0


def test_mixed_bivariate_gcd():
    # (1-q t)(1-t^2) / (1-q t)(1-t) = 1 + t
    a = (1 - q * t) * (1 - t * t)
    b = (1 - q * t) * (1 - t)
    r = QTRat(a.num, b.num)
    assert r == 1 + t == a / b
    assert r.den == _ONE_D


def test_zero_denominator_raises():
    with pytest.raises(DivisionByZero):
        QTRat(1, 0)
    with pytest.raises(DivisionByZero):
        QTRat({(0, 0): 1}, {(0, 0): 0})
    with pytest.raises(DivisionByZero):
        Rat(1) / Rat(0)


def test_negative_exponent_monomials():
    r = mono(qe=-2, te=3)
    assert r.num == {(0, 3): 1}
    assert r.den == {(2, 0): 1}
    assert r * mono(qe=2) == mono(te=3)


def _random_rat(rng, depth=3):
    """Random small rational built from q, t monomial atoms."""
    atoms = [Rat(1), 1 + t, 1 - t, q, t, 1 - q * t, 2 + q, mono(te=2, c=3),
             1 - mono(qe=1, te=2)]
    val = atoms[rng.randrange(len(atoms))]
    for _ in range(depth):
        other = atoms[rng.randrange(len(atoms))]
        op = rng.randrange(4)
        if op == 0:
            val = val + other
        elif op == 1:
            val = val - other
        elif op == 2:
            val = val * other
        elif other:
            val = val / other
    return val


# The supported field, in two kinds: monomials times products of binomials
# 1 - q^A t^B and their inverses, and rational functions of t alone.
BINOMIALS = [(0, 1), (1, 0), (1, 1), (1, 2), (2, 1), (0, 2), (2, 2), (3, 1)]


def _binomial_value(qe, te, c, factors):
    """c q^qe t^te prod (1 - q^A t^B)^e over factors ((A, B), e)."""
    v = mono(qe, te, c)
    for (A, B), e in factors:
        v = v * (1 - mono(A, B)) ** e
    return v


def _binomial_rat(rng):
    return _binomial_value(
        rng.randrange(-2, 3), rng.randrange(-2, 3), rng.choice((-3, -1, 1, 2)),
        [(rng.choice(BINOMIALS), rng.choice((-1, 1)))
         for _ in range(rng.randrange(4))])


def _t_rat(rng):
    num, den = ({(0, k): rng.randrange(-2, 3) for k in range(3)}
                for _ in range(2))
    return Rat(num, den) if any(den.values()) else Rat(num)


def _axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a - a == Rat(0)
    if a:
        assert a * a.inverse() == Rat(1)
        assert (a ** 3) * (a ** -2) == a


def test_field_axioms_random():
    rng = random.Random(20260815)
    for _ in range(60):
        _axioms(*(_random_rat(rng) for _ in range(3)))


def test_field_axioms_random_on_the_field():
    # the axioms on values of one kind, and the production reduction of
    # each value they form, over its own denominator
    rng = random.Random(20260815)
    with gcd_checked() as calls:
        for _ in range(60):
            draw = rng.choice((_binomial_rat, _t_rat))
            a, b, c = (draw(rng) for _ in range(3))
            _axioms(a, b, c)
            for v in (a + b, a * b * c, a - b):
                assert built(v, v.den) == v
    assert calls


def _polys(min_size=0):
    """Sparse dicts {(q_exp, t_exp): nonzero int} of small degree."""
    return st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                           st.sampled_from((-2, -1, 1, 2)),
                           min_size=min_size, max_size=3)


_rats = st.builds(Rat, _polys(), _polys(1))


@st.composite
def _field(draw, count):
    """count values of the supported field and a nonzero polynomial, all of
    one kind."""
    if draw(st.booleans()):
        factors = st.lists(st.tuples(st.sampled_from(BINOMIALS),
                                     st.sampled_from((-1, 1))), max_size=3)
        values = st.builds(_binomial_value, st.integers(-2, 2),
                           st.integers(-2, 2), st.sampled_from((-2, -1, 1, 2)),
                           factors)
        poly = st.lists(st.sampled_from(BINOMIALS), max_size=2).map(
            lambda bs: _binomial_value(0, 0, 1, [(b, 1) for b in bs]).num)
    else:
        poly = st.dictionaries(st.tuples(st.just(0), st.integers(0, 3)),
                               st.sampled_from((-2, -1, 1, 2)),
                               min_size=1, max_size=3)
        values = st.builds(Rat, poly | st.just({}), poly)
    return [draw(values) for _ in range(count)] + [draw(poly)]


def _is_canonical(a):
    if not a:
        return a.den == _ONE_D
    # coprime, lex-leading denominator coefficient positive, and per
    # variable the lowest exponent of num and den is 0 on one side and
    # nonnegative on the other
    return (reference_gcd(a.num, a.den) == _ONE_D and a.den[max(a.den)] > 0
            and all(min(k[i] for k in (*a.num, *a.den)) == 0
                    for i in (0, 1)))


def _exact_axioms(a, b, c):
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + Rat(0) == a and a * Rat(1) == a
    assert a + (-a) == Rat(0) and a - a == Rat(0)
    if a:
        assert a * a.inverse() == Rat(1) and b / a * a == b


@settings(max_examples=60, deadline=None)
@given(_rats, _rats, _rats)
def test_field_axioms_hypothesis(a, b, c):
    _exact_axioms(a, b, c)


@settings(max_examples=60, deadline=None)
@given(_field(3))
def test_field_axioms_hypothesis_on_the_field(values):
    a, b, c, g = values
    _exact_axioms(a, b, c)
    with gcd_checked():
        for v in (a + b, a * (b + c), a - c):
            assert built(v, g) == v


def _structural(a, b, g, build):
    # canonical form: every result is reduced, and equality of values
    # (cross-multiplication) coincides with equality of (num, den); build
    # makes a value from an unreduced pair
    for v in (a, b, a + b, a * b, a - b):
        assert _is_canonical(v)
    same = _dict_mul(a.num, b.den) == _dict_mul(b.num, a.den)
    assert (a == b) == same
    back = (a + b) - b
    assert (back.num, back.den) == (a.num, a.den)
    expanded = build(_dict_mul(a.num, g), _dict_mul(a.den, g))
    assert (expanded.num, expanded.den) == (a.num, a.den)
    assert hash(expanded) == hash(a)
    assume(b)
    back = (a * b) / b
    assert (back.num, back.den) == (a.num, a.den)


@settings(max_examples=60, deadline=None)
@given(_rats, _rats, _polys(1))
def test_equal_values_are_structurally_equal(a, b, g):
    _structural(a, b, g, Rat)


@settings(max_examples=60, deadline=None)
@given(_field(2))
def test_equal_values_are_structurally_equal_on_the_field(values):
    with gcd_checked():
        _structural(*values, QTRat)


def _reduced(a):
    if not a:
        assert a.den == _ONE_D
    else:
        assert reference_gcd(a.num, a.den) == _ONE_D
        assert a.den[max(a.den)] > 0


def test_reduced_invariant_random():
    rng = random.Random(7)
    for _ in range(40):
        _reduced(_random_rat(rng))


def test_reduced_invariant_random_on_the_field():
    rng = random.Random(7)
    with gcd_checked() as calls:
        for _ in range(40):
            v = rng.choice((_binomial_rat, _t_rat))(rng)
            _reduced(built(v, v.den))
    assert calls


def test_bracket_values():
    assert bracket(0) == Rat(0)
    assert bracket(1) == Rat(1)
    assert bracket(2) == 1 + t
    assert bracket(3) == 1 + t + t * t
    # [m] at t := 1 equals m
    for m in range(6):
        assert specialize(bracket(m), t=1).as_fraction() == m


def test_bracket_shifted():
    # (1 - q t^3)/(1 - t) stays unreduced over Z[q, t]; canonical form
    # flips both signs so the denominator leads with +t
    b = bracket(3, 1)
    assert b.num == {(0, 0): -1, (1, 3): 1}
    assert b.den == {(0, 0): -1, (0, 1): 1}
    assert specialize(b, q="t") == bracket(4)


def test_specialize_rules():
    r = (1 - q * t) / (1 - t)
    assert specialize(r, q=0) == 1 / (1 - t)
    assert specialize(r, q="t") == 1 + t  # (1-t^2)/(1-t)
    assert specialize(r, q=1) == Rat(1)  # (1-t)/(1-t)
    v = specialize(r, q=Fraction(1, 2), t=Fraction(1, 3))
    assert v.as_fraction() == Fraction(1 - Fraction(1, 6), Fraction(2, 3))


def test_specialize_swaps_q_and_t():
    # both substitutions read the original exponents
    for qe in range(3):
        for te in range(3):
            m = mono(qe, te, -2)
            assert specialize(m, q="t", t="q") == mono(te, qe, -2)
            assert specialize(m, q="t") == mono(0, qe + te, -2)
            assert specialize(m, t="q") == mono(qe + te, 0, -2)
    r = (1 - q * t * t) / (1 - t)
    assert specialize(r, q="t", t="q") == (1 - q * q * t) / (1 - q)
    rng = random.Random(3)
    for _ in range(30):
        a = _random_rat(rng)
        swapped = specialize(a, q="t", t="q")
        assert specialize(swapped, q="t", t="q") == a
        # q := t after the swap is t := q before it, swapped
        assert specialize(swapped, q="t") == specialize(
            specialize(a, t="q"), q="t", t="q")


def test_specialize_pole():
    r = 1 / (1 - q)
    with pytest.raises(SpecializationPole, match="under q=1$"):
        specialize(r, q=1)
    # but poles only count after reduction: (1-q)/(1-q) is 1
    s = (1 - q) / (1 - q)
    assert specialize(s, q=1) == Rat(1)


def _round_trip(a, cls):
    blob = json.dumps(a.to_obj(), sort_keys=True)
    b = cls.from_obj(json.loads(blob))
    assert b == a
    assert json.dumps(b.to_obj(), sort_keys=True) == blob


def test_json_round_trip_bit_exact():
    rng = random.Random(99)
    for _ in range(30):
        _round_trip(_random_rat(rng), Rat)


def test_json_round_trip_bit_exact_on_the_field():
    rng = random.Random(99)
    with gcd_checked() as calls:
        for _ in range(30):
            _round_trip(rng.choice((_binomial_rat, _t_rat))(rng), QTRat)
    assert calls


def test_specialize_takes_one_gcd_per_coefficient():
    # a numeric value takes one gcd per coefficient; swapping q and t maps
    # a reduced pair to a reduced pair and takes none
    P = compute_P((3, 2, 1, 0))
    for spec, per_term in (({"q": 2}, 1), ({"t": Fraction(1, 3)}, 1),
                           ({"q": "t", "t": "q"}, 0),
                           ({"q": 1, "t": Fraction(1, 2)}, 1)):
        with gcd_checked() as calls:
            S = P.specialize(**spec)
        assert len(S.terms) == len(P.terms)
        assert len(calls) == per_term * len(P.terms)


def test_from_obj_canonicalises():
    # (1 - t^2)/(1 - t) and a zero term load as the reduced 1 + t
    r = QTRat.from_obj({"num": [[0, 0, 1], [0, 2, -1], [1, 1, 0]],
                        "den": [[0, 0, 1], [0, 1, -1]]})
    assert r == 1 + t
    assert r.to_obj() == {"num": [[0, 0, 1], [0, 1, 1]], "den": [[0, 0, 1]]}
    # monomial content and sign: (2 q t)/(-4 q^2) = -t/(2 q)
    r = QTRat.from_obj({"num": [[1, 1, 2]], "den": [[2, 0, -4]]})
    assert r == mono(qe=-1, te=1, c=-1) / 2
    assert r.to_obj() == {"num": [[0, 1, -1]], "den": [[1, 0, 2]]}
    assert not QTRat.from_obj({"num": [[0, 0, 0]], "den": [[0, 0, 1]]})
    with pytest.raises(DivisionByZero):
        QTRat.from_obj({"num": [[0, 0, 1]], "den": [[1, 0, 0]]})


DIRECTIONS = [(1, 0), (0, 1), (1, 1), (2, 1), (1, 3), (3, 2)]


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(1, 12), st.sampled_from(DIRECTIONS)),
                       st.integers(1, 2), min_size=1, max_size=4))
def test_split_round_trips_factor_multisets(mult):
    factors = {(d, a, b): m for (d, (a, b)), m in mult.items()}
    p = factor_product(tuple(factors.items()))
    assert dict(_split(p)) == factors
    assert dict(_split({k: -v for k, v in p.items()})) == factors


def test_split_rejects_non_products():
    # 1 + q + t, 2 + q t and (1 - q)(1 + q + t)
    for p in ({(0, 0): 1, (1, 0): 1, (0, 1): 1}, {(0, 0): 2, (1, 1): 1},
              _dict_mul({(0, 0): 1, (1, 0): -1},
                        {(0, 0): 1, (1, 0): 1, (0, 1): 1})):
        assert _split(p) is None


def test_non_cyclotomic_denominator_raises():
    bad = {(0, 0): 1, (1, 0): 1, (0, 1): 1}
    with pytest.raises(NonCyclotomicDenominator):
        QTRat(1, bad)
    with pytest.raises(NonCyclotomicDenominator):
        QTRat.from_obj({"num": [[0, 0, 1]],
                        "den": [[0, 0, 1], [0, 1, 1], [1, 0, 1]]})
    with pytest.raises(NonCyclotomicDenominator):
        QTRat((q + t).num, (1 + q + t).num)
    # the gate is the denominator: a univariate numerator vouches for none
    num = {(0, 0): 1, (1, 0): 1}
    den = _dict_mul({(0, 0): 2, (1, 0): 1}, {(0, 0): 2, (0, 1): 1})
    with pytest.raises(NonCyclotomicDenominator):
        QTRat(num, den)
    with pytest.raises(NonCyclotomicDenominator):
        QTRat.from_obj({"num": [[0, 0, 1], [1, 0, 1]],
                        "den": [[0, 0, 4], [0, 1, 2], [1, 0, 2], [1, 1, 1]]})
    assert Rat(1, bad) * (1 + q + t) == Rat(1)
    assert Rat(num, den) * (2 + q) == (1 + q) / (2 + t)


def test_a_product_or_inverse_outside_the_field_raises_at_once():
    # QTRat does no arithmetic, so the denominators that a product, a sum
    # and an inverse once formed, (2 + q)(2 + t) and 1 + q + t, raise
    # where a value is made of them
    for num, den in ((1, (2 + q) * (2 + t)), (4 + q + t, (2 + q) * (2 + t)),
                     (1, 1 + q + t)):
        with pytest.raises(NonCyclotomicDenominator):
            QTRat(Rat.of(num).num, den.num)
    # in the field, denominators of two shapes, or univariate, take one
    # gcd each
    with gcd_checked() as calls:
        ab = QTRat(1, ((1 - q) * (1 - q * t)).num)
        c = QTRat(1, (2 + q).num)
        assert len(calls) == 2
    assert [ab, c] == [Rat(1) / (1 - q) / (1 - q * t), Rat(1) / (2 + q)]
    # the reference field takes every denominator, such as the pivot
    # q t^2 - q t - 1 of the row-reducing eigen oracle
    p = q * t * t - q * t - 1
    assert p.inverse() * p == Rat(1)
    assert 1 / (2 + q) * (1 / (2 + t)) * (2 + q) == 1 / (2 + t)


def test_dict_gcd_cases():
    # q only: gcd(1 - q^4, 1 - q^6) = q^2 - 1
    assert _dict_gcd({(0, 0): 1, (4, 0): -1},
                     {(0, 0): 1, (6, 0): -1}) == {(2, 0): 1, (0, 0): -1}
    # t only with integer content: gcd(2 - 2t^2, 4 - 4t) = 2t - 2
    assert _dict_gcd({(0, 0): 2, (0, 2): -2},
                     {(0, 0): 4, (0, 1): -4}) == {(0, 1): 2, (0, 0): -2}
    # monomial content: gcd(q^2 t (1 + t), q t^3 (1 + t)^2) = q t (1 + t)
    assert _dict_gcd({(2, 1): 1, (2, 2): 1},
                     {(1, 3): 1, (1, 4): 2, (1, 5): 1}) == {(1, 1): 1, (1, 2): 1}
    # a single term: gcd(6 q^2 t, 4 q t^3 (1 + t)) = 2 q t
    assert _dict_gcd({(2, 1): 6}, {(1, 3): 4, (1, 4): 4}) == {(1, 1): 2}
    # coprime, and a zero argument
    assert _dict_gcd({(0, 0): 1, (1, 1): -1}, {(0, 0): 1, (0, 1): -1}) == _ONE_D
    assert _dict_gcd({}, {(0, 0): -3, (1, 0): -1}) == {(0, 0): 3, (1, 0): 1}


def test_json_shape():
    r = (1 + t) / q
    obj = r.to_obj()
    assert obj == {"num": [[0, 0, 1], [0, 1, 1]], "den": [[1, 0, 1]]}


def test_pow_and_str():
    r = (1 - t) ** 2
    assert r == 1 - 2 * t + t * t
    assert str(1 - q * t) == "-q*t + 1"


@pytest.mark.parametrize("entry, bad", [
    ({"num": [[0, 0, 1.5]], "den": [[0, 0, 1]]}, "num[0]"),
    ({"num": [[0, 0, True]], "den": [[0, 0, 1]]}, "num[0]"),
    ({"num": [[0, 0, "2"]], "den": [[0, 0, 1]]}, "num[0]"),
    ({"num": [[0, 0, 1]], "den": [[0, 0, 1], [1.0, 0, 1]]}, "den[1]"),
    ({"num": [[0, 0, 1]], "den": [[0, 1]]}, "den[0]")])
def test_from_obj_accepts_only_json_integers(entry, bad):
    # a coefficient 1.5 once loaded as 1, and True and "2" were accepted
    with pytest.raises(ValueError, match=re.escape(bad)):
        QTRat.from_obj(entry)


QTRAT_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                    "__rmul__", "__truediv__", "__rtruediv__", "__pow__",
                    "__neg__", "inverse")
XPOLY_ARITHMETIC = ("one", "variable", "_check", "__add__", "__sub__",
                    "__neg__", "__mul__", "__rmul__", "scale", "apply_perm",
                    "eval_ones")


def test_values_do_no_arithmetic():
    # after every test module is imported: no production path can lean on
    # field arithmetic, and the per-operation field gate is gone
    assert [n for n in QTRAT_ARITHMETIC if hasattr(QTRat, n)] == []
    assert [n for n in XPOLY_ARITHMETIC if hasattr(XPoly, n)] == []
    src = Path(__file__).resolve().parents[1] / "src" / "macprod"
    gate = re.compile(r"\b(_gated|_den_product|_variables)\b")
    assert [p.name for p in sorted(src.glob("*.py"))
            if gate.search(p.read_text(encoding="utf-8"))] == []
