"""Polynomials in x_1..x_n over Q(q, t), with the rescaled Hecke action.

The generator used everywhere is the integral form T~_i = t^(1/2) T_i:

    T~_i f = t f - (t x_i - x_{i+1}) (f - s_i f)/(x_i - x_{i+1}),

which satisfies (T~_i - t)(T~_i + 1) = 0 and the braid relations, and the
cyclic shift (w f)(x_1..x_n) = f(q x_n, x_1, .., x_{n-1}).

T~_i has coefficients in Z[t], its inverse in Z[t, 1/t], and the shift
only multiplies by powers of q.  So the operators are defined only on
polynomials in x with coefficients in Z[q^+-1, t^+-1], where each
operator is exact ring arithmetic applied monomial by monomial from
closed forms.  An XNum holds such a polynomial with Laurent dict
coefficients; an XPoly f reaches it as its numerator D f, made by
hecke._integral, which finds D among the factors of the
Haglund-Haiman-Loehr denominator and takes no gcd.  An XNum does not know
its D: the caller keeps D, as a factor multiset, and the way back to an
XPoly is XPoly.from_factored, by trial division over those factors.

The operators run on XPack, the packed form that pack makes of XNums:
each coefficient is one integer by Kronecker substitution, under a
layout whose digit width comes from an l1 bound that every operator
keeps (see "the packed kernel" below).  XNum.symmetrise applies the sum
of T~_w over the whole symmetric group in n(n-1)/2 packed generator
steps and unpacks once; matprod.compute_P builds P from it.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from itertools import chain, compress, islice, product
from math import inf

from .errors import IndexOutOfRange, InternalError
from .qtfield import _ONE_D, _ZERO, QTRat, _json_int, specialize as _spec_rat

_ONE = QTRat(1)


class XPoly:
    """Sparse polynomial: dict mapping exponent tuples to nonzero QTRat.
    A value, like its coefficients: it compares, prints, specialises and
    serialises, and the Hecke operators act on its numerator (XNum)."""

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        """The polynomial with coefficient c at x^e for each pair (e, c) of
        terms, zeros dropped; e must be a tuple of n non-negative ints
        (IndexOutOfRange)."""
        self.n = n
        self.terms = {}
        for e, c in (terms or {}).items():
            if not (isinstance(e, tuple) and len(e) == n and
                    all(type(v) is int and v >= 0 for v in e)):
                raise IndexOutOfRange(f"exponent {e!r} is not {n} "
                                      f"non-negative ints")
            if c:
                self.terms[e] = c

    @classmethod
    def _raw(cls, n, terms):
        p = object.__new__(cls)
        p.n = n
        p.terms = terms
        return p

    @classmethod
    def from_factored(cls, n, coeffs):
        """The XPoly with coefficient c.reduce() at e for each pair (e, c)
        of coeffs, c a qtfield.Factored value; zeros are dropped."""
        reduced = ((e, c.reduce()) for e, c in coeffs)
        return cls._raw(n, {e: c for e, c in reduced if c})

    def copy(self):
        """The same polynomial, sharing no dict with this one: its own
        terms dict and its own coefficient dicts."""
        return XPoly._raw(self.n, {e: QTRat._raw(dict(c.num), dict(c.den))
                                   for e, c in self.terms.items()})

    @classmethod
    def zero(cls, n):
        return cls._raw(n, {})

    @classmethod
    def monomial(cls, exps, coef=None):
        exps = tuple(exps)
        c = _ONE if coef is None else (QTRat(coef) if isinstance(coef, int) else coef)
        return cls(len(exps), {exps: c})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (isinstance(other, XPoly) and self.n == other.n
                and self.terms == other.terms)

    def coeff_of(self, exps):
        return self.terms.get(tuple(exps), _ZERO)

    def is_homogeneous(self, d=None):
        degs = {sum(e) for e in self.terms}
        if not degs:
            return True
        return degs == {d if d is not None else degs.pop()}

    def apply_s(self, i):
        """Swap x_i and x_{i+1} (1-based adjacent transposition)."""
        if not 1 <= i <= self.n - 1:
            raise IndexOutOfRange(f"s_{i} out of range for n={self.n}")
        k = i - 1
        out = {}
        for e, c in self.terms.items():
            if e[k] == e[k + 1]:
                out[e] = c
            else:
                f = list(e)
                f[k], f[k + 1] = f[k + 1], f[k]
                out[tuple(f)] = c
        return XPoly._raw(self.n, out)

    def is_symmetric(self):
        return all(self.apply_s(i) == self for i in range(1, self.n))

    def specialize(self, q=None, t=None):
        out = {}
        for e, c in self.terms.items():
            v = _spec_rat(c, q=q, t=t)
            if v:
                out[e] = v
        return XPoly._raw(self.n, out)

    def sorted_terms(self):
        """Terms in graded-lex descending order."""
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]),
                      reverse=True)

    def to_obj(self):
        return {"n": self.n,
                "terms": [{"exp": list(e), "coef": c.to_obj()}
                          for e, c in sorted(self.terms.items())]}

    @classmethod
    def from_obj(cls, obj):
        """The polynomial of a {"n": int, "terms": [{"exp", "coef"}]} object
        of JSON integers; any other n or exponent entry raises ValueError
        naming it."""
        n = _json_int(obj["n"], "n")
        terms = {}
        for k, entry in enumerate(obj["terms"]):
            e = tuple(_json_int(v, f"terms[{k}].exp") for v in entry["exp"])
            terms[e] = QTRat.from_obj(entry["coef"])
        return cls(n, terms)

    @staticmethod
    def _mono_str(e, sep="*", pow_fmt="^%d", var="x%d"):
        """The monomial x^e as text, or "" for x^0."""
        parts = []
        for i, ei in enumerate(e, start=1):
            if ei:
                parts.append(var % i + (pow_fmt % ei if ei > 1 else ""))
        return sep.join(parts)

    def _format(self, latex):
        """Terms in graded-lex descending order, as text or as latex."""
        if not self.terms:
            return "0"
        chunks = []
        for e, c in self.sorted_terms():
            if latex:
                mono = self._mono_str(e, " ", "^{%d}", "x_{%d}")
                cs, paren, times = c.latex(), r"\left(%s\right)", r"\, "
            else:
                mono = self._mono_str(e)
                cs, paren, times = str(c), "(%s)", "*"
            if not mono:
                chunks.append(cs)
            elif c.is_one():
                chunks.append(mono)
            else:
                if len(c.num) > 1 and c.den == _ONE_D:
                    cs = paren % cs
                chunks.append(cs + times + mono)
        return " + ".join(chunks)

    def __str__(self):
        return self._format(latex=False)

    __repr__ = __str__

    def latex(self):
        return self._format(latex=True)


#### denominator-cleared numerators
#
# One operator sends x_i^a x_{i+1}^b to a short sum over the exponent pairs
# on the segment from (a, b) to (b, a), with coefficients in Z[t, 1/t].
# Writing d = |a - b|, (hi, lo) = (max, min) and I for the interior points
# (hi - j, lo + j), 0 < j < d, the closed forms are
#
#   T~_i         a > b:  x^(b,a) + (1 - t) I
#                a < b:  t x^(b,a) + (t - 1) (I + x^(a,b))
#   T~_i^{-1}    a > b:  x^(b,a)/t + (1/t - 1) (I + x^(a,b))
#                a < b:  x^(b,a) + (1 - 1/t) I
#
# and on a = b T~_i acts by t and its inverse by 1/t.  The T~ forms follow
# from the definition above; the inverse ones from T~^{-1} = (T~ - (t - 1))/t.

@lru_cache(maxsize=None)
def _image(kind, a, b):
    """Image of x_i^a x_{i+1}^b as ((a', b'), ((t_exp, c), ..)) pairs: the
    monomial x_i^a' x_{i+1}^b' times sum c t^t_exp."""
    if a == b:
        return (((a, b), ((1 if kind == "T" else -1, 1),)),)
    hi, lo = max(a, b), min(a, b)
    inner = [(hi - j, lo + j) for j in range(1, hi - lo)]
    t_min_1, one_min_t = ((1, 1), (0, -1)), ((0, 1), (1, -1))
    inv_min_1, one_min_inv = ((-1, 1), (0, -1)), ((0, 1), (-1, -1))
    if kind == "T" and a > b:
        out = [((b, a), ((0, 1),))] + [(e, one_min_t) for e in inner]
    elif kind == "T":
        out = [((b, a), ((1, 1),))] + [(e, t_min_1) for e in inner + [(a, b)]]
    elif a > b:
        out = [((b, a), ((-1, 1),))] + [(e, inv_min_1) for e in inner + [(a, b)]]
    else:
        out = [((b, a), ((0, 1),))] + [(e, one_min_inv) for e in inner]
    return tuple(out)


class XNum:
    """A polynomial in x_1..x_n over Z[q^+-1, t^+-1]: terms maps exponent
    tuples to nonzero Laurent dicts, shared between values and never
    mutated.  It stands for D f, an XPoly f cleared by a nonzero D that
    the caller keeps.  The Hecke operators act on its packed form, made
    by pack."""

    __slots__ = ("n", "terms")

    def __init__(self, n, terms):
        self.n = n
        self.terms = terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (isinstance(other, XNum) and self.n == other.n
                and self.terms == other.terms)

    def symmetrise(self):
        """The Hecke symmetriser: the sum over w in S_n of T~_w applied to
        this value.  S_{k+1} = S_k {1, s_k, s_k s_{k-1}, .., s_k .. s_1}, so
        the sum is C_1 C_2 .. C_{n-1} with C_{n-1} applied first, and each
        C_k = 1 + T~_k (1 + T~_{k-1} (.. (1 + T~_1))) takes k steps.  Each
        step adds a value of no larger bound to a generator image, so the
        n(n-1)/2 of them fit pack's count; the sum is unpacked once."""
        steps = self.n * (self.n - 1) // 2
        out, = pack((self,), steps, t_up=steps)
        for k in range(self.n - 1, 0, -1):
            acc = out
            for j in range(1, k + 1):
                acc = out + acc.demazure_T(j)
            out = acc
        return out.unpack()


#### the packed kernel
#
# Kronecker substitution (Harvey, J. Symbolic Comput. 44, 2009): under a
# Layout (K, W, q0, t0, g) the coefficient sum c_ab q^a t^b becomes the one
# integer sum c_ab 2^(K ((a - q0) W + b - t0)), with balanced digits, and an
# XPack maps each exponent tuple of x to such an integer.  Then t^s and q^a
# are shifts by K s and K W a bits, T~_i and its inverse are a few shifted
# adds per monomial of x (from the closed forms of _image), the shift is a
# shift per monomial, and equality is int equality.  All of it runs in C.
#
# The map is a ring embedding as long as every digit lies below 2^(K-1) in
# absolute value and every exponent stays in its window, t in t0..t0+W-1
# and q >= q0; then a right shift is exact.  A digit is bounded by the l1
# norm of its coefficient, and each XPack carries an l1 bound on every
# coefficient and a box around its exponents, which each operator carries
# forward: a product with a Laurent dict m multiplies the bound by the l1
# norm of m, a sum adds the bounds, and a generator step multiplies it by
# g = 2 s + 1.  That holds because the step keeps the degree s' = e_i +
# e_(i+1) and sends each of the s' + 1 monomials of that degree to a given
# one with a coefficient of l1 norm 1 (the swap) or 2 (the rest), and s' is
# at most s, the largest sum of two exponents of one monomial, which no
# operator raises.  pack fits K to the bound that the caller's declared
# steps reach and W, q0, t0 to the exponents plus the declared t shifts;
# an operator whose bound reaches 2^(K-1), or whose box leaves the window,
# raises InternalError.  Values are unpacked only where a caller needs the
# Laurent dicts back: hecke._move before its trial divisions, and
# XNum.symmetrise at its end.

class Layout:
    """Digit width K in bits, window width W in t, offsets q0 and t0, and
    g, the l1 growth of one generator step.  Values meet only when they
    come from one pack call, which makes one Layout."""

    __slots__ = ("K", "W", "q0", "t0", "g")

    def __init__(self, K, W, q0, t0, g):
        self.K, self.W, self.q0, self.t0, self.g = K, W, q0, t0, g

    def __repr__(self):
        return (f"Layout(K={self.K}, W={self.W}, q0={self.q0}, t0={self.t0}, "
                f"g={self.g})")


def _measure(N):
    """(l1, s, qlo, tlo, thi) of the XNum N: the largest l1 norm of a
    coefficient, the largest sum of two exponents of one monomial of x,
    the least q exponent and the least and greatest t exponents of its
    coefficients (infinite when N is zero)."""
    if not N.terms:
        return 0, 0, inf, inf, -inf
    cs = N.terms.values()
    qs, ts = zip(*chain.from_iterable(cs))
    return (max([sum(map(abs, c.values())) for c in cs]),
            max([sum(sorted(e)[-2:]) for e in N.terms]),
            min(qs), min(ts), max(ts))


def pack(nums, steps=0, mult=1, t_down=0, t_up=0):
    """The XNums nums as XPack values over one Layout, fitted to them and
    to what the caller declares it does with them: along any chain at
    most `steps` generator steps, each of which may be followed by adding
    a value of no larger bound, so that the bound grows by at most g + 1
    per step; products with Laurent dicts whose l1 norms multiply to at
    most mult; and t exponents lowered by at most t_down and raised by at
    most t_up in total."""
    stats = [_measure(N) for N in nums]
    l1s, ss, qlos, tlos, this = zip(*stats)
    l1, s, qlo, tlo, thi = max(l1s), max(ss), min(qlos), min(tlos), max(this)
    if qlo == inf:
        qlo = tlo = thi = 0
    g = 2 * s + 1
    # one sign bit above the largest l1 bound, in whole 32-bit words
    bits = (l1 * (g + 1) ** steps * mult).bit_length() + 1
    lay = Layout(-(-bits // 32) * 32, thi - tlo + t_down + t_up + 1,
                 qlo, tlo - t_down, g)
    out = []
    for N, (l1, _, qlo, tlo, thi) in zip(nums, stats):
        _fit(lay, l1, qlo, tlo, thi)   # before a digit is written to a word
        out.append(XPack(N.n, lay, {e: _pack_coeff(c, lay)
                                    for e, c in N.terms.items()},
                         l1, qlo, tlo, thi))
    return out


def _fit(lay, bound, qlo, tlo, thi):
    """Raise InternalError unless values with this l1 bound and these
    exponent bounds pack exactly under lay."""
    if bound.bit_length() >= lay.K:
        raise InternalError(f"l1 bound {bound} does not fit {lay.K}-bit "
                            f"digits")
    if qlo < lay.q0 or tlo < lay.t0 or thi >= lay.t0 + lay.W:
        raise InternalError(f"exponents q >= {qlo}, t in {tlo}..{thi} "
                            f"leave the window of {lay}")


def _pack_coeff(c, lay):
    """The Laurent dict c as one integer under lay.  Its digits go into
    K-bit words in two's complement from its lowest position up (q major,
    so min(c) has it); flipping each word's sign bit then makes the word
    the digit plus 2^(K-1), and subtracting the bias leaves the balanced
    sum."""
    K, kb, W = lay.K, lay.K // 8, lay.W
    lo, hi = min(c), max(c)
    low = lo[0] * W + lo[1]
    count = 1 << (hi[0] * W + hi[1] - low).bit_length()
    buf = bytearray(count * kb)
    code = _WORDS.get(K)
    if code:
        words = memoryview(buf).cast(code)
        for (qe, te), v in c.items():
            words[qe * W + te - low] = v
    else:
        for (qe, te), v in c.items():
            o = (qe * W + te - low) * kb
            buf[o:o + kb] = v.to_bytes(kb, "little", signed=True)
    b = _bias(K, count)
    return ((int.from_bytes(buf, "little") ^ b) - b) << \
        K * (low - lay.q0 * W - lay.t0)


def _unpack_coeff(c, lay, keys):
    """The Laurent dict packed as the nonzero integer c under lay, keys[p]
    being the exponent pair at position p.  Adding 2^(K-1) to every digit
    from the lowest nonzero one up leaves no borrow, and flipping each
    word's sign bit back leaves the digit in two's complement."""
    K, kb = lay.K, lay.K // 8
    low = ((c & -c).bit_length() - 1) // K
    c >>= K * low
    count = c.bit_length() // K + 1
    top = 1 << (count - 1).bit_length()
    b = _bias(K, top) >> K * (top - count)
    raw = ((c + b) ^ b).to_bytes(count * kb, "little")
    code = _WORDS.get(K)
    if code:
        words = memoryview(raw).cast(code).tolist()
    else:
        words = [int.from_bytes(raw[o:o + kb], "little", signed=True)
                 for o in range(0, len(raw), kb)]
    return dict(zip(compress(keys[low:low + count], words),
                    filter(None, words)))


# signed machine words of K bits, read and written in place
_WORDS = {32: "i", 64: "q"} if sys.byteorder == "little" else {}


@lru_cache(maxsize=64)
def _bias(K, count):
    """2^(K-1) in each of count K-bit digits; count is a power of two."""
    return int.from_bytes((1 << (K - 1)).to_bytes(K // 8, "little") * count,
                          "little")


class XPack:
    """An XNum packed under a Layout: terms maps exponent tuples to nonzero
    packed integers.  bound is an l1 bound on every coefficient, qlo a
    lower bound on its q exponents and tlo, thi bounds on its t exponents;
    making a value whose bound or exponents do not fit lay raises
    InternalError.  Values that are added or compared share one layout
    object, and no value is mutated."""

    __slots__ = ("n", "lay", "terms", "bound", "qlo", "tlo", "thi")

    def __init__(self, n, lay, terms, bound, qlo, tlo, thi):
        _fit(lay, bound, qlo, tlo, thi)
        self.n, self.lay, self.terms = n, lay, terms
        self.bound, self.qlo, self.tlo, self.thi = bound, qlo, tlo, thi

    def _meet(self, other):
        if self.n != other.n:
            raise IndexOutOfRange(f"mixed variable counts {self.n} and {other.n}")
        if self.lay is not other.lay:
            raise InternalError(f"values packed under {self.lay} and "
                                f"{other.lay} meet")

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, XPack):
            return NotImplemented
        self._meet(other)
        return self.terms == other.terms

    def __add__(self, other):
        self._meet(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            v = out.get(e, 0) + c
            if v:
                out[e] = v
            else:
                del out[e]
        return XPack(self.n, self.lay, out, self.bound + other.bound,
                     min(self.qlo, other.qlo), min(self.tlo, other.tlo),
                     max(self.thi, other.thi))

    def times(self, m):
        """Every coefficient times the Laurent dict m."""
        K, W = self.lay.K, self.lay.W
        shifts = [(K * (qe * W + te), v) for (qe, te), v in m.items()]
        out = {}
        for e, c in self.terms.items():
            p = None
            for s, v in shifts:
                x = c << s if s >= 0 else c >> -s
                if v != 1:
                    x = -x if v == -1 else v * x
                p = x if p is None else p + x
            if p:
                out[e] = p
        qs, ts = zip(*m)
        return XPack(self.n, self.lay, out,
                     self.bound * sum(map(abs, m.values())), self.qlo + min(qs),
                     self.tlo + min(ts), self.thi + max(ts))

    def _apply(self, kind, i):
        if not 1 <= i <= self.n - 1:
            raise IndexOutOfRange(f"s_{i} out of range for n={self.n}")
        K, k = self.lay.K, i - 1
        out = {}
        for e, c in self.terms.items():
            head, tail = e[:k], e[k + 2:]
            last = None
            for (a, b), row in _image(kind, e[k], e[k + 1]):
                if row is not last:
                    # a row is sum m t^s with each m = +-1
                    last, v = row, None
                    for s, m in row:
                        x = c << K * s if s >= 0 else c >> -K * s
                        if v is None:
                            v = x if m > 0 else -x
                        else:
                            v = v + x if m > 0 else v - x
                key = head + (a, b) + tail
                acc = out.get(key)
                out[key] = v if acc is None else acc + v
        up = kind == "T"
        return XPack(self.n, self.lay, {e: c for e, c in out.items() if c},
                     self.bound * self.lay.g, self.qlo, self.tlo - (not up),
                     self.thi + up)

    def demazure_T(self, i):
        return self._apply("T", i)

    def demazure_T_inv(self, i):
        return self._apply("Tinv", i)

    def shift_omega(self):
        """Rotate exponents and pay q^(e_1)."""
        KW = self.lay.K * self.lay.W
        return XPack(self.n, self.lay,
                     {e[1:] + (e[0],): c << KW * e[0]
                      for e, c in self.terms.items()},
                     self.bound, self.qlo, self.tlo, self.thi)

    def unpack(self):
        """The XNum this value packs."""
        lay = self.lay
        # a coefficient of b bits has no digit past position b // K
        size = max(map(int.bit_length, self.terms.values()), default=0) \
            // lay.K + 1
        keys = tuple(islice(product(range(lay.q0, lay.q0 + size // lay.W + 1),
                                    range(lay.t0, lay.t0 + lay.W)), size))
        return XNum(self.n, {e: _unpack_coeff(c, lay, keys)
                             for e, c in self.terms.items()})
