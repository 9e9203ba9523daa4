"""Polynomials in x_1..x_n over Q(q, t), with the rescaled Hecke action.

The generator used everywhere is the integral form T~_i = t^(1/2) T_i:

    T~_i f = t f - (t x_i - x_{i+1}) (f - s_i f)/(x_i - x_{i+1}),

which satisfies (T~_i - t)(T~_i + 1) = 0 and the braid relations, and the
cyclic shift (w f)(x_1..x_n) = f(q x_n, x_1, .., x_{n-1}).

T~_i has coefficients in Z[t], its inverse in Z[t, 1/t], and the shift
only multiplies by powers of q.  So the operators are defined only on an
XNum, a polynomial in x with coefficients in Z[q^+-1, t^+-1], where each
operator is exact ring arithmetic applied monomial by monomial from
closed forms.  An XPoly f reaches them as its numerator D f, made by
hecke._integral, which finds D among the factors of the
Haglund-Haiman-Loehr denominator and takes no gcd.  An XNum does not know
its D: the caller keeps D, as a factor multiset, and the way back to an
XPoly is XPoly.from_factored, by trial division over those factors.
XNum.symmetrise applies the sum of T~_w over the whole symmetric group in
n(n-1)/2 generator steps; matprod.compute_P builds P from it.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import IndexOutOfRange
from .qtfield import (_ONE_D, QTRat, _dict_iadd, _dict_mul,
                      specialize as _spec_rat, zero)

_ONE = QTRat(1)


class XPoly:
    """Sparse polynomial: dict mapping exponent tuples to nonzero QTRat."""

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        self.n = n
        self.terms = {}
        if terms:
            for e, c in terms.items():
                if c:
                    self.terms[tuple(e)] = c

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
    def one(cls, n):
        return cls._raw(n, {(0,) * n: _ONE})

    @classmethod
    def monomial(cls, exps, coef=None):
        exps = tuple(exps)
        if any(e < 0 for e in exps):
            raise IndexOutOfRange(f"negative exponent in {exps}")
        c = _ONE if coef is None else (QTRat(coef) if isinstance(coef, int) else coef)
        return cls._raw(len(exps), {exps: c} if c else {})

    @classmethod
    def variable(cls, i, n):
        if not 1 <= i <= n:
            raise IndexOutOfRange(f"x_{i} out of range for n={n}")
        e = [0] * n
        e[i - 1] = 1
        return cls._raw(n, {tuple(e): _ONE})

    def _check(self, other):
        if self.n != other.n:
            raise IndexOutOfRange(f"mixed variable counts {self.n} and {other.n}")

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (isinstance(other, XPoly) and self.n == other.n
                and self.terms == other.terms)

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            nv = out.get(e)
            nv = c if nv is None else nv + c
            if nv:
                out[e] = nv
            else:
                out.pop(e, None)
        return XPoly._raw(self.n, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return XPoly._raw(self.n, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (QTRat, int)):
            return self.scale(other)
        self._check(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                k = tuple(x + y for x, y in zip(ea, eb))
                v = ca * cb
                nv = out.get(k)
                nv = v if nv is None else nv + v
                if nv:
                    out[k] = nv
                else:
                    del out[k]
        return XPoly._raw(self.n, out)

    __rmul__ = __mul__

    def scale(self, c):
        if isinstance(c, int):
            c = QTRat(c)
        if not c:
            return XPoly._raw(self.n, {})
        return XPoly._raw(self.n, {e: v * c for e, v in self.terms.items()})

    def coeff_of(self, exps):
        return self.terms.get(tuple(exps), zero())

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

    def apply_perm(self, w):
        """Relabel variables by the 1-based permutation: x_i -> x_{w(i)}."""
        if sorted(w) != list(range(1, self.n + 1)):
            raise IndexOutOfRange(f"{w} is not a permutation of 1..{self.n}")
        out = {}
        for e, c in self.terms.items():
            f = [0] * self.n
            for i, ei in enumerate(e):
                f[w[i] - 1] = ei
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

    def eval_ones(self):
        return sum(self.terms.values(), zero())

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
        n = int(obj["n"])
        terms = {}
        for entry in obj["terms"]:
            e = tuple(int(v) for v in entry["exp"])
            if len(e) != n:
                raise IndexOutOfRange("exponent length != n")
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
    the caller keeps, so values compare and add as plain polynomials."""

    __slots__ = ("n", "terms")

    def __init__(self, n, terms):
        self.n = n
        self.terms = terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (isinstance(other, XNum) and self.n == other.n
                and self.terms == other.terms)

    def __add__(self, other):
        if self.n != other.n:
            raise IndexOutOfRange(f"mixed variable counts {self.n} and {other.n}")
        out = {e: dict(c) for e, c in self.terms.items()}
        for e, c in other.terms.items():
            _dict_iadd(out.setdefault(e, {}), c)
        return XNum(self.n, {e: c for e, c in out.items() if c})

    def times(self, m):
        """Every coefficient times the Laurent dict m."""
        out = {}
        for e, c in self.terms.items():
            p = _dict_mul(c, m)
            if p:
                out[e] = p
        return XNum(self.n, out)

    def _apply(self, kind, i):
        if not 1 <= i <= self.n - 1:
            raise IndexOutOfRange(f"s_{i} out of range for n={self.n}")
        k = i - 1
        out = {}
        for e, c in self.terms.items():
            head, tail = e[:k], e[k + 2:]
            for (a, b), row in _image(kind, e[k], e[k + 1]):
                key = head + (a, b) + tail
                acc = out.get(key)
                if acc is None:
                    acc = out[key] = {}
                for s, m in row:
                    for (qe, te), v in c.items():
                        kk = (qe, te + s)
                        nv = acc.get(kk, 0) + m * v
                        if nv:
                            acc[kk] = nv
                        else:
                            del acc[kk]
        return XNum(self.n, {e: c for e, c in out.items() if c})

    def demazure_T(self, i):
        return self._apply("T", i)

    def demazure_T_inv(self, i):
        return self._apply("Tinv", i)

    def symmetrise(self):
        """The Hecke symmetriser: the sum over w in S_n of T~_w applied to
        this value.  S_{k+1} = S_k {1, s_k, s_k s_{k-1}, .., s_k .. s_1}, so
        the sum is C_1 C_2 .. C_{n-1} with C_{n-1} applied first, and each
        C_k = 1 + T~_k (1 + T~_{k-1} (.. (1 + T~_1))) takes k steps."""
        out = self
        for k in range(self.n - 1, 0, -1):
            acc = out
            for j in range(1, k + 1):
                acc = out + acc.demazure_T(j)
            out = acc
        return out

    def shift_omega(self):
        """Rotate exponents and pay q^(e_1)."""
        out = {}
        for e, c in self.terms.items():
            out[e[1:] + (e[0],)] = \
                {(qe + e[0], te): v for (qe, te), v in c.items()} if e[0] else c
        return XNum(self.n, out)
