"""Exact arithmetic in the coefficient field Q(q, t).

Polynomials in q, t with integer coefficients, and Laurent polynomials
over Z[q^+-1, t^+-1], are plain sparse dicts mapping (q_exp, t_exp) ->
nonzero int; a dict held by a value is never mutated.  A QTRat keeps two
such dicts, num and den, in canonical form: polynomials with gcd(num,
den) = 1 and the denominator's leading coefficient positive under the
lex order on (q_exp, t_exp), so equal values are structurally equal and
JSON output is canonical.

The formal half-integer parameter that shifts t-exponents by multiples of
a symbol u never appears here: a power t^(a + b*u) is stored as the
monomial q^b t^a, i.e. t^u is identified with q.

The field is the one the package needs: up to a monomial and an integer,
every denominator is univariate or a product of binomials 1 - q^A t^B,
whose cyclotomic factors Phi_d(q^a t^b) _split finds by trial division.
_dict_gcd cancels by a univariate gcd or by trial division against those
factors, and raises NonCyclotomicDenominator on any other denominator.
A product or an inverse forms its denominator without a gcd, and checks
it by _den_product or _gated instead.
_canonical makes the reduced pair from a numerator and a denominator;
QTRat(num, den), QTRat.monomial and Factored.reduce all end in it.  QTRat
arithmetic (oracles, specialization) keeps its values reduced with gcds
of the operands' parts.  The configuration sums behind f_lam and P_lam,
the traces, the eigen oracle and the Hecke layer use Factored values (the
last section), whose factors are known in advance: sums run over the lcm
of the factor multisets, and one trial division per listed factor
reduces them, with no gcd.  The lattice exchange relations never leave
Z[q^+-1, t^+-1] and use the Laurent dicts alone (_dict_mul, _dict_iadd).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd as _igcd
from math import lcm as _lcm
from types import MappingProxyType

from .errors import (DivisionByZero, InternalError, NonCyclotomicDenominator,
                     SpecializationPole)

#### dense univariate helpers (lists of ints, index = degree)

def _trim(u):
    while u and u[-1] == 0:
        u.pop()
    return u


def _uni_content(u):
    g = 0
    for c in u:
        g = _igcd(g, c)
        if g == 1:
            return 1
    return g


def _uni_prem(u, v):
    # pseudo-remainder of u by v, up to powers of lc(v)
    u = u[:]
    dv = len(v) - 1
    lv = v[-1]
    while u and len(u) - 1 >= dv:
        d = len(u) - 1 - dv
        lu = u[-1]
        u = [lv * c for c in u]
        for i, cv in enumerate(v):
            u[i + d] -= lu * cv
        _trim(u)
    return u


def _uni_gcd(u, v):
    """gcd in Z[t] of dense lists, positive leading coefficient."""
    u, v = _trim(u[:]), _trim(v[:])
    if not u:
        u, v = v, u
    if not v:
        # gcd(p, 0) is p itself, sign-normalized
        if not u:
            return []
        return [-x for x in u] if u[-1] < 0 else u
    cu, cv = _uni_content(u), _uni_content(v)
    c = _igcd(cu, cv)
    u = [x // cu for x in u]
    v = [x // cv for x in v]
    while v:
        r = _uni_prem(u, v)
        if r:
            rc = _uni_content(r)
            r = [x // rc for x in r] if rc > 1 else r
        u, v = v, r
    if u[-1] < 0:
        u = [-x for x in u]
    return [c * x for x in u] if c > 1 else u


#### sparse dict layer

_ONE_D = {(0, 0): 1}


def _dict_mul(a: dict, b: dict) -> dict:
    """Product of two Laurent dicts, as a new dict."""
    if len(a) > len(b):
        a, b = b, a
    out = {}
    for (qa, ta), va in a.items():
        for (qb, tb), vb in b.items():
            k = (qa + qb, ta + tb)
            nv = out.get(k, 0) + va * vb
            if nv:
                out[k] = nv
            else:
                del out[k]
    return out


def _dict_iadd(acc: dict, b: dict) -> dict:
    """acc += b in place."""
    for k, v in b.items():
        nv = acc.get(k, 0) + v
        if nv:
            acc[k] = nv
        else:
            del acc[k]
    return acc


def _dict_neg(a: dict) -> dict:
    return {k: -v for k, v in a.items()}


def _dict_gcd(a: dict, b: dict) -> dict:
    """gcd in Z[q, t], leading (lex) coefficient positive.

    Every caller passes a denominator, or a divisor of one, as b.  Past
    the monomial and integer content, _gcd_by finds the gcd through b, so
    NonCyclotomicDenominator is raised exactly when b lies outside the
    field, whatever a is."""
    if not a or not b:
        out = a or b
        if not out:
            return {}
        return _dict_neg(out) if out[max(out)] < 0 else dict(out)
    amq = min(k[0] for k in a)
    amt = min(k[1] for k in a)
    bmq = min(k[0] for k in b)
    bmt = min(k[1] for k in b)
    gq, gt = min(amq, bmq), min(amt, bmt)
    ca = _uni_content(list(a.values()))
    cb = _uni_content(list(b.values()))
    c = _igcd(ca, cb)
    if len(b) == 1:
        return {(gq, gt): c}
    a = {(i - amq, j - amt): v // ca for (i, j), v in a.items()}
    b = {(i - bmq, j - bmt): v // cb for (i, j), v in b.items()}
    g = _gcd_by(b, a)
    if g is None:
        _outside(b)
    out = {(gq + i, gt + j): c * v for (i, j), v in g.items()}
    return _dict_neg(out) if out[max(out)] < 0 else out


def _gcd_by(u, v):
    """gcd(u, v) of primitive polynomials with no monomial content and u
    nonconstant, found through u: the univariate gcd of a u in one
    variable with v's coefficients in the other, or the product of u's
    factors Phi_d(q^a t^b) (_split) that trial division finds in v, else
    None."""
    for axis in (0, 1):
        if all(k[1 - axis] == 0 for k in u):
            w = []
            for col in _columns(v, axis) + _columns(u, axis):
                w = _uni_gcd(w, col)
                if w == [1]:
                    break
            return {(k, 0) if axis == 0 else (0, k): x
                    for k, x in enumerate(w) if x}
    factors = _split(u)
    if factors is None:
        return None
    found = []
    for f, m in factors:
        v, k = divide_out(v, f, m)
        found.append((f, k))
    return factor_product(found)


def _variables(p):
    """(whether q, whether t occurs in p) up to monomial content."""
    q0, t0 = next(iter(p))
    return any(k[0] != q0 for k in p), any(k[1] != t0 for k in p)


def _gated(p):
    """The polynomial p, or NonCyclotomicDenominator when it lies outside
    the field: it is not univariate up to a monomial, nor +-c times a
    product of factors Phi_d(q^a t^b) (_split)."""
    if all(_variables(p)):
        q0, t0 = min(k[0] for k in p), min(k[1] for k in p)
        if _split({(i - q0, j - t0): v for (i, j), v in p.items()}) is None:
            _outside(p)
    return p


def _outside(p):
    raise NonCyclotomicDenominator(
        f"denominator {_poly_format(p)} is neither univariate nor a "
        f"product of cyclotomic factors Phi_d(q^a t^b)")


def _den_product(b, d):
    """b d for denominators b and d in the field.  Factors of one shape
    (in q alone, in t alone, in both) or a constant factor keep it in the
    field, since a bivariate denominator there is a product of factors
    Phi_d(q^a t^b); a product of two shapes goes through _gated."""
    vb, vd = _variables(b), _variables(d)
    bd = _dict_mul(b, d)
    return _gated(bd) if vb != vd and any(vb) and any(vd) else bd


def _columns(a, axis):
    """The coefficients of a in variable number axis (0 for q, 1 for t),
    as dense lists."""
    cols = {}
    for k, x in a.items():
        cols.setdefault(k[1 - axis], {})[k[axis]] = x
    return [[c.get(e, 0) for e in range(max(c) + 1)] for c in cols.values()]


def _dict_divexact(a: dict, b: dict) -> dict:
    if not b:
        raise DivisionByZero("polynomial division by zero")
    if b == _ONE_D:
        return dict(a)
    work = dict(a)
    quot = {}
    lb = max(b)
    lcb = b[lb]
    while work:
        la = max(work)
        ca = work[la]
        eq = (la[0] - lb[0], la[1] - lb[1])
        if eq[0] < 0 or eq[1] < 0 or ca % lcb:
            raise ArithmeticError("inexact polynomial division")
        cq = ca // lcb
        quot[eq] = cq
        for eb, cb in b.items():
            k = (eq[0] + eb[0], eq[1] + eb[1])
            nv = work.get(k, 0) - cq * cb
            if nv:
                work[k] = nv
            else:
                work.pop(k, None)
    return quot


def _canonical(num: dict, den: dict, coprime=False):
    """The canonical reduced pair (num, den) of Laurent dicts, den nonzero.

    Both sides lose their monomial content and the monomial quotient goes
    to whichever side keeps nonnegative exponents; a gcd cancels the rest
    unless the caller knows the pair to be coprime; and the lex-leading
    coefficient of den is made positive."""
    if not num:
        return {}, dict(_ONE_D)
    nq = min(k[0] for k in num)
    nt = min(k[1] for k in num)
    dq = min(k[0] for k in den)
    dt = min(k[1] for k in den)
    sq, st = nq - dq, nt - dt
    nq -= max(sq, 0)
    nt -= max(st, 0)
    dq -= max(-sq, 0)
    dt -= max(-st, 0)
    if nq or nt:
        num = {(a - nq, b - nt): v for (a, b), v in num.items()}
    if dq or dt:
        den = {(a - dq, b - dt): v for (a, b), v in den.items()}
    if not coprime:
        g = _dict_gcd(num, den)
        if g != _ONE_D:
            num, den = _dict_divexact(num, g), _dict_divexact(den, g)
    if den[max(den)] < 0:
        num, den = _dict_neg(num), _dict_neg(den)
    return num, den


def _poly_format(d, latex=False):
    """d in descending lex order: -q*t^2 + 3 as text, -qt^{2} + 3 as latex."""
    if not d:
        return "0"
    pow_fmt, sep = ("%s^{%d}", "") if latex else ("%s^%d", "*")
    parts = []
    for qe, te in sorted(d, reverse=True):
        c = d[(qe, te)]
        body = sep.join(v if e == 1 else pow_fmt % (v, e)
                        for v, e in (("q", qe), ("t", te)) if e)
        if not body:
            parts.append(str(c))
        elif c == 1:
            parts.append(body)
        elif c == -1:
            parts.append("-" + body)
        else:
            parts.append(f"{c}{sep}{body}")
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


def _as_dict(p):
    """An int or a {(q_exp, t_exp): int} dict as a new dict of its nonzero
    terms."""
    if isinstance(p, int):
        return {(0, 0): p} if p else {}
    return {k: v for k, v in p.items() if v}


class QTRat:
    """Reduced rational function num/den in Q(q, t); num and den are
    {(q_exp, t_exp): int} dicts, treated as frozen."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        num, den = _as_dict(num), _as_dict(den)
        if not den:
            raise DivisionByZero("zero denominator")
        self.num, self.den = _canonical(num, den)

    @classmethod
    def _raw(cls, num, den):
        r = object.__new__(cls)
        r.num = num
        r.den = den
        return r

    @classmethod
    def monomial(cls, qe=0, te=0, c=1):
        """c * q^qe * t^te with exponents of either sign."""
        return cls._raw(*_canonical({(qe, te): c} if c else {}, _ONE_D,
                                    coprime=True))

    def is_zero(self):
        return not self.num

    def is_one(self):
        return self.num == _ONE_D and self.den == _ONE_D

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, int):
            other = QTRat(other)
        return (isinstance(other, QTRat) and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        return hash((frozenset(self.num.items()), frozenset(self.den.items())))

    def __add__(self, other):
        if isinstance(other, int):
            other = QTRat(other)
        elif not isinstance(other, QTRat):
            return NotImplemented
        if not self.num:
            return other
        if not other.num:
            return self
        b, d = self.den, other.den
        if b == d:
            e = _dict_iadd(dict(self.num), other.num)
            if not e:
                return _ZERO
            g = _dict_gcd(e, b)
            if g == _ONE_D:
                return QTRat._raw(e, b)
            return QTRat._raw(_dict_divexact(e, g), _dict_divexact(b, g))
        g = _dict_gcd(b, d)
        if g == _ONE_D:
            e = _dict_iadd(_dict_mul(self.num, d), _dict_mul(other.num, b))
            if not e:
                return _ZERO
            return QTRat._raw(e, _den_product(b, d))
        b0 = _dict_divexact(b, g)
        d0 = _dict_divexact(d, g)
        e = _dict_iadd(_dict_mul(self.num, d0), _dict_mul(other.num, b0))
        if not e:
            return _ZERO
        h = _dict_gcd(e, g)
        if h == _ONE_D:
            return QTRat._raw(e, _den_product(b0, d))
        return QTRat._raw(_dict_divexact(e, h),
                          _den_product(b0, _dict_divexact(d, h)))

    __radd__ = __add__

    def __neg__(self):
        return QTRat._raw(_dict_neg(self.num), self.den)

    def __sub__(self, other):
        if isinstance(other, int):
            other = QTRat(other)
        elif not isinstance(other, QTRat):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            other = QTRat(other)
        elif not isinstance(other, QTRat):
            return NotImplemented
        if not self.num or not other.num:
            return _ZERO
        a, b = self.num, self.den
        c, d = other.num, other.den
        g1 = _dict_gcd(a, d)
        g2 = _dict_gcd(c, b)
        if g1 != _ONE_D:
            a, d = _dict_divexact(a, g1), _dict_divexact(d, g1)
        if g2 != _ONE_D:
            c, b = _dict_divexact(c, g2), _dict_divexact(b, g2)
        return QTRat._raw(_dict_mul(a, c), _den_product(b, d))

    __rmul__ = __mul__

    def inverse(self):
        if not self.num:
            raise DivisionByZero("inverse of zero")
        num, den = self.den, _gated(self.num)
        if den[max(den)] < 0:
            num, den = _dict_neg(num), _dict_neg(den)
        return QTRat._raw(num, den)

    def __truediv__(self, other):
        if isinstance(other, int):
            other = QTRat(other)
        elif not isinstance(other, QTRat):
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n):
        if n == 0:
            return _ONE
        if n < 0:
            return self.inverse() ** (-n)
        out = _ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def as_fraction(self):
        """Value as a Fraction; requires a constant (no q, t left)."""
        if any(k != (0, 0) for k in (*self.num, *self.den)):
            raise ValueError("not a constant")
        return Fraction(self.num.get((0, 0), 0), self.den[(0, 0)])

    def to_obj(self):
        return {"num": sorted([qe, te, c] for (qe, te), c in self.num.items()),
                "den": sorted([qe, te, c] for (qe, te), c in self.den.items())}

    @classmethod
    def from_obj(cls, obj):
        """The canonical value of a {"num": triples, "den": triples} object:
        zero terms are dropped and the pair is reduced."""
        num = {(int(qe), int(te)): int(c) for qe, te, c in obj["num"]}
        den = {(int(qe), int(te)): int(c) for qe, te, c in obj["den"]}
        if not any(den.values()):
            raise DivisionByZero("zero denominator in serialized value")
        return cls(num, den)

    def __str__(self):
        ns = _poly_format(self.num)
        if self.den == _ONE_D:
            return ns
        ds = _poly_format(self.den)
        if len(self.num) > 1:
            ns = f"({ns})"
        if " " in ds or "*" in ds:
            ds = f"({ds})"
        return f"{ns}/{ds}"

    __repr__ = __str__

    def latex(self):
        ns = _poly_format(self.num, latex=True)
        if self.den == _ONE_D:
            return ns
        return r"\frac{%s}{%s}" % (ns, _poly_format(self.den, latex=True))


_ZERO = QTRat(0)
_ONE = QTRat(1)


def zero():
    return _ZERO


def one():
    return _ONE


def specialize(r, q=None, t=None):
    """Substitute q and/or t in a QTRat.

    Each of q, t may be None (leave alone), an int/Fraction (numeric),
    or the name of the other variable ("t" for q, "q" for t); both
    substitutions read the original exponents, so q="t", t="q" swaps the
    variables.  Raises SpecializationPole when the reduced denominator
    vanishes.  One QTRat(num, den) makes the result, with one gcd.
    """
    num, a = _spec_poly(r.num, q, t)
    den, b = _spec_poly(r.den, q, t)
    if not den:
        raise SpecializationPole("denominator vanishes under " + ", ".join(
            f"{v}={x}" for v, x in (("q", q), ("t", t)) if x is not None))
    return QTRat({k: v * b for k, v in num.items()},
                 {k: v * a for k, v in den.items()})


def _spec_poly(d, q, t):
    """The polynomial d under the substitution, as an integer dict p and
    the lcm m of its coefficients' denominators: d becomes p/m."""
    out = {}
    for (qe, te), c in d.items():
        nqe = nte = 0
        scale = Fraction(c)
        if q is None:
            nqe += qe
        elif q == "t":
            nte += qe
        else:
            scale *= Fraction(q) ** qe
        if t is None:
            nte += te
        elif t == "q":
            nqe += te
        else:
            scale *= Fraction(t) ** te
        out[nqe, nte] = out.get((nqe, nte), 0) + scale
    m = _lcm(*(v.denominator for v in out.values()))
    return {k: int(v * m) for k, v in out.items() if v}, m


#### factored denominators
#
# With g = gcd(A, B), A = g a and B = g b,
#
#     1 - q^A t^B = -prod_{d | g} Phi_d(q^a t^b),
#
# and Phi_d(q^a t^b) is irreducible in Z[q, t] (a unimodular change of
# monomials sends q^a t^b to a single variable).  A Factored value keeps its
# denominator as a multiset of these factors, and _split finds them in a
# polynomial, so both reduce by trial division alone.

@lru_cache(maxsize=None)
def _cyclotomic_coeffs(d):
    """Phi_d(x) as a tuple of ints, index = degree: x^d - 1 divided by
    each Phi_e(x) with e a proper divisor of d."""
    p = {(0, 0): -1, (d, 0): 1}
    for e in range(1, d):
        if d % e == 0:
            p = _divide_factor(p, (e, 1, 0))
    return tuple(p.get((k, 0), 0) for k in range(max(p)[0] + 1))


@lru_cache(maxsize=None)
def _cyclotomic(factor):
    """Phi_d(q^a t^b) for factor = (d, a, b), as a read-only sparse dict."""
    d, a, b = factor
    return MappingProxyType({(k * a, k * b): c
                             for k, c in enumerate(_cyclotomic_coeffs(d)) if c})


def binomial_factors(A, B):
    """1 - q^A t^B as (sign, factor multiset)."""
    if A < 0 or B < 0 or not (A or B):
        raise InternalError(f"binomial 1 - q^{A} t^{B} has no factored form")
    g = _igcd(A, B)
    a, b = A // g, B // g
    return -1, tuple(((d, a, b), 1) for d in range(1, g + 1) if g % d == 0)


def _divide_factor(num, factor):
    """num / Phi_d(q^a t^b) when exact, else None.

    A polynomial in x = q^a t^b maps each line (i, j) + k (a, b) into
    itself, so the division splits into univariate ones along the lines.
    Phi_1(x) = x - 1 and Phi_2(x) = x + 1 divide a line exactly when it
    vanishes at x = 1, resp. x = -1, so for d <= 2 a line whose sum, resp.
    alternating sum, is not 0 rejects num before any division.
    """
    d, a, b = factor
    step = a * a + b * b
    if d <= 2:
        sums = {}
        for (i, j), c in num.items():
            if d == 2 and (i * a + j * b) // step % 2:
                c = -c
            key = b * i - a * j
            sums[key] = sums.get(key, 0) + c
        if any(sums.values()):
            return None
    p = _cyclotomic_coeffs(d)
    dp = len(p) - 1
    lines = {}
    for (i, j), c in num.items():
        # b i - a j names the line; i a + j b grows by `step` along it
        lines.setdefault(b * i - a * j, []).append((i * a + j * b, i, j, c))
    out = {}
    for terms in lines.values():
        s0, i0, j0, _ = min(terms)
        u = [0] * ((max(terms)[0] - s0) // step + 1)
        if len(u) <= dp:
            return None
        for s, _, _, c in terms:
            u[(s - s0) // step] = c
        for k in range(len(u) - 1, dp - 1, -1):
            c = u[k]
            if c:
                out[(i0 + (k - dp) * a, j0 + (k - dp) * b)] = c
                for e, pc in enumerate(p):
                    u[k - dp + e] -= c * pc
        if any(u):
            return None
    return out


class Factored:
    """num / prod Phi_d(q^a t^b)^m with a Laurent numerator dict.

    den is a sorted tuple of ((d, a, b), m) pairs; m < 0 puts the factor
    into the numerator.  The value is not reduced until reduce().
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=()):
        self.num = num
        self.den = den

    @classmethod
    def binomial(cls, A, B, power):
        """(1 - q^A t^B)^power for an integer power of either sign."""
        sign, den = binomial_factors(A, B)
        return cls({(0, 0): sign ** abs(power)},
                   tuple((f, -power * m) for f, m in den))

    def __bool__(self):
        return bool(self.num)

    def __mul__(self, other):
        den = dict(self.den)
        for f, m in other.den:
            den[f] = den.get(f, 0) + m
        return Factored(_dict_mul(self.num, other.num),
                        tuple(sorted((f, m) for f, m in den.items() if m)))

    @staticmethod
    def sum(terms):
        """Sum over the lcm of the factor multisets."""
        by_den = {}
        for x in terms:
            _dict_iadd(by_den.setdefault(x.den, {}), x.num)
        lcm, nums = over_lcm([Factored(num, den)
                              for den, num in by_den.items() if num])
        total = {}
        for num in nums:
            _dict_iadd(total, num)
        if not total:
            return Factored({})
        return Factored(total, lcm)

    def cancel(self):
        """Divide out each listed factor that divides the numerator, up to
        its multiplicity; negative multiplicities are multiplied in."""
        num = self.num
        if not num:
            return Factored({})
        den = []
        for f, m in self.den:
            while m < 0:
                num = _dict_mul(num, _cyclotomic(f))
                m += 1
            num, k = divide_out(num, f, m)
            if m > k:
                den.append((f, m - k))
        return Factored(num, tuple(den))

    def reduce(self):
        """The canonical QTRat: after cancel() no listed factor divides the
        numerator, so _canonical needs no gcd.  The value owns its dicts:
        a numerator that comes through unchanged is copied."""
        x = self.cancel()
        num, den = _canonical(x.num, factor_product(x.den), coprime=True)
        return QTRat._raw(dict(num) if num is self.num else num, den)


def divide_out(num, factor, m):
    """(num / Phi^k, k) for Phi = factor and the largest k <= m such that
    Phi^k divides num."""
    k = 0
    while k < m:
        quo = _divide_factor(num, factor)
        if quo is None:
            break
        num = quo
        k += 1
    return num, k


@lru_cache(maxsize=None)
def _totient(d):
    return sum(1 for k in range(1, d + 1) if _igcd(k, d) == 1)


def _split(p):
    """The factors ((d, a, b), m) of p = +-prod Phi_d(q^a t^b)^m, a
    polynomial with no monomial content, or None when p is no such product.

    The Newton polygon of such a product is the sum of the segments from 0
    to phi(d) (a, b).  So p's terms on its lowest-slope ray from the
    constant term are the product of its factors in that direction, the
    farthest at (q^a t^b)^K with K the sum of their phi(d).  Each Phi_d
    with phi(d) <= K (so d <= 2 K^2) is trial-divided out of the ray, then
    out of p, and the quotient splits the same way."""
    factors = []
    while len(p) > 1:
        s = min((Fraction(j, i) for i, j in p if i), default=None)
        a, b = (0, 1) if s is None else (s.denominator, s.numerator)
        ray = {k: v for k, v in p.items() if k[0] * b == k[1] * a}
        K = max(i + j for i, j in ray) // (a + b)
        d = 0
        while K and d < 2 * K * K:
            d += 1
            phi = _totient(d)
            ray, m = divide_out(ray, (d, a, b), K // phi)
            if m:
                p, k = divide_out(p, (d, a, b), m)
                if k < m:
                    return None
                factors.append(((d, a, b), m))
                K -= m * phi
        if K:
            return None
    return factors


def factor_product(den):
    """prod Phi^m over a multiset of ((d, a, b), m) pairs, m >= 0, as a
    new Laurent dict."""
    out = dict(_ONE_D)
    for f, m in den:
        for _ in range(m):
            out = _dict_mul(out, _cyclotomic(f))
    return out


def over_lcm(values):
    """(lcm, nums) for Factored values: lcm is the max-multiplicity union
    of their factor multisets, as a sorted tuple, and nums[k] is the
    numerator of values[k] over it: multiplied by the factors its own
    multiset lacks.  Takes no gcd."""
    lcm = {}
    for x in values:
        for f, m in x.den:
            lcm[f] = max(lcm.get(f, 0), m)
    nums = []
    for x in values:
        num, have = x.num, dict(x.den)
        for f, m in lcm.items():
            for _ in range(m - have.get(f, 0)):
                num = _dict_mul(num, _cyclotomic(f))
        nums.append(num)
    return tuple(sorted((f, m) for f, m in lcm.items() if m)), nums
