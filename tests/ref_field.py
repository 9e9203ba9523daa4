"""The reference field Q(q, t) of the tests: Rat is a QTRat with the field
operations, reduced by the PRS gcd of prs_gcd, so it takes any denominator,
such as the 2 + q of Rat(1) / (2 + q), which the package's QTRat rejects.
A Rat equals, and hashes as, the QTRat of the same value."""

from macprod.errors import DivisionByZero
from macprod.qtfield import (_ONE_D, QTRat, _as_dict, _canonical,
                             _dict_divexact, _dict_iadd, _dict_mul, _dict_neg)
from prs_gcd import dict_gcd


def _cancel(a, b):
    """(a / g, b / g, g) for g = gcd(a, b)."""
    g = dict_gcd(a, b)
    if g == _ONE_D:
        return a, b, g
    return _dict_divexact(a, g), _dict_divexact(b, g), g


def _coprime(num, den):
    """The Rat num / den of a coprime pair."""
    return Rat._raw(*_canonical(num, den, coprime=True))


def _binary(op):
    """op with its other operand as a Rat, or NotImplemented for a type
    that is no value, so that a matrix of Rats takes the reflected op."""
    def run(self, other):
        if not isinstance(other, (int, QTRat)):
            return NotImplemented
        return op(self, Rat.of(other))
    return run


class Rat(QTRat):
    """A QTRat with + - * / ** and inverse().  The operands are reduced,
    so each operation takes its gcds on their parts."""

    __slots__ = ()

    def __init__(self, num, den=1):
        num, den = _as_dict(num), _as_dict(den)
        if not den:
            raise DivisionByZero("zero denominator")
        self.num, self.den = _canonical(*_cancel(num, den)[:2], coprime=True)

    @classmethod
    def of(cls, x):
        """x, an int or any QTRat, as a Rat."""
        if isinstance(x, QTRat):
            return x if isinstance(x, Rat) else cls._raw(x.num, x.den)
        return cls(x)

    @_binary
    def __add__(self, other):
        # b = g b0 and d = g d0: the sum e / (g b0 d0) can only cancel by
        # a factor of g, since e is prime to b0 and to d0
        b0, d0, g = _cancel(self.den, other.den)
        e = _dict_iadd(_dict_mul(self.num, d0), _dict_mul(other.num, b0))
        e, g, _ = _cancel(e, g)
        return _coprime(e, _dict_mul(_dict_mul(b0, d0), g))

    __radd__ = __add__

    def __neg__(self):
        return Rat._raw(_dict_neg(self.num), self.den)

    @_binary
    def __sub__(self, other):
        return self + -other

    @_binary
    def __rsub__(self, other):
        return -self + other

    @_binary
    def __mul__(self, other):
        a, d, _ = _cancel(self.num, other.den)
        c, b, _ = _cancel(other.num, self.den)
        return _coprime(_dict_mul(a, c), _dict_mul(b, d))

    __rmul__ = __mul__

    def inverse(self):
        if not self.num:
            raise DivisionByZero("inverse of zero")
        return _coprime(self.den, self.num)

    @_binary
    def __truediv__(self, other):
        return self * other.inverse()

    @_binary
    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n):
        base = self if n >= 0 else self.inverse()
        out = Rat(1)
        for _ in range(abs(n)):
            out = out * base
        return out


q = Rat.monomial(qe=1)
t = Rat.monomial(te=1)
