"""Exact Gaussian-rational arithmetic for operator coefficients.

All symbolic coefficients in the engine are numbers a + b*i with rational
a, b. Floating point never enters the symbolic layer.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _num_den(x) -> tuple[int, int]:
    if isinstance(x, int):
        return x, 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise TypeError(f"GaussRat components must be int or Fraction, not {type(x).__name__}")


class GaussRat:
    """Complex rational (a + b*i)/d, held as one canonical integer triple.

    ``d > 0`` and ``gcd(a, b, d) == 1``, so equal numbers have equal triples
    and zero is ``(0, 0, 1)``. ``re`` and ``im`` are read-only ``Fraction``
    views of the real and imaginary parts.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        ra, rd = _num_den(re)
        ia, id_ = _num_den(im)
        # Both parts are in lowest terms, so over the lcm of their
        # denominators the triple is already canonical.
        d = lcm(rd, id_)
        self._a = ra * (d // rd)
        self._b = ia * (d // id_)
        self._d = d

    @classmethod
    def coerce(cls, value) -> "GaussRat":
        if isinstance(value, GaussRat):
            return value
        if isinstance(value, (int, Fraction)):
            return cls(value)
        raise TypeError(f"cannot coerce {type(value).__name__} to GaussRat")

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if type(other) is not GaussRat:
            if not isinstance(other, _COERCIBLE):
                return NotImplemented
            other = GaussRat.coerce(other)
        d1, d2 = self._d, other._d
        if d1 == d2:
            a, b, d = self._a + other._a, self._b + other._b, d1
            if d == 1:
                return _triple(a, b, 1)
        else:
            a = self._a * d2 + other._a * d1
            b = self._b * d2 + other._b * d1
            d = d1 * d2
        return _reduced(a, b, d)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not GaussRat:
            if not isinstance(other, _COERCIBLE):
                return NotImplemented
            other = GaussRat.coerce(other)
        d1, d2 = self._d, other._d
        return _reduced(self._a * d2 - other._a * d1, self._b * d2 - other._b * d1, d1 * d2)

    def __rsub__(self, other):
        if not isinstance(other, _COERCIBLE):
            return NotImplemented
        return GaussRat.coerce(other) - self

    def __mul__(self, other):
        if type(other) is not GaussRat:
            if not isinstance(other, _COERCIBLE):
                return NotImplemented
            other = GaussRat.coerce(other)
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        a, b, d = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self._d * other._d
        if d == 1:
            return _triple(a, b, 1)
        return _reduced(a, b, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not GaussRat:
            if not isinstance(other, _COERCIBLE):
                return NotImplemented
            other = GaussRat.coerce(other)
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        norm = a2 * a2 + b2 * b2
        if norm == 0:
            raise ZeroDivisionError("division by zero GaussRat")
        # (a1 + b1 i)/d1 * d2 (a2 - b2 i) / (a2^2 + b2^2)
        d2 = other._d
        return _reduced((a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2, self._d * norm)

    def __neg__(self):
        return _triple(-self._a, -self._b, self._d)

    def conjugate(self) -> "GaussRat":
        return _triple(self._a, -self._b, self._d)

    # -- predicates ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._a and not self._b

    def __bool__(self) -> bool:
        return not self.is_zero

    def __eq__(self, other):
        if isinstance(other, GaussRat):
            return self._a == other._a and self._b == other._b and self._d == other._d
        if isinstance(other, int):
            return not self._b and self._d == 1 and self._a == other
        if isinstance(other, Fraction):
            return (not self._b and self._a == other.numerator
                    and self._d == other.denominator)
        return NotImplemented

    def __hash__(self):
        if not self._b:
            return hash(self.re)
        return hash((self.re, self.im))

    # -- formatting ---------------------------------------------------------

    def __repr__(self):
        return f"GaussRat({self.re!r}, {self.im!r})"

    def __str__(self):
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            return _imag_str(im)
        sign = "+" if im > 0 else "-"
        return f"{re}{sign}{_imag_str(abs(im))}"


_COERCIBLE = (int, Fraction)
_new = object.__new__


def _triple(a: int, b: int, d: int) -> GaussRat:
    """The GaussRat (a + b*i)/d of a triple that is already canonical."""
    x = _new(GaussRat)
    x._a, x._b, x._d = a, b, d
    return x


def _reduced(a: int, b: int, d: int) -> GaussRat:
    """The GaussRat (a + b*i)/d for any d > 0, divided by gcd(a, b, d)."""
    g = gcd(a, b, d)
    x = _new(GaussRat)
    if g == 1:
        x._a, x._b, x._d = a, b, d
    else:
        x._a, x._b, x._d = a // g, b // g, d // g
    return x


def _imag_str(b: Fraction) -> str:
    sign = "-" if b < 0 else ""
    mag = abs(b)
    num = "i" if mag.numerator == 1 else f"{mag.numerator}i"
    if mag.denominator == 1:
        return f"{sign}{num}"
    return f"{sign}{num}/{mag.denominator}"


ZERO = GaussRat(0)
ONE = GaussRat(1)
I = GaussRat(0, 1)
MINUS_I = -I


def binom_coeff(alpha: Fraction, n: int) -> Fraction:
    """Generalized binomial coefficient C(alpha, n) for rational alpha."""
    out = Fraction(1)
    for k in range(1, n + 1):
        out = out * (alpha - k + 1) / k
    return out
