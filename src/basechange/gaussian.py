"""Exact Gaussian rational numbers a + b*i with a, b in Q.

The only operations the rest of the library needs are ring operations,
integer powers (negative exponents included, via exact inversion) and a
decidable unit-circle test, so this stays deliberately small.  Equality
is exact, which is the whole point: multiset comparison of torus
coordinates must be decidable.
"""

from __future__ import annotations

from fractions import Fraction

from .value import Value

RationalLike = int | Fraction


def _frac(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if type(x) is int:  # not bool: True == 1, but no value is silently coerced
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


class GaussianRational(Value):
    """An element of Q(i), stored as exact real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        object.__setattr__(self, "re", _frac(re))
        object.__setattr__(self, "im", _frac(im))

    # -- ring structure -------------------------------------------------

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        other = _coerce(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "GaussianRational":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "GaussianRational":
        other = _coerce(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm(self) -> Fraction:
        """The multiplicative norm a^2 + b^2 (a nonnegative rational)."""
        return self.re * self.re + self.im * self.im

    def inverse(self) -> "GaussianRational":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("0 in Q(i) has no inverse")
        return GaussianRational(self.re / n, -self.im / n)

    def __truediv__(self, other) -> "GaussianRational":
        return self * _coerce(other).inverse()

    def __pow__(self, k: int) -> "GaussianRational":
        if type(k) is not int:
            raise TypeError("exponent must be an integer")
        base = self
        if k < 0:
            base, k = self.inverse(), -k
        result = GaussianRational(1)
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- predicates and canonical order ---------------------------------

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def on_unit_circle(self) -> bool:
        """Exact test for |z| = 1, i.e. re^2 + im^2 = 1."""
        return self.norm() == 1

    def sort_key(self) -> tuple[Fraction, Fraction]:
        """Arbitrary but fixed total order used to canonicalise multisets.

        Q(i) is not an ordered field; this key exists purely so that
        unordered coordinate tuples have a deterministic normal form.
        """
        return (self.re, self.im)

    def __repr__(self) -> str:
        if self.im == 0:
            return f"GaussianRational({self.re})"
        return f"GaussianRational({self.re}, {self.im})"

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}*i"


def _coerce(x) -> GaussianRational:
    return x if isinstance(x, GaussianRational) else GaussianRational(x)  # _frac refuses the rest


I = GaussianRational(0, 1)
ONE = GaussianRational(1)
ZERO = GaussianRational(0)
