"""Exact points for the paper's point-level base-change identities, used only by the tests.

GaussianRational is an element of Q(i) held as exact rational real and
imaginary parts, so equality, and with it multiset comparison of torus
coordinates, is decidable.  A TorusPoint is a point of an
extended-quotient component, one multiset of nonzero coordinates per
Sym^r factor, and base_change_point raises each coordinate to the f-th
power.  An UnramifiedQuasicharacter sends a Weil element of degree m to
z^m; bc_unramified_quasichar pulls it back along an extension of
residue degree f, z -> z^f.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain

from basechange.extquot import OrbitComponent
from basechange.value import Value


def _frac(x) -> Fraction:
    if type(x) is int or isinstance(x, Fraction):  # not bool: True == 1, but no value is coerced
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


class GaussianRational(Value):
    """re + im*i; either part an int or a Fraction, stored as a Fraction."""

    __slots__ = ("re", "im")
    _defaults = {"re": 0, "im": 0}

    def __post_init__(self):
        object.__setattr__(self, "re", _frac(self.re))
        object.__setattr__(self, "im", _frac(self.im))

    def __add__(self, other) -> GaussianRational:
        other = _coerce(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self) -> GaussianRational:
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other) -> GaussianRational:
        return self + -_coerce(other)

    def __rsub__(self, other) -> GaussianRational:
        return _coerce(other) + -self

    def __mul__(self, other) -> GaussianRational:
        other = _coerce(other)
        return GaussianRational(self.re * other.re - self.im * other.im, self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __truediv__(self, other) -> GaussianRational:
        return self * _coerce(other).inverse()

    def __pow__(self, k: int) -> GaussianRational:
        if type(k) is not int:
            raise TypeError("exponent must be an int")
        base, result = self.inverse() if k < 0 else self, ONE
        for _ in range(abs(k)):
            result *= base
        return result

    def conjugate(self) -> GaussianRational:
        return GaussianRational(self.re, -self.im)

    def norm(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def inverse(self) -> GaussianRational:
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("0 in Q(i) has no inverse")
        return GaussianRational(self.re / n, -self.im / n)

    def is_zero(self) -> bool:
        return self.re == 0 == self.im

    def __bool__(self) -> bool:
        return not self.is_zero()

    def on_unit_circle(self) -> bool:
        return self.norm() == 1

    def sort_key(self) -> tuple[Fraction, Fraction]:
        """A fixed total order, only to put multisets of coordinates in normal form."""
        return self.re, self.im

    def __repr__(self) -> str:
        parts = f"{self.re}" if self.im == 0 else f"{self.re}, {self.im}"
        return f"GaussianRational({parts})"


def _coerce(x) -> GaussianRational:
    return x if isinstance(x, GaussianRational) else GaussianRational(x)


I, ONE = GaussianRational(0, 1), GaussianRational(1)


class TorusPoint(Value):
    """One tuple of nonzero Gaussian rational coordinates per factor, sorted, so equality is multiset equality."""

    __slots__ = ("factors",)

    @staticmethod
    def make(coords_per_factor) -> TorusPoint:
        factors = [*map(tuple, coords_per_factor)]
        for z in chain.from_iterable(factors):
            if not isinstance(z, GaussianRational):
                raise TypeError("coordinates must be Gaussian rationals")
            if z.is_zero():
                raise ValueError("torus coordinates are nonzero")
        return TorusPoint(tuple(tuple(sorted(coords, key=GaussianRational.sort_key)) for coords in factors))

    def lies_on(self, component: OrbitComponent) -> bool:
        return tuple(map(len, self.factors)) == component.sym_powers

    def on_unit_torus(self) -> bool:
        return all(z.on_unit_circle() for z in chain.from_iterable(self.factors))


def base_change_point(component: OrbitComponent, point: TorusPoint, f: int) -> TorusPoint:
    """Raise every coordinate to the f-th power, factor by factor."""
    if f < 1:
        raise ValueError("the residue degree f must be >= 1")
    if not point.lies_on(component):
        raise ValueError("point does not lie on the given component")
    return TorusPoint.make([z ** f for z in coords] for coords in point.factors)


class UnramifiedQuasicharacter(Value):
    """w -> z^(degree of w), determined by the nonzero parameter z."""

    __slots__ = ("z",)

    def __post_init__(self):
        if self.z.is_zero():
            raise ValueError("the parameter of a quasicharacter is nonzero")

    def evaluate(self, m: int) -> GaussianRational:
        return self.z ** m

    @property
    def tempered(self) -> bool:
        return self.z.on_unit_circle()


def bc_unramified_quasichar(chi: UnramifiedQuasicharacter, f: int) -> UnramifiedQuasicharacter:
    """Base change of an unramified quasicharacter: parameter z -> z^f."""
    if type(f) is not int:
        raise TypeError("residue degree f must be an int")
    if f < 1:
        raise ValueError("residue degree f must be >= 1")
    return UnramifiedQuasicharacter(chi.z ** f)
