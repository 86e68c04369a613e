"""Finite extensions of nonarchimedean local fields, by numerical invariants.

A field is never represented by elements.  What we keep is the residue
cardinality q = p^k, the residue characteristic p, and a characteristic
flag; an extension E/F is a pair (e, f) of ramification index and
residue degree together with Galois/cyclic flags; the inertia data is
the sequence of orders |G_0| >= |G_1| >= ... of the ramification
subgroups in lower numbering.  Every statement the rest of the library
needs (transition functions between numberings, norm behaviour on unit
filtrations, conductor transport) is a function of these invariants, and
all arithmetic is exact rational so that integrality claims are
decidable.

The two transition functions on [0, oo):

    phi(u) = integral_0^u dt / (G_0 : G_t),   with G_t = G_i for i-1 < t <= i,

which is piecewise linear, increasing and concave, and its inverse psi
(increasing and convex, integer-valued on integers).  For an unramified
extension phi = psi = id; for a tame extension with |G_0| = e,
psi(x) = e*x; for a cyclic totally ramified extension of prime degree p
whose filtration jumps at t, psi(x) = x below t and t + p*(x - t) above.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Optional, Union

Rational = Union[int, Fraction]


class UnsupportedExtension(ValueError):
    """The requested operation is outside the supported ramification classes."""


class NotInPsiImage(ValueError):
    """A unit-filtration level on the top field is not psi(n) for integer n."""


def json_int(value, name: str) -> int:
    """A JSON integer input field; a string, float, bool, list, object or null is a ValueError."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {type(value).__name__}")
    return value


def json_bool(value, name: str) -> bool:
    """A JSON true/false input field; anything else is a ValueError."""
    if type(value) is not bool:
        raise ValueError(f"{name} must be true or false, got {type(value).__name__}")
    return value


def json_object(value, name: str) -> dict:
    """A JSON object input field; anything else is a ValueError."""
    if type(value) is not dict:
        raise ValueError(f"{name} must be an object, got {type(value).__name__}")
    return value


class MismatchedTower(ValueError):
    """Tower composition where the upper base is not the lower top field."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def prime_power_base(q: int) -> Optional[int]:
    """Return p if q = p^k for a prime p and k >= 1, else None."""
    if q < 2:
        return None
    for p in range(2, q + 1):
        if p * p > q:
            return q if is_prime(q) else None
        if q % p == 0:
            m = q
            while m % p == 0:
                m //= p
            return p if m == 1 else None
    return None


@dataclass(frozen=True)
class LocalFieldData:
    """Residue invariants of a nonarchimedean local field.

    q is the residue cardinality (a positive power of p), p the residue
    characteristic.  char_zero distinguishes p-adic fields from local
    function fields; only the GL(2) cuspidal layer cares.
    """

    q: int
    p: int
    char_zero: bool = True

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"residue characteristic p={self.p} is not prime")
        base = prime_power_base(self.q)
        if base != self.p:
            raise ValueError(f"q={self.q} is not a positive power of p={self.p}")

    def to_json(self) -> dict:
        return {"q": self.q, "p": self.p, "char_zero": self.char_zero}


@dataclass(frozen=True)
class ExtensionData:
    """A finite extension E/F known through (e, f) and Galois flags.

    e is the ramification index, f the residue degree, n = e*f the
    degree.  cyclic implies galois.
    """

    base: LocalFieldData
    e: int
    f: int
    galois: bool = False
    cyclic: bool = False

    def __post_init__(self):
        if self.e < 1 or self.f < 1:
            raise ValueError("e and f must be positive integers")
        if self.cyclic and not self.galois:
            raise ValueError("a cyclic extension is Galois; set galois=True")

    @property
    def n(self) -> int:
        return self.e * self.f

    @property
    def top_field(self) -> LocalFieldData:
        return LocalFieldData(self.base.q ** self.f, self.base.p, self.base.char_zero)

    @property
    def is_unramified(self) -> bool:
        return self.e == 1

    @property
    def is_totally_ramified(self) -> bool:
        return self.f == 1

    def to_json(self, filtration: Optional["RamificationFiltration"] = None) -> dict:
        out = {
            "q": self.base.q,
            "p": self.base.p,
            "char_zero": self.base.char_zero,
            "e": self.e,
            "f": self.f,
            "galois": self.galois,
            "cyclic": self.cyclic,
        }
        if filtration is not None:
            out["filtration_orders"] = list(filtration.orders)
        return out

    @staticmethod
    def from_json(obj: dict) -> tuple["ExtensionData", "RamificationFiltration"]:
        """Parse {q, p, e, f, galois, cyclic, filtration_orders} (char_zero optional)."""
        base = LocalFieldData(
            q=json_int(obj["q"], "q"),
            p=json_int(obj["p"], "p"),
            char_zero=json_bool(obj.get("char_zero", True), "char_zero"),
        )
        ext = ExtensionData(
            base=base,
            e=json_int(obj["e"], "e"),
            f=json_int(obj["f"], "f"),
            galois=json_bool(obj.get("galois", False), "galois"),
            cyclic=json_bool(obj.get("cyclic", False), "cyclic"),
        )
        orders = obj.get("filtration_orders")
        if orders is None:
            filt = RamificationFiltration.tame_default(ext.e)
        elif not isinstance(orders, list):
            raise ValueError(f"filtration_orders must be a list, got {type(orders).__name__}")
        else:
            filt = RamificationFiltration(json_int(g, "filtration_orders") for g in orders)
        validate_extension_filtration(ext, filt)
        return ext, filt


class RamificationClass(Enum):
    TRIVIAL = "trivial"
    UNRAMIFIED = "unramified"
    TAME_TOTALLY_RAMIFIED = "tame_totally_ramified"
    TAME_MIXED = "tame_mixed"
    WILD = "wild"


def classify(ext: ExtensionData) -> RamificationClass:
    """Deterministic ramification label from (e, f, p).

    trivial iff n = 1; unramified iff e = 1; wild iff p | e; otherwise
    tame, split by whether the extension is totally ramified.
    """
    if ext.n == 1:
        return RamificationClass.TRIVIAL
    if ext.e == 1:
        return RamificationClass.UNRAMIFIED
    if ext.e % ext.base.p == 0:
        return RamificationClass.WILD
    if ext.f == 1:
        return RamificationClass.TAME_TOTALLY_RAMIFIED
    return RamificationClass.TAME_MIXED


@dataclass(frozen=True)
class RamificationFiltration:
    """Orders |G_0| >= |G_1| >= ... of the lower-numbering inertia chain.

    Constructed from any weakly decreasing divisibility chain of positive
    integers; trailing 1-entries are normalised away, so the empty tuple
    means trivial inertia (unramified).  Beyond the stored range every
    order is 1.
    """

    orders: tuple[int, ...]

    def __init__(self, orders: Iterable[int] = ()):
        orders = tuple(int(g) for g in orders)
        for g in orders:
            if g < 1:
                raise ValueError("ramification group orders must be positive")
        for a, b in zip(orders, orders[1:]):
            if a < b:
                raise ValueError(f"orders must be weakly decreasing, got {orders}")
            if a % b != 0:
                raise ValueError(
                    f"order {b} must divide its predecessor {a} (subgroup chain)"
                )
        while orders and orders[-1] == 1:
            orders = orders[:-1]
        object.__setattr__(self, "orders", orders)

    @staticmethod
    def tame_default(e: int) -> "RamificationFiltration":
        """The filtration forced by tameness: G_0 of order e, G_1 trivial."""
        return RamificationFiltration((e,) if e > 1 else ())

    @property
    def e(self) -> int:
        """|G_0|, the inertia order (1 for the empty filtration)."""
        return self.orders[0] if self.orders else 1

    def order_at(self, i: int) -> int:
        """|G_i| with the convention |G_i| = 1 past the stored range."""
        if i < 0:
            raise ValueError("lower numbering index must be >= 0")
        return self.orders[i] if i < len(self.orders) else 1

    def group_is_trivial_at(self, i: int) -> bool:
        return self.order_at(i) == 1

    def phi_fn(self) -> "PiecewiseLinearFn":
        """The concave transition function phi on [0, oo) as breakpoint data."""
        g0 = self.e
        length = len(self.orders)
        xs = [Fraction(0)]
        ys = [Fraction(0)]
        slopes = []
        # one segment per unit interval [i, i+1] with slope |G_{i+1}|/|G_0|;
        # from x = max(length - 1, 0) on, the slope is constant 1/g0.
        last = max(length - 1, 0)
        for i in range(last):
            slopes.append(Fraction(self.order_at(i + 1), g0))
            xs.append(Fraction(i + 1))
            ys.append(ys[-1] + slopes[-1])
        slopes.append(Fraction(1, g0))
        return PiecewiseLinearFn(tuple(zip(xs, ys)), tuple(slopes))

    def psi_fn(self) -> "PiecewiseLinearFn":
        """The convex inverse transition function psi = phi^{-1}."""
        return self.phi_fn().inverse()


@dataclass(frozen=True)
class PiecewiseLinearFn:
    """Increasing piecewise linear function on [0, oo), exact breakpoints.

    breakpoints[i] = (x_i, y_i) with x_0 = 0; slopes[i] applies on
    [x_i, x_{i+1}] and slopes[-1] extends to +oo.
    """

    breakpoints: tuple[tuple[Fraction, Fraction], ...]
    slopes: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.breakpoints) != len(self.slopes):
            raise ValueError("need exactly one slope per breakpoint")
        if not self.breakpoints or self.breakpoints[0][0] != 0:
            raise ValueError("breakpoints must start at x = 0")

    def __call__(self, x: Rational) -> Fraction:
        return self.evaluate(x)

    def evaluate(self, x: Rational) -> Fraction:
        x = Fraction(x)
        if x < 0:
            raise ValueError("evaluation is restricted to x >= 0")
        i = len(self.breakpoints) - 1
        while i > 0 and self.breakpoints[i][0] > x:
            i -= 1
        x0, y0 = self.breakpoints[i]
        return y0 + self.slopes[i] * (x - x0)

    def inverse(self) -> "PiecewiseLinearFn":
        if any(s <= 0 for s in self.slopes):
            raise ValueError("only strictly increasing functions invert")
        pts = tuple((y, x) for (x, y) in self.breakpoints)
        return PiecewiseLinearFn(pts, tuple(1 / s for s in self.slopes))

    def is_convex(self) -> bool:
        return all(a <= b for a, b in zip(self.slopes, self.slopes[1:]))

    def is_concave(self) -> bool:
        return all(a >= b for a, b in zip(self.slopes, self.slopes[1:]))


def phi(filt: RamificationFiltration, u: Rational) -> Fraction:
    """Transition to the upper numbering: phi(u) = int_0^u dt/(G_0:G_t)."""
    u = Fraction(u)
    if u < 0:
        raise ValueError("phi is evaluated on u >= 0")
    return filt.phi_fn().evaluate(u)


def psi(filt: RamificationFiltration, x: Rational) -> Fraction:
    """Transition to the lower numbering, the exact inverse of phi."""
    x = Fraction(x)
    if x < 0:
        raise ValueError("psi is evaluated on x >= 0")
    return filt.psi_fn().evaluate(x)


def validate_extension_filtration(
    ext: ExtensionData, filt: RamificationFiltration
) -> list[str]:
    """Check filtration/extension consistency; return soft warnings.

    Hard error when |G_0| differs from e.  The tameness of G_0/G_1
    (order prime to p) is only reported, not enforced.
    """
    if filt.e != ext.e:
        raise ValueError(
            f"filtration has |G_0| = {filt.e} but the extension has e = {ext.e}"
        )
    warnings = []
    quotient = filt.order_at(0) // filt.order_at(1)
    if quotient % ext.base.p == 0:
        warnings.append(
            f"|G_0/G_1| = {quotient} is divisible by the residue characteristic "
            f"p = {ext.base.p}; a genuine inertia chain has this quotient prime to p"
        )
    return warnings


def norm_level_image(
    ext: ExtensionData, filt: RamificationFiltration, level_e: int
) -> int:
    """The level v with N(U_E^{level_e}) = U_F^v, when level_e = psi(v).

    Defined for unramified and tamely ramified extensions, and for
    totally ramified Galois extensions at levels where the ramification
    group G_{level_e} is already trivial.  Raises NotInPsiImage when
    level_e is not psi(v) for any integer v, UnsupportedExtension when
    the hypotheses fail (in particular for uncertified wild extensions).
    """
    if level_e < 0:
        raise ValueError("unit filtration levels are nonnegative")
    validate_extension_filtration(ext, filt)
    cls = classify(ext)
    tame_or_less = cls in (
        RamificationClass.TRIVIAL,
        RamificationClass.UNRAMIFIED,
        RamificationClass.TAME_TOTALLY_RAMIFIED,
        RamificationClass.TAME_MIXED,
    )
    if not tame_or_less:
        certified = (
            ext.galois
            and ext.is_totally_ramified
            and filt.group_is_trivial_at(level_e)
        )
        if not certified:
            raise UnsupportedExtension(
                "wild extension: need Galois, totally ramified, and a trivial "
                f"ramification group at level {level_e} to transport norm levels"
            )
    v = phi(filt, level_e)
    if v.denominator != 1:
        raise NotInPsiImage(
            f"level {level_e} is not psi(v) for an integer v (phi gives {v})"
        )
    return int(v)


def conductor_transport(filt: RamificationFiltration, c_f: int) -> int:
    """Conductor of a character pulled back through the norm: c -> psi(c).

    The unramified case c = 0 stays 0 (psi fixes 0), so a single formula
    covers both.
    """
    if c_f < 0:
        raise ValueError("conductors are nonnegative")
    value = psi(filt, c_f)
    assert value.denominator == 1  # psi is integer-valued on integers
    return int(value)


def compose_tower(lower: ExtensionData, upper: ExtensionData) -> ExtensionData:
    """Stack upper on top of lower; e and f multiply.

    The Galois and cyclic flags of the composite are the conjunction of
    the inputs' flags, a conservative choice: a tower of Galois
    extensions need not be Galois, and nothing downstream relies on the
    positive case.
    """
    if upper.base != lower.top_field:
        raise MismatchedTower(
            f"upper base {upper.base} is not the top field {lower.top_field} of the lower step"
        )
    return ExtensionData(
        base=lower.base,
        e=lower.e * upper.e,
        f=lower.f * upper.f,
        galois=lower.galois and upper.galois,
        cyclic=lower.cyclic and upper.cyclic,
    )


def unit_quotient_order(q: int, m: int) -> int:
    """Order (q-1)*q^(m-1) of the unit quotient U/U^m, m >= 1."""
    if m < 1:
        raise ValueError("unit quotient U/U^m needs m >= 1")
    if prime_power_base(q) is None:
        raise ValueError(f"q={q} is not a prime power")
    return (q - 1) * q ** (m - 1)
