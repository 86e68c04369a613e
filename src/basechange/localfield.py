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
(increasing and convex, integer-valued on integers).  For a stored chain
|G_0| = e, ..., |G_{L-1}| (|G_i| = 1 for i >= L) both are one walk over
the prefix sums S_k = |G_1| + ... + |G_k|, k <= max(L - 1, 0):

    e*phi(u) = S_k + (u - k)*|G_{k+1}|,    k = min(floor(u), max(L - 1, 0));
    psi(x)   = k + (e*x - S_k)/|G_{k+1}|,  k the last such index with S_k <= e*x.

For an unramified extension phi = psi = id; for a tame extension with
|G_0| = e, psi(x) = e*x; for a cyclic totally ramified extension of
prime degree p whose filtration jumps at t, psi(x) = x below t and
t + p*(x - t) above.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction

from .value import Value

Rational = int | Fraction


class UnsupportedExtension(ValueError):
    """The requested operation is outside the supported ramification classes."""


class NotInPsiImage(ValueError):
    """A unit-filtration level on the top field is not psi(n) for integer n."""


# the JSON types an input field may be asked to hold, as a refusal names them
JSON_KINDS = {int: "an integer", bool: "true or false", dict: "an object", list: "a list"}


def json_field(value, kind: type, name: str):
    """A JSON input field of exactly the type kind (so a bool is not an int); else a ValueError."""
    if type(value) is not kind:
        raise ValueError(f"{name} must be {JSON_KINDS[kind]}, got {type(value).__name__}")
    return value


class MismatchedTower(ValueError):
    """Tower composition where the upper base is not the lower top field."""


# Largest residue characteristic accepted: is_prime(p) then takes at most
# 512 trial divisions.  LocalFieldData is the one place that checks q = p^k;
# code holding a field only does arithmetic on q.
MAX_RESIDUE_CHARACTERISTIC = 2**20

# Python's default limit on int <-> str conversion: a number within it can
# always be printed back
MAX_RATIONAL_DIGITS = 4300


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


def is_power_of(q: int, p: int) -> bool:
    """q = p^k for some k >= 1 (p >= 2), by repeated division."""
    if q < p:
        return False
    while q % p == 0:
        q //= p
    return q == 1


class LocalFieldData(Value):
    """Residue invariants of a nonarchimedean local field.

    q is the residue cardinality (a positive power of p), p the residue
    characteristic.  char_zero distinguishes p-adic fields from local
    function fields; only the GL(2) cuspidal layer cares.
    """

    __slots__ = ("q", "p", "char_zero")
    _defaults = {"char_zero": True}

    def __post_init__(self):
        if type(self.q) is not int or type(self.p) is not int:
            raise TypeError(f"q and p must be ints, got {self.q!r} and {self.p!r}")
        if self.p > MAX_RESIDUE_CHARACTERISTIC:
            raise ValueError(
                f"residue characteristic p={self.p} is above {MAX_RESIDUE_CHARACTERISTIC}"
            )
        if not is_prime(self.p):
            raise ValueError(f"residue characteristic p={self.p} is not prime")
        if not is_power_of(self.q, self.p):
            raise ValueError(f"q={self.q} is not a positive power of p={self.p}")

    def to_json(self) -> dict:
        return {"q": self.q, "p": self.p, "char_zero": self.char_zero}


class ExtensionData(Value):
    """A finite extension E/F known through (e, f) and Galois flags.

    e is the ramification index, f the residue degree, n = e*f the
    degree.  cyclic implies galois.
    """

    __slots__ = ("base", "e", "f", "galois", "cyclic")
    _defaults = {"galois": False, "cyclic": False}

    def __post_init__(self):
        if type(self.e) is not int or type(self.f) is not int:
            raise TypeError(f"e and f must be ints, got {self.e!r} and {self.f!r}")
        if self.e < 1 or self.f < 1:
            raise ValueError("e and f must be positive integers")
        if self.cyclic and not self.galois:
            raise ValueError("a cyclic extension is Galois; set galois=True")

    @property
    def n(self) -> int:
        return self.e * self.f

    @property
    def top_field(self) -> LocalFieldData:
        """The residue field of E, of q^f elements; refused past MAX_RATIONAL_DIGITS digits.

        q^f >= 2^(f*(bits of q - 1)) and 2^(10/3) > 10, so a large f is
        refused before the power is formed.
        """
        q, f = self.base.q, self.f
        if f * (q.bit_length() - 1) > 10 * MAX_RATIONAL_DIGITS // 3 or q**f >= 10**MAX_RATIONAL_DIGITS:
            raise ValueError(
                f"the top field's q^f = {q}^{f} has more than {MAX_RATIONAL_DIGITS} digits"
            )
        return LocalFieldData(q**f, self.base.p, self.base.char_zero)

    @property
    def is_unramified(self) -> bool:
        return self.e == 1

    @property
    def is_totally_ramified(self) -> bool:
        return self.f == 1

    @property
    def is_wild(self) -> bool:
        """p divides e; an unramified or trivial extension (e = 1) never is."""
        return self.e % self.base.p == 0

    def to_json(self, filtration: RamificationFiltration | None = None) -> dict:
        out = {
            **self.base.to_json(),
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
        """Parse {q, p, e, f, galois, cyclic, filtration_orders} (char_zero optional).

        filtration_orders may be omitted only when p does not divide e.  G_1
        is a p-group and G_0/G_1 has order prime to p, so the chain is then
        [e]; when p divides e, G_1 is nontrivial and no default exists.
        """
        base = LocalFieldData(
            q=json_field(obj["q"], int, "q"),
            p=json_field(obj["p"], int, "p"),
            char_zero=json_field(obj.get("char_zero", True), bool, "char_zero"),
        )
        ext = ExtensionData(
            base=base,
            e=json_field(obj["e"], int, "e"),
            f=json_field(obj["f"], int, "f"),
            galois=json_field(obj.get("galois", False), bool, "galois"),
            cyclic=json_field(obj.get("cyclic", False), bool, "cyclic"),
        )
        if "filtration_orders" not in obj and ext.is_wild:
            raise ValueError(
                f"a wild extension (p={ext.base.p} divides e={ext.e}) must list filtration_orders"
            )
        orders = json_field(obj.get("filtration_orders", [ext.e]), list, "filtration_orders")
        filt = RamificationFiltration(json_field(g, int, "filtration_orders") for g in orders)
        validate_extension_filtration(ext, filt)
        return ext, filt


class RamificationFiltration(Value):
    """Orders |G_0| >= |G_1| >= ... of the lower-numbering inertia chain.

    Constructed from any weakly decreasing divisibility chain of positive
    ints (a float, string or bool is refused, not truncated); trailing
    1-entries are normalised away, so the empty tuple
    means trivial inertia (unramified).  Beyond the stored range every
    order is 1.
    """

    __slots__ = ("orders",)

    def __init__(self, orders: Iterable[int] = ()):
        orders = tuple(orders)
        for g in orders:
            if type(g) is not int or g < 1:
                raise ValueError(f"ramification group orders must be positive ints, got {g!r}")
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

    @property
    def e(self) -> int:
        """|G_0|, the inertia order (1 for the empty filtration)."""
        return self.orders[0] if self.orders else 1

    def order_at(self, i: int) -> int:
        """|G_i| with the convention |G_i| = 1 past the stored range."""
        if i < 0:
            raise ValueError("lower numbering index must be >= 0")
        return self.orders[i] if i < len(self.orders) else 1


def phi(filt: RamificationFiltration, u: Rational) -> Fraction:
    """Transition to the upper numbering: phi(u) = int_0^u dt/(G_0:G_t)."""
    u = Fraction(u)
    if u < 0:
        raise ValueError("phi is evaluated on u >= 0")
    n, d = u.numerator, u.denominator
    k = min(n // d, len(filt.orders[1:]))
    return Fraction(
        sum(filt.orders[1 : k + 1]) * d + (n - k * d) * filt.order_at(k + 1), d * filt.e
    )


def psi(filt: RamificationFiltration, x: Rational) -> Fraction:
    """Transition to the lower numbering, the exact inverse of phi."""
    x = Fraction(x)
    if x < 0:
        raise ValueError("psi is evaluated on x >= 0")
    d = x.denominator
    target = filt.e * x.numerator  # e*x*d, against which each prefix sum times d is compared
    k = reached = 0
    for g in filt.orders[1:]:
        if (reached + g) * d > target:
            break
        reached += g
        k += 1
    g = filt.order_at(k + 1)
    return Fraction(k * d * g + target - reached * d, d * g)


def validate_extension_filtration(ext: ExtensionData, filt: RamificationFiltration) -> None:
    """Refuse a filtration that is no inertia chain of the extension.

    |G_0| must be e, G_1 is a p-group and G_0/G_1 has order prime to p.
    """
    if filt.e != ext.e:
        raise ValueError(
            f"filtration has |G_0| = {filt.e} but the extension has e = {ext.e}"
        )
    p, g1 = ext.base.p, filt.order_at(1)
    if g1 != 1 and not is_power_of(g1, p):
        raise ValueError(f"filtration {list(filt.orders)} has |G_1| = {g1}, not a power of p={p}")
    if (filt.e // g1) % p == 0:
        raise ValueError(
            f"filtration {list(filt.orders)} has |G_0/G_1| = {filt.e // g1}, divisible by p={p}"
        )


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
    if ext.is_wild:
        certified = (
            ext.galois
            and ext.is_totally_ramified
            and filt.order_at(level_e) == 1
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


def unit_quotient_order(field: LocalFieldData, m: int) -> int:
    """Order (q-1)*q^(m-1) of the unit quotient U/U^m of the field, m >= 1."""
    if m < 1:
        raise ValueError("unit quotient U/U^m needs m >= 1")
    return (field.q - 1) * field.q ** (m - 1)
