"""The extended quotient (C^x)^n // S_n and base change on its points.

The symmetric group S_n acts on the n-torus (C^x)^n by permuting
coordinates.  The extended quotient decomposes as a disjoint union of
pieces X^g / Z(g), one for each conjugacy class of S_n, i.e. one for
each partition of n.  If the partition has distinct part sizes
n_1 > ... > n_l with multiplicities r_1, ..., r_l, the piece is the
product Sym^{r_1}(C^x) x ... x Sym^{r_l}(C^x) of symmetric powers of the
punctured line.

Points carry exact Gaussian rational coordinates, with multiset
semantics inside each symmetric-power factor, and base change for an
extension of residue degree f raises every coordinate to the f-th
power.  The induced pullback on the invariant Laurent coordinate ring
substitutes t_i -> t_i^f (``InvariantLaurentPoly.pullback``).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .gaussian import GaussianRational
from .value import Value

MAX_TORUS_RANK = 30  # guard: cross-check oracles get factorial-ish beyond this


def partitions_of(n: int) -> list[tuple[int, ...]]:
    """All partitions of n as weakly decreasing tuples, reverse-lexicographic.

    The first entry is (n,) and the last is (1,)*n; this fixed order is
    what the component listing and all serialised output use.
    """
    if n < 1:
        raise ValueError("partitions are enumerated for n >= 1")

    def gen(remaining: int, cap: int):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return list(gen(n, n))


def validate_partition(parts: Sequence[int], n: int | None = None) -> tuple[int, ...]:
    parts = tuple(parts)
    if not parts or any(type(p) is not int or p < 1 for p in parts):
        raise ValueError(f"{parts} is not a partition: parts must be positive ints")
    if any(a < b for a, b in zip(parts, parts[1:])):
        raise ValueError(f"{parts} is not weakly decreasing")
    if n is not None and sum(parts) != n:
        raise ValueError(f"{parts} does not sum to {n}")
    return parts


class OrbitComponent(Value):
    """One piece of the extended quotient, indexed by a partition.

    from_partition(cycle_type, n) is the piece X^g / Z(g) for a
    permutation g of S_n with that cycle type.

    distinct_parts lists (part size n_i, multiplicity r_i) with the
    n_i strictly decreasing; the geometric shape is the product of
    Sym^{r_i}(C^x) in that order, of dimension sum r_i.  One is built per
    partition, so __init__ is written out.
    """

    __slots__ = ("partition", "distinct_parts")

    def __init__(self, partition: tuple[int, ...], distinct_parts: tuple[tuple[int, int], ...]):
        object.__setattr__(self, "partition", partition)
        object.__setattr__(self, "distinct_parts", distinct_parts)

    @staticmethod
    def from_partition(parts: Sequence[int], n: int | None = None) -> "OrbitComponent":
        parts = validate_partition(parts, n)
        distinct: list[tuple[int, int]] = []
        for p in parts:
            if distinct and distinct[-1][0] == p:
                distinct[-1] = (p, distinct[-1][1] + 1)
            else:
                distinct.append((p, 1))
        return OrbitComponent(parts, tuple(distinct))

    @property
    def sym_powers(self) -> tuple[int, ...]:
        """The exponents (r_1, ..., r_l) of the symmetric-power factors."""
        return tuple(r for _, r in self.distinct_parts)

    @property
    def dimension(self) -> int:
        return sum(self.sym_powers)

    @property
    def n(self) -> int:
        return sum(self.partition)

    def describe(self) -> str:
        return " x ".join(f"Sym^{r}" for r in self.sym_powers)

    def to_json(self) -> dict:
        return {
            "partition": list(self.partition),
            "factors": [{"sym_power": r} for r in self.sym_powers],
        }


class ExtendedQuotient(Value):
    """All components of (C^x)^n // S_n, in reverse-lexicographic order."""

    __slots__ = ("n", "components")

    def to_json(self) -> dict:
        return {"n": self.n, "components": [c.to_json() for c in self.components]}


def extended_quotient(n: int) -> ExtendedQuotient:
    """One component per partition of n; n is capped at MAX_TORUS_RANK."""
    if n < 1 or n > MAX_TORUS_RANK:
        raise ValueError(f"n must satisfy 1 <= n <= {MAX_TORUS_RANK}, got {n}")
    comps = tuple(OrbitComponent.from_partition(p, n) for p in partitions_of(n))
    return ExtendedQuotient(n, comps)


class TorusPoint(Value):
    """A point of a component: one multiset of coordinates per factor.

    Coordinates are nonzero Gaussian rationals; each factor's tuple is
    stored sorted by a fixed key so equality is multiset equality.
    """

    __slots__ = ("factors",)

    @staticmethod
    def make(coords_per_factor: Iterable[Iterable[GaussianRational]]) -> "TorusPoint":
        canonical = []
        for coords in coords_per_factor:
            coords = tuple(coords)
            for z in coords:
                if not isinstance(z, GaussianRational):
                    raise TypeError("coordinates must be Gaussian rationals")
                if z.is_zero():
                    raise ValueError("torus coordinates are nonzero")
            canonical.append(tuple(sorted(coords, key=GaussianRational.sort_key)))
        return TorusPoint(tuple(canonical))

    def lies_on(self, component: OrbitComponent) -> bool:
        powers = component.sym_powers
        return len(self.factors) == len(powers) and all(
            len(coords) == r for coords, r in zip(self.factors, powers)
        )

    def on_unit_torus(self) -> bool:
        return all(z.on_unit_circle() for coords in self.factors for z in coords)


def base_change_point(component: OrbitComponent, point: TorusPoint, f: int) -> TorusPoint:
    """Raise every coordinate to the f-th power, exactly, factor by factor."""
    if f < 1:
        raise ValueError("the residue degree f must be >= 1")
    if not point.lies_on(component):
        raise ValueError("point does not lie on the given component")
    return TorusPoint.make(tuple(z ** f for z in coords) for coords in point.factors)

