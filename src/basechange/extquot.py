"""The extended quotient (C^x)^n // S_n, listed by its components.

The symmetric group S_n acts on the n-torus (C^x)^n by permuting
coordinates.  The extended quotient decomposes as a disjoint union of
pieces X^g / Z(g), one for each conjugacy class of S_n, i.e. one for
each partition of n.  If the partition has distinct part sizes
n_1 > ... > n_l with multiplicities r_1, ..., r_l, the piece is the
product Sym^{r_1}(C^x) x ... x Sym^{r_l}(C^x) of symmetric powers of the
punctured line.  An OrbitComponent is held as its partition alone, and
the r_i are read off it.

Base change for an extension of residue degree f raises every
coordinate to the f-th power; no point is held here, and the induced
pullback on the invariant Laurent coordinate ring substitutes
t_i -> t_i^f (``InvariantLaurentPoly.pullback``).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence

from .value import Records, Value

MAX_TORUS_RANK = 30  # guard: cross-check oracles get factorial-ish beyond this


def _partition_rows(n: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Each partition of n with the multiplicities of its distinct parts, the largest part first.

    Partitions are weakly decreasing tuples in reverse-lexicographic
    order: the first is (n,) and the last (1,)*n; this fixed order is
    what the component listing and all serialised output use.
    """
    if n < 1:
        raise ValueError("partitions are enumerated for n >= 1")
    parts, mults = [n], [1]
    rows = [((n,), (1,))]
    while parts[0] > 1:
        # the successor: drop the trailing 1s, lower the last part k to k - 1,
        # and refill what was taken with parts of at most k - 1, the largest first;
        # k - 1 and the remainder are parts the partition did not hold
        ones = mults.pop() if parts[-1] == 1 else 0
        del parts[len(parts) - ones:]
        k = parts.pop()
        mults[-1] -= 1
        if not mults[-1]:
            mults.pop()
        q, rest = divmod(ones + k, k - 1)
        parts += [k - 1] * q + [rest] * (rest > 0)
        mults += [q, 1] if rest else [q]
        rows.append((tuple(parts), tuple(mults)))
    return rows


def partitions_of(n: int) -> list[tuple[int, ...]]:
    """All partitions of n as weakly decreasing tuples, reverse-lexicographic: (n,) first, (1,)*n last."""
    return [p for p, _ in _partition_rows(n)]


def validate_partition(parts: Sequence[int]) -> tuple[int, ...]:
    parts = tuple(parts)
    if not parts or any(type(p) is not int or p < 1 for p in parts):
        raise ValueError(f"{parts} is not a partition: parts must be positive ints")
    if any(a < b for a, b in zip(parts, parts[1:])):
        raise ValueError(f"{parts} is not weakly decreasing")
    return parts


class OrbitComponent(Value):
    """One piece of the extended quotient, held as its partition.

    from_partition(cycle_type, n) is the piece X^g / Z(g) for a
    permutation g of S_n with that cycle type, checked to sum to n.

    sym_powers, derived from the validated partition, lists the
    multiplicities r_i of the distinct part sizes n_1 > ... > n_l; the
    geometric shape is the product of Sym^{r_i}(C^x) in that order, of
    dimension sum r_i.
    """

    __slots__ = ("partition", "sym_powers")
    _fields = ("partition",)

    def __post_init__(self) -> None:
        object.__setattr__(self, "partition", validate_partition(self.partition))
        object.__setattr__(self, "sym_powers", tuple(Counter(self.partition).values()))

    @staticmethod
    def from_partition(parts: Sequence[int], n: int | None = None) -> "OrbitComponent":
        component = OrbitComponent(parts)
        if n is not None and component.n != n:
            raise ValueError(f"{component.partition} does not sum to {n}")
        return component

    @property
    def distinct_parts(self) -> tuple[tuple[int, int], ...]:
        """The pairs (part size n_i, multiplicity r_i), the n_i strictly decreasing."""
        return tuple(zip(dict.fromkeys(self.partition), self.sym_powers))

    @property
    def dimension(self) -> int:
        return sum(self.sym_powers)

    @property
    def n(self) -> int:
        return sum(self.partition)

    def describe(self) -> str:
        return " x ".join(f"Sym^{r}" for r in self.sym_powers)


def _component_record(partition: tuple[int, ...], multiplicities: tuple[int, ...]) -> dict:
    return {"partition": list(partition), "factors": [{"sym_power": r} for r in multiplicities]}


class ExtendedQuotient(Value):
    """All components of (C^x)^n // S_n, in reverse-lexicographic order.

    n, an exact int in [1, MAX_TORUS_RANK], is the one field; rows is
    derived from it, one (partition, multiplicities) int row per
    component, the multiplicities being the exponents r_i of its
    Sym^{r_i} factors.  components builds an OrbitComponent from each
    row's partition on demand.
    """

    __slots__ = ("n", "rows")
    _fields = ("n",)

    def __post_init__(self) -> None:
        if type(self.n) is not int:
            raise TypeError(f"n must be an int, got {self.n!r}")
        if not 1 <= self.n <= MAX_TORUS_RANK:
            raise ValueError(f"n must satisfy 1 <= n <= {MAX_TORUS_RANK}, got {self.n}")
        object.__setattr__(self, "rows", tuple(_partition_rows(self.n)))

    @property
    def components(self) -> tuple[OrbitComponent, ...]:
        return tuple(OrbitComponent(p) for p, _ in self.rows)

    def to_json(self) -> dict:
        return {"n": self.n, "components": Records(_component_record, self.rows)}


def extended_quotient(n: int) -> ExtendedQuotient:
    """One component per partition of n; n is capped at MAX_TORUS_RANK."""
    return ExtendedQuotient(n)
