"""K-theory of finite disjoint unions of circles and of proper maps.

Each circle contributes one free generator to K^0 and one to K^1, so
the groups of a labeled union are free abelian with basis the labels.
A proper component-matched map (every source circle goes to at most one
target circle, with a positive winding degree) induces integer matrices:
on K^1 the matched entry is the degree, on K^0 it is 1, everything else
is 0.  Matrices are stored with rows indexed by the source space and
columns by the target space, so the induced map (which is contravariant)
reads a column as "where this target generator lands".

Symmetric-power components enter through a homotopy reduction: the
n-fold symmetric power of the circle deformation-retracts onto a circle
along the product of coordinates, and the coordinatewise f-th power map
descends to z -> z^f there, preserving the degree.  An independent
winding-number oracle over exact rational turn angles cross-checks the
degree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress
from typing import Hashable, Iterable, Mapping, Optional

Label = Hashable


class InsufficientSamples(ValueError):
    """The winding-number oracle needs at least 4f sample points."""


@dataclass(frozen=True)
class CircleSpace:
    """Ordered finite union of labeled circles; labels must be unique.

    positions maps each label to its index in components, so lookups
    stay constant-time however many circles there are.
    """

    components: tuple[Label, ...]
    provenance: Mapping[Label, str] = field(default_factory=dict)
    positions: Mapping[Label, int] = field(init=False, repr=False, compare=False)

    def __init__(self, components: Iterable[Label], provenance: Optional[Mapping[Label, str]] = None):
        components = tuple(components)
        positions = {label: i for i, label in enumerate(components)}
        if len(positions) != len(components):
            raise ValueError("circle labels must be unique")
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "provenance", dict(provenance or {}))
        object.__setattr__(self, "positions", positions)

    def __len__(self) -> int:
        return len(self.components)

    def index(self, label: Label) -> int:
        try:
            return self.positions[label]
        except KeyError:
            raise ValueError(f"{label!r} is not a circle of this space") from None


@dataclass(frozen=True)
class ProperCircleMap:
    """Component-matched map between circle spaces with winding degrees.

    matches holds (source label, target label, degree >= 1); a source
    appears at most once, a target may receive several sources.
    """

    source: CircleSpace
    target: CircleSpace
    matches: tuple[tuple[Label, Label, int], ...]

    def __post_init__(self):
        seen_sources = set()
        for src, tgt, degree in self.matches:
            if src not in self.source.positions:
                raise ValueError(f"unknown source component {src!r}")
            if tgt not in self.target.positions:
                raise ValueError(f"unknown target component {tgt!r}")
            if degree < 1:
                raise ValueError("circle map degrees are positive")
            if src in seen_sources:
                raise ValueError(f"source component {src!r} matched twice")
            seen_sources.add(src)

    @staticmethod
    def identity(space: CircleSpace) -> "ProperCircleMap":
        return ProperCircleMap(
            space, space, tuple((lbl, lbl, 1) for lbl in space.components)
        )


def compose_maps(first: ProperCircleMap, second: ProperCircleMap) -> ProperCircleMap:
    """The composite map; degrees multiply along matched chains."""
    if first.target.components != second.source.components:
        raise ValueError("maps are not composable")
    second_by_source = {src: (tgt, d) for src, tgt, d in second.matches}
    chained = []
    for src, mid, d1 in first.matches:
        hit = second_by_source.get(mid)
        if hit is not None:
            chained.append((src, hit[0], d1 * hit[1]))
    return ProperCircleMap(first.source, second.target, tuple(chained))


@dataclass(frozen=True)
class KGroup:
    """Free abelian group with one generator per circle component."""

    degree: int  # 0 or 1, which K-group this is
    basis: tuple[Label, ...]

    @property
    def rank(self) -> int:
        return len(self.basis)


def k_groups(space: CircleSpace) -> tuple[KGroup, KGroup]:
    return KGroup(0, space.components), KGroup(1, space.components)


@dataclass(frozen=True)
class KMorphism:
    """Integer matrix of an induced K-theory map.

    rows follow the source space of the underlying circle map, columns
    the target space; column support is exactly the set of sources
    matched to that target component.
    """

    row_labels: tuple[Label, ...]
    col_labels: tuple[Label, ...]
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.entries) != len(self.row_labels):
            raise ValueError("row count mismatch")
        for row in self.entries:
            if len(row) != len(self.col_labels):
                raise ValueError("column count mismatch")

    def entry(self, row: Label, col: Label) -> int:
        return self.entries[self.row_labels.index(row)][self.col_labels.index(col)]

    def matmul(self, other: "KMorphism") -> "KMorphism":
        """Composite along a chain of spaces: rows stay, columns extend."""
        if self.col_labels != other.row_labels:
            raise ValueError("label mismatch in matrix composition")
        rows = len(self.row_labels)
        mid = len(self.col_labels)
        cols = len(other.col_labels)
        data = tuple(
            tuple(
                sum(self.entries[i][k] * other.entries[k][j] for k in range(mid))
                for j in range(cols)
            )
            for i in range(rows)
        )
        return KMorphism(self.row_labels, other.col_labels, data)

    def is_identity(self) -> bool:
        return self.row_labels == self.col_labels and all(
            self.entries[i][j] == (1 if i == j else 0)
            for i in range(len(self.row_labels))
            for j in range(len(self.col_labels))
        )

    def to_json(self) -> dict:
        triplets = [
            [i, j, row[j]]
            for i, row in enumerate(self.entries)
            for j in compress(range(len(row)), row)
        ]
        return {
            "rows": [l if isinstance(l, (str, int)) else str(l) for l in self.row_labels],
            "cols": [l if isinstance(l, (str, int)) else str(l) for l in self.col_labels],
            "entries": [list(row) for row in self.entries],
            "triplets": triplets,
        }


def induced_map(m: ProperCircleMap) -> tuple[KMorphism, KMorphism]:
    """The induced (K^0, K^1) matrices of a proper component-matched map.

    K^1 carries the degree on each matched (source, target) entry, K^0
    carries 1 there; all other entries, in particular whole columns of
    unmatched targets, are 0.
    """
    rows = m.source.components
    cols = m.target.components
    k0 = [[0] * len(cols) for _ in rows]
    k1 = [[0] * len(cols) for _ in rows]
    row_of, col_of = m.source.positions, m.target.positions
    for src, tgt, degree in m.matches:
        i, j = row_of[src], col_of[tgt]
        k0[i][j] = 1
        k1[i][j] = degree
    freeze = lambda mat: tuple(tuple(row) for row in mat)
    return KMorphism(rows, cols, freeze(k0)), KMorphism(rows, cols, freeze(k1))


@dataclass(frozen=True)
class ReducedCircle:
    """A symmetric-power component collapsed to its homotopy circle."""

    sym_power: int
    degree: int
    provenance: str


def reduce_symmetric_component(n: int, f: int) -> ReducedCircle:
    """Collapse Sym^n(T) carrying the coordinatewise f-th power map.

    The product-of-coordinates retraction turns the component into one
    circle and the map into z -> z^f, because the product of the f-th
    powers is the f-th power of the product; the K-theory degree is
    therefore exactly f.
    """
    if n < 1 or f < 1:
        raise ValueError("need n >= 1 and f >= 1")
    return ReducedCircle(sym_power=n, degree=f, provenance=f"Sym^{n} reduced")


def circle_degree_oracle(f: int, samples: int) -> int:
    """Winding number of z -> z^f from exact angle increments.

    Walks the circle along `samples` equally spaced rational turn
    angles, wraps each image increment into (-1/2, 1/2], and sums; the
    total is the degree.  Needs samples >= 4f so every wrapped increment
    is unambiguous.
    """
    if f < 1:
        raise ValueError("degree must be >= 1")
    if samples < 4 * f:
        raise InsufficientSamples(f"need at least {4 * f} samples for f = {f}")
    total = Fraction(0)
    half = Fraction(1, 2)
    prev = Fraction(0)
    for k in range(1, samples + 1):
        angle = (Fraction(f * k, samples)) % 1
        delta = (angle - prev) % 1
        if delta > half:
            delta -= 1
        total += delta
        prev = angle
    assert total.denominator == 1
    return int(total)
