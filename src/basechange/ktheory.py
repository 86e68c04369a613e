"""K-theory of finite disjoint unions of circles and of proper maps.

Each circle contributes one free generator to K^0 and one to K^1, so
the groups of a labeled union are free abelian with basis the labels,
both of rank len(space).  A proper component-matched map (every source
circle goes to at most one target circle, with a positive winding
degree) induces integer matrices: on K^1 the matched entry is the
degree, on K^0 it is 1, everything else is 0.  Matrices are stored with
rows indexed by the source space and columns by the target space, so
the induced map (which is contravariant) reads a column as "where this
target generator lands".

A symmetric-power component is one circle here, of degree f under base
change, for every n: the n-fold symmetric power of the circle
deformation-retracts onto a circle along the product of coordinates, and
the coordinatewise f-th power map descends to z -> z^f there, because the
product of the f-th powers is the f-th power of the product.  An
independent winding-number oracle over exact rational turn angles
cross-checks that degree.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from fractions import Fraction
from functools import cached_property

from .value import Value

Label = Hashable


class InsufficientSamples(ValueError):
    """The winding-number oracle needs at least 4f sample points."""


class CircleSpace(Value):
    """Ordered finite union of labeled circles; labels must be unique.

    positions maps each label to its index in components, so lookups
    stay constant-time however many circles there are; it is derived, so
    equality, hashing and repr see components only.
    """

    __slots__ = ("components", "positions")
    _fields = ("components",)

    def __init__(self, components: Iterable[Label]):
        components = tuple(components)
        positions = {label: i for i, label in enumerate(components)}
        if len(positions) != len(components):
            raise ValueError("circle labels must be unique")
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "positions", positions)

    def __len__(self) -> int:
        return len(self.components)


class ProperCircleMap(Value):
    """Component-matched map between circle spaces with winding degrees.

    matches holds (source label, target label, degree >= 1); a source
    appears at most once, a target may receive several sources.
    """

    __slots__ = ("source", "target", "matches")

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


class KMorphism(Value):
    """Integer matrix of an induced K-theory map, held by its nonzero cells.

    rows follow the source space of the underlying circle map, columns
    the target space; column support is exactly the set of sources
    matched to that target component.  cells lists (row, col, value)
    for every nonzero entry in row-major order, so the work a matrix
    costs grows with its nonzeros.  Iterating yields each dense row as a
    new list of ints; entries is that view as tuples for small callers,
    computed once and kept in the instance __dict__.
    """

    __slots__ = ("row_labels", "col_labels", "cells", "__dict__")
    _fields = __slots__[:3]

    def __post_init__(self):
        rows, cols = len(self.row_labels), len(self.col_labels)
        last = (-1, -1)
        for i, j, value in self.cells:
            if not (type(i) is int and 0 <= i < rows and type(j) is int and 0 <= j < cols):
                raise ValueError(f"cell ({i!r}, {j!r}) is outside a {rows} x {cols} matrix")
            if type(value) is not int or value == 0:
                raise ValueError(f"cell ({i}, {j}) must hold a nonzero int, got {value!r}")
            if (i, j) <= last:
                raise ValueError("cells must be in strictly increasing (row, col) order")
            last = (i, j)

    def __iter__(self):
        dense = [[0] * len(self.col_labels) for _ in self.row_labels]
        for i, j, value in self.cells:
            dense[i][j] = value
        return iter(dense)

    @cached_property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self))

    def matmul(self, other: "KMorphism") -> "KMorphism":
        """Composite along a chain of spaces: rows stay, columns extend."""
        if self.col_labels != other.row_labels:
            raise ValueError("label mismatch in matrix composition")
        other_rows: dict[int, list[tuple[int, int]]] = {}
        for k, j, value in other.cells:
            other_rows.setdefault(k, []).append((j, value))
        sums: dict[tuple[int, int], int] = {}
        for i, k, a in self.cells:
            for j, b in other_rows.get(k, ()):
                sums[i, j] = sums.get((i, j), 0) + a * b
        cells = tuple((i, j, v) for (i, j), v in sorted(sums.items()) if v)
        return KMorphism(self.row_labels, other.col_labels, cells)

    def to_json(self) -> dict:
        """Schema 1: the triplets, and the dense entries, which are the matrix itself."""
        return {
            "rows": [l if isinstance(l, (str, int)) else str(l) for l in self.row_labels],
            "cols": [l if isinstance(l, (str, int)) else str(l) for l in self.col_labels],
            "entries": self,
            "triplets": [list(cell) for cell in self.cells],
        }


def induced_map(m: ProperCircleMap) -> tuple[KMorphism, KMorphism]:
    """The induced (K^0, K^1) matrices of a proper component-matched map.

    K^1 carries the degree on each matched (source, target) entry, K^0
    carries 1 there; all other entries, in particular whole columns of
    unmatched targets, are 0.  A source is matched at most once, so each
    row holds at most one cell and sorting by row gives row-major order.
    """
    rows = m.source.components
    cols = m.target.components
    row_of, col_of = m.source.positions, m.target.positions
    k1 = tuple(sorted((row_of[src], col_of[tgt], degree) for src, tgt, degree in m.matches))
    k0 = tuple((i, j, 1) for i, j, _ in k1)
    return KMorphism(rows, cols, k0), KMorphism(rows, cols, k1)


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
