"""The tempered dual of GL(1) and base change on it.

The tempered dual of GL(1, F) is a countable disjoint union of circles,
one per smooth character of the unit group.  A character is recorded
here only through its conductor and an opaque enumeration index, since
that is all base change transports, so a circle is a (conductor, index)
pair of ints; circle_map formats the "c{conductor}.{index}" labels that
K-theory prints.  The circle coordinate is the value of a character at a
fixed uniformiser, and base change to a degree-(e, f) extension acts by

    z -> z^f          on each circle coordinate,
    c -> psi(c)       on conductors (the convex transition function),
    (c, j) -> (psi(c), j)   on circles, each of circle degree f.

No coordinate is held: base change records the degree f of z -> z^f
on each circle, which is all K-theory reads.

Conductor c >= 2 has (q-1)^2 q^(c-2) characters and the truncation at M
holds (q-1) q^(M-1) circles; each power of q is a localfield.capped_power,
so a count past its cap is refused without being formed.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from functools import partial
from itertools import chain

from .ktheory import CircleSpace, ProperCircleMap
from .localfield import (
    ExtensionData,
    LocalFieldData,
    RamificationFiltration,
    UnsupportedExtension,
    capped_power,
    conductor_transport,
    validate_extension_filtration,
)
from .value import Records, Value


def _label_record(conductor: int, index: int) -> dict:
    return {"conductor": conductor, "index": index}


def _pair_record(conductor: int, index: int, to_conductor: int, to_index: int, degree: int) -> dict:
    return {"from": _label_record(conductor, index), "to": _label_record(to_conductor, to_index), "degree": degree}


def _check_circle_rows(rows) -> None:
    """Refuse rows of circle data (conductors, indices, degrees) unless each entry is an exact int >= 0.

    A bool or a float would print as something else: true, 1.0, or 1 from a %d template.
    """
    entries = [*chain.from_iterable(rows)]
    if not {*map(type, entries)} <= {int}:
        bad = next(x for x in entries if type(x) is not int)
        raise TypeError(f"conductors, indices and degrees must be ints, got {bad!r}")
    if entries and min(entries) < 0:
        raise ValueError("conductors, indices and degrees are nonnegative")


# Most circles TemperedDualGL1.enumerate builds.  KMorphism stores only its
# nonzero cells and the CLI streams the JSON, so memory stays small, but
# schema 1 writes each K-theory matrix densely and output grows with the
# square of the count: 1,458 circles (q=3, M=7) write 47 MB of JSON.
MAX_CIRCLES = 2000


def labels_with_conductor(field: LocalFieldData, c: int, cap: int = MAX_CIRCLES) -> int:
    """How many unit-group characters of the field have conductor exactly c.

    Differences of the unit-quotient orders: 1 for c = 0, q - 2 for
    c = 1, (q-1)^2 * q^(c-2) beyond, the power a capped_power, so a
    count above cap is only known to exceed it.
    """
    if c < 0:
        raise ValueError("conductors are nonnegative")
    if c < 2:
        return field.q - 2 if c else 1
    return (field.q - 1) ** 2 * capped_power(field.q, c - 2, cap)


def _check_bound(bound) -> None:
    """Refuse a truncation bound unless it is an exact int >= 0, as _check_circle_rows refuses rows."""
    if type(bound) is not int:
        raise TypeError(f"the truncation bound must be an int, got {bound!r}")
    if bound < 0:
        raise ValueError("the truncation bound is nonnegative")


class TemperedDualGL1(Value):
    """Truncation of the GL(1) tempered dual of base: circles for conductor <= bound.

    circles is a tuple of (conductor, index) int pairs, and a circle is
    its position there.  The default enumeration lists, for each
    conductor c, the labels_with_conductor(base, c) characters of that
    conductor; an explicit circle list is accepted when it holds no more
    circles of any conductor than that.
    """

    __slots__ = ("base", "bound", "circles")

    @staticmethod
    def enumerate(base: LocalFieldData, bound: int) -> "TemperedDualGL1":
        _check_bound(bound)
        if bound and (base.q - 1) * capped_power(base.q, bound - 1, MAX_CIRCLES) > MAX_CIRCLES:
            raise ValueError(f"conductor bound {bound} at q={base.q} gives more than {MAX_CIRCLES} circles")
        circles = tuple(
            (c, j) for c in range(bound + 1) for j in range(labels_with_conductor(base, c))
        )
        return TemperedDualGL1(base, bound, circles)

    def __post_init__(self):
        _check_bound(self.bound)
        _check_circle_rows(self.circles)
        if len(set(self.circles)) != len(self.circles):
            raise ValueError("duplicate circle")
        conductors = Counter(c for c, _ in self.circles)
        if max(conductors, default=0) > self.bound:
            raise ValueError(f"a circle's conductor exceeds the truncation bound {self.bound}")
        for c, count in conductors.items():
            if count > labels_with_conductor(self.base, c, cap=count):  # no power past the count is formed
                raise ValueError(f"more circles of conductor {c} than characters exist")

    def to_json(self) -> dict:
        return {
            "q": self.base.q,
            "M": self.bound,
            "circles": Records(_label_record, self.circles),
        }


class Gl1BaseChange(Value):
    """Component-matched description of base change on a truncated dual.

    f is the circle degree of every pair, and pairs lists (c, j, c', j')
    int rows, one per source circle (c, j), sent to the target (c', j');
    conductor_map, the transition function restricted to the occurring
    conductors, is read off the rows in first-appearance order, and rows
    that send one conductor to two are refused.  Target (conductor, index)
    pairs not hit by any source (passed in explicitly) are retained so
    induced K-theory matrices show their zero columns.
    """

    __slots__ = ("f", "pairs", "extra_targets", "conductor_map")
    _fields = ("f", "pairs", "extra_targets")
    _defaults = {"extra_targets": ()}

    def __post_init__(self):
        _check_circle_rows([(self.f,), *self.pairs, *self.extra_targets])
        if {*map(len, self.pairs)} - {4}:
            raise TypeError("a pair is a (c, j, c', j') row of four ints")
        links = dict.fromkeys(row[:3:2] for row in self.pairs)  # the distinct (c, c'), in order
        object.__setattr__(self, "conductor_map", dict(links.keys()))
        if len(self.conductor_map) < len(links):
            raise ValueError("the pairs send one conductor to two")

    def to_json(self) -> dict:
        return {
            "pairs": Records(partial(_pair_record, degree=self.f), self.pairs),
            "conductor_map": {str(c): v for c, v in sorted(self.conductor_map.items())},
        }


def check_gl1_scope(ext: ExtensionData) -> None:
    """Raise UnsupportedExtension unless the base-change hypotheses hold.

    Allowed: unramified, tamely ramified (any), or totally ramified
    Galois cyclic (the wild totally ramified case needs both flags).
    """
    if not ext.is_wild:
        return
    if ext.is_totally_ramified and ext.galois and ext.cyclic:
        return
    raise UnsupportedExtension(
        "base change on the GL(1) dual needs an unramified, tamely ramified, "
        "or cyclic Galois totally ramified extension"
    )


def bc_gl1(
    ext: ExtensionData,
    filt: RamificationFiltration,
    dual_f: TemperedDualGL1,
    collisions: dict[tuple[int, int], tuple[int, int]] | None = None,
    extra_targets: Sequence[tuple[int, int]] = (),
) -> Gl1BaseChange:
    """Transport every circle of the truncated dual through base change.

    Each source circle (c, j) goes to (psi(c), j) with circle degree
    ext.f.  The default target assignment is injective; a collision
    table, keyed and valued by (conductor, index) pairs, may identify
    targets explicitly, since nothing in the invariant model decides
    whether distinct characters pull back to the same one.
    """
    check_gl1_scope(ext)
    validate_extension_filtration(ext, filt)
    if dual_f.base.q != ext.base.q:
        raise ValueError("the dual is for a different residue field")
    collisions = collisions or {}
    cmap = {c: conductor_transport(filt, c) for c in dict.fromkeys(c for c, _ in dual_f.circles)}
    pairs = []
    for circle in dual_f.circles:
        c, j = circle
        target_c, target_j = collisions.get(circle, (cmap[c], j))
        if target_c != cmap[c]:
            raise ValueError(
                f"collision table sends conductor {c} to "
                f"{target_c}, but the transition function gives {cmap[c]}"
            )
        pairs.append((c, j, target_c, target_j))
    return Gl1BaseChange(ext.f, tuple(pairs), tuple(extra_targets))


def circle_map(bc: Gl1BaseChange) -> "ProperCircleMap":
    """The base-change description as a proper circle map for K-theory.

    Circle (c, j) is labelled "c{c}.{j}", formatted once per space.
    Source components follow the dual's circle order; target components
    appear in first-hit order followed by any explicit extra targets, so
    unmatched targets contribute visible zero columns.
    """
    sources = [f"c{c}.{j}" for c, j, *_ in bc.pairs]
    hit = dict.fromkeys([*(row[2:] for row in bc.pairs), *bc.extra_targets])
    targets = {(c, j): f"c{c}.{j}" for c, j in hit}
    matches = tuple((src, targets[row[2:]], bc.f) for src, row in zip(sources, bc.pairs))
    return ProperCircleMap(CircleSpace(sources), CircleSpace(targets.values()), matches)
