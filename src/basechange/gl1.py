"""The tempered dual of GL(1) and base change on it.

The tempered dual of GL(1, F) is a countable disjoint union of circles,
one per smooth character of the unit group; a character is recorded
here only through its conductor and an opaque enumeration index, since
that is all base change transports.  The circle coordinate is the value
of a character at a fixed uniformiser, an exact Gaussian rational for
us, and base change to a degree-(e, f) extension acts by

    z -> z^f          on each circle coordinate,
    c -> psi(c)       on conductors (the convex transition function),
    (c, j) -> (psi(c), j)   on labels.

Integer Weil degrees make the exponent identity testable: a Weil element
of E-side degree m has F-side degree f*m, so an unramified
quasicharacter with parameter z pulls back to the one with parameter
z^f.  Angles are exact rational turns (fractions of a full revolution),
which keeps arc preimages exact.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from fractions import Fraction
from functools import total_ordering

from .gaussian import GaussianRational
from .ktheory import CircleSpace, ProperCircleMap
from .localfield import (
    ExtensionData,
    LocalFieldData,
    RamificationFiltration,
    UnsupportedExtension,
    conductor_transport,
    unit_quotient_order,
    validate_extension_filtration,
)
from .value import Records, Value


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


def bc_unramified_quasichar(
    chi: UnramifiedQuasicharacter, f: int
) -> UnramifiedQuasicharacter:
    """Base change of an unramified quasicharacter: parameter z -> z^f."""
    if type(f) is not int:
        raise TypeError("residue degree f must be an int")
    if f < 1:
        raise ValueError("residue degree f must be >= 1")
    return UnramifiedQuasicharacter(chi.z ** f)


def _label_record(conductor: int, index: int) -> dict:
    return {"conductor": conductor, "index": index}


def _pair_record(conductor: int, index: int, to_conductor: int, to_index: int, degree: int) -> dict:
    return {"from": _label_record(conductor, index), "to": _label_record(to_conductor, to_index), "degree": degree}


@total_ordering
class CharacterLabel(Value):
    """Opaque name (conductor, index) for a unit-group character.

    conductor 0 is the unramified family; the index enumerates the
    finitely many characters of each conductor and carries no structure.
    Labels order by (conductor, index); bc-gl1's per-circle methods are written out.
    Both are exact ints: a bool or a float would print as something else.
    """

    __slots__ = ("conductor", "index")

    def __init__(self, conductor: int, index: int):
        if type(conductor) is not int or type(index) is not int:
            raise TypeError(f"conductor and index must be ints, got {conductor!r} and {index!r}")
        if conductor < 0 or index < 0:
            raise ValueError("conductor and index are nonnegative")
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "index", index)

    def __eq__(self, other):
        if other.__class__ is CharacterLabel:
            return self.conductor == other.conductor and self.index == other.index
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.conductor, self.index))

    def __lt__(self, other):
        if other.__class__ is CharacterLabel:
            return (self.conductor, self.index) < (other.conductor, other.index)
        return NotImplemented

    def __str__(self) -> str:
        return f"c{self.conductor}.{self.index}"

    def to_json(self) -> dict:
        return _label_record(self.conductor, self.index)


def labels_with_conductor(field: LocalFieldData, c: int) -> int:
    """How many unit-group characters of the field have conductor exactly c.

    Differences of the unit-quotient orders: 1 for c = 0, q - 2 for
    c = 1, (q-1)^2 * q^(c-2) beyond.
    """
    if c < 0:
        raise ValueError("conductors are nonnegative")
    if c == 0:
        return 1
    if c == 1:
        return unit_quotient_order(field, 1) - 1
    return unit_quotient_order(field, c) - unit_quotient_order(field, c - 1)


# Most circles TemperedDualGL1.enumerate builds.  KMorphism stores only its
# nonzero cells and the CLI streams the JSON, so memory stays small, but
# schema 1 writes each K-theory matrix densely and output grows with the
# square of the count: 1,458 circles (q=3, M=7) write 47 MB of JSON.
MAX_CIRCLES = 2000


def circle_count(field: LocalFieldData, bound: int) -> int:
    """Circles of the truncation at bound: 1 for bound 0, else (q-1)*q^(bound-1).

    The product stops growing once it passes MAX_CIRCLES, so a huge bound
    costs a handful of multiplications; the returned count is then only
    known to exceed the cap.
    """
    if bound < 0:
        raise ValueError("the truncation bound is nonnegative")
    count = 1 if bound == 0 else unit_quotient_order(field, 1)
    for _ in range(bound - 1):
        if count > MAX_CIRCLES:
            break
        count *= field.q
    return count


class TemperedDualGL1(Value):
    """Truncation of the GL(1) tempered dual of base: circles for conductor <= bound.

    The default enumeration lists, for each conductor, exactly the
    number of characters the unit-quotient orders allow; any explicit
    circle list respecting the same bounds is also accepted.
    """

    __slots__ = ("base", "bound", "circles")

    @staticmethod
    def enumerate(base: LocalFieldData, bound: int) -> "TemperedDualGL1":
        if circle_count(base, bound) > MAX_CIRCLES:
            raise ValueError(
                f"conductor bound {bound} at q={base.q} gives more than {MAX_CIRCLES} circles"
            )
        circles = tuple(
            CharacterLabel(c, j)
            for c in range(bound + 1)
            for j in range(labels_with_conductor(base, c))
        )
        return TemperedDualGL1(base, bound, circles)

    def __post_init__(self):
        seen = set()
        for label in self.circles:
            if label in seen:
                raise ValueError(f"duplicate circle label {label}")
            seen.add(label)
            if label.conductor > self.bound:
                raise ValueError(f"label {label} exceeds the truncation bound")
        upto = 0
        for c, count in sorted(Counter(lbl.conductor for lbl in self.circles).items()):
            upto += count
            if upto > unit_quotient_order(self.base, max(c, 1)):
                raise ValueError(
                    f"more labels with conductor <= {c} than characters exist"
                )

    def to_json(self) -> dict:
        return {
            "q": self.base.q,
            "M": self.bound,
            "circles": Records(_label_record, tuple(map(CharacterLabel._values, self.circles))),
        }


class Gl1BaseChange(Value):
    """Component-matched description of base change on a truncated dual.

    pairs lists (source label, target label, circle degree f); the
    conductor map is the transition function restricted to the occurring
    conductors.  Target labels not hit by any source (passed in
    explicitly) are retained so induced K-theory matrices show their
    zero columns.  Degrees are exact ints, as the labels' fields are.
    """

    __slots__ = ("f", "pairs", "conductor_map", "extra_targets")
    _defaults = {"extra_targets": ()}

    def __post_init__(self):
        if any(type(degree) is not int for _, _, degree in self.pairs):
            raise TypeError("circle degrees must be ints")

    def to_json(self) -> dict:
        return {
            "pairs": Records(_pair_record, tuple(
                (s.conductor, s.index, t.conductor, t.index, d) for s, t, d in self.pairs
            )),
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
    collisions: dict[CharacterLabel, CharacterLabel] | None = None,
    extra_targets: Sequence[CharacterLabel] = (),
) -> Gl1BaseChange:
    """Transport every circle of the truncated dual through base change.

    Each source label (c, j) goes to (psi(c), j) with circle degree
    ext.f.  The default target assignment is injective; a collision
    table may identify target labels explicitly, since nothing in the
    invariant model decides whether distinct characters pull back to the
    same one.
    """
    check_gl1_scope(ext)
    validate_extension_filtration(ext, filt)
    if dual_f.base.q != ext.base.q:
        raise ValueError("the dual is for a different residue field")
    collisions = collisions or {}
    conductors = dict.fromkeys(label.conductor for label in dual_f.circles)
    cmap = {c: conductor_transport(filt, c) for c in conductors}
    pairs = []
    for label in dual_f.circles:
        target_c = cmap[label.conductor]
        target = collisions.get(label, CharacterLabel(target_c, label.index))
        if target.conductor != target_c:
            raise ValueError(
                f"collision table sends conductor {label.conductor} to "
                f"{target.conductor}, but the transition function gives {target_c}"
            )
        pairs.append((label, target, ext.f))
    return Gl1BaseChange(
        f=ext.f,
        pairs=tuple(pairs),
        conductor_map=cmap,
        extra_targets=tuple(extra_targets),
    )


def circle_map(bc: Gl1BaseChange) -> "ProperCircleMap":
    """The base-change description as a proper circle map for K-theory.

    Source components follow the dual's circle order; target components
    appear in first-hit order followed by any explicit extra targets, so
    unmatched targets contribute visible zero columns.
    """
    source = CircleSpace(src for src, _, _ in bc.pairs)
    target = CircleSpace(dict.fromkeys([*(tgt for _, tgt, _ in bc.pairs), *bc.extra_targets]))
    return ProperCircleMap(source, target, bc.pairs)


class Arc(Value):
    """Closed arc on a circle, endpoints in exact rational turns."""

    __slots__ = ("lo", "hi")

    def __post_init__(self):
        if self.hi < self.lo:
            raise ValueError("empty arc: the upper endpoint is below the lower one")

    @property
    def length(self) -> Fraction:
        return min(self.hi - self.lo, Fraction(1))

    @property
    def is_full_circle(self) -> bool:
        return self.hi - self.lo >= 1


def arc_preimage(f: int, arc: Arc) -> tuple[Arc, ...]:
    """Preimage of a closed arc under z -> z^f, as exact turn intervals.

    The f components are [lo/f + k/f, hi/f + k/f]; a full-circle arc
    pulls back to the full circle.  Finitely many closed components is
    the properness witness on truncations.
    """
    if f < 1:
        raise ValueError("degree must be >= 1")
    if arc.is_full_circle:
        return (Arc(Fraction(0), Fraction(1)),)
    return tuple(
        Arc((arc.lo + k) / f, (arc.hi + k) / f) for k in range(f)
    )


def properness_check(
    bc: Gl1BaseChange, target: CharacterLabel, arc: Arc
) -> dict[CharacterLabel, tuple[Arc, ...]]:
    """Preimage arcs of a closed arc in one target circle, per source circle."""
    out: dict[CharacterLabel, tuple[Arc, ...]] = {}
    for src, tgt, degree in bc.pairs:
        if tgt == target:
            out[src] = arc_preimage(degree, arc)
    return out
