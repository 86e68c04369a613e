"""Independent oracles for circle maps, used only by the tests.

circle_degree_oracle counts the winding number of z -> z^f over exact
rational turn angles, which cross-checks the degree ktheory gives every
symmetric-power component.  Arc, arc_preimage and properness_check pull
a closed arc back along a base-change circle map: finitely many closed
preimage arcs per source circle is the properness witness on
truncations.  Angles are exact rational turns (fractions of a full
revolution), which keeps arc preimages exact.
"""

from __future__ import annotations

from fractions import Fraction

from basechange.gl1 import Gl1BaseChange
from basechange.value import Value


class InsufficientSamples(ValueError):
    """The winding-number oracle needs at least 4f sample points."""


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
    bc: Gl1BaseChange, target: tuple[int, int], arc: Arc
) -> dict[tuple[int, int], tuple[Arc, ...]]:
    """Preimage arcs of a closed arc in one target circle (c', j'), per source circle (c, j)."""
    return {(c, j): arc_preimage(bc.f, arc) for c, j, tc, tj in bc.pairs if (tc, tj) == target}
