from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basechange.extquot import (
    OrbitComponent,
    TorusPoint,
    base_change_point,
    extended_quotient,
    partitions_of,
)
from basechange.gaussian import GaussianRational, I


def partition_count(n):
    """Independent oracle: Euler's pentagonal-number recurrence."""
    table = [1] + [0] * n
    for m in range(1, n + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m and g2 > m:
                break
            sign = 1 if k % 2 == 1 else -1
            if g1 <= m:
                total += sign * table[m - g1]
            if g2 <= m:
                total += sign * table[m - g2]
            k += 1
        table[m] = total
    return table[n]


def gaussian(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


nonzero_gaussians = st.builds(
    GaussianRational,
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
).filter(bool)


# -- partitions and components ------------------------------------------------


def test_partition_order_for_four():
    assert partitions_of(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_partition_count_oracle_values():
    assert [partition_count(n) for n in range(1, 8)] == [1, 2, 3, 5, 7, 11, 15]


def test_extended_quotient_gl4():
    eq = extended_quotient(4)
    assert [c.sym_powers for c in eq.components] == [(1,), (1, 1), (2,), (1, 2), (4,)]
    assert [c.describe() for c in eq.components] == [
        "Sym^1",
        "Sym^1 x Sym^1",
        "Sym^2",
        "Sym^1 x Sym^2",
        "Sym^4",
    ]


def test_extended_quotient_small_and_bounds():
    assert len(extended_quotient(1).components) == 1
    assert len(extended_quotient(5).components) == partition_count(5) == 7
    with pytest.raises(ValueError):
        extended_quotient(0)
    with pytest.raises(ValueError):
        extended_quotient(31)


@settings(deadline=None)
@given(st.integers(1, 30))
def test_component_count_matches_pentagonal_oracle(n):
    assert len(extended_quotient(n).components) == partition_count(n)


@given(st.integers(1, 12))
def test_component_weights_and_dimensions(n):
    for comp in extended_quotient(n).components:
        assert sum(size * mult for size, mult in comp.distinct_parts) == n
        assert comp.dimension == len(comp.partition)


def test_fixed_component_examples():
    assert OrbitComponent.from_partition((1, 1, 1, 1), 4).sym_powers == (4,)
    assert OrbitComponent.from_partition((4,), 4).sym_powers == (1,)
    assert OrbitComponent.from_partition((2, 2), 4).sym_powers == (2,)
    with pytest.raises(ValueError):
        OrbitComponent.from_partition((3, 2), 4)
    with pytest.raises(ValueError):
        OrbitComponent.from_partition((1, 3), 4)


def test_partition_parts_must_be_ints():
    # a float part is refused, not truncated, and before the parts are summed
    with pytest.raises(ValueError, match="positive ints"):
        OrbitComponent.from_partition([3.0, 1.0])


# -- points and base change ----------------------------------------------------


def test_torus_point_validation():
    comp = OrbitComponent.from_partition((2, 1, 1), 4)  # Sym^1 x Sym^2
    good = TorusPoint.make([[gaussian(2)], [gaussian(3), gaussian(1, 1)]])
    assert good.lies_on(comp)
    assert not TorusPoint.make([[gaussian(2)]]).lies_on(comp)
    with pytest.raises(ValueError):
        TorusPoint.make([[gaussian(0)]])


def test_base_change_point_examples():
    sym1 = OrbitComponent.from_partition((1,), 1)
    assert base_change_point(sym1, TorusPoint.make([[I]]), 2) == TorusPoint.make(
        [[gaussian(-1)]]
    )
    sym2 = OrbitComponent.from_partition((1, 1), 2)
    point = TorusPoint.make([[gaussian(3), gaussian(Fraction(1, 3))]])
    # oracle: direct exact exponentiation of each coordinate
    assert base_change_point(sym2, point, 2) == TorusPoint.make(
        [[gaussian(9), gaussian(Fraction(1, 9))]]
    )
    assert base_change_point(sym2, point, 1) == point


@given(st.lists(nonzero_gaussians, min_size=2, max_size=2), st.permutations([0, 1]), st.integers(1, 4))
def test_base_change_multiset_invariance(coords, perm, f):
    comp = OrbitComponent.from_partition((1, 1), 2)
    a = TorusPoint.make([coords])
    b = TorusPoint.make([[coords[i] for i in perm]])
    assert a == b
    assert base_change_point(comp, a, f) == base_change_point(comp, b, f)


@given(nonzero_gaussians, st.integers(1, 3), st.integers(1, 3))
def test_base_change_tower_compatibility(z, f, g):
    comp = OrbitComponent.from_partition((1,), 1)
    point = TorusPoint.make([[z]])
    once = base_change_point(comp, base_change_point(comp, point, f), g)
    assert once == base_change_point(comp, point, f * g)


def test_unit_circle_preserved():
    z = GaussianRational(Fraction(3, 5), Fraction(4, 5))
    point = TorusPoint.make([[z, z.conjugate()]])
    assert point.on_unit_torus()
    image = base_change_point(OrbitComponent.from_partition((1, 1), 2), point, 3)
    assert image.on_unit_torus()


def test_steinberg_examples():
    # the curve of unramified twists of Steinberg is the Sym^1 piece: z -> z^f
    sym1 = OrbitComponent.from_partition((1,), 1)
    # oracle: (1+i)^2 = 1 + 2i + i^2 = 2i by direct multiplication
    assert gaussian(1, 1) * gaussian(1, 1) == gaussian(0, 2)
    for z, f, image in (
        (gaussian(2), 3, gaussian(8)),
        (I, 4, gaussian(1)),
        (gaussian(1, 1), 2, gaussian(0, 2)),
    ):
        assert base_change_point(sym1, TorusPoint.make([[z]]), f) == TorusPoint.make([[image]])
    with pytest.raises(ValueError):
        base_change_point(sym1, TorusPoint.make([[gaussian(2)]]), 0)
    with pytest.raises(ValueError):  # the curve lives in the punctured line
        TorusPoint.make([[gaussian(0)]])


def test_steinberg_matches_base_change_point():
    z = gaussian(2, -1)
    sym1 = OrbitComponent.from_partition((1,), 1)
    via_point = base_change_point(sym1, TorusPoint.make([[z]]), 5)
    assert via_point == TorusPoint.make([[z ** 5]])
    # oracle: (2-i)^2 = 3-4i, (3-4i)^2 = -7-24i, (-7-24i)(2-i) = -38-41i
    assert via_point == TorusPoint.make([[gaussian(-38, -41)]])


def test_satake_examples():
    # the unramified principal series is Sym^n, the piece of the identity class
    sym3 = OrbitComponent.from_partition((1, 1, 1), 3)
    point = TorusPoint.make([[gaussian(1), I, gaussian(2)]])
    assert base_change_point(sym3, point, 1) == point
    fourth_roots = TorusPoint.make([[I, gaussian(-1), gaussian(0, -1)]])
    assert base_change_point(sym3, fourth_roots, 4) == TorusPoint.make(
        [[gaussian(1), gaussian(1), gaussian(1)]]
    )
    sym2 = OrbitComponent.from_partition((1, 1), 2)
    generic = TorusPoint.make([[gaussian(3), gaussian(Fraction(1, 3))]])
    assert base_change_point(sym2, generic, 2) == TorusPoint.make(
        [[gaussian(9), gaussian(Fraction(1, 9))]]
    )
    with pytest.raises(ValueError):  # a Sym^2 point has a single factor
        base_change_point(sym2, TorusPoint.make([[gaussian(1)], [gaussian(2)]]), 2)
