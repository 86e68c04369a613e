from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basechange.extquot import (
    MAX_TORUS_RANK,
    ExtendedQuotient,
    _partition_rows,
    extended_quotient,
    partitions_of,
)
from points import GaussianRational, I, TorusPoint, base_change_point


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


@pytest.mark.parametrize("n", range(1, MAX_TORUS_RANK + 1))
def test_partitions_are_listed_in_reverse_lexicographic_order(n):
    # from (n,) to (1,)*n, strictly decreasing, each a partition of n, p(n) of
    # them: that fixes the list
    parts = partitions_of(n)
    assert parts[0] == (n,) and parts[-1] == (1,) * n
    for p in parts:
        assert type(p) is tuple and sum(p) == n
        assert all(type(x) is int and x >= 1 for x in p)
        assert all(a >= b for a, b in zip(p, p[1:]))
    assert all(a > b for a, b in zip(parts, parts[1:]))
    assert len(parts) == partition_count(n)


def test_partition_count_oracle_values():
    assert [partition_count(n) for n in range(1, 8)] == [1, 2, 3, 5, 7, 11, 15]


def test_extended_quotient_gl4():
    eq = extended_quotient(4)
    assert [m for _, m in eq.components] == [(1,), (1, 1), (2,), (1, 2), (4,)]
    assert eq.components == (((4,), (1,)), ((3, 1), (1, 1)), ((2, 2), (2,)), ((2, 1, 1), (1, 2)), ((1, 1, 1, 1), (4,)))


def test_extended_quotient_small_and_bounds():
    assert len(extended_quotient(1).components) == 1
    assert len(extended_quotient(5).components) == partition_count(5) == 7
    with pytest.raises(ValueError):
        extended_quotient(0)
    with pytest.raises(ValueError):
        extended_quotient(31)


def test_extended_quotient_derives_its_rows_from_n():
    # n is the one field: rows cannot be given, and a bool or float n is refused
    assert ExtendedQuotient(n=3) == extended_quotient(3) and ExtendedQuotient(3).components == tuple(_partition_rows(3))
    with pytest.raises(TypeError):
        ExtendedQuotient(2, (((True, True), (2.0,)),))
    for bad in (True, 2.0, "2"):
        with pytest.raises(TypeError, match="n must be an int"):
            ExtendedQuotient(bad)
    for bad in (0, 31):
        with pytest.raises(ValueError, match="1 <= n <= 30"):
            ExtendedQuotient(bad)


@settings(deadline=None)
@given(st.integers(1, 30))
def test_component_count_matches_pentagonal_oracle(n):
    assert len(extended_quotient(n).components) == partition_count(n)


@given(st.integers(1, 12))
def test_component_weights_and_dimensions(n):
    # the distinct part sizes, each with its multiplicity, weigh n; the dimension sum r_i counts the parts
    for partition, multiplicities in extended_quotient(n).components:
        sizes = sorted(set(partition), reverse=True)
        assert sum(size * mult for size, mult in zip(sizes, multiplicities)) == n
        assert sum(multiplicities) == len(partition)


@pytest.mark.parametrize("n", range(1, MAX_TORUS_RANK + 1))
def test_rows_hold_each_partition_with_its_multiplicities(n):
    eq = extended_quotient(n)
    assert [p for p, _ in eq.components] == partitions_of(n)
    assert all(m == tuple(Counter(p).values()) for p, m in eq.components)


def test_fixed_component_examples():
    rows = dict(extended_quotient(4).components)
    assert rows[(1, 1, 1, 1)] == (4,) and rows[(4,)] == (1,) and rows[(2, 2)] == (2,)


def test_partitions_of_checks_n_before_enumerating():
    # refused as ExtendedQuotient refuses n, with the same messages, before any partition is listed
    for bad in (True, 2.0):
        with pytest.raises(TypeError, match="n must be an int"):
            partitions_of(bad)
    for bad in (0, 31):
        with pytest.raises(ValueError, match="1 <= n <= 30"):
            partitions_of(bad)


# -- points and base change ----------------------------------------------------


def test_torus_point_validation():
    comp = (1, 2)  # the multiplicities of 2+1+1: Sym^1 x Sym^2
    good = TorusPoint.make([[gaussian(2)], [gaussian(3), gaussian(1, 1)]])
    assert good.lies_on(comp)
    assert not TorusPoint.make([[gaussian(2)]]).lies_on(comp)
    with pytest.raises(ValueError):
        TorusPoint.make([[gaussian(0)]])


def test_base_change_point_examples():
    sym1 = (1,)
    assert base_change_point(sym1, TorusPoint.make([[I]]), 2) == TorusPoint.make(
        [[gaussian(-1)]]
    )
    sym2 = (2,)
    point = TorusPoint.make([[gaussian(3), gaussian(Fraction(1, 3))]])
    # oracle: direct exact exponentiation of each coordinate
    assert base_change_point(sym2, point, 2) == TorusPoint.make(
        [[gaussian(9), gaussian(Fraction(1, 9))]]
    )
    assert base_change_point(sym2, point, 1) == point


@given(st.lists(nonzero_gaussians, min_size=2, max_size=2), st.permutations([0, 1]), st.integers(1, 4))
def test_base_change_multiset_invariance(coords, perm, f):
    comp = (2,)
    a = TorusPoint.make([coords])
    b = TorusPoint.make([[coords[i] for i in perm]])
    assert a == b
    assert base_change_point(comp, a, f) == base_change_point(comp, b, f)


@given(nonzero_gaussians, st.integers(1, 3), st.integers(1, 3))
def test_base_change_tower_compatibility(z, f, g):
    comp = (1,)
    point = TorusPoint.make([[z]])
    once = base_change_point(comp, base_change_point(comp, point, f), g)
    assert once == base_change_point(comp, point, f * g)


def test_unit_circle_preserved():
    z = GaussianRational(Fraction(3, 5), Fraction(4, 5))
    point = TorusPoint.make([[z, z.conjugate()]])
    assert point.on_unit_torus()
    image = base_change_point((2,), point, 3)
    assert image.on_unit_torus()


def test_steinberg_examples():
    # the curve of unramified twists of Steinberg is the Sym^1 piece: z -> z^f
    sym1 = (1,)
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
    sym1 = (1,)
    via_point = base_change_point(sym1, TorusPoint.make([[z]]), 5)
    assert via_point == TorusPoint.make([[z ** 5]])
    # oracle: (2-i)^2 = 3-4i, (3-4i)^2 = -7-24i, (-7-24i)(2-i) = -38-41i
    assert via_point == TorusPoint.make([[gaussian(-38, -41)]])


def test_satake_examples():
    # the unramified principal series is Sym^n, the piece of the identity class
    sym3 = (3,)
    point = TorusPoint.make([[gaussian(1), I, gaussian(2)]])
    assert base_change_point(sym3, point, 1) == point
    fourth_roots = TorusPoint.make([[I, gaussian(-1), gaussian(0, -1)]])
    assert base_change_point(sym3, fourth_roots, 4) == TorusPoint.make(
        [[gaussian(1), gaussian(1), gaussian(1)]]
    )
    sym2 = (2,)
    generic = TorusPoint.make([[gaussian(3), gaussian(Fraction(1, 3))]])
    assert base_change_point(sym2, generic, 2) == TorusPoint.make(
        [[gaussian(9), gaussian(Fraction(1, 9))]]
    )
    with pytest.raises(ValueError):  # a Sym^2 point has a single factor
        base_change_point(sym2, TorusPoint.make([[gaussian(1)], [gaussian(2)]]), 2)
