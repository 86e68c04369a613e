import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from basechange.gl1 import (
    MAX_CIRCLES,
    Gl1BaseChange,
    TemperedDualGL1,
    bc_gl1,
    circle_map,
    labels_with_conductor,
)
from basechange.ktheory import induced_map
from basechange.localfield import (
    ExtensionData,
    LocalFieldData,
    RamificationFiltration,
    UnsupportedExtension,
    conductor_transport,
    unit_quotient_order,
)
from circle_oracles import Arc, arc_preimage, properness_check
from points import GaussianRational, I, UnramifiedQuasicharacter, bc_unramified_quasichar


def field(q=3, p=3):
    return LocalFieldData(q, p)


def unramified(f, q=3, p=3):
    return ExtensionData(field(q, p), e=1, f=f, galois=True, cyclic=True)


def tame_quadratic(q=3, p=3):
    return ExtensionData(field(q, p), e=2, f=1, galois=True, cyclic=True)


# -- Weil degrees and unramified quasicharacters --------------------------------


def test_include_weil():
    # a Weil element of E-side degree m has F-side degree f*m, and the base
    # changed character takes the same value on it from either side
    chi = UnramifiedQuasicharacter(GaussianRational(1, 1))
    for m, f in ((1, 3), (0, 5), (-2, 2)):
        assert bc_unramified_quasichar(chi, f).evaluate(m) == chi.evaluate(f * m)


def test_bc_unramified_quasichar_examples():
    assert bc_unramified_quasichar(UnramifiedQuasicharacter(I), 2).z == GaussianRational(-1)
    assert bc_unramified_quasichar(
        UnramifiedQuasicharacter(GaussianRational(2)), 1
    ).z == GaussianRational(2)


def test_evaluation_coherence_frozen_example():
    # oracle: (1+i)^6 = ((1+i)^2)^3 = (2i)^3 = -8i by direct multiplication
    z = GaussianRational(1, 1)
    assert z ** 6 == GaussianRational(0, -8)
    chi = UnramifiedQuasicharacter(z)
    assert bc_unramified_quasichar(chi, 2).evaluate(3) == GaussianRational(0, -8)
    assert chi.evaluate(6) == GaussianRational(0, -8)


def test_evaluate_refuses_a_non_integer_degree():
    # a Weil degree is an integer: 2.9 is refused, not truncated to 2
    with pytest.raises(TypeError):
        UnramifiedQuasicharacter(GaussianRational(1, 1)).evaluate(2.9)


@pytest.mark.parametrize("b", [True, False])
def test_bools_are_refused_as_degrees(b):
    # True == 1, so each of these returned a value as if given 1 (or 0)
    chi = UnramifiedQuasicharacter(GaussianRational(1, 1))
    with pytest.raises(TypeError):
        chi.evaluate(b)
    with pytest.raises(TypeError):
        bc_unramified_quasichar(chi, b)


nonzero_gaussians = st.builds(
    GaussianRational,
    st.fractions(min_value=-4, max_value=4, max_denominator=5),
    st.fractions(min_value=-4, max_value=4, max_denominator=5),
).filter(bool)


@given(nonzero_gaussians, st.integers(1, 4), st.integers(-5, 5))
def test_evaluation_coherence(z, f, m):
    chi = UnramifiedQuasicharacter(z)
    assert bc_unramified_quasichar(chi, f).evaluate(m) == chi.evaluate(f * m)


@given(nonzero_gaussians, st.integers(1, 3), st.integers(1, 3))
def test_tower_coherence(z, f1, f2):
    chi = UnramifiedQuasicharacter(z)
    twice = bc_unramified_quasichar(bc_unramified_quasichar(chi, f1), f2)
    assert twice == bc_unramified_quasichar(chi, f1 * f2)


def test_temperedness_preserved():
    z = GaussianRational(Fraction(3, 5), Fraction(4, 5))
    chi = UnramifiedQuasicharacter(z)
    assert chi.tempered
    assert bc_unramified_quasichar(chi, 7).tempered


# -- the truncated dual -----------------------------------------------------------


def test_labels_with_conductor_sums_to_unit_quotient_order():
    for q, p in ((2, 2), (3, 3), (4, 2), (5, 5), (9, 3)):
        for c in range(1, 5):
            total = sum(labels_with_conductor(field(q, p), k) for k in range(c + 1))
            assert total == unit_quotient_order(field(q, p), c)


def test_enumerated_dual():
    dual = TemperedDualGL1.enumerate(field(), 2)
    assert len(dual.circles) == unit_quotient_order(field(), 2)
    assert dual.circles[0] == (0, 0)
    assert dual.circles[1] == (1, 0)


def test_enumerate_gate_at_max_circles():
    # (q-1) q^(M-1) circles: 1,024 at q=2, M=11, and 2,048 at M=12; 1,998 at q=1999, M=1
    assert MAX_CIRCLES == 2000
    for q, bound, count in ((2, 11, 1024), (1999, 1, 1998)):
        assert len(TemperedDualGL1.enumerate(field(q, q), bound).circles) == count
    for q, bound in ((2, 12), (2003, 1)):
        with pytest.raises(ValueError, match=f"conductor bound {bound} at q={q} gives more than 2000 circles"):
            TemperedDualGL1.enumerate(field(q, q), bound)


def test_a_bound_that_is_not_an_exact_int_is_refused():
    # a bool or a float would be written as "M": true or "M": 2.5
    for bound in (True, False, 2.5, 2.0):
        with pytest.raises(TypeError, match="the truncation bound must be an int"):
            TemperedDualGL1(field(), bound, ((0, 0),))
        with pytest.raises(TypeError, match="the truncation bound must be an int"):
            TemperedDualGL1.enumerate(field(), bound)


def test_a_negative_bound_is_refused_as_such():
    # with no circles, no circle's conductor can exceed it: the bound itself is refused
    for circles in ((), ((0, 0),)):
        with pytest.raises(ValueError, match="the truncation bound is nonnegative"):
            TemperedDualGL1(field(), -1, circles)
    for bound in (-1, -(10**9)):
        with pytest.raises(ValueError, match="the truncation bound is nonnegative"):
            TemperedDualGL1.enumerate(field(), bound)


def test_base_change_refuses_a_degree_that_is_not_an_int():
    for degree in (2.0, True):
        with pytest.raises(TypeError):
            Gl1BaseChange(degree, ((0, 0, 0, 0),))
    # the degree is f alone: a row carrying its own degree is refused
    with pytest.raises(TypeError):
        Gl1BaseChange(2, ((0, 0, 0, 0, 2),))


def test_dual_validation():
    for circles, error in [
        (((0, 0), (0, 0)), ValueError),  # a duplicate
        (((2, 0),), ValueError),  # over the bound
        # two circles of conductor 1 but only q - 2 = 1 such character exists
        (((0, 0), (1, 0), (1, 1)), ValueError),
        # two circles of conductor 0 but only the trivial character has it
        (((0, 0), (0, 1)), ValueError),
        (((0, -1),), ValueError),
        (((True, 0),), TypeError),
        (((1.0, 0),), TypeError),
        (((0, 0.0),), TypeError),
    ]:
        with pytest.raises(error):
            TemperedDualGL1(field(), 1, circles)


def test_a_huge_conductor_is_validated_without_its_power():
    # (q-1)^2 q^(c-2) characters have conductor c; the check stops the product
    # once it passes the count of circles given, instead of forming q^(10^7 - 2)
    start = time.perf_counter()
    assert TemperedDualGL1(field(), 10**7, ((10**7, 0),)).circles == ((10**7, 0),)
    assert time.perf_counter() - start < 0.5
    for circles in (((10**7, 0), (1, 0), (1, 1)), ((10**7, 0), (0, 0), (0, 1))):
        with pytest.raises(ValueError, match="more circles of conductor"):
            TemperedDualGL1(field(), 10**7, circles)
    # at q = 2 every count is a power of two, and the cap must not stop short of it
    assert TemperedDualGL1(field(2, 2), 5, tuple((5, j) for j in range(8))).bound == 5
    with pytest.raises(ValueError, match="more circles of conductor 5"):
        TemperedDualGL1(field(2, 2), 5, tuple((5, j) for j in range(9)))


# -- base change on the dual -------------------------------------------------------


def test_bc_gl1_unramified():
    dual = TemperedDualGL1.enumerate(field(), 2)
    bc = bc_gl1(unramified(2), RamificationFiltration(), dual)
    assert bc.f == 2
    matched = [row for row in bc.pairs if row[:2] == (1, 0)]
    assert matched == [(1, 0, 1, 0)]
    assert bc.conductor_map == {0: 0, 1: 1, 2: 2}
    assert circle_map(bc).matches[1] == ("c1.0", "c1.0", 2)


def test_bc_gl1_tame_conductor_doubling():
    dual = TemperedDualGL1.enumerate(field(), 2)
    bc = bc_gl1(tame_quadratic(), RamificationFiltration((2,)), dual)
    assert bc.conductor_map == {0: 0, 1: 2, 2: 4}
    assert (1, 0, 2, 0) in bc.pairs
    assert (0, 0, 0, 0) in bc.pairs


def test_bc_gl1_conductor_map_matches_transition_function():
    filt = RamificationFiltration((3, 3))
    ext = ExtensionData(field(), e=3, f=1, galois=True, cyclic=True)
    dual = TemperedDualGL1.enumerate(field(), 3)
    bc = bc_gl1(ext, filt, dual)
    for c, v in bc.conductor_map.items():
        assert v == conductor_transport(filt, c)
    # the map is the one the pairs carry, in the order they first show each conductor
    assert list(bc.conductor_map.items()) == list(dict((c, tc) for c, _, tc, _ in bc.pairs).items())


def test_bc_gl1_scope():
    dual = TemperedDualGL1.enumerate(field(), 1)
    wild_not_cyclic = ExtensionData(field(), e=3, f=1, galois=True)
    with pytest.raises(UnsupportedExtension):
        bc_gl1(wild_not_cyclic, RamificationFiltration((3,)), dual)
    wild_mixed = ExtensionData(field(), e=3, f=2, galois=True, cyclic=True)
    with pytest.raises(UnsupportedExtension):
        bc_gl1(wild_mixed, RamificationFiltration((3,)), dual)
    # cyclic Galois totally ramified wild is inside the theorem's hypotheses
    ok = ExtensionData(field(), e=3, f=1, galois=True, cyclic=True)
    bc = bc_gl1(ok, RamificationFiltration((3, 3)), dual)
    assert bc.conductor_map[1] == 1  # psi(1) = 1 below the jump


def test_bc_gl1_refuses_a_dual_of_another_field():
    dual = TemperedDualGL1.enumerate(field(9, 3), 1)
    assert dual.to_json()["q"] == 9
    with pytest.raises(ValueError, match="different residue field"):
        bc_gl1(unramified(2), RamificationFiltration(), dual)
    assert len(bc_gl1(unramified(2, q=9), RamificationFiltration(), dual).pairs) == 8


def test_bc_gl1_collision_table():
    # q = 5 has q - 2 = 3 characters of conductor 1
    dual = TemperedDualGL1(field(5, 5), 1, ((1, 0), (1, 1)))
    bc = bc_gl1(
        unramified(2, q=5, p=5),
        RamificationFiltration(),
        dual,
        collisions={(1, 1): (1, 0)},
    )
    assert circle_map(bc).target.components == ("c1.0",)
    k0, k1 = induced_map(circle_map(bc))
    assert k1.entries == ((2,), (2,))
    assert k0.entries == ((1,), (1,))
    with pytest.raises(ValueError, match="transition function gives 1"):
        bc_gl1(
            unramified(2, q=5, p=5),
            RamificationFiltration(),
            dual,
            collisions={(1, 1): (2, 0)},
        )
    # a record whose pairs send conductor 1 to both 3 and 5 has no conductor map
    with pytest.raises(ValueError, match="one conductor to two"):
        Gl1BaseChange(2, ((1, 0, 3, 0), (1, 1, 5, 0)))


@pytest.mark.parametrize("index", [1.0, True, "0"])
def test_bc_gl1_refuses_a_target_index_that_is_not_an_int(index):
    dual = TemperedDualGL1(field(5, 5), 1, ((1, 0), (1, 1)))
    with pytest.raises(TypeError):
        bc_gl1(unramified(2, q=5, p=5), RamificationFiltration(), dual, collisions={(1, 1): (1, index)})
    with pytest.raises(TypeError):
        bc_gl1(unramified(2, q=5, p=5), RamificationFiltration(), dual, extra_targets=[(1, index)])


def test_circle_map_zero_columns_for_extra_targets():
    dual = TemperedDualGL1.enumerate(field(), 1)
    bc = bc_gl1(unramified(3), RamificationFiltration(), dual, extra_targets=[(1, 5)])
    k0, k1 = induced_map(circle_map(bc))
    col = k1.col_labels.index("c1.5")
    assert all(row[col] == 0 for row in k1.entries)
    assert all(row[col] == 0 for row in k0.entries)


# -- properness ---------------------------------------------------------------------


def test_arc_preimage_examples():
    assert arc_preimage(1, Arc(Fraction(0), Fraction(1, 4))) == (
        Arc(Fraction(0), Fraction(1, 4)),
    )
    # oracle: z^2 in the upper half circle iff the angle of z lies in
    # [0, 1/4] or [1/2, 3/4] turns, by halving the angle interval
    assert arc_preimage(2, Arc(Fraction(0), Fraction(1, 2))) == (
        Arc(Fraction(0), Fraction(1, 4)),
        Arc(Fraction(1, 2), Fraction(3, 4)),
    )
    assert arc_preimage(3, Arc(Fraction(0), Fraction(1))) == (
        Arc(Fraction(0), Fraction(1)),
    )


def test_empty_arc_rejected():
    with pytest.raises(ValueError):
        Arc(Fraction(1, 2), Fraction(1, 4))


@given(
    st.integers(1, 8),
    st.fractions(min_value=0, max_value=1, max_denominator=16),
    st.fractions(min_value=0, max_value=1, max_denominator=16),
)
def test_preimage_lengths_sum_to_arc_length(f, a, b):
    lo, hi = min(a, b), max(a, b)
    arc = Arc(lo, hi)
    pieces = arc_preimage(f, arc)
    if not arc.is_full_circle:
        assert len(pieces) == f
        assert sum(p.length for p in pieces) == arc.length
        assert all(p.length == arc.length / f for p in pieces)


def test_properness_check_routes_by_target():
    dual = TemperedDualGL1.enumerate(field(), 1)
    bc = bc_gl1(unramified(2), RamificationFiltration(), dual)
    out = properness_check(bc, (1, 0), Arc(Fraction(0), Fraction(1, 2)))
    assert set(out) == {(1, 0)}
    assert len(out[1, 0]) == 2
