import pytest
from hypothesis import given
from hypothesis import strategies as st

from basechange.gl2 import (
    AdmissiblePair,
    EvenDegree,
    Gl2BaseChange,
    NotUnramified,
    OutOfScope,
    bc_gl2,
    compositum_invariants,
    validate_admissible,
)
from basechange.localfield import (
    ExtensionData,
    LocalFieldData,
    RamificationFiltration,
    compose_tower,
)


def base_field(q=5, p=5, char_zero=True):
    return LocalFieldData(q, p, char_zero)


def ramified_quadratic(base=None):
    return ExtensionData(base or base_field(), e=2, f=1, galois=True, cyclic=True)


def make_pair(conductor=2, base=None, not_norm=True, level_one=False, unitary=True, orders=(2,), index=0):
    return AdmissiblePair(
        quad=ramified_quadratic(base),
        quad_filtration=RamificationFiltration(orders),
        xi=(conductor, index),
        not_norm_factor=not_norm,
        level_one_norm_factor=level_one,
        unitary=unitary,
    )


def unramified_lift(f, base=None):
    return ExtensionData(base or base_field(), e=1, f=f, galois=True, cyclic=True)


# -- admissibility -----------------------------------------------------------


CONDITION_1 = "condition (1): the character factors through the norm map"
CONDITION_2 = (
    "condition (2): the level-one restriction factors through the norm "
    "but the extension is not unramified"
)


def test_validate_admissible_examples():
    assert validate_admissible(make_pair()) == []
    assert validate_admissible(make_pair(not_norm=False)) == [CONDITION_1]
    assert validate_admissible(make_pair(level_one=True)) == [CONDITION_2]
    assert validate_admissible(make_pair(not_norm=False, level_one=True)) == [CONDITION_1, CONDITION_2]


@pytest.mark.parametrize("conductor, index", [(True, 0), (1.0, 0), (0, False), (0, 1.0), ("1", 0)])
def test_admissible_pair_refuses_a_conductor_or_index_that_is_not_an_int(conductor, index):
    # a bool or a float would print as true or 1.0, and a %d template as 1
    with pytest.raises(TypeError):
        make_pair(conductor=conductor, index=index)


@pytest.mark.parametrize("conductor, index", [(-1, 0), (0, -1)])
def test_admissible_pair_refuses_a_negative_conductor_or_index(conductor, index):
    with pytest.raises(ValueError):
        make_pair(conductor=conductor, index=index)


@pytest.mark.parametrize("xi", [(2,), (2, 0, 0), [2, 0], "20", 2, None], ids=repr)
def test_admissible_pair_refuses_a_xi_that_is_not_a_pair(xi):
    with pytest.raises(TypeError, match="xi must be a"):
        AdmissiblePair(ramified_quadratic(), RamificationFiltration((2,)), xi, True, False)


def test_level_one_factoring_is_fine_for_unramified_pairs():
    pair = AdmissiblePair(
        quad=ExtensionData(base_field(), e=1, f=2, galois=True, cyclic=True),
        quad_filtration=RamificationFiltration(),
        xi=(1, 0),
        not_norm_factor=True,
        level_one_norm_factor=True,
    )
    # admissible, but unramified pairs are outside the ramified scope
    assert validate_admissible(pair) == ["scope: the quadratic extension must be totally ramified"]


def test_scope_failures_reported():
    assert validate_admissible(make_pair(unitary=False)) == ["scope: the character must be unitary"]
    # a quadratic extension of residue characteristic 2 is wild: G_1 = G_0
    assert validate_admissible(make_pair(base=base_field(2, 2), orders=(2, 2))) == [
        "scope: the residue characteristic must be odd"
    ]
    assert validate_admissible(make_pair(base=base_field(5, 5, char_zero=False))) == [
        "scope: the base field must have characteristic 0"
    ]
    # the admissibility conditions come first, then the scope checks
    assert validate_admissible(make_pair(not_norm=False, unitary=False)) == [
        CONDITION_1, "scope: the character must be unitary"
    ]


# -- compositum invariants ------------------------------------------------------


def test_compositum_invariants_example():
    el_over_l, el_over_e = compositum_invariants(ramified_quadratic(), unramified_lift(3))
    assert (el_over_l.e, el_over_l.f) == (2, 1)
    assert (el_over_e.e, el_over_e.f) == (1, 3)


def test_compositum_trivial_lift():
    el_over_l, el_over_e = compositum_invariants(ramified_quadratic(), unramified_lift(1))
    assert (el_over_e.e, el_over_e.f) == (1, 1)
    assert el_over_l == ramified_quadratic(base_field())


BASES = [(3, 3), (5, 5), (7, 7), (9, 3), (25, 5)]


@given(st.integers(1, 6), st.sampled_from(BASES))
def test_compositum_multiplicativity_both_routes(f, qp):
    # both routes F -> L -> EL and F -> E -> EL give the same (e, f)
    quad = ramified_quadratic(base_field(*qp))
    lift = unramified_lift(f, base_field(*qp))
    el_over_l, el_over_e = compositum_invariants(quad, lift)
    via_l = compose_tower(lift, el_over_l)
    via_e = compose_tower(quad, el_over_e)
    assert (via_l.e, via_l.f) == (via_e.e, via_e.f) == (2, f)


# -- base change ------------------------------------------------------------------


def test_bc_gl2_example():
    result = bc_gl2(make_pair(conductor=2), unramified_lift(3))
    assert result.degree == 3
    assert result.target_pair.xi[0] == 2
    assert result.target_pair.quad.e == 2
    assert result.target_pair.quad.f == 1
    assert result.el_over_e.f == 3
    # the degree is EL/E's residue degree, not a second stored value
    assert Gl2BaseChange(result.target_pair, result.el_over_e).degree == result.el_over_e.f
    assert result.torsion == 1
    assert validate_admissible(result.target_pair) == []


def test_bc_gl2_identity_lift():
    pair = make_pair(conductor=1)
    result = bc_gl2(pair, unramified_lift(1))
    assert result.degree == 1
    assert result.target_pair.xi[0] == 1
    assert result.target_pair.quad == pair.quad
    assert result.target_pair.xi == pair.xi


def test_bc_gl2_degree_five():
    # conductor transport along the unramified compositum is the identity,
    # independently: psi of the empty filtration fixes 1
    from basechange.localfield import psi

    assert psi(RamificationFiltration(), 1) == 1
    result = bc_gl2(make_pair(conductor=1), unramified_lift(5))
    assert result.degree == 5
    assert result.target_pair.xi[0] == 1


@given(st.integers(1, 8), st.sampled_from([1, 3, 5, 7]), st.sampled_from(BASES))
def test_bc_gl2_preserves_conductor(conductor, f, qp):
    # EL/E is unramified, so its conductor transition is the identity
    base = base_field(*qp)
    pair = make_pair(conductor=conductor, base=base)
    result = bc_gl2(pair, unramified_lift(f, base))
    assert result.to_json()["conductor"] == result.target_pair.xi[0] == conductor


def test_bc_gl2_errors():
    with pytest.raises(NotUnramified):
        bc_gl2(make_pair(), ExtensionData(base_field(), e=3, f=1, galois=True, cyclic=True))
    with pytest.raises(EvenDegree):
        bc_gl2(make_pair(), unramified_lift(2))
    with pytest.raises(OutOfScope):
        bc_gl2(make_pair(not_norm=False), unramified_lift(3))
    with pytest.raises(OutOfScope):
        bc_gl2(make_pair(base=base_field(2, 2), orders=(2, 2)), unramified_lift(3, base=base_field(2, 2)))
    with pytest.raises(OutOfScope):
        fn_field = base_field(5, 5, char_zero=False)
        bc_gl2(make_pair(base=fn_field), unramified_lift(3, base=fn_field))
    with pytest.raises(OutOfScope):
        bc_gl2(make_pair(), unramified_lift(3, base=base_field(7, 7)))


def test_bc_gl2_unitarity_preserved():
    result = bc_gl2(make_pair(), unramified_lift(3))
    assert result.target_pair.unitary


@given(st.sampled_from([1, 3, 5]), st.sampled_from([1, 3, 5]))
def test_bc_gl2_tower_coherence(f1, f2):
    pair = make_pair(conductor=3)
    first = bc_gl2(pair, unramified_lift(f1))
    lift2 = ExtensionData(
        unramified_lift(f1).top_field, e=1, f=f2, galois=True, cyclic=True
    )
    second = bc_gl2(first.target_pair, lift2)
    direct = bc_gl2(pair, unramified_lift(f1 * f2))
    assert second.degree * first.degree == direct.degree == f1 * f2
    assert second.target_pair.xi[0] == direct.target_pair.xi[0] == 3
    assert second.target_pair.quad.base == direct.target_pair.quad.base


def test_json_round_trip():
    pair = make_pair(conductor=2)
    again = AdmissiblePair.from_json(pair.to_json())
    assert again == pair
