import pytest
from hypothesis import given
from hypothesis import strategies as st

from basechange.ktheory import (
    CircleSpace,
    InsufficientSamples,
    KMorphism,
    ProperCircleMap,
    circle_degree_oracle,
    compose_maps,
    induced_map,
    k_groups,
    reduce_symmetric_component,
)


def space(*labels):
    return CircleSpace(labels)


def test_k_groups_ranks():
    k0, k1 = k_groups(space("a"))
    assert (k0.rank, k1.rank) == (1, 1)
    k0, k1 = k_groups(CircleSpace(()))
    assert (k0.rank, k1.rank) == (0, 0)
    k0, k1 = k_groups(space(*"abcde"))
    assert (k0.rank, k1.rank) == (5, 5)
    assert k0.degree == 0 and k1.degree == 1


def test_space_validation():
    with pytest.raises(ValueError):
        CircleSpace(("a", "a"))


def test_space_index():
    s = space("a", "b", "c")
    assert [s.index(label) for label in "abc"] == [0, 1, 2]
    with pytest.raises(ValueError):
        s.index("missing")
    with pytest.raises(ValueError):
        CircleSpace(("a", "b", "a"))


def test_map_validation():
    s, t = space("a", "b"), space("x")
    with pytest.raises(ValueError):
        ProperCircleMap(s, t, (("a", "x", 0),))
    with pytest.raises(ValueError):
        ProperCircleMap(s, t, (("a", "x", 1), ("a", "x", 2)))
    with pytest.raises(ValueError):
        ProperCircleMap(s, t, (("c", "x", 1),))


def test_induced_single_match():
    m = ProperCircleMap(space("st"), space("st'"), (("st", "st'", 3),))
    k0, k1 = induced_map(m)
    assert k1.entries == ((3,),)
    assert k0.entries == ((1,),)


def test_induced_no_matches():
    m = ProperCircleMap(space("a", "b"), space("x", "y"), ())
    k0, k1 = induced_map(m)
    assert k0.entries == ((0, 0), (0, 0))
    assert k1.entries == ((0, 0), (0, 0))


def test_two_sources_one_target_column():
    m = ProperCircleMap(
        space("a", "b"), space("x"), (("a", "x", 4), ("b", "x", 4))
    )
    k0, k1 = induced_map(m)
    assert k1.entries == ((4,), (4,))
    assert k0.entries == ((1,), (1,))


def test_identity_induces_identity():
    s = space("a", "b", "c")
    k0, k1 = induced_map(ProperCircleMap.identity(s))
    assert k0.is_identity() and k1.is_identity()


def test_degree_one_matches_make_k1_equal_k0():
    m = ProperCircleMap(space("a", "b"), space("x", "y"), (("a", "y", 1), ("b", "x", 1)))
    k0, k1 = induced_map(m)
    assert k0.entries == k1.entries


@st.composite
def composable_maps(draw):
    n1 = draw(st.integers(1, 4))
    n2 = draw(st.integers(1, 4))
    n3 = draw(st.integers(1, 4))
    s1 = CircleSpace(tuple(f"a{i}" for i in range(n1)))
    s2 = CircleSpace(tuple(f"b{i}" for i in range(n2)))
    s3 = CircleSpace(tuple(f"c{i}" for i in range(n3)))

    def matches(src, tgt):
        out = []
        for lbl in src.components:
            if draw(st.booleans()):
                out.append(
                    (lbl, draw(st.sampled_from(tgt.components)), draw(st.integers(1, 5)))
                )
        return tuple(out)

    return (
        ProperCircleMap(s1, s2, matches(s1, s2)),
        ProperCircleMap(s2, s3, matches(s2, s3)),
    )


@given(composable_maps())
def test_functoriality(maps):
    first, second = maps
    composite = compose_maps(first, second)
    k0_f, k1_f = induced_map(first)
    k0_s, k1_s = induced_map(second)
    k0_c, k1_c = induced_map(composite)
    assert k0_c.entries == k0_f.matmul(k0_s).entries
    assert k1_c.entries == k1_f.matmul(k1_s).entries


def test_compose_requires_matching_spaces():
    m1 = ProperCircleMap(space("a"), space("b"), (("a", "b", 2),))
    m2 = ProperCircleMap(space("c"), space("d"), (("c", "d", 2),))
    with pytest.raises(ValueError):
        compose_maps(m1, m2)


def test_matmul_label_check():
    k = KMorphism(("a",), ("b",), ((2,),))
    with pytest.raises(ValueError):
        k.matmul(KMorphism(("x",), ("y",), ((1,),)))


# -- symmetric reduction and the winding oracle ----------------------------------


def test_reduce_symmetric_component():
    red = reduce_symmetric_component(1, 2)
    assert red.degree == 2 and red.provenance == "Sym^1 reduced"
    assert reduce_symmetric_component(4, 3).degree == 3
    assert reduce_symmetric_component(2, 1).degree == 1
    with pytest.raises(ValueError):
        reduce_symmetric_component(0, 1)


def test_reduction_agrees_with_unreduced_k_matrices():
    # pre-reduction description: Sym^n with coordinatewise f-th power;
    # its K-matrices equal those of the reduced circle z -> z^f
    for n in (1, 2, 5):
        for f in (1, 2, 4):
            red = reduce_symmetric_component(n, f)
            pre = ProperCircleMap(
                CircleSpace((f"Sym^{n}",), {f"Sym^{n}": red.provenance}),
                CircleSpace((f"Sym^{n}'",)),
                ((f"Sym^{n}", f"Sym^{n}'", red.degree),),
            )
            k0, k1 = induced_map(pre)
            assert k1.entries == ((f,),)
            assert k0.entries == ((1,),)


def test_circle_degree_oracle():
    assert circle_degree_oracle(1, 8) == 1
    assert circle_degree_oracle(2, 16) == 2
    assert circle_degree_oracle(5, 32) == 5
    for f in range(1, 13):
        assert circle_degree_oracle(f, 8 * f) == f


def test_circle_degree_oracle_sampling_guard():
    with pytest.raises(InsufficientSamples):
        circle_degree_oracle(3, 11)


def test_rank_preserved_under_reduction():
    labels = tuple(f"Sym^{n}" for n in range(1, 6))
    prov = {lbl: reduce_symmetric_component(n, 2).provenance for n, lbl in enumerate(labels, 1)}
    s = CircleSpace(labels, prov)
    k0, k1 = k_groups(s)
    assert k0.rank == k1.rank == len(labels)
