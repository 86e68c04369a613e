import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from basechange.ktheory import (
    CircleSpace,
    KMorphism,
    ProperCircleMap,
    compose_maps,
    induced_map,
)
from circle_oracles import InsufficientSamples, circle_degree_oracle


def space(*labels):
    return CircleSpace(labels)


def identity(s):
    return ProperCircleMap(s, s, tuple((label, label, 1) for label in s.components))


def test_k_groups_ranks():
    # K^0 and K^1 both have one generator per circle: rank len(space)
    assert len(space("a")) == 1
    assert len(CircleSpace(())) == 0
    assert len(space(*"abcde")) == 5
    k0, k1 = induced_map(identity(space(*"abcde")))
    assert len(k0.row_labels) == len(k1.col_labels) == 5


def test_space_validation():
    with pytest.raises(ValueError):
        CircleSpace(("a", "a"))


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
    k0, k1 = induced_map(identity(s))
    assert k0.row_labels == k0.col_labels == k1.row_labels == k1.col_labels
    assert k0.cells == k1.cells == ((0, 0, 1), (1, 1, 1), (2, 2, 1))


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


# -- sparse cells against a dense reference --------------------------------------


def dense_induced(m):
    """The (K^0, K^1) matrices of m, built as full grids by label scans."""
    rows, cols = m.source.components, m.target.components
    k0 = [[0] * len(cols) for _ in rows]
    k1 = [[0] * len(cols) for _ in rows]
    for src, tgt, degree in m.matches:
        i, j = rows.index(src), cols.index(tgt)
        k0[i][j] = 1
        k1[i][j] = degree
    return tuple(map(tuple, k0)), tuple(map(tuple, k1))


def dense_json(rows, cols, grid):
    return {
        "rows": list(rows),
        "cols": list(cols),
        "entries": [list(row) for row in grid],
        "triplets": [[i, j, v] for i, row in enumerate(grid) for j, v in enumerate(row) if v],
    }


def dense_product(a, b, cols):
    """a times b, where b has cols columns (b may have no rows)."""
    return tuple(
        tuple(sum(row[k] * b[k][j] for k in range(len(b))) for j in range(cols)) for row in a
    )


def from_grid(rows, cols, grid):
    cells = tuple((i, j, v) for i, row in enumerate(grid) for j, v in enumerate(row) if v)
    return KMorphism(rows, cols, cells)


@st.composite
def proper_maps(draw, source=None):
    """Maps with unmatched sources, targets hit several times or never, empty
    spaces, matches in any order, and now and then an identity."""
    if source is None:
        source = CircleSpace(f"s{i}" for i in range(draw(st.integers(0, 6))))
    if draw(st.integers(0, 4)) == 0:
        return identity(source)
    if draw(st.booleans()):
        target = source
    else:
        target = CircleSpace(f"t{j}" for j in range(draw(st.integers(0, 6))))
    matches = []
    if target.components:
        for label in source.components:
            if draw(st.booleans()):
                hit = draw(st.sampled_from(target.components[:2]) | st.sampled_from(target.components))
                matches.append((label, hit, draw(st.integers(1, 4))))
    return ProperCircleMap(source, target, tuple(draw(st.permutations(matches))))


@given(proper_maps(), st.data())
def test_sparse_matrices_match_dense_reference(m, data):
    rows, cols = m.source.components, m.target.components
    second = data.draw(proper_maps(source=m.target))
    for k, grid, k_next, grid_next in zip(
        induced_map(m), dense_induced(m), induced_map(second), dense_induced(second)
    ):
        assert k.entries == grid
        assert json.dumps(k.to_json(), default=list) == json.dumps(dense_json(rows, cols, grid))
        product = dense_product(grid, grid_next, len(second.target))
        assert k.matmul(k_next).entries == product


_grids = st.integers(0, 4).flatmap(
    lambda n: st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), max_size=4)
)


@given(_grids, _grids)
def test_sparse_matmul_matches_dense_product(a, b):
    # general integer matrices: products cancel to zero and rows fill up
    inner = len(a[0]) if a else 0
    cols = len(b[0]) if b else 0
    b = b[:inner] + [[0] * cols] * (inner - len(b))
    mid = tuple(f"m{k}" for k in range(inner))
    left = from_grid(tuple(f"r{i}" for i in range(len(a))), mid, a)
    right = from_grid(mid, tuple(f"c{j}" for j in range(cols)), b)
    assert left.matmul(right).entries == dense_product(a, b, cols)


def test_cell_validation():
    rows, cols = ("a", "b"), ("x", "y")
    assert KMorphism(rows, cols, ((0, 1, 2), (1, 0, -1))).entries == ((0, 2), (-1, 0))
    for cells in (
        ((2, 0, 1),),  # row out of range
        ((0, -1, 1),),  # column out of range
        ((0, 0, 0),),  # stored zero
        ((0, 0, True),),  # bool value
        ((0, 0, 1.0),),  # float value
        ((1, 0, 1), (0, 1, 1)),  # rows out of order
        ((0, 1, 1), (0, 0, 1)),  # columns out of order
        ((0, 0, 1), (0, 0, 2)),  # repeated cell
    ):
        with pytest.raises(ValueError):
            KMorphism(rows, cols, cells)


def test_matmul_label_check():
    k = KMorphism(("a",), ("b",), ((0, 0, 2),))
    with pytest.raises(ValueError):
        k.matmul(KMorphism(("x",), ("y",), ((0, 0, 1),)))


# -- symmetric reduction and the winding oracle ----------------------------------


def test_reduction_agrees_with_unreduced_k_matrices():
    # Sym^n with the coordinatewise f-th power retracts onto the circle
    # z -> z^f, so its K-matrices are those of one circle map of degree f
    for n in (1, 2, 5):
        for f in (1, 2, 4):
            pre = ProperCircleMap(
                CircleSpace((f"Sym^{n}",)),
                CircleSpace((f"Sym^{n}'",)),
                ((f"Sym^{n}", f"Sym^{n}'", circle_degree_oracle(f, 8 * f)),),
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
    s = CircleSpace(labels)
    assert len(s) == len(labels)
    k0, k1 = induced_map(ProperCircleMap(s, s, tuple((lbl, lbl, 2) for lbl in labels)))
    assert len(k0.row_labels) == len(k1.row_labels) == len(labels)
