import contextlib
import hashlib
import io
from fractions import Fraction
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basechange.cli import main
from basechange.finiteness import (
    MAX_POWER,
    MAX_RANK,
    WindowTooSmall,
    _solve_exact,
    candidate_generators,
    constructive_reduction,
    expand_expression,
    finiteness_certificate,
    linear_reduction,
    sorted_tuples,
)
from basechange.laurent import InvariantLaurentPoly


def test_sorted_tuples_enumeration():
    assert list(sorted_tuples(2, 0, 1)) == [(1, 1), (1, 0), (0, 0)]
    assert list(sorted_tuples(2, -1, 1, total=0)) == [(1, -1), (0, 0)]
    assert all(sum(t) == 3 for t in sorted_tuples(3, -2, 4, total=3))


def test_candidates_include_remainder_classes_and_inverse_product():
    cands = candidate_generators(2, 2)
    for cls in [(0, 0), (1, 0), (1, 1), (-2, -2)]:
        assert cls in cands
    # staircase extension beyond the remainder box
    assert (2, 1) in cands and (3, 1) in cands


def test_constructive_reduction_is_exact():
    for lam in [(3, 0), (4, 1), (6, -5), (0, -3), (5, 2, -1), (2, 2, 2)]:
        f = 2
        expr = constructive_reduction(lam, f)
        assert expand_expression(len(lam), expr) == InvariantLaurentPoly.orbit_sum(lam)
        for coeff in expr.values():
            assert all(x % f == 0 for cls in coeff.terms for x in cls)


def test_univariate_certificates_match_hand_computation():
    cert = finiteness_certificate(1, 2, 4)
    assert cert.generators == [(0,), (1,)]
    # t^3 = (t^2) * t
    assert cert.reductions[(3,)] == {
        (1,): InvariantLaurentPoly(1, {(2,): Fraction(1)})
    }
    assert cert.verify()

    cert = finiteness_certificate(1, 3, 6)
    assert cert.generators == [(0,), (1,), (2,)]
    assert set(cert.reductions) == {(k,) for k in range(-6, 7)}
    assert cert.verify()


def test_window_too_small_univariate():
    with pytest.raises(WindowTooSmall) as err:
        finiteness_certificate(1, 3, 1)
    assert err.value.suggested_window > 1


def test_r2_f2_certificate_has_at_most_four_generators():
    cert = finiteness_certificate(2, 2, 4)
    assert len(cert.generators) <= 4
    assert cert.verify()
    # the parity-obstructed class is a generator, not a reducible target
    assert (2, 1) in cert.generators


def test_pruned_candidates_carry_valid_expressions():
    cert = finiteness_certificate(2, 2, 6)
    assert cert.pruned, "some candidate must be redundant"
    for gamma, expr in cert.pruned.items():
        assert expand_expression(2, expr) == InvariantLaurentPoly.orbit_sum(gamma)
        assert set(expr) <= set(cert.generators)
    # the inverse product class reduces into the subring itself
    assert (-2, -2) in cert.pruned


def test_linear_reduction_finds_known_identity():
    # m_(3,0) = (t1^2 + t2^2) * m_(1,0) - m_(2,1)
    expr = linear_reduction((3, 0), [(0, 0), (1, 0), (1, 1), (2, 1)], 2, 6)
    assert expr is not None
    assert expand_expression(2, expr) == InvariantLaurentPoly.orbit_sum((3, 0))


def test_linear_reduction_respects_parity_obstruction():
    assert linear_reduction((2, 1), [(0, 0), (1, 0), (1, 1)], 2, 10) is None


def test_coefficient_window_is_respected():
    cert = finiteness_certificate(2, 3, 8)
    assert cert.max_coefficient_exponent() <= cert.coefficient_window
    for expr in cert.reductions.values():
        for coeff in expr.values():
            assert coeff.max_abs_exponent() <= cert.coefficient_window


def test_certificate_json_shape():
    cert = finiteness_certificate(2, 2, 4)
    payload = cert.to_json()
    assert payload["generators"][0] == [0, 0]
    assert payload["inverse_product"] == [-2, -2]
    some = payload["reductions"][0]["terms"]
    assert all("/" in term["coefficient"][0]["value"] for term in some if term["coefficient"])


def test_parameter_validation():
    with pytest.raises(ValueError):
        finiteness_certificate(4, 2, 4)
    with pytest.raises(ValueError):
        finiteness_certificate(2, 5, 4)
    with pytest.raises(ValueError):
        finiteness_certificate(2, 2, 0)


# -- the sparse exact solver against a dense reference --------------------


def dense_reference(
    matrix: list[list[Fraction]], rhs: list[Fraction], n: int
) -> tuple[Optional[list[Fraction]], list[int]]:
    """Dense Fraction Gauss-Jordan with columns pivoted in order and free
    variables set to 0: the solution (or None) and the pivot columns."""
    m = len(matrix)
    mat = [list(row) + [b] for row, b in zip(matrix, rhs)]
    pivot_cols: list[int] = []
    row = 0
    for col in range(n):
        piv = next((i for i in range(row, m) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[row], mat[piv] = mat[piv], mat[row]
        inv = 1 / mat[row][col]
        mat[row] = [x * inv for x in mat[row]]
        for i in range(m):
            if i != row and mat[i][col] != 0:
                factor = mat[i][col]
                mat[i] = [x - factor * y for x, y in zip(mat[i], mat[row])]
        pivot_cols.append(col)
        row += 1
        if row == m:
            break
    if any(mat[i][n] != 0 for i in range(row, m)):
        return None, pivot_cols
    solution = [Fraction(0)] * n
    for i, col in enumerate(pivot_cols):
        solution[col] = mat[i][n]
    return solution, pivot_cols


def as_columns(matrix, rhs, n):
    """Row i of the system becomes the univariate class (i,)."""
    columns = [
        InvariantLaurentPoly(1, {(i,): row[j] for i, row in enumerate(matrix)}) for j in range(n)
    ]
    return columns, InvariantLaurentPoly(1, {(i,): b for i, b in enumerate(rhs)})


entries = st.one_of(
    st.just(0), st.just(0), st.integers(-3, 3), st.fractions(-3, 3, max_denominator=3)
).map(Fraction)


@st.composite
def linear_systems(draw):
    """Small systems: sparse entries, columns that repeat combinations of
    earlier ones (rank deficiency), and consistent or arbitrary targets."""
    m, n = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    cols: list[list[Fraction]] = []
    for _ in range(n):
        if cols and draw(st.booleans()):
            weights = draw(st.lists(st.integers(-2, 2), min_size=len(cols), max_size=len(cols)))
            cols.append([sum(w * c[i] for w, c in zip(weights, cols)) for i in range(m)])
        else:
            cols.append(draw(st.lists(entries, min_size=m, max_size=m)))
    if cols and draw(st.booleans()):
        weights = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        rhs = [sum(w * c[i] for w, c in zip(weights, cols)) for i in range(m)]
    else:
        rhs = draw(st.lists(entries, min_size=m, max_size=m))
    return [[cols[j][i] for j in range(n)] for i in range(m)], rhs, n


@given(linear_systems())
@settings(max_examples=300)
def test_sparse_solver_matches_dense_reference(system):
    matrix, rhs, n = system
    columns, target = as_columns(matrix, rhs, n)
    expected, pivot_cols = dense_reference(matrix, rhs, n)
    got = _solve_exact(columns, target)
    assert (got is None) == (expected is None)
    if got is None:
        return
    assert len(got) == n
    for row, b in zip(matrix, rhs):
        assert sum(a * x for a, x in zip(row, got)) == b
    # a column in the span of the earlier ones is free, so its variable is 0
    for j in range(n):
        if j not in pivot_cols:
            assert got[j] == 0
    assert got == expected


def test_sparse_solver_edge_cases():
    zero = InvariantLaurentPoly.zero(1)
    assert _solve_exact([], zero) == []
    assert _solve_exact([zero, zero], zero) == [0, 0]
    assert _solve_exact([], InvariantLaurentPoly.orbit_sum((1,))) is None
    assert _solve_exact([zero], InvariantLaurentPoly.orbit_sum((1,))) is None
    t = InvariantLaurentPoly.orbit_sum((1,))
    assert _solve_exact([t, t.scale(2)], t.scale(Fraction(1, 3))) == [Fraction(1, 3), 0]


# -- pinned output and the rank oracle ------------------------------------


# stdout sha256 of `finiteness --r R --f F --verify --format json`, recorded
# with the dense Gauss-Jordan solver and the expand-and-collect product
@pytest.mark.parametrize(
    "r, f, digest",
    [
        (3, 2, "97dad48c947a403963d61b1eb2120fc25979973aa302e84a7b9c6be5d00861cc"),
        (2, 4, "96a09d2b7db2fc39f6ca68cdad0c28ac5d96fb34f71fc2ef6eccf6357b3aac8c"),
        (3, 3, "f376ec9ed546ff189ce1e1464190a6aae304e009af2a85b4e281c6211aa9db25"),
    ],
)
def test_certificate_output_is_pinned(r, f, digest):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["finiteness", "--r", str(r), "--f", str(f), "--verify", "--format", "json"])
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "r, f", [(r, f) for r in range(1, MAX_RANK + 1) for f in range(1, MAX_POWER + 1)]
)
def test_generators_have_freeness_rank(r, f):
    # A = Q[t^+-1]^{S_r} is free of rank f**r over its image B under t -> t^f
    cert = finiteness_certificate(r, f, 2 * f + 2)
    assert len(cert.generators) == f**r
