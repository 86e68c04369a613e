import contextlib
import dataclasses
import hashlib
import io
import os
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
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
from basechange.laurent import InvariantLaurentPoly, sort_class, staircase_decompose


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


@pytest.mark.parametrize(
    "r, f", [(r, f) for r in range(1, MAX_RANK + 1) for f in range(1, MAX_POWER + 1)]
)
def test_smallest_window_is_the_largest_generator_entry(r, f):
    # every window below r(f-1) is refused with r(f-1) as the suggestion, and
    # the suggestion builds, keeping a generator whose largest entry is r(f-1)
    smallest = r * (f - 1)
    for window in range(1, smallest):
        with pytest.raises(WindowTooSmall) as err:
            finiteness_certificate(r, f, window)
        assert err.value.suggested_window == smallest
    cert = finiteness_certificate(r, f, max(1, smallest))
    assert max(max(g) for g in cert.generators) == smallest
    assert cert.verify()


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
    assert certificate_digest(["--r", str(r), "--f", str(f)]) == digest


def certificate_digest(args: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["finiteness", *args, "--verify", "--format", "json"])
    assert code == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


# stdout sha256 of `finiteness --r R --f F --window W --verify --format json`,
# recorded with one constructive reduction per target and the Fraction verify;
# wide windows hold the largest translation classes
@pytest.mark.parametrize(
    "r, f, window, digest",
    [
        (2, 4, 40, "f711c650dc70468732f7f149e8c3a88317f4669d2a55cff85eb7ec47fc36cd2a"),
        (2, 2, 24, "ee93d3801a98dd7d781de8f3fb49a4fbfcba336a684c0aa50bb91f6bdd3deb3c"),
        (3, 2, 7, "7a7df31d4a7fae7db6ff72957dbf2ab5ec97ade02694d4b210e0399a3983d804"),
    ],
)
def test_wide_window_certificate_output_is_pinned(r, f, window, digest):
    assert certificate_digest(["--r", str(r), "--f", str(f), "--window", str(window)]) == digest


# stdout sha256 of `finiteness --r R --f F [--window W] --verify --format json`
# for certificates whose linear fallback fires, with the fallback count;
# window None is the default 2f+2
@pytest.mark.parametrize(
    "r, f, window, fallbacks, digest",
    [
        (2, 3, 4, 5, "979fefa78081e3397d5b54d22de7569a535d183be78f0ea0efd1cf356190a56a"),
        (3, 3, 6, 108, "cf4d44d296203d8da3463db32aac64b635c9d7f0dd3f6825f002e1a34fbb8894"),
        (3, 4, None, 151, "fbf7afcbf008653bad8fee96e6bcab29d66f696cdbd49bbe200ecfbfe53e2acb"),
    ],
)
def test_fallback_certificate_output_is_pinned(r, f, window, fallbacks, digest):
    flags = ["--r", str(r), "--f", str(f)]
    if window is None:
        window = 2 * f + 2
    else:
        flags += ["--window", str(window)]
    assert len(finiteness_certificate(r, f, window).fallback_targets) == fallbacks
    assert certificate_digest(flags) == digest


@pytest.mark.parametrize(
    "r, f", [(r, f) for r in range(1, MAX_RANK + 1) for f in range(1, MAX_POWER + 1)]
)
def test_generators_have_freeness_rank(r, f):
    # A = Q[t^+-1]^{S_r} is free of rank f**r over its image B under t -> t^f
    cert = finiteness_certificate(r, f, 2 * f + 2)
    assert len(cert.generators) == f**r


@pytest.mark.parametrize(
    "r, f", [(r, f) for r in range(1, MAX_RANK + 1) for f in range(1, MAX_POWER + 1)]
)
def test_certificate_coefficients_are_exact(r, f):
    cert = finiteness_certificate(r, f, 2 * f + 2)
    expressions = [*cert.pruned.values(), *cert.reductions.values()]
    coefficients = [c for e in expressions for b in e.values() for c in b.terms.values()]
    assert coefficients and all(type(c) in (int, Fraction) for c in coefficients)


SWEEP = Path(__file__).resolve().parents[1] / "scripts" / "finiteness_sweep.py"


def run_sweep(*argv: str) -> subprocess.CompletedProcess:
    src = str(SWEEP.parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, str(SWEEP), *argv], capture_output=True, text=True, env=env, timeout=120
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--max-r", str(MAX_RANK + 1)], f"--max-r must be in [1, {MAX_RANK}]"),
        (["--max-r", "0"], f"--max-r must be in [1, {MAX_RANK}]"),
        (["--max-f", str(MAX_POWER + 5)], f"--max-f must be in [1, {MAX_POWER}]"),
        (["--window", "0"], "--window must be >= 1"),
    ],
)
def test_sweep_refuses_values_past_the_caps(argv, message):
    proc = run_sweep(*argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1] == f"finiteness_sweep.py: error: {message}"


def test_sweep_counts_fallbacks():
    proc = run_sweep("--max-r", "2", "--max-f", "3", "--window", "4")
    assert proc.returncode == 0 and proc.stderr == ""
    header, *rows = proc.stdout.splitlines()
    column = header.split().index("fallbacks")
    assert {tuple(row.split()[:2]): row.split()[column] for row in rows} == {
        ("1", "1"): "0", ("1", "2"): "0", ("1", "3"): "0",
        ("2", "1"): "0", ("2", "2"): "0", ("2", "3"): "5",
    }


def test_sweep_reports_a_window_past_the_target_cap():
    proc = run_sweep("--max-r", "2", "--max-f", "1", "--window", "60")
    assert proc.returncode == 0 and proc.stderr == ""
    rows = proc.stdout.splitlines()
    assert len(rows) == 3
    assert rows[1].split()[:5] == ["1", "1", "60", "1", "ok"]
    assert rows[2].endswith("window 60 at r=2 has 7381 target classes, more than 5000")


# -- translation classes ---------------------------------------------------


@pytest.mark.parametrize("r", [1, 2, 3])
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_constructive_reduction_commutes_with_translation(r, data):
    f = data.draw(st.integers(1, MAX_POWER))
    lam = sort_class(data.draw(st.tuples(*[st.integers(-5, 5)] * r)))
    k = data.draw(st.integers(-3, 3))
    shifted = constructive_reduction(tuple(x + f * k for x in lam), f)
    assert shifted == {g: b.translate(f * k) for g, b in constructive_reduction(lam, f).items()}


def test_f1_certificate_expands_one_staircase_per_translation_class():
    # at f = 1 every m_lam of the window is its own target; the 165 classes
    # of window 4 at r = 3 fall into 45 classes modulo (1, 1, 1)
    staircase_decompose.cache_clear()
    finiteness_certificate(3, 1, 4)
    assert staircase_decompose.cache_info().misses <= 45


# -- verify against the Fraction re-expansion -----------------------------


def reference_verify(cert) -> bool:
    """Re-expand every expression in Fraction arithmetic and compare."""
    for lam, expr in list(cert.pruned.items()) + list(cert.reductions.items()):
        if any(x % cert.f for coeff in expr.values() for cls in coeff.terms for x in cls):
            return False
        if expand_expression(cert.r, expr) != InvariantLaurentPoly.orbit_sum(lam):
            return False
    return True


@lru_cache(maxsize=None)
def real_certificate(r: int, f: int):
    return finiteness_certificate(r, f, 2 * f + 2)


def add_term(coeff: InvariantLaurentPoly, cls, value) -> InvariantLaurentPoly:
    return coeff + InvariantLaurentPoly(coeff.r, {cls: Fraction(value)})


def tamper(cert, fault: str):
    # the first target whose expression uses two or more generators
    lam, expr = next((t, e) for t, e in sorted(cert.reductions.items()) if len(e) >= 2)
    gamma = min(expr)
    coeff = expr[gamma]
    r, f = cert.r, cert.f
    if fault == "coefficient value":
        cls = min(coeff.terms)
        expr = {**expr, gamma: add_term(coeff, cls, 1)}
    elif fault == "exponent not divisible by f":
        expr = {**expr, gamma: add_term(coeff, (1,) + (0,) * (r - 1), 1)}
    elif fault == "expands correctly outside B":
        # m_lam = m_lam * m_0 is exact, but m_lam is not a coefficient in B
        expr = {(0,) * r: InvariantLaurentPoly.orbit_sum(lam)}
    elif fault == "empty expression":
        expr = {}
    elif fault == "dropped generator":
        expr = {g: b for g, b in expr.items() if g != gamma}
    elif fault == "extra B-term":
        expr = {**expr, gamma: add_term(coeff, (f,) + (0,) * (r - 1), 1)}
    return dataclasses.replace(cert, reductions={**cert.reductions, lam: expr})


FAULTS = [
    "coefficient value",
    "exponent not divisible by f",
    "expands correctly outside B",
    "empty expression",
    "dropped generator",
    "extra B-term",
]


@pytest.mark.parametrize("r, f", [(2, 3), (3, 2)])
@pytest.mark.parametrize("fault", FAULTS)
def test_verify_rejects_tampered_certificate(r, f, fault):
    cert = real_certificate(r, f)
    assert cert.verify()
    bad = tamper(cert, fault)
    assert not bad.verify()
    assert not reference_verify(bad)


@pytest.mark.parametrize("r, f", [(2, 3), (3, 2)])
def test_verify_rejects_tampered_pruned_expression(r, f):
    cert = real_certificate(r, f)
    gamma = min(cert.pruned)
    bad = dataclasses.replace(cert, pruned={**cert.pruned, gamma: {}})
    assert not bad.verify()


@st.composite
def perturbed_expressions(draw):
    """One real (target, expression) pair, perhaps with a few random edits:
    a term added to, changed in or removed from some coefficient, a
    generator dropped, or a new generator with its own coefficient."""
    r, f = draw(st.sampled_from([(1, 3), (2, 2), (2, 3), (3, 2)]))
    cert = real_certificate(r, f)
    lam = draw(st.sampled_from(sorted(cert.reductions)))
    expr = dict(cert.reductions[lam])
    classes = st.tuples(*[st.integers(-4, 4)] * r).map(sort_class)
    values = st.fractions(-3, 3, max_denominator=4)
    for _ in range(draw(st.integers(0, 3))):
        gammas = sorted(expr)
        kind = draw(st.sampled_from(["add", "change", "remove", "drop", "new"]))
        if kind == "new" or not gammas:
            gamma = draw(st.sampled_from(cert.generators))
            expr[gamma] = InvariantLaurentPoly(r, {draw(classes): draw(values)})
            continue
        gamma = draw(st.sampled_from(gammas))
        terms = dict(expr[gamma].terms)
        if kind == "drop":
            del expr[gamma]
            continue
        if kind == "add":
            cls = draw(classes)
            if draw(st.booleans()):
                cls = tuple(f * x for x in cls)
            terms[cls] = terms.get(cls, 0) + draw(values)
        elif kind == "change" and terms:
            terms[draw(st.sampled_from(sorted(terms)))] = draw(values)
        elif terms:
            del terms[draw(st.sampled_from(sorted(terms)))]
        expr[gamma] = InvariantLaurentPoly(r, terms)
    return dataclasses.replace(cert, pruned={}, reductions={lam: expr})


@given(perturbed_expressions())
@settings(max_examples=200, deadline=None)
def test_verify_matches_fraction_reference(cert):
    assert cert.verify() == reference_verify(cert)
