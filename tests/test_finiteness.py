import contextlib
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basechange import finiteness
from basechange.cli import main
from basechange.finiteness import (
    MAX_POWER,
    MAX_RANK,
    FinitenessCertificate,
    WindowTooSmall,
    candidate_generators,
    constructive_reduction,
    finiteness_certificate,
    linear_reduction,
    sorted_tuples,
)
from basechange.laurent import InvariantLaurentPoly, _orbit_sum_product, sort_class


def expand_expression(r: int, expr) -> InvariantLaurentPoly:
    """sum_j b_j * m_gamma_j for {B-class: coefficient} tables b_j, multiplied
    out with InvariantLaurentPoly.__mul__."""
    total = InvariantLaurentPoly.zero(r)
    for gamma, coeff in expr.items():
        total = total + InvariantLaurentPoly(r, coeff) * InvariantLaurentPoly.orbit_sum(gamma)
    return total


def table(expr) -> dict:
    """A polynomial-valued expression as the certificate's {generator: {B-class: coefficient}}."""
    return {gamma: b.terms for gamma, b in expr.items()}


def max_exponent(coeff) -> int:
    return max(abs(x) for cls in coeff for x in cls)


def restricted_weights(r: int, f: int) -> list[tuple[int, ...]]:
    """The f-restricted weights, lam_i - lam_(i+1) < f and 0 <= lam_r < f, sorted:
    the sums from the right of the vectors a in [0, f)^r."""
    return sorted(tuple(sum(a[i:]) for i in range(r)) for a in product(range(f), repeat=r))


def test_sorted_tuples_enumeration():
    assert list(sorted_tuples(2, 0, 1)) == [(1, 1), (1, 0), (0, 0)]
    assert list(sorted_tuples(3, -1, 1)) == [
        (1, 1, 1), (1, 1, 0), (1, 1, -1), (1, 0, 0), (1, 0, -1),
        (1, -1, -1), (0, 0, 0), (0, 0, -1), (0, -1, -1), (-1, -1, -1),
    ]


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
        assert expand_expression(len(lam), table(expr)) == InvariantLaurentPoly.orbit_sum(lam)
        for coeff in expr.values():
            assert all(x % f == 0 for cls in coeff.terms for x in cls)


def test_univariate_certificates_match_hand_computation():
    cert = finiteness_certificate(1, 2, 4)
    assert cert.generators == [(0,), (1,)]
    # t^3 = (t^2) * t
    assert cert.reductions[(3,)] == {(1,): {(2,): 1}}
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
    # schema 1's pruned list: each in-window candidate that is not a generator,
    # written with its own class's reduction, which verifies
    cert = finiteness_certificate(2, 2, 6)
    payload = cert.to_json()
    pruned = payload["pruned"]
    targets = {tuple(entry["target"]): entry["terms"] for entry in payload["reductions"]}
    assert pruned, "some candidate must be redundant"
    for entry in pruned:
        gamma = tuple(entry["class"])
        assert gamma not in cert.generators and entry["terms"] == targets[gamma]
        expr = cert.expression(gamma)
        assert expand_expression(2, expr) == InvariantLaurentPoly.orbit_sum(gamma)
        assert set(expr) <= set(cert.generators)
    # the inverse product class reduces into the subring itself
    assert [-2, -2] in [entry["class"] for entry in pruned]


def test_linear_reduction_finds_known_identity():
    # m_(3,0) = (t1^2 + t2^2) * m_(1,0) - m_(2,1)
    expr = linear_reduction((3, 0), 2)
    assert expr == {(1, 0): {(2, 0): 1}, (2, 1): {(0, 0): -1}}
    assert expand_expression(2, expr) == InvariantLaurentPoly.orbit_sum((3, 0))


def test_linear_reduction_respects_parity_obstruction():
    # (2, 1) is outside the B-span of the [0, 2) box by a parity count; it is
    # a restricted weight at f = 2, so it is a generator and its own expression
    assert linear_reduction((2, 1), 2) == {(2, 1): {(0, 0): 1}}
    assert (2, 1) in finiteness_certificate(2, 2, 2).generators


def test_coefficient_window_is_respected():
    cert = finiteness_certificate(2, 3, 8)
    assert cert.max_coefficient_exponent() <= cert.coefficient_window
    for expr in cert.reductions.values():
        for coeff in expr.values():
            assert max_exponent(coeff) <= cert.coefficient_window


def test_certificate_json_shape():
    cert = finiteness_certificate(2, 2, 4)
    payload = cert.to_json()
    assert payload["generators"][0] == [0, 0]
    assert payload["inverse_product"] == [-2, -2]
    some = next(iter(payload["reductions"]))["terms"]
    assert all("/" in term["coefficient"][0]["value"] for term in some if term["coefficient"])


def schema1_terms(expr) -> list[dict]:
    """Schema 1's terms as to_json wrote them when it built the list itself."""
    return [
        {
            "generator": list(gamma),
            "coefficient": [
                {"exponents": list(cls), "value": f"{c.numerator}/{c.denominator}"}
                for cls, c in sorted(expr[gamma].items())
            ],
        }
        for gamma in sorted(expr)
    ]


@pytest.mark.parametrize("r, f, window", [(1, 3, None), (2, 2, 6), (2, 4, 6), (3, 2, None), (2, 4, 40)])
def test_reduction_rows_iterate_as_the_plain_entries(r, f, window):
    cert = finiteness_certificate(r, f, window)
    rows = cert.to_json()["reductions"]
    assert rows is cert
    plain = [{"target": list(t), "terms": schema1_terms(e)} for t, e in sorted(cert.reductions.items())]
    assert list(rows) == plain
    assert json.loads(json.dumps(rows, default=list)) == plain


def test_parameter_validation():
    with pytest.raises(ValueError):
        finiteness_certificate(4, 2, 4)
    with pytest.raises(ValueError):
        finiteness_certificate(2, 5, 4)
    with pytest.raises(ValueError):
        finiteness_certificate(2, 2, 0)


# -- the triangular reduction ---------------------------------------------


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_restricted_times_pullback_is_triangular(data):
    # m_lam0 * m_(f*mu) = m_(lam0 + f*mu) + lower classes of the same degree,
    # for every restricted lam0 and every dominant mu, the last entry negative too
    r, f = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    f_mu = tuple(f * x for x in sort_class(data.draw(st.tuples(*[st.integers(-3, 3)] * r))))
    for lam0 in restricted_weights(r, f):
        top = tuple(x + y for x, y in zip(lam0, f_mu))
        terms = dict(_orbit_sum_product(f_mu, lam0))
        assert terms.pop(top) == 1
        assert all(cls < top and sum(cls) == sum(top) for cls in terms)


def staircase_reference(lam, f: int, reductions):
    """The staircase path: constructive_reduction(lam, f) with every in-window
    candidate replaced by its own expression over the generators."""
    r = len(lam)
    one = {(0,) * r: 1}
    out = {}
    for gamma, coeff in constructive_reduction(lam, f).items():
        for inner, inner_coeff in reductions.get(gamma, {gamma: one}).items():
            term = coeff * InvariantLaurentPoly(r, inner_coeff)
            out[inner] = out[inner] + term if inner in out else term
    return table({g: b for g, b in out.items() if not b.is_zero()})


@pytest.mark.parametrize("r, f, window", [(2, 2, 6), (3, 2, 6), (2, 4, 10), (3, 4, 10)])
def test_triangular_reduction_matches_the_staircase_path(r, f, window):
    # wherever the staircase path stays over the generators inside the window,
    # it gives the stored expression: over a basis there is only one
    cert = finiteness_certificate(r, f, window)
    generators, compared, reductions = set(cert.generators), 0, cert.reductions
    for lam, expr in reductions.items():
        reference = staircase_reference(lam, f, reductions)
        if set(reference) <= generators and all(
            max_exponent(b) <= cert.coefficient_window for b in reference.values()
        ):
            assert reference == expr
            compared += 1
    assert compared > len(cert) // 2


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
# for certificates where the staircase path leaves the window for some
# targets (5, 108 and 151 of them), recorded when those targets went to a
# linear fallback; window None is the default 2f+2
@pytest.mark.parametrize(
    "r, f, window, digest",
    [
        (2, 3, 4, "979fefa78081e3397d5b54d22de7569a535d183be78f0ea0efd1cf356190a56a"),
        (3, 3, 6, "cf4d44d296203d8da3463db32aac64b635c9d7f0dd3f6825f002e1a34fbb8894"),
        (3, 4, None, "fbf7afcbf008653bad8fee96e6bcab29d66f696cdbd49bbe200ecfbfe53e2acb"),
    ],
)
def test_fallback_certificate_output_is_pinned(r, f, window, digest):
    flags = ["--r", str(r), "--f", str(f)]
    if window is not None:
        flags += ["--window", str(window)]
    assert certificate_digest(flags) == digest


@pytest.mark.parametrize(
    "r, f", [(r, f) for r in range(1, MAX_RANK + 1) for f in range(1, MAX_POWER + 1)]
)
def test_generators_have_freeness_rank(r, f):
    # A = Q[t^+-1]^{S_r} is free of rank f**r over its image B under t -> t^f,
    # with the restricted weights as a basis; the default window is 2f+2
    cert = finiteness_certificate(r, f)
    assert cert.window == 2 * f + 2
    assert len(cert.generators) == f**r
    assert sorted(cert.generators) == restricted_weights(r, f)


@pytest.mark.parametrize(
    "r, f", [(r, f) for r in range(1, MAX_RANK + 1) for f in range(1, MAX_POWER + 1)]
)
def test_certificate_coefficients_are_exact(r, f):
    # the walk subtracts integer structure constants from 1, so every coefficient is an int
    cert = finiteness_certificate(r, f, 2 * f + 2)
    coefficients = [c for e in cert.reductions.values() for b in e.values() for c in b.values()]
    assert coefficients and all(type(c) is int for c in coefficients)


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


def test_sweep_reports_a_window_past_the_target_cap():
    proc = run_sweep("--max-r", "2", "--max-f", "1", "--window", "60")
    assert proc.returncode == 0 and proc.stderr == ""
    rows = proc.stdout.splitlines()
    assert len(rows) == 3
    assert rows[1].split()[:5] == ["1", "1", "60", "1", "ok"]
    assert rows[2].endswith("window 60 at r=2 has 7381 target classes, more than 5000")


def test_sweep_rank_rejects_generators_that_are_not_restricted(monkeypatch, capsys):
    # the column checks the inequalities, so f**r generators that are not
    # the restricted weights read "no" whatever formula listed them
    spec = importlib.util.spec_from_file_location("finiteness_sweep", SWEEP)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)

    def shifted(r, f, window):
        cert = finiteness_certificate(r, f, window)
        top = max(cert.generators)
        return rebuilt(cert, generators=[g for g in cert.generators if g != top] + [tuple(x + f for x in top)])

    monkeypatch.setattr(sweep, "finiteness_certificate", shifted)
    monkeypatch.setattr(sys, "argv", [str(SWEEP), "--max-r", "2", "--max-f", "2"])
    sweep.main()
    rows = [row.split() for row in capsys.readouterr().out.splitlines()[1:]]
    assert [(row[3], row[4]) for row in rows] == [("1", "no"), ("2", "no"), ("1", "no"), ("4", "no")]


# -- translation classes ---------------------------------------------------


@pytest.mark.parametrize("r", [1, 2, 3])
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_constructive_reduction_commutes_with_translation(r, data):
    f = data.draw(st.integers(1, MAX_POWER))
    lam = sort_class(data.draw(st.tuples(*[st.integers(-5, 5)] * r)))
    k = data.draw(st.integers(-3, 3))
    unit = InvariantLaurentPoly.orbit_sum((f * k,) * r)
    shifted = constructive_reduction(tuple(x + f * k for x in lam), f)
    assert shifted == {g: b * unit for g, b in constructive_reduction(lam, f).items()}


@pytest.mark.parametrize("r", [1, 2, 3])
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_linear_reduction_commutes_with_translation(r, data):
    # the certificate walks one representative per class and translates its
    # expression to the other members: the product with the unit m_(fk,...,fk)
    f = data.draw(st.integers(1, MAX_POWER))
    lam = sort_class(data.draw(st.tuples(*[st.integers(-5, 5)] * r)))
    k = data.draw(st.integers(-3, 3))
    expr = linear_reduction(lam, f)
    assert set(expr) <= set(restricted_weights(r, f))
    unit = InvariantLaurentPoly.orbit_sum((f * k,) * r)
    shifted = linear_reduction(tuple(x + f * k for x in lam), f)
    assert shifted == {g: (InvariantLaurentPoly(r, b) * unit).terms for g, b in expr.items()}


@pytest.mark.parametrize("r, f, window", [(2, 2, 24), (2, 3, 12), (3, 2, 7), (1, 4, 200)])
def test_every_target_expression_is_its_own_walk(r, f, window):
    # the expression over the restricted basis is unique, so each target's
    # own walk checks the class expression translated to it, without translating
    cert = finiteness_certificate(r, f, window)
    targets = [lam for lam, _, _ in cert.members()]
    assert len(targets) == len(cert) > len(cert.classes)
    for lam in targets:
        assert cert.expression(lam) == linear_reduction(lam, f)


# every window the builder accepts at r <= 3, f <= 4 up to 2f+6, and the widest in use
CLASS_WINDOWS = [
    (r, f, window)
    for r in range(1, 4) for f in range(1, 5) for window in range(max(1, r * (f - 1)), 2 * f + 7)
] + [(2, 4, 40), (1, 4, 200)]


@pytest.mark.parametrize("r, f, window", CLASS_WINDOWS)
def test_translation_classes_group_the_targets(r, f, window):
    # lam and lam' share a class when they differ by f*k in every entry; the
    # key is lam less its shift lam_r - (lam_r mod f), and the class spans the
    # lowest to the highest shift of its members
    spans = {}
    for lam in sorted_tuples(r, -window, window):
        shift = lam[-1] - lam[-1] % f
        key = tuple(x - shift for x in lam)
        low, high = spans.get(key, (shift, shift))
        spans[key] = (min(low, shift), max(high, shift))
    listed = list(finiteness.translation_classes(r, f, window))
    assert sorted(listed) == sorted((key, low, high) for key, (low, high) in spans.items())


@pytest.mark.parametrize("r, f, window", CLASS_WINDOWS)
def test_max_coefficient_exponent_is_the_largest_over_the_targets(r, f, window):
    cert = finiteness_certificate(r, f, window)
    per_target = max(max_exponent(coeff) for expr in cert.reductions.values() for coeff in expr.values())
    assert cert.max_coefficient_exponent() == per_target <= cert.coefficient_window


def test_f1_certificate_expands_one_staircase_per_translation_class(monkeypatch):
    # at f = 1 every m_lam of the window is its own target; the 165 classes
    # of window 4 at r = 3 fall into 45 classes modulo (1, 1, 1), and the
    # builder walks once per class, stores one expression each and no more
    walks = []

    def counted(target, *rest):
        walks.append(target)
        return linear_reduction(target, *rest)

    monkeypatch.setattr(finiteness, "linear_reduction", counted)
    cert = finiteness_certificate(3, 1, 4)
    assert len(cert) == len(cert.reductions) == 165
    assert sorted(walks) == sorted(cert.classes) and len(walks) == 45


def test_expression_past_the_coefficient_window_exits_4(monkeypatch, capsys):
    # no walk leaves the window w + f*r at any window the builder accepts, so
    # one is made to: every expression gains a B-term (f(w + r + 1), 0), which
    # even the first target, translated by at least 0, carries past the window
    r, f, window = 2, 2, 6

    def stretched(target, f):
        expr = linear_reduction(target, f)
        gamma = min(expr)
        return {**expr, gamma: {**expr[gamma], (f * (window + r + 1), 0): 1}}

    monkeypatch.setattr(finiteness, "linear_reduction", stretched)
    with pytest.raises(WindowTooSmall) as err:
        finiteness_certificate(r, f, window)
    assert err.value.suggested_window == window + f
    code = main(["finiteness", "--r", str(r), "--f", str(f), "--window", str(window)])
    out, stderr = capsys.readouterr()
    assert (code, out) == (4, "")
    assert stderr.splitlines() == [
        "error: no expression for class (6, 6) with generators and coefficients"
        " inside window 6; retry with window 8"
    ]


# -- verify against the Fraction re-expansion -----------------------------


def reference_verify(cert) -> bool:
    """Re-expand every target's expression in Fraction arithmetic and compare.

    The generators must be the restricted weights, and the derived table
    must hold every sorted class of [-window, window]^r, from one stored
    class per class of the targets modulo adding f*k to every entry: lam
    and lam' share one when lam - lam_r and lam' - lam'_r agree and
    lam_r = lam'_r mod f.  The window must be an int of at least
    max(1, r(f-1)), so that it holds every generator.  Every entry of a
    generator, class key, target or B-class is an int and every
    coefficient an int or a Fraction.  Every coefficient exponent must be
    a multiple of f inside the coefficient window.
    """
    r, w, f = cert.r, cert.window, cert.f
    if type(w) is not int or w < max(1, max(max(g) for g in restricted_weights(r, f))):
        return False
    if sorted(cert.generators) != restricted_weights(r, f):
        return False
    targets = {sort_class(v) for v in product(range(-w, w + 1), repeat=r)}
    if len(cert.classes) != len({(tuple(x - lam[-1] for x in lam), lam[-1] % f) for lam in targets}):
        return False
    try:
        reductions = cert.reductions
    except KeyError:  # a target whose class has no expression
        return False
    entries = [x for g in cert.generators for x in g] + [x for key in cert.classes for x in key]
    for lam, expr in reductions.items():
        entries += lam
        for gamma, coeff in expr.items():
            entries += gamma
            for cls, c in coeff.items():
                entries += cls
                if type(c) not in (int, Fraction):
                    return False
    if any(type(x) is not int for x in entries):
        return False
    if set(reductions) != targets:
        return False
    for lam, expr in reductions.items():
        if not set(expr) <= set(cert.generators):
            return False
        if any(x % f or abs(x) > cert.coefficient_window
               for coeff in expr.values() for cls in coeff for x in cls):
            return False
        if expand_expression(r, expr) != InvariantLaurentPoly.orbit_sum(lam):
            return False
    return True


@lru_cache(maxsize=None)
def real_certificate(r: int, f: int):
    return finiteness_certificate(r, f, 2 * f + 2)


def rebuilt(cert, **fields):
    """A certificate built through the constructor from cert's fields, some replaced."""
    kept = {name: getattr(cert, name) for name in FinitenessCertificate.__slots__ if name not in fields}
    return FinitenessCertificate(**kept, **fields)


def nonzero(coeff: dict) -> dict:
    return {cls: c for cls, c in coeff.items() if c}


def add_term(coeff: dict, cls, value) -> dict:
    return nonzero({**coeff, cls: coeff.get(cls, 0) + Fraction(value)})


def tamper(cert, fault: str):
    r, f = cert.r, cert.f
    if fault == "trivial expression over a non-generator":
        # m_key = 1 * m_key is exact, with m_key itself as the generator
        key = next(k for k in sorted(cert.classes) if k not in cert.generators)
        return rebuilt(cert, classes={**cert.classes, key: {key: {(0,) * r: 1}}})
    if fault == "generator missing from the list":
        gamma = max(cert.generators)
        return rebuilt(cert, generators=[g for g in cert.generators if g != gamma])
    if fault == "extra generator":
        return rebuilt(cert, generators=cert.generators + [(9,) * r])
    if fault == "generator given as a list":
        return rebuilt(cert, generators=[list(g) for g in cert.generators])
    if fault == "coefficient window below the largest exponent":
        return rebuilt(cert, coefficient_window=cert.max_coefficient_exponent() - 1)
    if fault == "empty class table":
        return rebuilt(cert, classes={})
    if fault == "window -1 with no classes":
        # no target, so nothing to check, and no generator is in the window
        return rebuilt(cert, window=-1, coefficient_window=0, classes={})
    if fault == "window 0 with only the class 0":
        # m_0 = 1 * m_0 is the one target, and is exact
        zero = (0,) * r
        return rebuilt(cert, window=0, classes={zero: cert.classes[zero]})
    if fault == "class missing from the table":
        key = min(cert.classes)
        return rebuilt(cert, classes={k: e for k, e in cert.classes.items() if k != key})
    if fault == "extra class":
        # m_(f, ..., f) = u * m_0 is exact and in B, but (f, ..., f) is no class key
        return rebuilt(cert, classes={**cert.classes, (f,) * r: {(0,) * r: {(f,) * r: 1}}})
    # the first class whose expression uses two or more generators
    key, expr = next((k, e) for k, e in sorted(cert.classes.items()) if len(e) >= 2)
    gamma = min(expr)
    coeff = expr[gamma]
    if fault == "coefficient value":
        cls = min(coeff)
        expr = {**expr, gamma: add_term(coeff, cls, 1)}
    elif fault == "exponent not divisible by f":
        expr = {**expr, gamma: add_term(coeff, (1,) + (0,) * (r - 1), 1)}
    elif fault == "expands correctly outside B":
        # m_key = m_key * m_0 is exact, but m_key is not a coefficient in B
        expr = {(0,) * r: {key: 1}}
    elif fault == "empty expression":
        expr = {}
    elif fault == "dropped generator":
        expr = {g: b for g, b in expr.items() if g != gamma}
    elif fault == "extra B-term":
        expr = {**expr, gamma: add_term(coeff, (f,) + (0,) * (r - 1), 1)}
    return rebuilt(cert, classes={**cert.classes, key: expr})


FAULTS = [
    "coefficient value",
    "exponent not divisible by f",
    "expands correctly outside B",
    "empty expression",
    "dropped generator",
    "extra B-term",
    "trivial expression over a non-generator",
    "generator missing from the list",
    "extra generator",
    "generator given as a list",
    "coefficient window below the largest exponent",
    "empty class table",
    "window -1 with no classes",
    "window 0 with only the class 0",
    "class missing from the table",
    "extra class",
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
def test_coefficient_window_bounds_the_targets_not_the_stored_expressions(r, f):
    # a class key may lie outside the window, its stored expression reaching
    # past every target's; the tightest bound on the targets still verifies
    cert = real_certificate(r, f)
    stored = max(abs(x) for e in cert.classes.values() for b in e.values() for mu in b for x in mu)
    tight = rebuilt(cert, coefficient_window=cert.max_coefficient_exponent())
    assert stored > tight.coefficient_window
    assert tight.verify() and reference_verify(tight)
    assert not rebuilt(cert, coefficient_window=tight.coefficient_window - 1).verify()


@st.composite
def perturbed_expressions(draw):
    """A real certificate with one class's expression perhaps given a few
    random edits: a term added to, changed in or removed from some
    coefficient, a generator dropped, or a new generator with its own
    coefficient.  The other classes stay, so the certificate is complete."""
    r, f = draw(st.sampled_from([(1, 3), (2, 2), (2, 3), (3, 2)]))
    cert = real_certificate(r, f)
    key = draw(st.sampled_from(sorted(cert.classes)))
    expr = dict(cert.classes[key])
    classes = st.tuples(*[st.integers(-4, 4)] * r).map(sort_class)
    values = st.fractions(-3, 3, max_denominator=4)
    for _ in range(draw(st.integers(0, 3))):
        gammas = sorted(expr)
        kind = draw(st.sampled_from(["add", "change", "remove", "drop", "new"]))
        if kind == "new" or not gammas:
            gamma = draw(st.sampled_from(cert.generators))
            expr[gamma] = nonzero({draw(classes): draw(values)})
            continue
        gamma = draw(st.sampled_from(gammas))
        terms = dict(expr[gamma])
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
        expr[gamma] = nonzero(terms)
    return rebuilt(cert, classes={**cert.classes, key: expr})


def floated(cert, **edits):
    """cert with every coefficient (values), generator (generators), expression
    key (gammas), B-class (classes) or class key (keys) made of floats, or
    with True for each coefficient 1 (bools)."""
    def expr(e):
        return {
            tuple(map(float, g)) if "gammas" in edits else g: {
                tuple(map(float, mu)) if "classes" in edits else mu:
                float(c) if "values" in edits else (True if "bools" in edits and c == 1 else c)
                for mu, c in coeff.items()
            }
            for g, coeff in e.items()
        }
    generators = [tuple(map(float, g)) for g in cert.generators] if "generators" in edits else cert.generators
    classes = {tuple(map(float, k)) if "keys" in edits else k: expr(e) for k, e in cert.classes.items()}
    return rebuilt(cert, generators=generators, classes=classes)


@pytest.mark.parametrize("part", ["values", "generators", "bools", "gammas", "classes", "keys"])
def test_verify_rejects_floats_and_bools(part):
    # a float 2.0 equals 2 and a bool True equals 1, so each of these expands
    # to the right sum; the certificate promises exact ints and Fractions
    cert = finiteness_certificate(2, 2, 6)
    assert cert.verify() and reference_verify(cert)
    assert floated(cert) == cert
    bad = floated(cert, **{part: True})
    assert not bad.verify()
    assert not reference_verify(bad)


@given(perturbed_expressions())
@settings(max_examples=200, deadline=None)
def test_verify_matches_fraction_reference(cert):
    assert cert.verify() == reference_verify(cert)
