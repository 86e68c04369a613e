import operator
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, permutations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basechange.laurent import (
    InvariantLaurentPoly,
    LaurentPoly,
    _orbit_sum_product,
    sort_class,
    stabilizer_order,
    staircase_basis,
    staircase_decompose,
)


def exponent_vectors(r, lo=-4, hi=4):
    return st.tuples(*([st.integers(lo, hi)] * r))


def laurent_polys(r, nterms=4, lo=-3, hi=3):
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool)
    term = st.tuples(exponent_vectors(r, lo, hi), coeffs)
    return st.lists(term, min_size=0, max_size=nterms).map(
        lambda ts: LaurentPoly(r, {e: c for e, c in ts})
    )


def invariant_polys(r, lo=-4, hi=4):
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool)
    term = st.tuples(exponent_vectors(r, lo, hi).map(sort_class), coeffs)
    return st.lists(term, min_size=0, max_size=3).map(
        lambda ts: InvariantLaurentPoly(r, {e: c for e, c in ts})
    )


def test_stabilizer_and_sort():
    assert sort_class((1, 3, 1)) == (3, 1, 1)
    assert stabilizer_order((3, 1, 1)) == 2
    assert stabilizer_order((2, 2, 2)) == 6


def test_laurent_mul():
    p = LaurentPoly.monomial((1, 0)) + LaurentPoly.monomial((0, 1))
    q = LaurentPoly.monomial((-1, 0))
    assert (p * q).terms == {
        (0, 0): Fraction(1),
        (-1, 1): Fraction(1),
    }


def test_divexact_diff():
    # (s1^2 - s2^2) / (s1 - s2) = s1 + s2
    p = LaurentPoly.monomial((2, 0)) - LaurentPoly.monomial((0, 2))
    q = p.divexact_diff(0, 1)
    assert q == LaurentPoly.monomial((1, 0)) + LaurentPoly.monomial((0, 1))
    with pytest.raises(ArithmeticError):
        LaurentPoly.monomial((1, 0)).divexact_diff(0, 1)


def test_divexact_diff_laurent_exponents():
    # (s1^-1 - s2^-1) / (s1 - s2) = -(s1 s2)^-1
    p = LaurentPoly.monomial((-1, 0)) - LaurentPoly.monomial((0, -1))
    assert p.divexact_diff(0, 1) == LaurentPoly.monomial((-1, -1), -1)


@given(laurent_polys(2), laurent_polys(2))
def test_divexact_inverts_multiplication(p, q):
    diff = LaurentPoly.monomial((1, 0)) - LaurentPoly.monomial((0, 1))
    assert ((p - q) * diff).divexact_diff(0, 1) == p - q


def substitute(poly, i, j):
    """The terms of poly under x_i := x_j: each exponent of x_i merged into that of x_j."""
    out = {}
    for exp, c in poly.terms.items():
        merged = list(exp)
        merged[i], merged[j] = 0, exp[i] + exp[j]
        out[tuple(merged)] = out.get(tuple(merged), 0) + c
    return {e: c for e, c in out.items() if c}


@pytest.mark.parametrize(
    "r, i, j", [(r, i, j) for r in (2, 3, 4) for i in range(r) for j in range(r) if i != j]
)
@given(data=st.data())
@settings(max_examples=10)
def test_divexact_diff_against_multiplication_and_substitution(r, i, j, data):
    # P is divisible by x_i - x_j exactly when P(x_i := x_j) = 0
    p = data.draw(laurent_polys(r))
    x = [LaurentPoly.monomial([int(t == k) for t in range(r)]) for k in range(r)]
    assert (p * (x[i] - x[j])).divexact_diff(i, j) == p
    if substitute(p, i, j):
        with pytest.raises(ArithmeticError):
            p.divexact_diff(i, j)


def test_invariant_collects_and_expands():
    m = InvariantLaurentPoly.orbit_sum((2, 1))
    assert m.expand().terms == {(2, 1): Fraction(1), (1, 2): Fraction(1)}
    back = InvariantLaurentPoly.from_laurent(m.expand())
    assert back == m
    with pytest.raises(ValueError):
        InvariantLaurentPoly.from_laurent(LaurentPoly.monomial((2, 1)))
    with pytest.raises(ValueError):
        InvariantLaurentPoly(2, {(1, 2): Fraction(1)})


def test_classes_stay_strict():
    plain, inv = LaurentPoly.one(2), InvariantLaurentPoly.one(2)
    assert plain.terms == inv.terms
    assert plain != inv and inv != plain
    for left, right in ((plain, inv), (inv, plain)):
        with pytest.raises(TypeError):
            left + right
        with pytest.raises(TypeError):
            left - right
        with pytest.raises(TypeError):
            left * right


@pytest.mark.parametrize("cls", [LaurentPoly, InvariantLaurentPoly])
def test_ring_operations_keep_their_class(cls):
    a = cls(2, {(1, 0): Fraction(1, 2), (0, 0): Fraction(3)})
    b = cls(2, {(1, 0): Fraction(-1, 2)})
    results = [a + b, a - b, -a, a * b, a.scale(2), a.scale(0), cls.zero(2), cls.one(2)]
    assert all(type(x) is cls for x in results)
    assert a + b == cls(2, {(0, 0): Fraction(3)})
    assert a - a == cls.zero(2) and (a - a).is_zero()
    assert hash(a.scale(1)) == hash(a)
    with pytest.raises(ValueError):
        a + cls.one(3)
    with pytest.raises(ValueError):
        cls(2, {(1,): Fraction(1)})


def test_invariant_multiplication():
    m21 = InvariantLaurentPoly.orbit_sum((2, 1))
    m10 = InvariantLaurentPoly.orbit_sum((1, 0))
    product = m21 * m10
    assert product.terms == {(3, 1): Fraction(1), (2, 2): Fraction(2)}


@given(invariant_polys(2), invariant_polys(2))
def test_invariant_mul_matches_expansion(a, b):
    assert (a * b).expand() == a.expand() * b.expand()


@st.composite
def classes_with_repeats(draw, r):
    """Sorted exponent vectors whose entries come from at most two values,
    so most of them have a nontrivial stabiliser."""
    values = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=2))
    return sort_class(draw(st.tuples(*([st.sampled_from(values)] * r))))


def rational_invariant_polys(r):
    proper = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(2, 6))
    coeffs = st.one_of(proper, st.integers(-3, 3).filter(bool).map(Fraction))
    classes = st.one_of(classes_with_repeats(r), exponent_vectors(r).map(sort_class))
    return st.lists(st.tuples(classes, coeffs), max_size=4).map(
        lambda ts: InvariantLaurentPoly(r, {e: c for e, c in ts})
    )


@pytest.mark.parametrize("r", [1, 2, 3])
@given(data=st.data())
@settings(max_examples=60)
def test_orbit_sum_product_matches_expansion(r, data):
    a = data.draw(rational_invariant_polys(r))
    b = data.draw(rational_invariant_polys(r))
    assert (a * b).expand() == a.expand() * b.expand()
    zero, one = InvariantLaurentPoly.zero(r), InvariantLaurentPoly.one(r)
    assert a * zero == zero * a == zero
    assert a * one == one * a == a
    # exact coefficients: int or Fraction, never a float or a bool
    assert all(type(c) in (int, Fraction) for c in (a * b).terms.values())
    # int operands make an int product, in either basis
    ia, ib = (InvariantLaurentPoly(r, {e: c.numerator for e, c in p.terms.items()}) for p in (a, b))
    assert (ia * ib).expand() == ia.expand() * ib.expand()
    for product in (ia * ib, ia * one, ia.expand() * ib.expand()):
        assert all(type(c) is int for c in product.terms.values())


def test_orbit_sum_product_counts_orbit_pairs_at_rank_4():
    # the multiplicity of m_lam is the number of (u, v) in orbit(a) x orbit(b) with u + v = lam
    classes = [sort_class(c) for c in combinations_with_replacement((-1, 0, 1, 3), 4)]
    orbits = {a: set(permutations(a)) for a in classes}
    for a in classes:
        for b in classes:
            sums = Counter(tuple(map(operator.add, u, v)) for u in orbits[a] for v in orbits[b])
            assert dict(_orbit_sum_product(a, b)) == {lam: n for lam, n in sums.items() if lam == sort_class(lam)}


def test_orbit_sum_product_with_stabilisers():
    # m_(1,1,0) * m_(1,0,0) = m_(2,1,0) + 3 m_(1,1,1)
    product = InvariantLaurentPoly.orbit_sum((1, 1, 0)) * InvariantLaurentPoly.orbit_sum((1, 0, 0))
    assert product.terms == {(2, 1, 0): Fraction(1), (1, 1, 1): Fraction(3)}
    half = InvariantLaurentPoly.orbit_sum((0, 0), Fraction(1, 2))
    assert (half * half).terms == {(0, 0): Fraction(1, 4)}


def test_constructor_keeps_ints_and_makes_the_rest_fractions():
    poly = LaurentPoly(1, {(0,): 3, (1,): True, (2,): 0.5, (3,): Fraction(4), (4,): False})
    assert [(type(c), c) for c in poly.terms.values()] == [
        (int, 3), (Fraction, 1), (Fraction, Fraction(1, 2)), (Fraction, 4)
    ]
    assert [type(c) for c in poly.scale(True).terms.values()] == [Fraction] * 4
    assert [type(c) for c in LaurentPoly.one(2).terms.values()] == [int]


def integer_invariant_polys(r):
    term = st.tuples(exponent_vectors(r).map(sort_class), st.integers(-5, 5).filter(bool))
    return st.lists(term, max_size=4).map(lambda ts: InvariantLaurentPoly(r, dict(ts)))


def as_fractions(poly):
    """poly with every coefficient turned into a Fraction."""
    return type(poly)(poly.r, {e: Fraction(c) for e, c in poly.terms.items()})


@given(integer_invariant_polys(3), integer_invariant_polys(3), st.integers(-3, 3), st.integers(1, 3))
def test_int_and_fraction_coefficients_agree(a, b, k, f):
    fa, fb = as_fractions(a), as_fractions(b)
    assert all(type(c) is Fraction for c in fa.terms.values())
    for x, y in ((a, b), (a.expand(), b.expand())):
        fx, fy = as_fractions(x), as_fractions(y)
        assert fx == x and hash(fx) == hash(x)
        for left, right in ((fx, y), (x, fy), (fx, fy)):
            for op in (operator.add, operator.sub, operator.mul):
                assert op(left, right) == op(x, y) and hash(op(left, right)) == hash(op(x, y))
        assert fx.scale(k) == x.scale(k) == x.scale(Fraction(k))
    assert fa.pullback(f) == a.pullback(f) and hash(fa.pullback(f)) == hash(a.pullback(f))


def test_pullback_scales_exponents():
    poly = InvariantLaurentPoly(2, {(1, 0): Fraction(1), (2, -1): Fraction(3, 2)})
    assert poly.pullback(3).terms == {
        (3, 0): Fraction(1),
        (6, -3): Fraction(3, 2),
    }


def test_pullback_examples():
    t = InvariantLaurentPoly.orbit_sum((1,))
    assert t.pullback(2) == InvariantLaurentPoly.orbit_sum((2,))
    e1 = InvariantLaurentPoly.orbit_sum((1, 0))
    # oracle: expand and symmetrise t1^3 + t2^3 directly
    expected = InvariantLaurentPoly.orbit_sum((3, 0))
    assert e1.pullback(3) == expected
    one = InvariantLaurentPoly.one(2)
    assert one.pullback(5) == one


def pullback_invariant_polys(r):
    coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=4).filter(bool)
    classes = st.tuples(*([st.integers(-6, 6)] * r)).map(sort_class)
    return st.lists(st.tuples(classes, coeffs), max_size=3).map(
        lambda ts: InvariantLaurentPoly(r, {e: c for e, c in ts})
    )


@given(pullback_invariant_polys(2), pullback_invariant_polys(2), st.integers(1, 4))
def test_pullback_is_ring_homomorphism(a, b, f):
    assert (a + b).pullback(f) == a.pullback(f) + b.pullback(f)
    assert (a * b).pullback(f) == a.pullback(f) * b.pullback(f)
    assert InvariantLaurentPoly.one(2).pullback(f) == InvariantLaurentPoly.one(2)


def test_staircase_basis():
    for r in range(1, 5):
        basis = staircase_basis(r)
        assert len(basis) == len(set(basis)) == factorial(r)
        assert all(len(c) == r and all(0 <= c[i] <= r - 1 - i for i in range(r)) for c in basis)
    assert staircase_basis(1) == [(0,)]
    assert staircase_basis(2) == [(0, 0), (1, 0)]
    assert staircase_basis(3) == [(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0), (1, 1, 0), (2, 1, 0)]


def reassemble(q):
    """Oracle check: sum_c b_c * s^c must reproduce the monomial s^q."""
    r = len(q)
    total = LaurentPoly.zero(r)
    for c, b in staircase_decompose(q).items():
        total = total + b.expand() * LaurentPoly.monomial(c)
    return total


@given(exponent_vectors(1, -6, 6))
def test_staircase_identity_r1(q):
    assert reassemble(q) == LaurentPoly.monomial(q)


@given(exponent_vectors(2, -5, 5))
def test_staircase_identity_r2(q):
    assert reassemble(q) == LaurentPoly.monomial(q)


@given(exponent_vectors(3, -3, 3))
@settings(max_examples=60, deadline=None)
def test_staircase_identity_r3(q):
    assert reassemble(q) == LaurentPoly.monomial(q)


@given(exponent_vectors(4, -2, 2))
@settings(max_examples=30, deadline=None)
def test_staircase_identity_r4(q):
    assert reassemble(q) == LaurentPoly.monomial(q)
    assert list(staircase_decompose(q)) == staircase_basis(4)


@given(st.integers(1, 4).flatmap(lambda r: exponent_vectors(r, -3, 3)))
@settings(max_examples=40, deadline=None)
def test_staircase_coefficients_are_integers(q):
    # the staircase basis is a Z-basis and every divided difference is exact
    coefficients = staircase_decompose(q).values()
    assert all(type(c) is int for b in coefficients for c in b.terms.values())
    assert reassemble(q) == LaurentPoly.monomial(q)


def is_symmetric(poly: LaurentPoly) -> bool:
    # adjacent transpositions generate S_r
    return all(poly.swap(i, i + 1) == poly for i in range(poly.r - 1))


def test_staircase_coefficients_are_symmetric():
    for c, b in staircase_decompose((3, -2, 1)).items():
        assert is_symmetric(b.expand())


@pytest.mark.parametrize("r", [1, 2, 3])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_staircase_decompose_commutes_with_translation(r, data):
    # s^(q + k*1) = (s_1...s_r)^k * s^q, and (s_1...s_r)^k = m_(k,...,k) is invariant
    q = data.draw(exponent_vectors(r))
    k = data.draw(st.integers(-3, 3))
    unit = InvariantLaurentPoly.orbit_sum((k,) * r)
    shifted = staircase_decompose(tuple(x + k for x in q))
    assert shifted == {c: b * unit for c, b in staircase_decompose(q).items()}
