from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from points import GaussianRational, I, ONE


rationals = st.fractions(
    min_value=-8, max_value=8, max_denominator=12
)


def gaussians(allow_zero=True):
    base = st.builds(GaussianRational, rationals, rationals)
    if allow_zero:
        return base
    return base.filter(lambda z: not z.is_zero())


def test_basic_arithmetic():
    z = GaussianRational(1, 1)
    assert z * z == GaussianRational(0, 2)
    assert I * I == GaussianRational(-1)
    assert (z - z).is_zero()
    assert z + 1 == GaussianRational(2, 1)
    assert 2 * z == GaussianRational(2, 2)


def test_powers():
    assert I ** 2 == GaussianRational(-1)
    assert I ** 4 == ONE
    assert (GaussianRational(1, 1)) ** 2 == GaussianRational(0, 2)
    assert GaussianRational(2) ** -1 == GaussianRational(Fraction(1, 2))
    assert I ** -1 == GaussianRational(0, -1)
    assert GaussianRational(3) ** 0 == ONE


def test_inverse_and_division():
    z = GaussianRational(Fraction(3), Fraction(-2))
    assert z * z.inverse() == ONE
    assert (z / z) == ONE
    with pytest.raises(ZeroDivisionError):
        GaussianRational(0).inverse()


def test_unit_circle_detection():
    assert I.on_unit_circle()
    assert GaussianRational(Fraction(3, 5), Fraction(4, 5)).on_unit_circle()
    assert not GaussianRational(1, 1).on_unit_circle()


def test_rejects_floats():
    with pytest.raises(TypeError):
        GaussianRational(0.5, 0)


@pytest.mark.parametrize("use", [
    lambda b: GaussianRational(b, 0),
    lambda b: GaussianRational(1, b),
    lambda b: GaussianRational(1, 1) ** b,
    lambda b: GaussianRational(1, 1) + b,
    lambda b: b * GaussianRational(1, 1),
    lambda b: b - GaussianRational(1, 1),
    lambda b: GaussianRational(1, 1) / b,
])
@pytest.mark.parametrize("b", [True, False])
def test_rejects_bools(use, b):
    # True == 1 and False == 0, but a bool is not an exact rational
    with pytest.raises(TypeError):
        use(b)


@given(gaussians(), gaussians(), gaussians())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c


@given(gaussians(allow_zero=False), st.integers(-6, 6), st.integers(-6, 6))
def test_power_law(z, m, n):
    assert z ** m * z ** n == z ** (m + n)


@given(gaussians(allow_zero=False))
def test_norm_is_multiplicative(z):
    w = GaussianRational(Fraction(1, 2), Fraction(1, 3))
    assert (z * w).norm() == z.norm() * w.norm()
