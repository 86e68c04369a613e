import time
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from basechange.localfield import (
    MAX_RESIDUE_CHARACTERISTIC,
    ExtensionData,
    LocalFieldData,
    MismatchedTower,
    NotInPsiImage,
    RamificationFiltration,
    UnsupportedExtension,
    capped_power,
    compose_tower,
    conductor_transport,
    is_power_of,
    norm_level_image,
    phi,
    psi,
    validate_extension_filtration,
)


def field(q=3, p=3, char_zero=True):
    return LocalFieldData(q, p, char_zero)


@st.composite
def filtrations(draw, max_length=4):
    """Divisibility chains built top-down: each order is a multiple of the next."""
    length = draw(st.integers(min_value=0, max_value=max_length))
    if length == 0:
        return RamificationFiltration()
    orders = [draw(st.sampled_from([2, 3, 4, 5, 7, 9]))]
    for _ in range(length - 1):
        orders.append(orders[-1] * draw(st.sampled_from([1, 1, 2, 3])))
    return RamificationFiltration(tuple(reversed(orders)))


nonneg_rationals = st.fractions(min_value=0, max_value=60, max_denominator=24)


# -- construction and validation ------------------------------------------


def test_local_field_validation():
    LocalFieldData(9, 3)
    LocalFieldData(2, 2, char_zero=False)
    with pytest.raises(ValueError):
        LocalFieldData(6, 3)  # not a power of 3
    with pytest.raises(ValueError):
        LocalFieldData(8, 4)  # p not prime
    with pytest.raises(ValueError):
        LocalFieldData(1, 2)
    with pytest.raises(ValueError):
        LocalFieldData(0, 2)


def test_residue_characteristic_cap():
    # 2**61 - 1 and 2**31 - 1 are prime, but past the cap: refused before any trial division
    for p, q in ((2**61 - 1, 2**61 - 1), (2**31 - 1, (2**31 - 1) ** 2)):
        with pytest.raises(ValueError, match="is above"):
            LocalFieldData(q, p)
    p = 1048573  # the largest prime below 2**20
    assert p < MAX_RESIDUE_CHARACTERISTIC
    assert LocalFieldData(p**3, p).q == p**3
    with pytest.raises(ValueError):
        LocalFieldData(p**3 * 2, p)
    assert LocalFieldData(p**2, p).q == p**2
    assert LocalFieldData(2**40, 2).q == 2**40
    for small in (2, 3):
        with pytest.raises(ValueError, match="is not a positive power"):
            LocalFieldData(12, small)


def decimal_digits(n: int) -> int:
    """len(str(n)) for n >= 1, read in chunks so that no int-to-str limit applies."""
    count = 0
    while n >= 10**1000:
        n //= 10**1000
        count += 1000
    return count + len(str(n))


def test_capped_power_is_exact_up_to_the_cap():
    for cap in (1, 2000, 10**50):
        for q in range(2, 41):
            for k in range(61):
                power = capped_power(q, k, cap)
                assert power == q**k if q**k <= cap else power > cap
    start = time.perf_counter()
    assert capped_power(3, 10**9, 10**50) > 10**50
    assert time.perf_counter() - start < 0.1


def test_is_power_of_matches_repeated_division():
    def by_repeated_division(q, p):  # oracle: strip one factor p at a time
        if q < p:
            return False
        while q % p == 0:
            q //= p
        return q == 1

    for p in (2, 3, 5, 7, 11, 13, 97):
        for q in range(1, 20000):
            assert is_power_of(q, p) == by_repeated_division(q, p), (q, p)
        for k in range(1, 200):
            for q in (p**k, p**k - 1, p**k + 1, 2 * p**k, 3 * p**k, p ** (k - 1) * (p + 1)):
                assert is_power_of(q, p) == by_repeated_division(q, p), (q, p, k)
    start = time.perf_counter()
    assert is_power_of(2**14284, 2) and not is_power_of(3**9011 + 3, 3)
    assert time.perf_counter() - start < 0.1


def test_top_field_digit_cap():
    # 3**9012 has 4,300 digits, 3**9013 one more
    base = field()
    assert len(str(ExtensionData(base, e=1, f=9012).top_field.q)) == 4300
    for f in (9013, 100001, 99999999):
        with pytest.raises(ValueError, match="more than 4300 digits"):
            ExtensionData(base, e=1, f=f).top_field
    # at each residue size, accepted exactly when q^f has at most 4,300 digits
    for q, p, last in ((2, 2, 14284), (4, 2, 7142), (9, 3, 4506), (1048573, 1048573, 714)):
        for f in range(last - 1, last + 3):
            ext = ExtensionData(field(q, p), e=1, f=f)
            if decimal_digits(q**f) <= 4300:
                assert f <= last
                top = ext.top_field
                assert (top.q, top.p) == (q**f, p)
            else:
                assert f > last
                with pytest.raises(ValueError, match=f"q\\^f = {q}\\^{f} has more than 4300 digits"):
                    ext.top_field


def test_extension_validation():
    base = field()
    ext = ExtensionData(base, e=2, f=3)
    assert ext.n == 6
    assert ext.top_field == LocalFieldData(27, 3)
    with pytest.raises(ValueError):
        ExtensionData(base, e=0, f=1)
    with pytest.raises(ValueError):
        ExtensionData(base, e=1, f=1, galois=False, cyclic=True)


@pytest.mark.parametrize("build", [
    lambda: ExtensionData(field(), 1, 2.0),
    lambda: ExtensionData(field(), 2.0, 1),
    lambda: ExtensionData(field(), e=True, f=2),
    lambda: ExtensionData(field(), e=1, f="2"),
    lambda: LocalFieldData(3.0, 3),
    lambda: LocalFieldData(9, 3.0),
    lambda: LocalFieldData(True, 2),
], ids=["f-float", "e-float", "e-bool", "f-str", "q-float", "p-float", "q-bool"])
def test_fields_and_extensions_refuse_invariants_that_are_not_ints(build):
    # a float or a bool standing for an int is refused, not carried along: the first would have n == 2.0
    with pytest.raises(TypeError):
        build()


def test_filtration_normalisation_and_validation():
    assert RamificationFiltration((3, 3, 1, 1)).orders == (3, 3)
    assert RamificationFiltration(()).orders == ()
    assert RamificationFiltration((4, 2, 1)).orders == (4, 2)
    with pytest.raises(ValueError):
        RamificationFiltration((2, 3))  # increasing
    with pytest.raises(ValueError):
        RamificationFiltration((4, 3))  # 3 does not divide 4
    with pytest.raises(ValueError):
        RamificationFiltration((4, 0))


@pytest.mark.parametrize("orders", [(2.7, 1.2), ("4", "2"), (True,)], ids=["float", "str", "bool"])
def test_filtration_refuses_non_int_orders(orders):
    # each was once truncated or coerced: to (2,), (4, 2) and ()
    with pytest.raises(ValueError, match="positive ints"):
        RamificationFiltration(orders)


def test_filtration_extension_consistency():
    ext = ExtensionData(field(), e=2, f=1)
    with pytest.raises(ValueError):
        validate_extension_filtration(ext, RamificationFiltration((3,)))
    validate_extension_filtration(ext, RamificationFiltration((2,)))
    # G_1 is a p-group and G_0/G_1 has order prime to p (p = 3 here)
    wild_ext = ExtensionData(field(), e=3, f=1)
    validate_extension_filtration(wild_ext, RamificationFiltration((3, 3)))
    with pytest.raises(ValueError, match=r"\|G_0/G_1\| = 3, divisible by p=3"):
        validate_extension_filtration(wild_ext, RamificationFiltration((3,)))
    with pytest.raises(ValueError, match=r"\|G_1\| = 2, not a power of p=3"):
        validate_extension_filtration(ExtensionData(field(), e=6, f=1), RamificationFiltration((6, 2)))
    validate_extension_filtration(ExtensionData(field(), e=18, f=1), RamificationFiltration((18, 9, 3)))


# -- is_wild ----------------------------------------------------------------


def test_is_wild_examples():
    assert ExtensionData(field(), e=3, f=1).is_wild
    assert ExtensionData(field(), e=6, f=2).is_wild
    assert not ExtensionData(field(), e=2, f=1).is_wild
    assert not ExtensionData(field(), e=2, f=2).is_wild
    assert not ExtensionData(field(), e=1, f=3).is_wild
    assert not ExtensionData(field(), e=1, f=1).is_wild  # the trivial extension


# -- phi and psi -------------------------------------------------------------


def test_phi_examples():
    assert phi(RamificationFiltration(), 5) == 5
    assert phi(RamificationFiltration((3,)), 6) == 2
    assert phi(RamificationFiltration((3, 3)), 4) == 2
    assert phi(RamificationFiltration((3, 3)), 1) == 1


def test_psi_examples():
    assert psi(RamificationFiltration((3,)), 2) == 6
    assert psi(RamificationFiltration((3, 3)), 2) == 4
    assert psi(RamificationFiltration((5, 5, 5)), 0) == 0
    assert psi(RamificationFiltration(), 7) == 7


def test_negative_arguments_rejected():
    filt = RamificationFiltration((2,))
    with pytest.raises(ValueError):
        phi(filt, -1)
    with pytest.raises(ValueError):
        psi(filt, Fraction(-1, 2))


@pytest.mark.parametrize("transition", [phi, psi])
@pytest.mark.parametrize("inexact", [0.1, True, "1/2"])
def test_inexact_arguments_refused(transition, inexact):
    # Fraction(0.1) is 3602879701896397/36028797018963968, a bool reads as 0 or 1, a str is parsed
    with pytest.raises(TypeError, match="takes an int or a Fraction"):
        transition(RamificationFiltration((2,)), inexact)


@given(filtrations(max_length=12))
def test_phi_concave_psi_convex(filt):
    # chords between samples 1/4 apart: positive, falling for phi and rising for psi
    grid = [Fraction(i, 4) for i in range(65)]
    for fn, trend in ((phi, -1), (psi, 1)):
        values = [fn(filt, x) for x in grid]
        slopes = [4 * (b - a) for a, b in zip(values, values[1:])]
        assert all(s > 0 for s in slopes)
        assert all(trend * (b - a) >= 0 for a, b in zip(slopes, slopes[1:]))


def reference_breakpoints(filt):
    """phi as breakpoint data, one unit interval at a time: the points
    (i, phi(i)) for i up to the chain length less one, slope |G_{i+1}|/|G_0|
    on [i, i+1], and slope 1/|G_0| from the last point on."""
    g0 = filt.e
    points = [(Fraction(0), Fraction(0))]
    slopes = []
    for i in range(max(len(filt.orders) - 1, 0)):
        slopes.append(Fraction(filt.order_at(i + 1), g0))
        points.append((Fraction(i + 1), points[-1][1] + slopes[-1]))
    slopes.append(Fraction(1, g0))
    return points, slopes


def evaluate_piecewise(points, slopes, x):
    """The increasing function through points with slopes[i] from points[i] on."""
    x = Fraction(x)
    i = len(points) - 1
    while i > 0 and points[i][0] > x:
        i -= 1
    x0, y0 = points[i]
    return y0 + slopes[i] * (x - x0)


def reference_phi(filt, u):
    return evaluate_piecewise(*reference_breakpoints(filt), u)


def reference_psi(filt, x):
    """phi's breakpoints mirrored in the diagonal, its slopes inverted."""
    points, slopes = reference_breakpoints(filt)
    return evaluate_piecewise([(y, x) for x, y in points], [1 / s for s in slopes], x)


@given(filtrations(max_length=12), st.lists(nonneg_rationals, max_size=8))
def test_phi_psi_match_reference(filt, extra):
    points, _ = reference_breakpoints(filt)
    xs = [*range(61), *(y for _, y in points), *extra]
    for x in xs:
        for fn, reference in ((phi, reference_phi), (psi, reference_psi)):
            value = fn(filt, x)
            assert type(value) is Fraction
            assert value == reference(filt, x)


@given(filtrations(), nonneg_rationals)
def test_phi_psi_are_inverse(filt, x):
    assert phi(filt, psi(filt, x)) == x
    assert psi(filt, phi(filt, x)) == x


@given(filtrations(), st.integers(min_value=0, max_value=50))
def test_psi_integrality(filt, n):
    value = psi(filt, n)
    assert value.denominator == 1


@given(filtrations())
def test_closed_forms_match_general_computation(filt):
    e = filt.e
    for x in (Fraction(1, 3), Fraction(5, 2), 4):
        if not filt.orders:
            assert psi(filt, x) == x
        elif len(filt.orders) == 1:
            assert psi(filt, x) == e * x
    # two-piece form for constant chains [p]*(t+1)
    p, t = 3, 2
    const = RamificationFiltration((p,) * (t + 1))
    for x in (Fraction(1, 2), 2, Fraction(7, 3), 10):
        expected = x if x <= t else t + p * (x - t)
        assert psi(const, x) == expected


# -- norm transport -----------------------------------------------------------


def brute_force_psi_image(filt, level, bound):
    """Oracle: scan integers v in [0, bound] for psi(v) == level."""
    for v in range(bound + 1):
        if psi(filt, v) == level:
            return v
    return None


def test_norm_level_image_examples():
    unram = ExtensionData(field(q=5, p=5), e=1, f=2)
    assert norm_level_image(unram, RamificationFiltration(), 4) == 4

    tame = ExtensionData(field(), e=2, f=1)
    filt2 = RamificationFiltration((2,))
    assert norm_level_image(tame, filt2, 6) == 3
    assert brute_force_psi_image(filt2, 6, 6) == 3

    assert brute_force_psi_image(filt2, 5, 5) is None
    with pytest.raises(NotInPsiImage):
        norm_level_image(tame, filt2, 5)


def test_norm_level_image_refuses_a_level_that_is_no_int():
    # a float or bool level is refused, not read as the int it equals
    tame = ExtensionData(field(), e=2, f=1)
    for bad in (2.0, 4.0, True, Fraction(4)):
        with pytest.raises(TypeError, match="level must be an int"):
            norm_level_image(tame, RamificationFiltration((2,)), bad)
    assert norm_level_image(tame, RamificationFiltration((2,)), 4) == 2


def test_norm_level_image_wild_certification():
    wild = ExtensionData(field(), e=3, f=1, galois=True, cyclic=True)
    filt = RamificationFiltration((3, 3))
    # G_4 is trivial (beyond the chain) and psi(2) = 4, so level 4 transports
    assert norm_level_image(wild, filt, 4) == 2
    # level 1 sits inside the nontrivial part of the chain: refused
    with pytest.raises(UnsupportedExtension):
        norm_level_image(wild, filt, 1)
    # without the Galois flag the wild case is always refused
    bare = ExtensionData(field(), e=3, f=1)
    with pytest.raises(UnsupportedExtension):
        norm_level_image(bare, filt, 4)


@given(filtrations(), st.integers(min_value=0, max_value=30))
def test_norm_level_is_left_inverse_of_psi(filt, v):
    # G_1 is a p-group and G_0/G_1 has order prime to p: p is read off a
    # nontrivial G_1, or is a prime not dividing e
    e, g1 = filt.e, filt.order_at(1)
    p = next(p for p in (2, 3, 5, 7, 11) if (g1 % p == 0 if g1 > 1 else e % p))
    assume(g1 in {p**k for k in range(8)} and (e // g1) % p)
    if e % p == 0:
        ext = ExtensionData(LocalFieldData(p, p), e=e, f=1, galois=True, cyclic=True)
    else:
        ext = ExtensionData(LocalFieldData(p, p), e=e, f=1)
    level = psi(filt, v)
    assert level.denominator == 1
    if ext.e % p == 0 and filt.order_at(int(level)) != 1:
        return  # wild uncertified level; out of the operation's domain
    assert norm_level_image(ext, filt, int(level)) == v


# -- conductors ---------------------------------------------------------------


def test_conductor_transport_examples():
    assert conductor_transport(RamificationFiltration(), 3) == 3
    assert conductor_transport(RamificationFiltration((2,)), 1) == 2
    assert conductor_transport(RamificationFiltration((7, 7)), 0) == 0


def test_conductor_transport_refuses_a_conductor_that_is_no_int():
    # a float, bool or Fraction conductor is refused, also where psi is the identity
    for filt in (RamificationFiltration((2,)), RamificationFiltration()):
        for bad in (2.5, True, 3.0, Fraction(3)):
            with pytest.raises(TypeError, match="conductor must be an int"):
                conductor_transport(filt, bad)
    with pytest.raises(ValueError, match="nonnegative"):
        conductor_transport(RamificationFiltration(), -1)


# -- towers -------------------------------------------------------------------


def test_compose_tower_examples():
    base = field(q=5, p=5)
    unram3 = ExtensionData(base, e=1, f=3)
    quad = ExtensionData(LocalFieldData(125, 5), e=2, f=1)
    tower = compose_tower(unram3, quad)
    assert (tower.e, tower.f, tower.n) == (2, 3, 6)

    trivial = ExtensionData(base, e=1, f=1)
    again = compose_tower(trivial, ExtensionData(base, e=2, f=1))
    assert (again.e, again.f) == (2, 1)

    with pytest.raises(MismatchedTower):
        compose_tower(unram3, ExtensionData(base, e=2, f=1))


@given(
    st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
    st.integers(1, 2), st.integers(1, 2), st.integers(1, 2),
)
def test_compose_tower_associative(e1, f1, e2, f2, e3, f3):
    base = field(q=2, p=2)
    a = ExtensionData(base, e=e1, f=f1)
    b = ExtensionData(a.top_field, e=e2, f=f2)
    ab = compose_tower(a, b)
    c = ExtensionData(ab.top_field, e=e3, f=f3)
    left = compose_tower(compose_tower(a, b), c)
    right = compose_tower(a, compose_tower(b, c))
    assert left == right
    assert left.e == e1 * e2 * e3 and left.f == f1 * f2 * f3
