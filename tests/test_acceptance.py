"""Acceptance suite: one test per criterion, exact checks, timed.

Each test prints a single pass/fail line (visible with pytest -s) and
then asserts, so a red criterion still reports its line.
"""

import json
import random
import time
from fractions import Fraction
from math import comb

from basechange.cli import main
from basechange.extquot import extended_quotient
from basechange.finiteness import finiteness_certificate
from basechange.gl1 import TemperedDualGL1, bc_gl1, circle_map
from basechange.gl2 import AdmissiblePair, bc_gl2
from basechange.ktheory import CircleSpace, ProperCircleMap, induced_map
from basechange.localfield import (
    ExtensionData,
    LocalFieldData,
    RamificationFiltration,
    conductor_transport,
    phi,
    psi,
)
from circle_oracles import circle_degree_oracle
from points import GaussianRational, UnramifiedQuasicharacter, bc_unramified_quasichar

SEED = 20240802


def report(num, description, ok, elapsed, limit):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {status} [{elapsed:.3f}s / limit {limit}s] {description}")
    assert ok, f"criterion {num} failed: {description}"
    assert elapsed < limit, f"criterion {num} exceeded {limit}s ({elapsed:.3f}s)"


def partition_count_oracle(n):
    table = [1] + [0] * n
    for m in range(1, n + 1):
        total, k = 0, 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m and g2 > m:
                break
            sign = 1 if k % 2 == 1 else -1
            if g1 <= m:
                total += sign * table[m - g1]
            if g2 <= m:
                total += sign * table[m - g2]
            k += 1
        table[m] = total
    return table[n]


def random_filtration(rng):
    length = rng.randint(0, 4)
    if length == 0:
        return RamificationFiltration()
    orders = [rng.choice([2, 3, 4, 5, 7, 9])]
    for _ in range(length - 1):
        orders.append(orders[-1] * rng.choice([1, 1, 2, 3]))
    return RamificationFiltration(tuple(reversed(orders)))


def random_rational(rng, hi=40):
    return Fraction(rng.randint(0, hi * 6), rng.randint(1, 6))


def test_criterion_01_gl4_extended_quotient(capsys):
    start = time.perf_counter()
    code = main(["extquot", "--n", "4", "--format", "json"])
    elapsed = time.perf_counter() - start
    payload = json.loads(capsys.readouterr().out)
    factors = [
        [f["sym_power"] for f in comp["factors"]] for comp in payload["components"]
    ]
    ok = code == 0 and factors == [[1], [1, 1], [2], [1, 2], [4]]
    with capsys.disabled():
        report(1, "GL(4) extended quotient components", ok, elapsed, 0.1)


def test_criterion_02_partition_count_property():
    start = time.perf_counter()
    ok = all(
        len(extended_quotient(n).components) == partition_count_oracle(n)
        for n in range(1, 31)
    )
    elapsed = time.perf_counter() - start
    report(2, "component count equals p(n) for n <= 30", ok, elapsed, 1.0)


def test_criterion_03_closed_forms():
    rng = random.Random(SEED)
    start = time.perf_counter()
    ok = True
    unramified = RamificationFiltration()
    for _ in range(100):
        x = random_rational(rng)
        ok = ok and psi(unramified, x) == x
    for e in (2, 3, 5, 7):
        tame = RamificationFiltration((e,))
        for _ in range(100):
            x = random_rational(rng)
            ok = ok and psi(tame, x) == e * x
    for p in (3, 5):
        for t in (1, 2, 3):
            cyclic = RamificationFiltration((p,) * (t + 1))
            for _ in range(100):
                x = random_rational(rng)
                expected = x if x <= t else t + p * (x - t)
                ok = ok and psi(cyclic, x) == expected
    elapsed = time.perf_counter() - start
    report(3, "transition-function closed forms", ok, elapsed, 1.0)


def test_criterion_04_inversion_and_integrality():
    rng = random.Random(SEED + 1)
    start = time.perf_counter()
    ok = True
    filtrations = [random_filtration(rng) for _ in range(100)]
    for filt in filtrations:
        for _ in range(10):  # 1000 points total across the 100 filtrations
            x = random_rational(rng)
            ok = ok and phi(filt, psi(filt, x)) == x
        for v in range(0, 51):
            ok = ok and psi(filt, v).denominator == 1
    elapsed = time.perf_counter() - start
    report(4, "phi/psi inversion and integrality", ok, elapsed, 5.0)


def test_criterion_05_gl1_ktheory_theorem():
    start = time.perf_counter()
    ok = True
    for f in (2, 3, 5):
        ext = ExtensionData(LocalFieldData(3, 3), e=1, f=f, galois=True, cyclic=True)
        dual = TemperedDualGL1.enumerate(ext.base, 4)
        extra = (1, 5)  # a target circle no source hits
        bc = bc_gl1(ext, RamificationFiltration(), dual, extra_targets=[extra])
        k0, k1 = induced_map(circle_map(bc))
        entries0, entries1 = k0.entries, k1.entries  # each read builds the dense rows
        matched = {
            (k1.row_labels.index(f"c{c}.{j}"), k1.col_labels.index(f"c{tc}.{tj}"))
            for c, j, tc, tj in bc.pairs
        }
        for i in range(len(k1.row_labels)):
            for j in range(len(k1.col_labels)):
                if (i, j) in matched:
                    ok = ok and entries1[i][j] == f and entries0[i][j] == 1
                else:
                    ok = ok and entries1[i][j] == 0 and entries0[i][j] == 0
        extra_col = k1.col_labels.index("c1.5")
        ok = ok and all(row[extra_col] == 0 for row in entries1)
    elapsed = time.perf_counter() - start
    report(5, "GL(1) K-theory matrices (f on matches, else 0)", ok, elapsed, 1.0)


def test_criterion_06_conductor_transport():
    start = time.perf_counter()
    tame = RamificationFiltration((2,))
    unramified = RamificationFiltration()
    ok = (
        conductor_transport(tame, 1) == 2
        and conductor_transport(tame, 2) == 4
        and all(conductor_transport(unramified, c) == c for c in range(0, 6))
        and conductor_transport(tame, 0) == 0
        and conductor_transport(RamificationFiltration((5, 5)), 0) == 0
    )
    elapsed = time.perf_counter() - start
    report(6, "conductor transport", ok, elapsed, 0.1)


def test_criterion_07_gl2_theorem():
    start = time.perf_counter()
    ok = True
    for lift_f in (3, 5):
        for conductor in (1, 2, 3):
            pair = AdmissiblePair(
                quad=ExtensionData(LocalFieldData(5, 5), e=2, f=1, galois=True, cyclic=True),
                quad_filtration=RamificationFiltration((2,)),
                xi=(conductor, 0),
                not_norm_factor=True,
                level_one_norm_factor=False,
            )
            lift = ExtensionData(LocalFieldData(5, 5), e=1, f=lift_f, galois=True, cyclic=True)
            result = bc_gl2(pair, lift)
            ok = ok and result.target_pair.xi[0] == conductor
            ok = ok and result.degree == lift_f
            ok = ok and result.target_pair.quad.e == 2
            source = CircleSpace(("T_source",))
            target = CircleSpace(("T_target",))
            k0, k1 = induced_map(
                ProperCircleMap(source, target, (("T_source", "T_target", result.degree),))
            )
            ok = ok and k1.entries == ((lift_f,),) and k0.entries == ((1,),)
    elapsed = time.perf_counter() - start
    report(7, "GL(2) base change: conductor, degree, K entries", ok, elapsed, 0.1)


def test_criterion_08_symmetric_reduction_degree():
    start = time.perf_counter()
    ok = True
    # every Sym^n piece retracts onto z -> z^f (ktheory), so its degree is f for each n
    for f in range(1, 6):
        ok = ok and circle_degree_oracle(f, 8 * f) == f
    elapsed = time.perf_counter() - start
    report(8, "symmetric reduction degree vs winding oracle", ok, elapsed, 1.0)


def test_criterion_09_finiteness_certificates():
    start = time.perf_counter()
    ok = True
    for r, f in ((1, 2), (1, 3), (2, 2), (2, 3), (3, 2)):
        window = 2 * f + 2
        cert = finiteness_certificate(r, f, window)
        expected_targets = comb(2 * window + r, r)
        ok = ok and len(cert.reductions) == expected_targets
        ok = ok and cert.verify()
    elapsed = time.perf_counter() - start
    report(9, "complete finiteness certificates at window 2f+2", ok, elapsed, 60.0)


def test_criterion_10_weil_degree_coherence():
    rng = random.Random(SEED + 2)
    start = time.perf_counter()
    ok = True
    for _ in range(200):
        if rng.random() < 0.5:
            t = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
            denom = 1 + t * t
            z = GaussianRational((1 - t * t) / denom, 2 * t / denom)  # on the circle
        else:
            z = GaussianRational(
                Fraction(rng.randint(-8, 8), rng.randint(1, 6)),
                Fraction(rng.randint(-8, 8), rng.randint(1, 6)),
            )
            if z.is_zero():
                z = GaussianRational(1, 1)
        f = rng.randint(1, 5)
        m = rng.randint(-5, 5)
        chi = UnramifiedQuasicharacter(z)
        ok = ok and bc_unramified_quasichar(chi, f).evaluate(m) == z ** (f * m)
        if z.on_unit_circle():
            ok = ok and bc_unramified_quasichar(chi, f).tempered
    elapsed = time.perf_counter() - start
    report(10, "Weil-degree coherence of quasicharacter base change", ok, elapsed, 1.0)
