#!/usr/bin/env python3
"""Run the headline computations end to end and print them.

A quick tour: the GL(4) extended quotient, transition-function tables
for the three standard ramification shapes, base change on the GL(1)
dual with its K-theory matrices, and a GL(2) cuspidal base change.
"""

from fractions import Fraction

from basechange import (
    AdmissiblePair,
    CharacterLabel,
    ExtensionData,
    GaussianRational,
    LocalFieldData,
    RamificationFiltration,
    TemperedDualGL1,
    bc_gl1,
    bc_gl2,
    circle_map,
    extended_quotient,
    induced_map,
    phi,
    psi,
)


def banner(title):
    print()
    print(title)
    print("-" * len(title))


def main():
    banner("Extended quotient (C^x)^4 // S_4")
    for comp in extended_quotient(4).components:
        print(f"  {'+'.join(map(str, comp.partition)):>10}  ->  {comp.describe()}")

    banner("Transition functions psi / phi")
    shapes = [
        ("unramified", RamificationFiltration()),
        ("tame e=3", RamificationFiltration((3,))),
        ("cyclic p=3, jump t=1", RamificationFiltration((3, 3))),
    ]
    points = [Fraction(1, 2), 1, 2, Fraction(7, 2), 5]
    for name, filt in shapes:
        rows = ", ".join(f"psi({x}) = {psi(filt, x)}" for x in points)
        print(f"  {name:>22}: {rows}")
        assert all(phi(filt, psi(filt, x)) == x for x in points)

    banner("Steinberg curve, z -> z^f")
    z = GaussianRational(1, 1)
    for f in (1, 2, 3, 4):
        print(f"  (1+i)^{f} = {z ** f}")

    banner("GL(1) base change, tame quadratic over q=3, conductors <= 3")
    ext = ExtensionData(LocalFieldData(3, 3), e=2, f=1, galois=True, cyclic=True)
    dual = TemperedDualGL1.enumerate(ext.base, 3)
    bc = bc_gl1(ext, RamificationFiltration((2,)), dual)
    print(f"  circles: {len(dual.circles)}, degree on each: {bc.f}")
    print(f"  conductor map: {bc.conductor_map}")
    k0, k1 = induced_map(circle_map(bc))
    print(f"  K^1 diagonal entries: {[k1.entries[i][i] for i in range(3)]} ...")
    print(f"  K^0 diagonal entries: {[k0.entries[i][i] for i in range(3)]} ...")

    banner("GL(2) cuspidal base change along unramified degree 3")
    pair = AdmissiblePair(
        quad=ExtensionData(LocalFieldData(5, 5), e=2, f=1, galois=True, cyclic=True),
        quad_filtration=RamificationFiltration((2,)),
        xi=CharacterLabel(2, 0),
        not_norm_factor=True,
        level_one_norm_factor=False,
    )
    lift = ExtensionData(LocalFieldData(5, 5), e=1, f=3, galois=True, cyclic=True)
    result = bc_gl2(pair, lift)
    print(f"  circle degree: {result.degree}")
    print(f"  conductor: {pair.xi.conductor} -> {result.target_pair.xi.conductor}")
    print(f"  EL/L: (e, f) = ({result.target_pair.quad.e}, {result.target_pair.quad.f})")
    print(f"  EL/E: (e, f) = ({result.el_over_e.e}, {result.el_over_e.f})")
    print(f"  K^1 acts by {result.degree}, K^0 by 1, torsion stays {result.torsion}")


if __name__ == "__main__":
    main()
