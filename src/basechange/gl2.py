"""Cuspidal circles of GL(2) via admissible pairs, and unramified base change.

A cuspidal representation of GL(2) with unitary central character sits
on a circle of unramified twists labeled by an admissible pair: a
quadratic extension E/F together with a character xi of the top field
that does not factor through the norm (and whose level-one restriction
may factor only when E/F is unramified).  Whether xi factors through
the norm is not decidable from numerical invariants, so both conditions
enter as certified flags and validation checks their consistency with
the extension data.

The base-change results implemented here concern totally ramified
quadratic pairs over a characteristic-zero base with odd residue
characteristic, lifted along an unramified extension L/F of odd degree:
the compositum EL/L is again totally ramified quadratic, EL/E is
unramified of degree f(L/F), the transported character keeps its
conductor (the transition function of an unramified extension is the
identity), and on circles base change is z -> z^{f(L/F)}.  The torsion
number (order of the unramified twist stabiliser) stays 1.  The result
stores the target pair and EL/E only: the degree is f(EL/E) = f(L/F).
"""

from __future__ import annotations

from .localfield import ExtensionData, RamificationFiltration, json_field, validate_extension_filtration
from .gl1 import _check_circle_rows, _label_record
from .value import Value


class NotUnramified(ValueError):
    """The lifting extension L/F must be unramified."""


class EvenDegree(ValueError):
    """The lifting extension L/F must have odd degree."""


class OutOfScope(ValueError):
    """Outside the supported scope (char 0, p != 2, totally ramified pair)."""


class AdmissiblePair(Value):
    """Quadratic extension plus character, with certified admissibility flags.

    xi is the character's (conductor, index) int pair, as a GL(1) circle is.  not_norm_factor
    certifies that xi does not factor through the norm map; level_one_norm_factor records
    whether the restriction of xi to the first unit subgroup does; unitary that xi is unitary.
    """

    __slots__ = ("quad", "quad_filtration", "xi", "not_norm_factor", "level_one_norm_factor", "unitary")
    _defaults = {"unitary": True}

    def __post_init__(self):
        if type(self.xi) is not tuple or len(self.xi) != 2:
            raise TypeError(f"xi must be a (conductor, index) pair, got {self.xi!r}")
        _check_circle_rows((self.xi,))
        if self.quad.n != 2:
            raise ValueError("an admissible pair needs a quadratic extension")
        validate_extension_filtration(self.quad, self.quad_filtration)

    def to_json(self) -> dict:
        return {
            "quad": self.quad.to_json(self.quad_filtration),
            "xi": {**_label_record(*self.xi), "unitary": self.unitary},
            "flags": {
                "not_norm_factor": self.not_norm_factor,
                "level_one_norm_factor": self.level_one_norm_factor,
            },
        }

    @staticmethod
    def from_json(obj: dict) -> "AdmissiblePair":
        ext, filt = ExtensionData.from_json(json_field(obj["quad"], dict, "quad"))
        xi = json_field(obj["xi"], dict, "xi")
        flags = json_field(obj.get("flags", {}), dict, "flags")
        return AdmissiblePair(
            quad=ext,
            quad_filtration=filt,
            xi=(json_field(xi["conductor"], int, "conductor"), json_field(xi.get("index", 0), int, "index")),
            unitary=json_field(xi.get("unitary", True), bool, "unitary"),
            not_norm_factor=json_field(flags.get("not_norm_factor", False), bool, "not_norm_factor"),
            level_one_norm_factor=json_field(
                flags.get("level_one_norm_factor", False), bool, "level_one_norm_factor"
            ),
        )


def validate_admissible(pair: AdmissiblePair) -> list[str]:
    """Messages of the failed checks: conditions (1) and (2), then the totally-ramified scope."""
    failures = []
    if not pair.not_norm_factor:
        failures.append("condition (1): the character factors through the norm map")
    if pair.level_one_norm_factor and not pair.quad.is_unramified:
        failures.append(
            "condition (2): the level-one restriction factors through the norm "
            "but the extension is not unramified"
        )
    if not pair.quad.is_totally_ramified:
        failures.append("scope: the quadratic extension must be totally ramified")
    if not pair.unitary:
        failures.append("scope: the character must be unitary")
    if not pair.quad.base.char_zero:
        failures.append("scope: the base field must have characteristic 0")
    if pair.quad.base.p == 2:
        failures.append("scope: the residue characteristic must be odd")
    return failures


def _check_lift(quad: ExtensionData, lift: ExtensionData) -> None:
    if not lift.is_unramified:
        raise NotUnramified("the lifting extension must be unramified (e = 1)")
    if lift.base != quad.base:
        raise OutOfScope("the pair and the lifting extension have different base fields")


def compositum_invariants(quad: ExtensionData, lift: ExtensionData) -> tuple[ExtensionData, ExtensionData]:
    """The pair (EL/L, EL/E) for totally ramified quadratic E/F and
    unramified L/F.

    EL/E is unramified of degree f(L/F); EL/L is quadratic totally
    ramified, forced by multiplicativity of e and f along both routes
    F -> L -> EL and F -> E -> EL.
    """
    if quad.n != 2 or not quad.is_totally_ramified:
        raise OutOfScope("need a totally ramified quadratic extension")
    _check_lift(quad, lift)
    el_over_e = ExtensionData(
        base=quad.top_field, e=1, f=lift.f, galois=True, cyclic=True
    )
    el_over_l = ExtensionData(
        base=lift.top_field, e=2, f=1, galois=True, cyclic=True
    )
    return el_over_l, el_over_e


class Gl2BaseChange(Value):
    """Result of base change along an unramified odd-degree lift.

    degree is f(EL/E); to_json reads EL/L and the conductor off the target pair; torsion is 1.
    """

    __slots__ = ("target_pair", "el_over_e")
    torsion = 1

    @property
    def degree(self) -> int:
        return self.el_over_e.f

    def to_json(self) -> dict:
        conductor, _ = self.target_pair.xi
        return {
            "target_pair": self.target_pair.to_json(),
            "degree": self.degree,
            "conductor": conductor,
            "compositum": {"EL/L": self.target_pair.quad.to_json(), "EL/E": self.el_over_e.to_json()},
            "torsion": self.torsion,
        }


def bc_gl2(pair: AdmissiblePair, lift: ExtensionData) -> Gl2BaseChange:
    """Base change of a cuspidal circle along unramified odd-degree L/F.

    Returns the target pair (EL/L, xi composed with the EL/E norm) and
    EL/E, whose residue degree f(L/F) is the circle degree.  xi keeps its
    (conductor, index) pair because the conductor transition of the
    unramified extension EL/E is the identity.
    """
    failures = validate_admissible(pair)
    if failures:
        raise OutOfScope("; ".join(failures))
    _check_lift(pair.quad, lift)
    if lift.f % 2 == 0:
        raise EvenDegree("the lifting extension must have odd degree")

    el_over_l, el_over_e = compositum_invariants(pair.quad, lift)
    target_pair = AdmissiblePair(
        quad=el_over_l,
        quad_filtration=RamificationFiltration((2,)),
        xi=pair.xi,
        not_norm_factor=True,  # the transported pair is again admissible
        level_one_norm_factor=False,
        unitary=pair.unitary,
    )
    return Gl2BaseChange(target_pair, el_over_e)
