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
number (order of the unramified twist stabiliser) stays 1.
"""

from __future__ import annotations

from .localfield import (
    ExtensionData,
    RamificationFiltration,
    conductor_transport,
    json_bool,
    json_int,
    json_object,
    validate_extension_filtration,
)
from .gl1 import CharacterLabel
from .value import Value


class NotUnramified(ValueError):
    """The lifting extension L/F must be unramified."""


class EvenDegree(ValueError):
    """The lifting extension L/F must have odd degree."""


class OutOfScope(ValueError):
    """Outside the supported scope (char 0, p != 2, totally ramified pair)."""


class AdmissiblePair(Value):
    """Quadratic extension plus character, with certified admissibility flags.

    not_norm_factor certifies that xi does not factor through the norm
    map; level_one_norm_factor records whether the restriction of xi to
    the first unit subgroup does; unitary certifies that xi is unitary.
    """

    __slots__ = ("quad", "quad_filtration", "xi", "not_norm_factor", "level_one_norm_factor", "unitary")
    _defaults = {"unitary": True}

    def __post_init__(self):
        if self.quad.n != 2:
            raise ValueError("an admissible pair needs a quadratic extension")
        validate_extension_filtration(self.quad, self.quad_filtration)

    def to_json(self) -> dict:
        return {
            "quad": self.quad.to_json(self.quad_filtration),
            "xi": {**self.xi.to_json(), "unitary": self.unitary},
            "flags": {
                "not_norm_factor": self.not_norm_factor,
                "level_one_norm_factor": self.level_one_norm_factor,
            },
        }

    @staticmethod
    def from_json(obj: dict) -> "AdmissiblePair":
        ext, filt = ExtensionData.from_json(json_object(obj["quad"], "quad"))
        xi = json_object(obj["xi"], "xi")
        flags = json_object(obj.get("flags", {}), "flags")
        return AdmissiblePair(
            quad=ext,
            quad_filtration=filt,
            xi=CharacterLabel(
                json_int(xi["conductor"], "conductor"), json_int(xi.get("index", 0), "index")
            ),
            unitary=json_bool(xi.get("unitary", True), "unitary"),
            not_norm_factor=json_bool(
                flags.get("not_norm_factor", False), "not_norm_factor"
            ),
            level_one_norm_factor=json_bool(
                flags.get("level_one_norm_factor", False), "level_one_norm_factor"
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

    to_json reads EL/L and the conductor off the target pair; the torsion is always 1.
    """

    __slots__ = ("target_pair", "degree", "el_over_e")
    torsion = 1

    def to_json(self) -> dict:
        return {
            "target_pair": self.target_pair.to_json(),
            "degree": self.degree,
            "conductor": self.target_pair.xi.conductor,
            "compositum": {"EL/L": self.target_pair.quad.to_json(), "EL/E": self.el_over_e.to_json()},
            "torsion": self.torsion,
        }


def bc_gl2(pair: AdmissiblePair, lift: ExtensionData) -> Gl2BaseChange:
    """Base change of a cuspidal circle along unramified odd-degree L/F.

    Returns the target pair (EL/L, xi composed with the EL/E norm), the
    circle degree f(L/F) and EL/E.  The conductor is preserved because
    the conductor transition of the unramified extension EL/E is the
    identity.
    """
    failures = validate_admissible(pair)
    if failures:
        raise OutOfScope("; ".join(failures))
    _check_lift(pair.quad, lift)
    if lift.f % 2 == 0:
        raise EvenDegree("the lifting extension must have odd degree")

    el_over_l, el_over_e = compositum_invariants(pair.quad, lift)
    # conductor transport along the unramified EL/E: the empty filtration
    conductor = conductor_transport(RamificationFiltration(), pair.xi.conductor)
    target_pair = AdmissiblePair(
        quad=el_over_l,
        quad_filtration=RamificationFiltration.tame_default(2),
        xi=CharacterLabel(conductor, pair.xi.index),
        not_norm_factor=True,  # the transported pair is again admissible
        level_one_norm_factor=False,
        unitary=pair.unitary,
    )
    return Gl2BaseChange(target_pair=target_pair, degree=lift.f, el_over_e=el_over_e)
