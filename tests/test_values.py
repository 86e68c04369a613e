"""Value semantics of the library's record classes.

Every record compares equal to one built from the same fields, hashes
like it unless a field holds a dict or list, prints as ``Class(field=value,
...)``, survives copy and pickle, and refuses assignment and deletion
with AttributeError.  The CLI quotes these reprs in its error
messages, so they are pinned here byte for byte.
"""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from basechange.extquot import ExtendedQuotient, extended_quotient
from basechange.finiteness import FinitenessCertificate, finiteness_certificate
from basechange.gl1 import Gl1BaseChange, TemperedDualGL1, bc_gl1
from basechange.gl2 import AdmissiblePair, Gl2BaseChange, bc_gl2
from basechange.ktheory import CircleSpace, KMorphism, ProperCircleMap, compose_maps
from basechange.localfield import ExtensionData, LocalFieldData, RamificationFiltration
from circle_oracles import Arc
from points import GaussianRational, TorusPoint, UnramifiedQuasicharacter

F3 = "LocalFieldData(q=3, p=3, char_zero=True)"
QUAD = "ExtensionData(base=LocalFieldData(q=5, p=5, char_zero=True), e=2, f=1, galois=True, cyclic=True)"
PAIR = (f"AdmissiblePair(quad={QUAD}, quad_filtration=RamificationFiltration(orders=(2,)), "
        "xi=(2, 0), not_norm_factor=True, "
        "level_one_norm_factor=False, unitary=True)")


def _pair():
    quad = ExtensionData(LocalFieldData(5, 5), 2, 1, galois=True, cyclic=True)
    return AdmissiblePair(quad, RamificationFiltration((2,)), (2, 0), True, False)


def _gl2():
    return bc_gl2(_pair(), ExtensionData(LocalFieldData(5, 5), 1, 3, galois=True, cyclic=True))


def _gl1():
    base = LocalFieldData(3, 3)
    ext = ExtensionData(base, 1, 2, galois=True, cyclic=True)
    return bc_gl1(ext, RamificationFiltration(), TemperedDualGL1.enumerate(base, 1))


def _circle_map():
    return ProperCircleMap(CircleSpace(("a", "b")), CircleSpace(("x",)), (("a", "x", 2),))


# class -> (build, one that differs, repr of build())
VALUES = {
    GaussianRational: (lambda: GaussianRational(1, Fraction(1, 2)), lambda: GaussianRational(1),
                         "GaussianRational(1, 1/2)"),
    LocalFieldData: (lambda: LocalFieldData(3, 3), lambda: LocalFieldData(3, 3, False), F3),
    ExtensionData: (lambda: ExtensionData(LocalFieldData(5, 5), 2, 1, galois=True, cyclic=True),
                      lambda: ExtensionData(LocalFieldData(5, 5), 2, 1, galois=True), QUAD),
    RamificationFiltration: (lambda: RamificationFiltration([3, 3, 1]), lambda: RamificationFiltration([3]),
                               "RamificationFiltration(orders=(3, 3))"),
    ExtendedQuotient: (lambda: extended_quotient(2), lambda: extended_quotient(1),
                         "ExtendedQuotient(n=2)"),
    TorusPoint: (lambda: TorusPoint.make([[GaussianRational(2), GaussianRational(0, 1)]]),
                   lambda: TorusPoint.make([[GaussianRational(2)]]),
                   "TorusPoint(factors=((GaussianRational(0, 1), GaussianRational(2)),))"),
    CircleSpace: (lambda: CircleSpace(("a", "b")), lambda: CircleSpace(("b", "a")),
                    "CircleSpace(components=('a', 'b'))"),
    ProperCircleMap: (_circle_map,
                        lambda: ProperCircleMap(CircleSpace(("a", "b")), CircleSpace(("x",)), (("b", "x", 2),)),
                        "ProperCircleMap(source=CircleSpace(components=('a', 'b')), "
                        "target=CircleSpace(components=('x',)), matches=(('a', 'x', 2),))"),
    KMorphism: (lambda: KMorphism(("a",), ("x", "y"), ((0, 1, 2),)),
                  lambda: KMorphism(("a",), ("x", "y"), ((0, 0, 2),)),
                  "KMorphism(row_labels=('a',), col_labels=('x', 'y'), cells=((0, 1, 2),))"),
    UnramifiedQuasicharacter: (lambda: UnramifiedQuasicharacter(GaussianRational(0, 1)),
                                 lambda: UnramifiedQuasicharacter(GaussianRational(1)),
                                 "UnramifiedQuasicharacter(z=GaussianRational(0, 1))"),
    TemperedDualGL1: (lambda: TemperedDualGL1.enumerate(LocalFieldData(3, 3), 1),
                        lambda: TemperedDualGL1.enumerate(LocalFieldData(3, 3), 0),
                        f"TemperedDualGL1(base={F3}, bound=1, circles=((0, 0), (1, 0)))"),
    Gl1BaseChange: (_gl1, lambda: Gl1BaseChange(2, ()),
                      "Gl1BaseChange(f=2, pairs=((0, 0, 0, 0), (1, 0, 1, 0)), extra_targets=())"),
    Arc: (lambda: Arc(Fraction(0), Fraction(1, 2)), lambda: Arc(Fraction(0), Fraction(1)),
            "Arc(lo=Fraction(0, 1), hi=Fraction(1, 2))"),
    AdmissiblePair: (_pair, lambda: _gl2().target_pair, PAIR),
    Gl2BaseChange: (_gl2, lambda: Gl2BaseChange(_pair(), _gl2().el_over_e),
                      f"Gl2BaseChange(target_pair={PAIR.replace('q=5', 'q=125')}, "
                      "el_over_e=ExtensionData(base=LocalFieldData(q=5, p=5, char_zero=True), "
                      "e=1, f=3, galois=True, cyclic=True))"),
    FinitenessCertificate: (lambda: finiteness_certificate(1, 2, 2), lambda: finiteness_certificate(1, 2, 3),
                              "FinitenessCertificate(r=1, f=2, window=2, coefficient_window=4, "
                              "generators=[(0,), (1,)], classes={(0,): {(0,): {(0,): 1}}, "
                              "(1,): {(1,): {(0,): 1}}})"),
}

# records holding a dict or list are unhashable even when immutable
UNHASHABLE = {FinitenessCertificate}
ids = {"ids": lambda cls: cls.__name__}


@pytest.mark.parametrize("cls", VALUES, **ids)
def test_equality_hash_and_repr(cls):
    build, other, text = VALUES[cls]
    a, b, c = build(), build(), other()
    assert type(a) is cls
    assert a is not b and a == b and not a != b
    assert a != c and not a == c
    assert a != text and a.__eq__(text) is NotImplemented
    assert repr(a) == text
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b, c}) == 2


@pytest.mark.parametrize("cls", VALUES, **ids)
def test_copies_are_equal(cls):
    a = VALUES[cls][0]()
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert twin == a and repr(twin) == repr(a)


@pytest.mark.parametrize("cls", VALUES, **ids)
def test_immutable_values_refuse_assignment(cls):
    a = VALUES[cls][0]()
    text = repr(a)
    field = "re" if cls is GaussianRational else text.split("(", 1)[1].split("=", 1)[0]
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(a, field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    with pytest.raises(AttributeError):
        a.unknown_field = 1
    assert repr(a) == text


def test_certificate_rebuilds_through_its_constructor():
    # an edited certificate is a new one, built from the fields of the old
    cert = finiteness_certificate(1, 2, 2)
    assert cert.fallback_targets == ()
    fields = {name: getattr(cert, name) for name in FinitenessCertificate._fields}
    assert FinitenessCertificate(**fields) == cert
    edited = FinitenessCertificate(**{**fields, "generators": cert.generators[:1]})
    assert edited != cert and cert.verify() and not edited.verify()


def test_circle_spaces_compare_by_components_only():
    a, b = CircleSpace(["a", "b"]), CircleSpace(iter(("a", "b")))
    assert a == b and hash(a) == hash(b) and a.positions == {"a": 0, "b": 1}
    with pytest.raises(ValueError):
        CircleSpace(("a", "a"))


def test_k_matrix_entries_are_its_dense_rows():
    k = VALUES[KMorphism][0]()
    assert k.entries == ((0, 2),)
    # the view is no field: equality, hash and repr are unchanged
    twin = VALUES[KMorphism][0]()
    assert k == twin and hash(k) == hash(twin) and repr(k) == repr(twin)


def test_circle_map_checks_run_through_post_init(monkeypatch):
    # a wrapper set on the class by name sees every construction
    calls = []
    check = ProperCircleMap.__post_init__
    monkeypatch.setattr(ProperCircleMap, "__post_init__", lambda self: calls.append(self) or check(self))
    m = _circle_map()
    compose_maps(m, ProperCircleMap(m.target, m.target, (("x", "x", 1),)))
    assert len(calls) == 3
    with pytest.raises(ValueError, match="unknown source component 'c1.0'"):
        ProperCircleMap(m.source, m.target, (("c1.0", "x", 1),))


def test_keyword_construction_and_defaults():
    assert ExtensionData(e=2, f=1, base=LocalFieldData(p=3, q=3)) == ExtensionData(LocalFieldData(3, 3), 2, 1)
    assert Gl1BaseChange(2, ()).extra_targets == ()
    # a derived value is no field: the constructor takes only what the record owns
    assert Gl1BaseChange._fields == ("f", "pairs", "extra_targets")
    assert Gl2BaseChange._fields == ("target_pair", "el_over_e")
    assert ExtendedQuotient._fields == ("n",)
    for bad in (lambda: LocalFieldData(3), lambda: LocalFieldData(3, 3, True, 1),
                lambda: LocalFieldData(3, 3, q=3), lambda: LocalFieldData(3, 3, size=9)):
        with pytest.raises(TypeError):
            bad()


def test_cli_import_loads_no_code_generation_modules():
    # dataclasses pulls in inspect, ast, dis and tokenize, a third of the CLI's start-up
    src = Path(__file__).resolve().parent.parent / "src"
    probe = ("import sys, basechange.cli; "
             "print(*sorted({'dataclasses', 'inspect', 'typing', 'pathlib'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.split() == []
