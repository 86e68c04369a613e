"""Constructive finiteness certificates for the coordinate-ring pullback.

The pullback of base change on one symmetric-power factor is the ring
map t_i -> t_i^f on S_r-invariant Laurent polynomials.  Finiteness of
the morphism means the invariant ring A is a finitely generated module
over the image subring B (invariant Laurent polynomials in the t_i^f).
A certificate makes that statement checkable at desk scale: it exhibits
module generators and, for every invariant orbit-sum monomial m_lam
with exponents bounded by a window, an exact expression

    m_lam  =  sum_j  b_j * g_j,      b_j in B,

with all coefficients exact rationals.

Generating set.  The generators are the f^r f-restricted weights
(lam_i - lam_(i+1) < f, 0 <= lam_r < f; lam_i = a_i + ... + a_r for a
in [0, f)^r), a B-basis of A (Steinberg, Nagoya Math. J. 22, 1963; see
linear_reduction): they are listed, not searched for, and each m_lam
has exactly one expression over them, solved from those of the
classes below it in one memo shared by the whole certificate.  (The
symmetrised [0, f) box alone does not generate: at r = f = 2 the
restricted class (2,1) is outside its B-span, by a parity count.)  A
window below r(f-1), their largest entry, is refused with WindowTooSmall
before anything is enumerated; a target whose expression leaves the
window raises it with a larger window.

Schema 1 also lists the free-basis candidates m_sort(a + f*c), with
0 <= a_i < f and c in the staircase 0 <= c_i <= r - i (the t-Laurent
ring is free over the f-th-power ring with basis t^a, and that is free
over B with the staircase basis), plus the inverse product (-f, ..., -f)
of B.  to_json derives both: ``pruned`` pairs each in-window candidate
that is not a generator with its own target's reduction.

Translation classes.  B holds the unit u = (t_1...t_r)^f, and u^k adds
f*k to every exponent.  That keeps the restricted part of a class and
the order of classes of one degree, so the expression of m_(lam + f*k*1)
with 1 = (1, ..., 1) is that of m_lam with every coefficient translated
by f*k.  A certificate solves and stores one expression per class, keyed
by the member whose last entry lies in [0, f); the window test and
verify check each class's extreme coefficient exponents at its extreme
shifts, and verify multiplies out each class's product once, the one
the solve cached, moved by u^k.

constructive_reduction runs the free-basis argument forwards instead
(t^lam = s^q * t^a with s_i = t_i^f, s^q expanded over the staircase by
exact divided differences, then averaged): the builder does not use it,
it is the reference the tests compare the solve with, and the only part
of this module that works in laurent's polynomial classes.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from itertools import chain, combinations_with_replacement, product
from math import comb

from .laurent import (
    ExponentVector,
    _orbit_sum_product,
    sort_class,
    stabilizer_order,
    staircase_basis,
    staircase_decompose,
)
from .value import Value

MAX_RANK = 3
MAX_POWER = 4
# a certificate is written per target; the widest windows in use,
# (r, f, window) = (2, 4, 40) with 3,321 targets and (3, 4, 10) with
# 1,771, stay under the cap
MAX_TARGETS = 5000


class WindowTooSmall(ValueError):
    """No in-window expression exists; retry with suggested_window."""

    def __init__(self, message: str, suggested_window: int):
        super().__init__(message)
        self.suggested_window = suggested_window


Expression = dict[ExponentVector, dict[ExponentVector, int]]  # generator -> {B-class: coefficient}


def candidate_generators(r: int, f: int) -> list[ExponentVector]:
    """Schema 1's free-basis candidate classes, sorted.

    sort(a + f*c) over remainders a in [0, f)^r and staircase c, plus
    the inverse product class (-f, ..., -f); to_json lists the in-window
    ones that are not generators as ``pruned``.
    """
    classes = {(-f,) * r}
    remainders = list(product(range(f), repeat=r))
    for c in staircase_basis(r):
        for a in remainders:
            classes.add(sort_class(tuple(f * ci + ai for ci, ai in zip(c, a))))
    return sorted(classes)


def sorted_tuples(r: int, lo: int, hi: int) -> Iterator[ExponentVector]:
    """Weakly decreasing r-tuples with entries in [lo, hi], lexicographically largest first."""
    return combinations_with_replacement(range(hi, lo - 1, -1), r)


def constructive_reduction(lam: ExponentVector, f: int) -> dict:
    """Express m_lam over the full candidate set, with coefficients in B.

    Exact and search-free; coefficients are InvariantLaurentPoly values
    whose exponents are all multiples of f (the B-membership witness).
    The certificate builder does not call this; it is the tests'
    staircase reference, kept here while the benchmark tracer
    wraps it by name, and free to move to the tests after that.
    """
    a = tuple(x % f for x in lam)
    q = tuple((x - ai) // f for x, ai in zip(lam, a))
    stab_lam = stabilizer_order(lam)
    terms = {}
    for c, b_coeff in staircase_decompose(q).items():
        if b_coeff.is_zero():
            continue
        w = tuple(f * ci + ai for ci, ai in zip(c, a))
        gamma = sort_class(w)
        ratio = Fraction(stabilizer_order(w), stab_lam)  # an int one keeps int coefficients
        scaled = b_coeff.pullback(f).scale(ratio.numerator if ratio.denominator == 1 else ratio)
        acc = terms.get(gamma)
        terms[gamma] = scaled if acc is None else acc + scaled
    return {g: b for g, b in terms.items() if not b.is_zero()}


def linear_reduction(target: ExponentVector, f: int, solved: dict | None = None) -> Expression:
    """Express m_target over the f-restricted weights, solving each translation class once.

    Split lam = lam0 + f*mu with lam0 restricted: lam0_r = lam_r mod f,
    and lam0_i - lam0_(i+1) = (lam_i - lam_(i+1)) mod f.  Then
    m_lam0 * m_(f*mu) is m_lam plus classes of the same degree that are
    lexicographically smaller (Macdonald, Symmetric Functions and Hall
    Polynomials, ch. I sections 2 and 6), so the expression of m_lam is
    {lam0: {f*mu: 1}} less mult times that of each smaller class.  A
    class's expression is its key's (see _class_of) moved by its shift,
    as u^k is a unit of B, so each key is solved once, lower keys first
    off an explicit stack, into ``solved`` ({key: expression}), which
    the builder shares across its calls.  The order is well founded: a
    degree holds finitely many weakly decreasing classes below lam.  The
    result is the unique expression over the restricted basis.
    """
    if solved is None:
        solved = {}
    r = len(target)
    key, shift = _class_of(target, f)
    stack = [key]
    while stack:
        top = stack[-1]
        if top in solved:
            stack.pop()
            continue
        rest = [top[-1]]  # a key's last entry is its own residue mod f
        for i in range(r - 2, -1, -1):
            rest.append(rest[-1] + (top[i] - top[i + 1]) % f)
        lam0 = tuple(reversed(rest))
        f_mu = tuple(x - y for x, y in zip(top, lam0))
        lower = [(*_class_of(cls, f), mult) for cls, mult in _orbit_sum_product(f_mu, lam0) if cls != top]
        missing = [k for k, _, _ in lower if k not in solved]
        if missing:
            stack += missing
            continue
        stack.pop()
        expr: Expression = {lam0: {f_mu: 1}}
        for k, s, mult in lower:
            for gamma, coeff in solved[k].items():
                acc = expr.setdefault(gamma, {})
                for mu, c in coeff.items():
                    mu = tuple([x + s for x in mu])  # a list builds a tuple faster than a generator
                    acc[mu] = acc.get(mu, 0) - mult * c
        solved[top] = {gamma: kept for gamma, coeff in expr.items()
                       if (kept := {mu: c for mu, c in coeff.items() if c})}
    return _moved(solved[key], shift) if shift else solved[key]


def _moved(expr: Expression, shift: int) -> Expression:
    """expr times u^k: every B-class moved by shift = f*k."""
    return {g: {tuple([x + shift for x in mu]): c for mu, c in coeff.items()} for g, coeff in expr.items()}


def _class_of(lam: ExponentVector, f: int) -> tuple[ExponentVector, int]:
    """lam's class key, lam less its shift f * (lam_r // f), and that shift."""
    shift = f * (lam[-1] // f)
    return (tuple([x - shift for x in lam]) if shift else lam), shift


def translation_classes(r: int, f: int, window: int) -> Iterator[tuple[ExponentVector, int, int]]:
    """(key, lowest shift, highest shift) per class of the window: the lowest member's last
    entry lies in [-w, -w + f), and the members climb by f*(1, ..., 1) while the first stays <= w."""
    for last in range(-window, min(f - window, window + 1)):
        for head in sorted_tuples(r - 1, last, window):
            lowest = (*head, last)
            key, low = _class_of(lowest, f)
            yield key, low, low + f * ((window - lowest[0]) // f)


def _reach(expr: Expression, low: int, high: int) -> int:
    """The largest |exponent| in expr's coefficients moved by any shift in [low, high]; 0 if none."""
    xs = [x for coeff in expr.values() for mu in coeff for x in mu]
    return max(abs(min(xs) + low), abs(max(xs) + high)) if xs else 0


class FinitenessCertificate(Value):
    """Generators plus one expression per translation class of the window.

    classes[key] is linear_reduction(key, f), the one expression of m_key
    over ``generators``, the f-restricted weights, with coefficients in
    the pullback subring; expression(lam) moves it by lam's shift, and
    ``reductions`` derives every target's.  ``coefficient_window`` bounds
    every exponent in any target's coefficients (checked at each class's
    extreme shifts); ``fallback_targets`` is always empty, for the
    benchmark.  It iterates as schema 1's sorted ``reductions`` list, and
    its length is the target count.
    """

    __slots__ = ("r", "f", "window", "coefficient_window", "generators", "classes", "reach")
    # reach is the builder's max_coefficient_exponent, no field: a constructed copy has none
    _fields = __slots__[:6]
    fallback_targets = ()

    def members(self) -> Iterator[tuple[ExponentVector, ExponentVector, int]]:
        """(target, key, shift) for every target of the window, the largest first."""
        return ((lam, *_class_of(lam, self.f)) for lam in sorted_tuples(self.r, -self.window, self.window))

    def expression(self, target: ExponentVector) -> Expression:
        key, shift = _class_of(target, self.f)
        return _moved(self.classes[key], shift)

    @property
    def reductions(self) -> dict[ExponentVector, Expression]:
        return {lam: self.expression(lam) for lam, _, _ in self.members()}

    def __len__(self) -> int:
        return comb(2 * self.window + self.r, self.r)

    def verify(self) -> bool:
        """Check that the certificate is complete and re-expand every class's expression exactly.

        The window must be an int of at least max(1, r(f-1)), the
        builder's bound.  ``generators`` must be the f^r f-restricted
        weights, as distinct tuples, and ``classes`` keyed by exactly the
        keys of translation_classes.  Generator, key and B-class entries
        must be ints, coefficients ints or Fractions (2.0 == 2 passes the
        rest).  Every B-class must have r entries, each a multiple of f, and
        each class's extremes at its extreme shifts (so every target's) at
        most ``coefficient_window`` in absolute value.  Each class's
        sum_j b_j * m_gamma_j, over ``generators``, is expanded with the
        orbit-sum structure constants in exact arithmetic and must come to
        m_key; multiplying by u^k is exact, so each target's comes to its
        own m_lam.
        """
        r, f = self.r, self.f
        if type(self.window) is not int or self.window < max(1, r * (f - 1)):
            return False
        generators = {g for g in self.generators if type(g) is tuple and {*map(type, g)} <= {int}}
        restricted = [g for g in generators if len(g) == r and 0 <= g[-1] < f
                      and all(0 <= a - b < f for a, b in zip(g, g[1:]))]
        if not len(restricted) == len(self.generators) == f**r:
            return False
        if self.classes.keys() != {key for key, _, _ in translation_classes(r, f, self.window)}:
            return False
        coeffs = [coeff for expr in self.classes.values() for coeff in expr.values()]
        entries = chain(*self.classes, *chain(*self.classes.values()), *chain(*coeffs))
        values = chain(*map(dict.values, coeffs))
        if {*map(type, entries)} - {int} or {*map(type, values)} - {int, Fraction}:
            return False
        if self.max_coefficient_exponent() > self.coefficient_window:
            return False
        lowered: dict[ExponentVector, ExponentVector] = {}  # mu -> mu - mu_r*1
        for key, expr in self.classes.items():
            # m_mu = u^k * m_(mu - k*1) with f | k = mu_r, so each product is one the solve
            # cached; they are summed per k, and each sum's classes are moved by k once
            by_shift: dict[int, dict[ExponentVector, Fraction | int]] = {}
            for gamma, coeff in expr.items():
                if gamma not in generators:
                    return False
                for mu, c in coeff.items():
                    mu0 = lowered.get(mu)
                    if mu0 is None:  # each B-class is checked once
                        if len(mu) != r or any(x % f for x in mu):
                            return False
                        mu0 = lowered[mu] = tuple([x - mu[-1] for x in mu])
                    acc = by_shift.setdefault(mu[-1], {})
                    for cls, mult in _orbit_sum_product(mu0, gamma):
                        acc[cls] = acc.get(cls, 0) + c * mult
            total = by_shift.pop(0, {})
            for k, acc in by_shift.items():
                for cls, n in acc.items():
                    if n:
                        cls = tuple([x + k for x in cls])
                        total[cls] = total.get(cls, 0) + n
            if {cls: n for cls, n in total.items() if n} != {key: 1}:
                return False
        return True

    def max_coefficient_exponent(self) -> int:
        """The largest |exponent| in any target's coefficients: each class's extremes at its extreme shifts."""
        return max((_reach(self.classes.get(key, {}), low, high)
                    for key, low, high in translation_classes(self.r, self.f, self.window)), default=0)

    def entry(self, target: ExponentVector) -> dict:
        key, shift = _class_of(target, self.f)
        return {"target": list(target), "terms": _terms_json(self.classes[key], shift)}

    def __iter__(self) -> Iterator[dict]:
        return map(self.entry, reversed([*sorted_tuples(self.r, -self.window, self.window)]))

    def to_json(self) -> dict:
        """Schema 1, with ``reductions`` the certificate itself."""
        generators = set(self.generators)
        pruned = [
            g for g in candidate_generators(self.r, self.f)
            if max(map(abs, g)) <= self.window and g not in generators
        ]
        return {
            "r": self.r,
            "f": self.f,
            "window": self.window,
            "coefficient_window": self.coefficient_window,
            "generators": [list(g) for g in self.generators],
            "inverse_product": [-self.f] * self.r,
            "pruned": [{"class": list(g), "terms": _terms_json(self.expression(g))} for g in pruned],
            "reductions": self,
        }


def _terms_json(expr: Expression, shift: int = 0) -> list[dict]:
    """Schema 1's terms of expr moved by shift (which keeps the order): sorted generators, sorted coefficients."""
    return [{"generator": list(gamma), "coefficient": [
        {"exponents": [x + shift for x in mu], "value": f"{c.numerator}/{c.denominator}"}
        for mu, c in sorted(expr[gamma].items())
    ]} for gamma in sorted(expr)]


def finiteness_certificate(r: int, f: int, window: int | None = None) -> FinitenessCertificate:
    """Build and return the complete certificate for (r, f) at the window, 2f+2 by default.

    Raises TypeError unless r, f and a given window are exact ints (a
    bool or a float is refused), WindowTooSmall when the window is below
    r(f-1) or some in-window monomial admits no expression inside the
    window bounds, and ValueError, before anything is enumerated, when
    the window holds more than MAX_TARGETS target classes.
    """
    if type(r) is not int or type(f) is not int or type(window) not in (int, type(None)):
        raise TypeError(f"r, f and window must be ints, got {r!r}, {f!r} and {window!r}")
    if not 1 <= r <= MAX_RANK:
        raise ValueError(f"r must be in [1, {MAX_RANK}]")
    if not 1 <= f <= MAX_POWER:
        raise ValueError(f"f must be in [1, {MAX_POWER}]")
    if window is None:
        window = 2 * f + 2
    if window < 1:
        raise ValueError("window must be >= 1")
    smallest = r * (f - 1)  # the largest entry of an f-restricted generator
    if window < smallest:
        raise WindowTooSmall(
            f"window {window} is below r(f-1) = {smallest} at r={r}, f={f}; retry with window {smallest}",
            suggested_window=smallest,
        )
    targets = comb(2 * window + r, r)  # weakly decreasing r-tuples in [-window, window]
    if targets > MAX_TARGETS:
        raise ValueError(
            f"window {window} at r={r} has {targets} target classes, more than {MAX_TARGETS}"
        )

    # lam_i = a_i + ... + a_r, in schema 1's candidate order (degree, then lam)
    restricted = (tuple(sum(a[i:]) for i in range(r)) for a in product(range(f), repeat=r))
    generators = sorted(restricted, key=lambda g: (sum(g), g))
    solved: dict = {}
    classes = {key: linear_reduction(key, f, solved) for key, _, _ in translation_classes(r, f, window)}
    cert = FinitenessCertificate(r, f, window, window + f * r, generators, classes)
    object.__setattr__(cert, "reach", cert.max_coefficient_exponent())
    if cert.reach > cert.coefficient_window:
        # name the largest target past the window, as a walk over the targets meets it first
        lam = next(lam for lam, key, shift in cert.members()
                   if _reach(classes[key], shift, shift) > cert.coefficient_window)
        raise WindowTooSmall(
            f"no expression for class {lam} with generators and coefficients "
            f"inside window {window}; retry with window {window + f}",
            suggested_window=window + f,
        )
    return cert
