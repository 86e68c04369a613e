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

Generating set.  Symmetrised monomials with exponents in [0, f) alone
do not generate (already for r = f = 2 the class (2,1) is outside their
B-span, by a parity count), so candidates are drawn from the free-basis
product: t^(a + f*c) with 0 <= a_i < f and c in the staircase
0 <= c_i <= r - i.  Plainly, the t-Laurent ring is free over the
f-th-power Laurent ring with basis t^a, and that ring is free over B
with the staircase basis; averaging over S_r (a B-linear projection
onto A) turns the combined basis into the module generators
m_sort(a + f*c).  The inverse (t_1...t_r)^{-f} of the f-th power of the
full product, which lies in B and shifts exponents into range, is
carried along as a candidate and always reduces away.

The per-monomial expressions come from the same free-basis argument run
forwards (no search): decompose t^lam = s^q * t^a with s_i = t_i^f,
expand s^q over the staircase via exact divided differences, and
average.  Candidates that are redundant over the earlier ones are
pruned, and the stored expressions are rewritten over the pruned set.
Pruning and the linear fallback, for a target whose expression leaves
the window, share one triangular reduction over the f-restricted
weights (lam_i - lam_(i+1) < f, 0 <= lam_r < f), a B-basis of A
(Steinberg, Nagoya Math. J. 22, 1963; see linear_reduction).  A window
below r(f-1), the largest entry of a restricted weight, is refused with
WindowTooSmall before anything is enumerated; a later window violation
raises it with a suggested larger window.

Translation classes.  B contains the unit u = (t_1...t_r)^f, and
multiplying by u^k adds f*k to every exponent.  Write 1 = (1, ..., 1).
The staircase basis is free, so staircase_decompose(q + k*1) is
staircase_decompose(q) with every coefficient times (s_1...s_r)^k.
Pullback, the stabiliser ratio and the pruned substitution all commute
with that product, so the reduction of m_(lam + f*k*1) is the reduction
of m_lam with every coefficient translated by f*k.  The certificate
therefore reduces one representative per class, the one whose last
entry lies in [0, f), and translates it to the other members.  The
window test, the linear fallback and verify still see each target's own
expression.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, product
from math import comb, lcm
from typing import Iterator, Optional

from .laurent import (
    ExponentVector,
    InvariantLaurentPoly,
    _orbit_sum_product,
    sort_class,
    stabilizer_order,
    staircase_basis,
    staircase_decompose,
)

MAX_RANK = 3
MAX_POWER = 4
# a certificate holds one reduction per target class in memory; the
# widest windows in use, (r, f, window) = (2, 4, 40) with 3,321 targets
# and (3, 4, 10) with 1,771, stay under the cap
MAX_TARGETS = 5000


class WindowTooSmall(ValueError):
    """No in-window expression exists; retry with suggested_window."""

    def __init__(self, message: str, suggested_window: int):
        super().__init__(message)
        self.suggested_window = suggested_window


Expression = dict[ExponentVector, InvariantLaurentPoly]  # generator class -> B-coefficient


def candidate_generators(r: int, f: int) -> list[ExponentVector]:
    """Candidate module generators, smallest first.

    sort(a + f*c) over remainders a in [0, f)^r and staircase c, plus
    the inverse product class (-f, ..., -f).  Ordered by total absolute
    exponent so pruning sees cheap candidates before expensive ones.
    """
    classes = {(-f,) * r}
    remainders = list(product(range(f), repeat=r))
    for c in staircase_basis(r):
        for a in remainders:
            classes.add(sort_class(tuple(f * ci + ai for ci, ai in zip(c, a))))
    return sorted(classes, key=lambda g: (sum(abs(x) for x in g), g))


def sorted_tuples(r: int, lo: int, hi: int) -> Iterator[ExponentVector]:
    """Weakly decreasing r-tuples with entries in [lo, hi]."""

    def rec(length: int, cap: int) -> Iterator[tuple[int, ...]]:
        if length == 0:
            yield ()
            return
        for v in range(cap, lo - 1, -1):
            yield from ((v,) + t for t in rec(length - 1, v))

    yield from rec(r, hi)


def constructive_reduction(lam: ExponentVector, f: int) -> Expression:
    """Express m_lam over the full candidate set, with coefficients in B.

    Exact and search-free; coefficients are invariant Laurent
    polynomials whose exponents are all multiples of f (the B-membership
    witness).
    """
    r = len(lam)
    a = tuple(x % f for x in lam)
    q = tuple((x - ai) // f for x, ai in zip(lam, a))
    stab_lam = stabilizer_order(lam)
    terms: Expression = {}
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


def linear_reduction(
    target: ExponentVector,
    generators: list[ExponentVector],
    f: int,
    coeff_bound: int,
) -> Optional[Expression]:
    """Express m_target over f-restricted generators by a triangular walk, or None.

    Split lam = lam0 + f*mu with lam0 restricted: lam0_r = lam_r mod f,
    and lam0_i - lam0_(i+1) = (lam_i - lam_(i+1)) mod f.  Then
    m_lam0 * m_(f*mu) is m_lam plus classes of the same degree that are
    lexicographically smaller (Macdonald, Symmetric Functions and Hall
    Polynomials, ch. I sections 2 and 6).  So the walk pops the largest
    class of the remainder, records its coefficient on (lam0, f*mu) and
    subtracts the rest of that product.  All it subtracts later lies
    below, so each recorded coefficient is final: the result is the
    unique expression over the restricted basis, and None means that
    expression uses a class outside ``generators`` or a B-exponent beyond
    coeff_bound.
    """
    r = len(target)
    available = set(generators)
    remainder: dict[ExponentVector, int] = {target: 1}
    expr: dict[ExponentVector, dict[ExponentVector, int]] = {}
    while remainder:
        lam = max(remainder)
        c = remainder.pop(lam)
        rest = [lam[-1] % f]
        for i in range(r - 2, -1, -1):
            rest.append(rest[-1] + (lam[i] - lam[i + 1]) % f)
        lam0 = tuple(reversed(rest))
        f_mu = tuple(x - y for x, y in zip(lam, lam0))
        if lam0 not in available or max(map(abs, f_mu)) > coeff_bound:
            return None
        expr.setdefault(lam0, {})[f_mu] = c
        for cls, mult in _orbit_sum_product(f_mu, lam0):
            if cls != lam:
                n = remainder.get(cls, 0) - c * mult
                if n:
                    remainder[cls] = n
                else:
                    del remainder[cls]
    return {g: InvariantLaurentPoly(r, terms) for g, terms in expr.items()}


@dataclass
class FinitenessCertificate:
    """Generators plus a complete in-window reduction table.

    reductions[lam] expresses the orbit sum m_lam over ``generators``
    with coefficients in the pullback subring; ``pruned`` records the
    removed candidates with their own expressions, and
    ``coefficient_window`` bounds every exponent appearing in any
    coefficient.
    """

    r: int
    f: int
    window: int
    coefficient_window: int
    generators: list[ExponentVector]
    inverse_product: ExponentVector
    pruned: dict[ExponentVector, Expression]
    reductions: dict[ExponentVector, Expression]
    fallback_targets: list[ExponentVector] = field(default_factory=list)

    def verify(self) -> bool:
        """Re-expand every stored expression and check it exactly.

        Also checks the B-membership witness: every coefficient exponent
        is a multiple of f.  Each expression sum_j b_j * m_gamma_j is put
        over one common denominator D and expanded in integers with the
        orbit-sum structure constants; it must come to D * m_lam.
        """
        f = self.f
        for lam, expr in chain(self.pruned.items(), self.reductions.items()):
            den = lcm(*(c.denominator for b in expr.values() for c in b.terms.values()))
            acc: dict[ExponentVector, int] = {}
            for gamma, coeff in expr.items():
                for mu, c in coeff.terms.items():
                    if any(x % f for x in mu):
                        return False
                    num = c.numerator * (den // c.denominator)
                    for cls, mult in _orbit_sum_product(mu, gamma):
                        acc[cls] = acc.get(cls, 0) + num * mult
            if {cls: n for cls, n in acc.items() if n} != {lam: den}:
                return False
        return True

    def max_coefficient_exponent(self) -> int:
        return max(
            (c.max_abs_exponent() for e in self.reductions.values() for c in e.values()),
            default=0,
        )

    def to_json(self) -> dict:
        # A certificate repeats few distinct coefficient terms (290 in the
        # 3,427 of r=3, f=2, window 7), so equal terms share one JSON object.
        shared: dict[tuple[ExponentVector, Fraction], dict] = {}

        def term_json(cls: ExponentVector, c: Fraction) -> dict:
            term = shared.get((cls, c))
            if term is None:
                term = shared[cls, c] = {"exponents": list(cls), "value": f"{c.numerator}/{c.denominator}"}
            return term

        def expr_json(expr: Expression) -> list[dict]:
            return [
                {
                    "generator": list(gamma),
                    "coefficient": [
                        term_json(cls, c) for cls, c in sorted(expr[gamma].terms.items())
                    ],
                }
                for gamma in sorted(expr)
            ]

        return {
            "r": self.r,
            "f": self.f,
            "window": self.window,
            "coefficient_window": self.coefficient_window,
            "generators": [list(g) for g in self.generators],
            "inverse_product": list(self.inverse_product),
            "pruned": [
                {"class": list(g), "terms": expr_json(e)} for g, e in sorted(self.pruned.items())
            ],
            "reductions": [
                {"target": list(t), "terms": expr_json(e)}
                for t, e in sorted(self.reductions.items())
            ],
        }


def _substitute_pruned(expr: Expression, pruned: dict[ExponentVector, Expression]) -> Expression:
    out: Expression = {}

    def add(gamma: ExponentVector, coeff: InvariantLaurentPoly):
        acc = out.get(gamma)
        out[gamma] = coeff if acc is None else acc + coeff

    for gamma, coeff in expr.items():
        replacement = pruned.get(gamma)
        if replacement is None:
            add(gamma, coeff)
        else:
            for inner_gamma, inner_coeff in replacement.items():
                add(inner_gamma, coeff * inner_coeff)
    return {g: b for g, b in out.items() if not b.is_zero()}


def finiteness_certificate(r: int, f: int, window: int) -> FinitenessCertificate:
    """Build and return the complete certificate for (r, f) at the window.

    Raises WindowTooSmall when the window is below r(f-1) or some
    in-window monomial admits no expression inside the window bounds,
    and ValueError, before anything is enumerated, when the window
    holds more than MAX_TARGETS target classes.
    """
    if not 1 <= r <= MAX_RANK:
        raise ValueError(f"r must be in [1, {MAX_RANK}]")
    if not 1 <= f <= MAX_POWER:
        raise ValueError(f"f must be in [1, {MAX_POWER}]")
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

    coeff_window = window + f * r
    kept: list[ExponentVector] = []
    pruned: dict[ExponentVector, Expression] = {}
    for gamma in candidate_generators(r, f):
        if max(abs(x) for x in gamma) > window:
            continue  # outside the window; never available
        bound = max(abs(x) for x in gamma) + f * r
        expr = linear_reduction(gamma, kept, f, min(bound, coeff_window))
        if expr is None:
            kept.append(gamma)
        else:
            pruned[gamma] = expr

    reductions: dict[ExponentVector, Expression] = {}
    fallbacks: list[ExponentVector] = []
    kept_set = set(kept)
    representatives: dict[ExponentVector, Expression] = {}
    for lam in sorted_tuples(r, -window, window):
        shift = f * (lam[-1] // f)
        base = tuple(x - shift for x in lam)
        expr = representatives.get(base)
        if expr is None:
            expr = representatives[base] = _substitute_pruned(
                constructive_reduction(base, f), pruned
            )
        if shift:
            expr = {g: c.translate(shift) for g, c in expr.items()}
        in_window = all(g in kept_set for g in expr) and all(
            c.max_abs_exponent() <= coeff_window for c in expr.values()
        )
        if not in_window:
            expr = linear_reduction(lam, kept, f, coeff_window)
            fallbacks.append(lam)
            if expr is None:
                raise WindowTooSmall(
                    f"no expression for class {lam} with generators and coefficients "
                    f"inside window {window}; retry with window {window + f}",
                    suggested_window=window + f,
                )
        reductions[lam] = expr

    return FinitenessCertificate(
        r=r,
        f=f,
        window=window,
        coefficient_window=coeff_window,
        generators=kept,
        inverse_product=(-f,) * r,
        pruned=pruned,
        reductions=reductions,
        fallback_targets=fallbacks,
    )
