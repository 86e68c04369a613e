"""Exact multivariate Laurent polynomials and their symmetric invariants.

Two layers live here.

``LaurentPoly`` is a plain dict-backed Laurent polynomial over Q in a
fixed number of variables, with the one nonstandard primitive the rest
of the library leans on: exact division by a difference of variables
(x_i - x_j), which is what makes divided-difference computations
possible without ever leaving exact arithmetic.

``InvariantLaurentPoly`` is the S_r-invariant subring, represented in
the orbit-sum basis: a term with weakly decreasing exponent vector
``lam`` stands for m_lam, the sum of the distinct monomials t^w over the
permutations w of lam.  Addition is termwise; multiplication stays in
the orbit-sum basis, using the product rule

    m_a * m_b = (1/|Stab a|) * sum_{v in orbit(b)} |Stab(a+v)| * m_sort(a+v)

(Macdonald, Symmetric Functions and Hall Polynomials, ch. I sections 2
and 6), so a term pair costs |orbit(b)| vector additions instead of
|orbit(a)| * |orbit(b)| monomial products.  The Reynolds symmetrisation
(group average) is provided and is idempotent.

``staircase_decompose`` writes an arbitrary Laurent monomial s^q (r <= 3
variables) over the invariant subring with respect to the free-module
basis {s^c : 0 <= c_i <= r - i}.  Freeness of that basis is the
classical statement for polynomial rings, and it survives inverting the
product s_1*...*s_r, which is how Laurent exponents are handled.  The
coefficients are computed by Newton-style divided differences, so they
come out exactly and uniquely.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import factorial, lcm
from typing import Iterable, Mapping

ExponentVector = tuple[int, ...]


def sort_class(vec: Iterable[int]) -> ExponentVector:
    """Canonical (weakly decreasing) representative of an exponent orbit."""
    return tuple(sorted(vec, reverse=True))


def stabilizer_order(vec: Iterable[int]) -> int:
    """Number of permutations fixing vec: the product of multiplicity factorials."""
    counts: dict[int, int] = {}
    for v in vec:
        counts[v] = counts.get(v, 0) + 1
    out = 1
    for c in counts.values():
        out *= factorial(c)
    return out


def orbit(vec: Iterable[int]) -> list[ExponentVector]:
    """Distinct permutations of vec, in a deterministic order."""
    return sorted(set(permutations(tuple(vec))))


@lru_cache(maxsize=None)
def _orbit_sum_product(a: ExponentVector, b: ExponentVector) -> tuple[tuple[ExponentVector, int], ...]:
    """Integer structure constants of m_a * m_b: pairs (class, multiplicity).

    The multiplicity of m_lam counts the pairs (u, v) in orbit(a) x
    orbit(b) with u + v = lam; it is read off one orbit only, by the
    product rule in the module docstring.  The shorter orbit, the one
    with the larger stabiliser, is walked.  Cached because a certificate
    multiplies the same few class pairs over and over (about 8 times
    each at r=3, f=2).
    """
    stab_a, stab_b = stabilizer_order(a), stabilizer_order(b)
    if stab_a > stab_b:
        a, b, stab_a = b, a, stab_b
    counts: dict[ExponentVector, int] = {}
    for v in set(permutations(b)):
        w = tuple(x + y for x, y in zip(a, v))
        lam = sort_class(w)
        counts[lam] = counts.get(lam, 0) + stabilizer_order(w)
    return tuple((lam, n // stab_a) for lam, n in counts.items())


class LaurentPoly:
    """Laurent polynomial over Q: {exponent tuple: nonzero Fraction}.

    Instances are immutable by convention; all operations return fresh
    objects.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[ExponentVector, Fraction] | None = None):
        self.nvars = nvars
        clean: dict[ExponentVector, Fraction] = {}
        if terms:
            for exp, coeff in terms.items():
                coeff = Fraction(coeff)
                if coeff == 0:
                    continue
                exp = tuple(int(x) for x in exp)
                if len(exp) != nvars:
                    raise ValueError(f"exponent {exp} has wrong arity for {nvars} variables")
                clean[exp] = coeff
        self.terms = clean

    @staticmethod
    def _trusted(nvars: int, terms: dict[ExponentVector, Fraction]) -> "LaurentPoly":
        """Wrap terms that are already clean: nvars-tuples of ints mapped to
        nonzero Fractions.  Skips the checks and coercions of __init__."""
        poly = object.__new__(LaurentPoly)
        poly.nvars = nvars
        poly.terms = terms
        return poly

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "LaurentPoly":
        return LaurentPoly(nvars)

    @staticmethod
    def one(nvars: int) -> "LaurentPoly":
        return LaurentPoly(nvars, {(0,) * nvars: Fraction(1)})

    @staticmethod
    def monomial(exp: Iterable[int], coeff: Fraction | int = 1) -> "LaurentPoly":
        exp = tuple(int(x) for x in exp)
        return LaurentPoly(len(exp), {exp: Fraction(coeff)})

    # -- ring operations ---------------------------------------------------

    def _check_arity(self, other: "LaurentPoly"):
        if self.nvars != other.nvars:
            raise ValueError("variable counts differ")

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check_arity(other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            s = out.get(exp, Fraction(0)) + c
            if s:
                out[exp] = s
            else:
                out.pop(exp, None)
        return LaurentPoly._trusted(self.nvars, out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._trusted(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check_arity(other)
        out: dict[ExponentVector, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, Fraction(0)) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return LaurentPoly._trusted(self.nvars, out)

    def scale(self, c: Fraction | int) -> "LaurentPoly":
        c = Fraction(c)
        if not c:
            return LaurentPoly.zero(self.nvars)
        return LaurentPoly._trusted(self.nvars, {e: c * v for e, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    # -- symmetry helpers --------------------------------------------------

    def permuted(self, perm: tuple[int, ...]) -> "LaurentPoly":
        """Apply the variable substitution x_i -> x_{perm[i]}."""
        out: dict[ExponentVector, Fraction] = {}
        for exp, c in self.terms.items():
            new = [0] * self.nvars
            for i, v in enumerate(exp):
                new[perm[i]] = v
            out[tuple(new)] = out.get(tuple(new), Fraction(0)) + c
        return LaurentPoly(self.nvars, out)

    def swap(self, i: int, j: int) -> "LaurentPoly":
        perm = list(range(self.nvars))
        perm[i], perm[j] = perm[j], perm[i]
        return self.permuted(tuple(perm))

    def is_symmetric(self) -> bool:
        # adjacent transpositions generate S_r
        return all(self.swap(i, i + 1) == self for i in range(self.nvars - 1))

    def divexact_diff(self, i: int, j: int) -> "LaurentPoly":
        """Exact quotient by (x_i - x_j); raises if the division is inexact.

        Works coefficientwise in x_i after shifting away negative x_i
        exponents; the shift is legitimate because x_i is a unit in the
        Laurent ring.
        """
        if self.is_zero():
            return LaurentPoly.zero(self.nvars)
        lo = min(e[i] for e in self.terms)
        hi = max(e[i] for e in self.terms)
        # coefficient of x_i^k, as a Laurent poly with a dummy 0 in slot i
        coeffs: dict[int, dict[ExponentVector, Fraction]] = {}
        for exp, c in self.terms.items():
            rest = exp[:i] + (0,) + exp[i + 1:]
            coeffs.setdefault(exp[i], {})[rest] = c
        c_of = {
            k: LaurentPoly._trusted(self.nvars, d) for k, d in coeffs.items()
        }
        zero = LaurentPoly.zero(self.nvars)
        xj_inv = LaurentPoly.monomial(
            tuple(-1 if t == j else 0 for t in range(self.nvars))
        )
        # P = (x_i - x_j) Q with Q = sum_{k=lo}^{hi-1} d_k x_i^k:
        #   d_lo = -c_lo / x_j,  d_k = (d_{k-1} - c_k)/x_j,  and d_{hi-1} = c_hi.
        quots: dict[int, LaurentPoly] = {}
        prev = zero
        for k in range(lo, hi):
            d = (prev - c_of.get(k, zero)) * xj_inv
            if not d.is_zero():
                quots[k] = d
            prev = d
        if prev != c_of.get(hi, zero):
            raise ArithmeticError("polynomial is not divisible by (x_i - x_j)")
        out: dict[ExponentVector, Fraction] = {}
        for k, poly in quots.items():
            for exp, c in poly.terms.items():
                e = exp[:i] + (k,) + exp[i + 1:]
                out[e] = c  # the slot-i exponent k keeps the pieces apart
        return LaurentPoly._trusted(self.nvars, out)

    def __repr__(self):
        items = ", ".join(f"{e}: {c}" for e, c in sorted(self.terms.items()))
        return f"LaurentPoly({self.nvars}, {{{items}}})"


class InvariantLaurentPoly:
    """S_r-invariant Laurent polynomial in the orbit-sum basis.

    ``terms`` maps weakly decreasing exponent vectors lam to the exact
    rational coefficient of the orbit sum m_lam.
    """

    __slots__ = ("r", "terms")

    def __init__(self, r: int, terms: Mapping[ExponentVector, Fraction] | None = None):
        self.r = r
        clean: dict[ExponentVector, Fraction] = {}
        if terms:
            for exp, coeff in terms.items():
                coeff = Fraction(coeff)
                if coeff == 0:
                    continue
                exp = tuple(int(x) for x in exp)
                if len(exp) != r:
                    raise ValueError(f"class {exp} has wrong arity for r={r}")
                if any(a < b for a, b in zip(exp, exp[1:])):
                    raise ValueError(f"class {exp} is not weakly decreasing")
                clean[exp] = coeff
        self.terms = clean

    @staticmethod
    def _trusted(r: int, terms: dict[ExponentVector, Fraction]) -> "InvariantLaurentPoly":
        """Wrap terms that are already clean: weakly decreasing r-tuples of ints
        mapped to nonzero Fractions.  Skips the checks and coercions of __init__."""
        poly = object.__new__(InvariantLaurentPoly)
        poly.r = r
        poly.terms = terms
        return poly

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(r: int) -> "InvariantLaurentPoly":
        return InvariantLaurentPoly(r)

    @staticmethod
    def one(r: int) -> "InvariantLaurentPoly":
        return InvariantLaurentPoly(r, {(0,) * r: Fraction(1)})

    @staticmethod
    def orbit_sum(lam: Iterable[int], coeff: Fraction | int = 1) -> "InvariantLaurentPoly":
        lam = sort_class(int(x) for x in lam)
        coeff = Fraction(coeff)
        return InvariantLaurentPoly._trusted(len(lam), {lam: coeff} if coeff else {})

    @staticmethod
    def from_laurent(poly: LaurentPoly) -> "InvariantLaurentPoly":
        """Collect a symmetric plain polynomial into classes; rejects asymmetric input."""
        out: dict[ExponentVector, Fraction] = {}
        for exp, c in poly.terms.items():
            lam = sort_class(exp)
            if exp == lam:
                out[lam] = c
        collected = InvariantLaurentPoly(poly.nvars, out)
        if collected.expand() != poly:
            raise ValueError("polynomial is not symmetric")
        return collected

    @staticmethod
    def symmetrize(poly: LaurentPoly) -> "InvariantLaurentPoly":
        """Reynolds average over S_r; idempotent on invariant input."""
        r = poly.nvars
        acc = LaurentPoly.zero(r)
        for perm in permutations(range(r)):
            acc = acc + poly.permuted(perm)
        return InvariantLaurentPoly.from_laurent(acc.scale(Fraction(1, factorial(r))))

    # -- ring operations ---------------------------------------------------

    def expand(self) -> LaurentPoly:
        out: dict[ExponentVector, Fraction] = {}
        for lam, c in self.terms.items():
            for w in orbit(lam):
                out[w] = c
        return LaurentPoly(self.r, out)

    def _check(self, other: "InvariantLaurentPoly"):
        if self.r != other.r:
            raise ValueError("variable counts differ")

    def __add__(self, other: "InvariantLaurentPoly") -> "InvariantLaurentPoly":
        self._check(other)
        out = dict(self.terms)
        for lam, c in other.terms.items():
            s = out.get(lam, Fraction(0)) + c
            if s:
                out[lam] = s
            else:
                out.pop(lam, None)
        return InvariantLaurentPoly._trusted(self.r, out)

    def __neg__(self) -> "InvariantLaurentPoly":
        return InvariantLaurentPoly._trusted(self.r, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "InvariantLaurentPoly") -> "InvariantLaurentPoly":
        return self + (-other)

    def __mul__(self, other: "InvariantLaurentPoly") -> "InvariantLaurentPoly":
        """Product in the orbit-sum basis, never expanding to monomials.

        Each term pair contributes its integer structure constants
        (``_orbit_sum_product``).  Both operands' coefficients are put
        over one common denominator each, so the sums run in integers
        and one Fraction is built per class of the product.
        """
        self._check(other)
        den_a = lcm(*(c.denominator for c in self.terms.values()))
        den_b = lcm(*(c.denominator for c in other.terms.values()))
        right = [(b, c.numerator * (den_b // c.denominator)) for b, c in other.terms.items()]
        acc: dict[ExponentVector, int] = {}
        for a, c in self.terms.items():
            num_a = c.numerator * (den_a // c.denominator)
            for b, num_b in right:
                num = num_a * num_b
                for lam, mult in _orbit_sum_product(a, b):
                    acc[lam] = acc.get(lam, 0) + num * mult
        den = den_a * den_b
        return InvariantLaurentPoly._trusted(
            self.r, {lam: Fraction(num, den) for lam, num in acc.items() if num}
        )

    def scale(self, c: Fraction | int) -> "InvariantLaurentPoly":
        c = Fraction(c)
        if not c:
            return InvariantLaurentPoly.zero(self.r)
        return InvariantLaurentPoly._trusted(self.r, {e: c * v for e, v in self.terms.items()})

    def pullback(self, f: int) -> "InvariantLaurentPoly":
        """Substitute t_i -> t_i^f: every exponent vector scales by f."""
        if f < 1:
            raise ValueError("the substitution power must be >= 1")
        return InvariantLaurentPoly._trusted(
            self.r, {tuple(f * x for x in e): c for e, c in self.terms.items()}
        )

    def translate(self, k: int) -> "InvariantLaurentPoly":
        """Add k to every exponent: the exact product with the unit m_(k,...,k)."""
        return InvariantLaurentPoly._trusted(
            self.r, {tuple(x + k for x in e): c for e, c in self.terms.items()}
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, InvariantLaurentPoly)
            and self.r == other.r
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.r, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def max_abs_exponent(self) -> int:
        return max((abs(x) for e in self.terms for x in e), default=0)

    def __repr__(self):
        items = ", ".join(f"m{list(e)}: {c}" for e, c in sorted(self.terms.items()))
        return f"InvariantLaurentPoly({self.r}, {{{items}}})"


def staircase_basis(r: int) -> list[ExponentVector]:
    """The free-module basis exponents {c : 0 <= c_i <= r - i} for r <= 3."""
    if r == 1:
        return [(0,)]
    if r == 2:
        return [(0, 0), (1, 0)]
    if r == 3:
        return [(c1, c2, 0) for c2 in (0, 1) for c1 in (0, 1, 2)]
    raise ValueError("staircase decomposition is implemented for r <= 3")


def _newton_quadratic(q1: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly, LaurentPoly]:
    """Coefficients (c0, c1, c2) with Q = c0 + c1*s_1 + c2*s_1^2, c_i symmetric.

    Q must be symmetric in (s_2, s_3).  Its conjugates Q(s_2;...) and
    Q(s_3;...) are values of one abstract quadratic, recovered by Newton
    divided differences; all divisions are exact.
    """
    q2 = q1.swap(0, 1)
    q3 = q1.swap(0, 2)
    d12 = (q1 - q2).divexact_diff(0, 1)
    d23 = (q2 - q3).divexact_diff(1, 2)
    d123 = (d12 - d23).divexact_diff(0, 2)
    s1 = LaurentPoly.monomial((1, 0, 0))
    s2 = LaurentPoly.monomial((0, 1, 0))
    c2 = d123
    c1 = d12 - (s1 + s2) * d123
    c0 = q1 - s1 * d12 + (s1 * s2) * d123
    return c0, c1, c2


@lru_cache(maxsize=None)
def staircase_decompose(q: ExponentVector) -> dict[ExponentVector, InvariantLaurentPoly]:
    """Write the monomial s^q as sum_c b_c * s^c over the staircase basis.

    The b_c are S_r-invariant Laurent polynomials, returned in the
    orbit-sum basis.  Uniqueness comes from freeness of the basis, which
    the tests exercise by expanding the result back.
    """
    q = tuple(int(x) for x in q)
    r = len(q)
    mono = LaurentPoly.monomial(q)
    if r == 1:
        return {(0,): InvariantLaurentPoly(1, {q: Fraction(1)})}
    if r == 2:
        b1 = (mono - mono.swap(0, 1)).divexact_diff(0, 1)
        b0 = mono - LaurentPoly.monomial((1, 0)) * b1
        return {
            (0, 0): InvariantLaurentPoly.from_laurent(b0),
            (1, 0): InvariantLaurentPoly.from_laurent(b1),
        }
    if r == 3:
        # peel s_2 against s_3 first, then expand each piece in powers of s_1
        upper = (mono - mono.swap(1, 2)).divexact_diff(1, 2)
        lower = mono - LaurentPoly.monomial((0, 1, 0)) * upper
        out: dict[ExponentVector, InvariantLaurentPoly] = {}
        for c2_exp, piece in ((0, lower), (1, upper)):
            c0, c1, c2 = _newton_quadratic(piece)
            for c1_exp, coeff in ((0, c0), (1, c1), (2, c2)):
                out[(c1_exp, c2_exp, 0)] = InvariantLaurentPoly.from_laurent(coeff)
        return out
    raise ValueError("staircase decomposition is implemented for r <= 3")
