"""Exact multivariate Laurent polynomials and their symmetric invariants.

Both polynomial classes share one term core: ``r`` variables and a dict
``terms`` from exponent tuples to nonzero exact ints or Fractions.  Every
polynomial, whether given by a caller or returned by an operation, is
built by the one cleaning constructor, which drops zero coefficients,
keeps ints as ints and turns any other coefficient into a Fraction.
Arithmetic is plain exact arithmetic on those coefficients, and 2 ==
Fraction(2) with equal hashes, so equality, hashing and merging ignore
the type.  The classes stay strict with each other: they are never
equal, and mixing them in a ring operation raises TypeError, since a
monomial and an orbit sum with the same exponents are different
polynomials.

``LaurentPoly`` is a plain Laurent polynomial over Q, with the one
nonstandard primitive the rest of the library leans on: exact division
by a difference of variables (x_i - x_j), which is what makes
divided-difference computations possible without ever leaving exact
arithmetic.

``InvariantLaurentPoly`` is the S_r-invariant subring, represented in
the orbit-sum basis: a term with weakly decreasing exponent vector
``lam`` stands for m_lam, the sum of the distinct monomials t^w over the
permutations w of lam.  Addition is termwise; multiplication stays in
the orbit-sum basis, using the product rule

    m_a * m_b = (1/|Stab a|) * sum_{v in orbit(b)} |Stab(a+v)| * m_sort(a+v)

(Macdonald, Symmetric Functions and Hall Polynomials, ch. I sections 2
and 6), so a term pair costs |orbit(b)| vector additions instead of
|orbit(a)| * |orbit(b)| monomial products.

``staircase_decompose`` writes an arbitrary Laurent monomial s^q in any
number r of variables over the invariant subring with respect to the
free-module basis {s^c : 0 <= c_i <= r - i} (Artin, Galois Theory, 1944;
Macdonald, Notes on Schubert Polynomials, 1991, ch. 2).  Freeness of
that basis is the classical statement for polynomial rings, and it
survives inverting the product s_1*...*s_r, which is how Laurent
exponents are handled.  One peel serves every r: a piece symmetric in
s_{k+1..r} is a polynomial in s_k whose coefficients are symmetric in
s_k..s_r, and Newton's divided differences recover them exactly and
uniquely; the basis is a Z-basis, so those coefficients are ints.  The
rank cap of the finiteness certificates is theirs, not a limit here.

``LaurentPoly``, ``InvariantLaurentPoly`` and ``staircase_decompose``
only serve the staircase reference finiteness.constructive_reduction; the
certificate builder keeps plain {class: int} tables and takes only
``_orbit_sum_product`` and the class helpers from here.  The three can
move to the tests once the benchmark tracer stops naming them.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from math import factorial
from operator import add

ExponentVector = tuple[int, ...]
Coefficient = int | Fraction  # exact; never a float or a bool


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


@lru_cache(maxsize=None)
def _orbit_sum_product(a: ExponentVector, b: ExponentVector) -> tuple[tuple[ExponentVector, int], ...]:
    """Integer structure constants of m_a * m_b: pairs (class, multiplicity).

    The multiplicity of m_lam counts the pairs (u, v) in orbit(a) x
    orbit(b) with u + v = lam; it is read off one orbit only, by the
    product rule in the module docstring.  The shorter orbit, the one
    with the larger stabiliser, is walked, counting the v that land in
    each class sort(a + v); |Stab(a + v)| depends only on that class, so
    it is taken once per class.  Cached so that a certificate computes it
    once per translation class: the solve multiplies out each class's
    (f*mu, lam0), last entry 0, and verify looks each of its products up
    as that one moved by a unit.
    """
    stab_a, stab_b = stabilizer_order(a), stabilizer_order(b)
    if stab_a > stab_b:
        a, b, stab_a = b, a, stab_b
    counts: dict[ExponentVector, int] = {}
    for v in set(permutations(b)):
        lam = sort_class(map(add, a, v))
        counts[lam] = counts.get(lam, 0) + 1
    return tuple((lam, n * stabilizer_order(lam) // stab_a) for lam, n in counts.items())


def _exact(c) -> Coefficient:
    """An int stays an int; anything else (float, bool, Fraction) becomes a Fraction."""
    return c if type(c) is int else Fraction(c)


class _TermPoly:
    """The shared core: r variables, {exponent tuple: nonzero exact int or Fraction}.

    Instances are immutable by convention.  Every operation collects its
    terms in a plain dict, zeros included, and returns a fresh object of
    the operand's own class through __init__, which cleans them.
    """

    __slots__ = ("r", "terms")

    def __init__(self, r: int, terms: Mapping[ExponentVector, Coefficient] | None = None):
        self.r = r
        clean: dict[ExponentVector, Coefficient] = {}
        if terms:
            for exp, coeff in terms.items():
                coeff = _exact(coeff)
                if coeff == 0:
                    continue
                exp = tuple(int(x) for x in exp)
                if len(exp) != r:
                    raise ValueError(f"exponent {exp} has wrong arity for r={r}")
                clean[exp] = coeff
        self.terms = clean

    @classmethod
    def zero(cls, r: int):
        return cls(r)

    @classmethod
    def one(cls, r: int):
        return cls(r, {(0,) * r: 1})

    def _check(self, other: "_TermPoly"):
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if self.r != other.r:
            raise ValueError("variable counts differ")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            out[exp] = out.get(exp, 0) + c
        return type(self)(self.r, out)

    def __neg__(self):
        return type(self)(self.r, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c: Coefficient):
        c = _exact(c)
        return type(self)(self.r, {e: c * v for e, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.r == other.r and self.terms == other.terms

    def __hash__(self):
        return hash((self.r, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms


class LaurentPoly(_TermPoly):
    """Laurent polynomial over Q: {exponent tuple: nonzero exact int or Fraction}."""

    __slots__ = ()

    @staticmethod
    def monomial(exp: Iterable[int], coeff: Coefficient = 1) -> "LaurentPoly":
        exp = tuple(int(x) for x in exp)
        return LaurentPoly(len(exp), {exp: coeff})

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        out: dict[ExponentVector, Coefficient] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly(self.r, out)

    def swap(self, i: int, j: int) -> "LaurentPoly":
        """Exchange the variables x_i and x_j."""
        out: dict[ExponentVector, Coefficient] = {}
        for exp, c in self.terms.items():
            new = list(exp)
            new[i], new[j] = exp[j], exp[i]
            out[tuple(new)] = c
        return LaurentPoly(self.r, out)

    def divexact_diff(self, i: int, j: int) -> "LaurentPoly":
        """Exact quotient by (x_i - x_j); raises ArithmeticError if the division is inexact.

        Synthetic division in x_i over plain dicts.  Write P = sum_k c_k x_i^k
        for lo <= k <= hi, each c_k a dict of the terms without x_i (slot i
        set to 0).  If P = (x_i - x_j) * sum_{k=lo}^{hi-1} d_k x_i^k, then
        d_k = (d_{k-1} - c_k) / x_j from d_{lo-1} = 0, and the division is
        exact exactly when the last d equals c_hi.  Dividing by x_j lowers
        the x_j exponent by one, as x_j is a unit of the Laurent ring.
        """
        by_power: dict[int, dict[ExponentVector, Coefficient]] = {}
        for exp, c in self.terms.items():
            by_power.setdefault(exp[i], {})[exp[:i] + (0,) + exp[i + 1:]] = c
        lo, hi = min(by_power, default=0), max(by_power, default=0)
        out: dict[ExponentVector, Coefficient] = {}
        d: dict[ExponentVector, Coefficient] = {}
        for k in range(lo, hi):
            for rest, c in by_power.get(k, {}).items():
                d[rest] = d.get(rest, 0) - c
            d = {rest[:j] + (rest[j] - 1,) + rest[j + 1:]: c for rest, c in d.items() if c}
            out.update((rest[:i] + (k,) + rest[i + 1:], c) for rest, c in d.items())
        if d != by_power.get(hi, {}):
            raise ArithmeticError("polynomial is not divisible by (x_i - x_j)")
        return LaurentPoly(self.r, out)

    def __repr__(self):
        items = ", ".join(f"{e}: {c}" for e, c in sorted(self.terms.items()))
        return f"LaurentPoly({self.r}, {{{items}}})"


class InvariantLaurentPoly(_TermPoly):
    """S_r-invariant Laurent polynomial in the orbit-sum basis.

    ``terms`` maps weakly decreasing exponent vectors lam to the exact
    coefficient (int or Fraction) of the orbit sum m_lam.
    """

    __slots__ = ()

    def __init__(self, r: int, terms: Mapping[ExponentVector, Coefficient] | None = None):
        super().__init__(r, terms)
        for exp in self.terms:
            if any(a < b for a, b in zip(exp, exp[1:])):
                raise ValueError(f"class {exp} is not weakly decreasing")

    # -- constructors ----------------------------------------------------

    @staticmethod
    def orbit_sum(lam: Iterable[int], coeff: Coefficient = 1) -> "InvariantLaurentPoly":
        lam = sort_class(int(x) for x in lam)
        return InvariantLaurentPoly(len(lam), {lam: coeff})

    @staticmethod
    def from_laurent(poly: LaurentPoly) -> "InvariantLaurentPoly":
        """Collect a symmetric plain polynomial into classes; rejects asymmetric input."""
        collected = InvariantLaurentPoly(
            poly.r, {exp: c for exp, c in poly.terms.items() if exp == sort_class(exp)}
        )
        if collected.expand() != poly:
            raise ValueError("polynomial is not symmetric")
        return collected

    # -- ring operations ---------------------------------------------------

    def expand(self) -> LaurentPoly:
        """The plain polynomial: each m_lam as the distinct permutations of lam."""
        return LaurentPoly(
            self.r, {w: c for lam, c in self.terms.items() for w in sorted(set(permutations(lam)))}
        )

    def __mul__(self, other: "InvariantLaurentPoly") -> "InvariantLaurentPoly":
        """Product in the orbit-sum basis, never expanding to monomials.

        Each term pair c*m_a, d*m_b adds c * d * mult to every class of
        its integer structure constants (``_orbit_sum_product``).
        """
        self._check(other)
        out: dict[ExponentVector, Coefficient] = {}
        for a, c in self.terms.items():
            for b, d in other.terms.items():
                for lam, mult in _orbit_sum_product(a, b):
                    out[lam] = out.get(lam, 0) + c * d * mult
        return InvariantLaurentPoly(self.r, out)

    def pullback(self, f: int) -> "InvariantLaurentPoly":
        """Substitute t_i -> t_i^f: every exponent vector scales by f."""
        if f < 1:
            raise ValueError("the substitution power must be >= 1")
        return InvariantLaurentPoly(self.r, {tuple(f * x for x in e): c for e, c in self.terms.items()})

    def __repr__(self):
        items = ", ".join(f"m{list(e)}: {c}" for e, c in sorted(self.terms.items()))
        return f"InvariantLaurentPoly({self.r}, {{{items}}})"


def staircase_basis(r: int) -> list[ExponentVector]:
    """The free-module basis exponents {c : 0 <= c_i <= r - i}: r! vectors,
    the last entry varying slowest."""
    return [c[::-1] for c in product(*(range(i + 1) for i in range(r)))]


def _peel(piece: LaurentPoly, k: int) -> list[LaurentPoly]:
    """Coefficients c_0..c_m of piece = sum_j c_j * s_k^j, with m = r-1-k.

    piece must be symmetric in s_{k+1}..s_{r-1} (0-based); each c_j comes
    out symmetric in s_k..s_{r-1}.  The conjugates piece(s_k <-> s_i),
    i = k..r-1, are the values at X = s_i of Q(X) = sum_j c_j X^j, so
    Newton's divided differences over the nodes s_k..s_{r-1} give Q, and
    every division is exact.
    """
    column = [piece] + [piece.swap(k, i) for i in range(k + 1, piece.r)]
    newton = [column[0]]  # newton[j] = Q[s_k, ..., s_{k+j}]
    for j in range(1, len(column)):
        column = [
            (left - right).divexact_diff(k + i, k + i + j)
            for i, (left, right) in enumerate(zip(column, column[1:]))
        ]
        newton.append(column[0])
    # Horner on the Newton form Q = a_0 + (X - s_k)(a_1 + (X - s_{k+1})(a_2 + ...)),
    # a_j = newton[j]: multiply the coefficient list by (X - s_{k+j}), add a_j
    coeffs = [newton.pop()]
    for j in range(len(newton) - 1, -1, -1):
        node = LaurentPoly.monomial(tuple(int(t == k + j) for t in range(piece.r)))
        coeffs = (
            [newton[j] - node * coeffs[0]]
            + [prev - node * cur for prev, cur in zip(coeffs, coeffs[1:])]
            + [coeffs[-1]]
        )
    return coeffs


@lru_cache(maxsize=None)
def staircase_decompose(q: ExponentVector) -> dict[ExponentVector, InvariantLaurentPoly]:
    """Write the monomial s^q as sum_c b_c * s^c over the staircase basis.

    The b_c are S_r-invariant Laurent polynomials, returned in the
    orbit-sum basis and keyed in ``staircase_basis`` order.  The peel
    runs k = r-1 down to 0 (0-based; the first step is trivial) and
    splits every piece in powers of s_k.  Uniqueness comes from freeness
    of the basis, which the tests exercise by expanding the result back.
    """
    q = tuple(int(x) for x in q)
    pieces: dict[ExponentVector, LaurentPoly] = {(): LaurentPoly.monomial(q)}
    for k in range(len(q) - 1, -1, -1):
        pieces = {
            (j,) + c: coeff for c, piece in pieces.items() for j, coeff in enumerate(_peel(piece, k))
        }
    return {c: InvariantLaurentPoly.from_laurent(b) for c, b in pieces.items()}
