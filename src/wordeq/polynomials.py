"""Sparse polynomials, reduced rational functions and word encodings.

SparsePoly is the one term-map core under every polynomial type of the
library; IntPolynomial, the univariate integer polynomials, is built on it
here, and the generalized and multivariate ones in genpoly.

A word a_0 a_1 ... a_{n-1} is encoded as the polynomial
a_0 + a_1 X + ... + a_{n-1} X^(n-1); since all letters are positive the
encoding is injective.  For a nonempty word the rational encoding is the
reduced form of that polynomial divided by X^n - 1, which depends only on
the primitive root of the word.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .errors import InputFormatError, TheoremCheckError
from .words import Word, primitive_root

# one signed term of the text SparsePoly.to_text writes: a sign (optional on
# the first term only), coefficient digits and a power X, X^d or X^{form}; a
# braced form is taken whole and holds no sign but "+", so every sign outside
# braces starts a term
_TERM = re.compile(r"([+-]?)(\d*)(X(?:\^(?:\d+|\{[^}]*\}))?)?")


class SparsePoly:
    """Immutable sparse polynomial: a map exponent -> nonzero integer coefficient.

    The library's polynomials differ only in their exponents: a degree
    (IntPolynomial), a linear form in the unknown lengths (GenPoly) or an
    exponent tuple (MultiPoly).  Exponents add with ``+`` and terms are
    ordered by exponent, so a subclass only says how an exponent is
    checked and how a power is written and read; sums, products, equality,
    rendering and reading live here.  ``n`` counts the unknowns, and
    operands over different counts are rejected.  Instances are
    immutable: ``n`` is a read-only property, the term map is private and
    there is no ``__dict__``, so results can be shared freely.
    """

    __slots__ = ("_n", "_terms")

    def __init__(self, n: int, terms=None):
        self._n = n
        self._terms = self._collect(terms, self._exponent) if terms else {}

    @staticmethod
    def _collect(terms, exponent=None) -> dict:
        """Sum (exponent, coefficient) pairs into a map without zero coefficients.

        With an exponent check given, every term is validated first.
        """
        out = {}
        for e, c in terms.items() if isinstance(terms, dict) else terms:
            if exponent:
                e = exponent(e)
                if not isinstance(c, int) or isinstance(c, bool):
                    raise ValueError(f"coefficients must be integers, got {c!r}")
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        return out

    @classmethod
    def _new(cls, n: int, terms: dict):
        """Wrap a term map that is already free of zero coefficients."""
        p = object.__new__(cls)
        p._n = n
        p._terms = terms
        return p

    @property
    def n(self) -> int:
        """Number of unknowns; read-only, like every public attribute."""
        return self._n

    def _check(self, other: "SparsePoly"):
        if self._n != other._n:
            raise ValueError("operands live over different unknown counts")

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def coeff(self, exponent) -> int:
        return self._terms.get(exponent, 0)

    def terms(self):
        """(exponent, coefficient) pairs in exponent order."""
        return sorted(self._terms.items())

    def coefficients(self):
        """The nonzero coefficients, in no particular order."""
        return self._terms.values()

    # arithmetic
    def __add__(self, other):
        self._check(other)
        out = dict(self._terms)
        for e, c in other._terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        return self._new(self._n, out)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return self._new(self._n, {e: -c for e, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            scaled = {e: c * other for e, c in self._terms.items()} if other else {}
            return self._new(self._n, scaled)
        self._check(other)
        products = [
            (e1 + e2, c1 * c2)
            for e1, c1 in self._terms.items()
            for e2, c2 in other._terms.items()
        ]
        return self._new(self._n, self._collect(products))

    __rmul__ = __mul__

    # equality and rendering
    def __eq__(self, other):
        return type(other) is type(self) and self._n == other._n and self._terms == other._terms

    def __hash__(self):
        return hash((self._n, frozenset(self._terms.items())))

    def to_text(self) -> str:
        """Signed terms in canonical order, e.g. "1 + 2X - X^3"; "0" when empty."""
        parts = []
        for e, c in self.terms():
            power = self._power_text(e)
            body = power if power and abs(c) == 1 else f"{abs(c)}{power}"
            if parts:
                parts.append(("+ " if c > 0 else "- ") + body)
            else:
                parts.append(body if c > 0 else f"-{body}")
        return " ".join(parts) or "0"

    @classmethod
    def _terms_of_text(cls, text: str, n: int) -> list:
        """(exponent, coefficient) pairs of a to_text rendering over n unknowns.

        The one reader of the signed-term text: "−" reads as "-", spaces are
        dropped, and each term's power is read by the subclass's
        ``_power_of_text``.  Malformed text raises InputFormatError.
        """
        text = text.replace("−", "-").replace(" ", "")
        if not text:
            raise InputFormatError("empty polynomial text")
        terms, pos = [], 0
        while pos < len(text):
            m = _TERM.match(text, pos)
            sign, digits, power = m.groups("")
            if not (digits or power) or not (sign or pos == 0):
                raise InputFormatError(f"cannot parse polynomial term at {text[pos:]!r}")
            terms.append((cls._power_of_text(power, n), int(sign + (digits or "1"))))
            pos = m.end()
        return terms

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return f"{type(self).__name__}({self.to_text()!r})"


class IntPolynomial(SparsePoly):
    """Sparse univariate polynomial with arbitrary-precision integer coefficients.

    Exponents are degrees of the one unknown X (so ``n`` is 1); the zero
    polynomial is the empty map and has degree -1, below every real degree.
    """

    __slots__ = ()

    def __init__(self, coeffs=None):
        super().__init__(1, coeffs)

    @staticmethod
    def _exponent(deg):
        if not isinstance(deg, int) or isinstance(deg, bool) or deg < 0:
            raise ValueError(f"degrees must be nonnegative integers, got {deg!r}")
        return deg

    @staticmethod
    def _power_text(d) -> str:
        return "" if d == 0 else "X" if d == 1 else f"X^{d}"

    @staticmethod
    def _power_of_text(power: str, n: int) -> int:
        if "{" in power:
            raise InputFormatError(f"an integer polynomial's power is X or X^d, got {power!r}")
        return 0 if not power else 1 if power == "X" else int(power[2:])

    @staticmethod
    def one() -> "IntPolynomial":
        return IntPolynomial({0: 1})

    @property
    def degree(self) -> int:
        return max(self._terms) if self._terms else -1

    @property
    def leading_coefficient(self) -> int:
        return self._terms[max(self._terms)] if self._terms else 0

    def shift(self, k: int) -> "IntPolynomial":
        """Multiply by X^k."""
        if k < 0:
            raise ValueError("shift must be nonnegative")
        return self._new(1, {d + k: c for d, c in self._terms.items()})

    def evaluate(self, x):
        return sum(c * x**d for d, c in self._terms.items())


def parse_polynomial(text: str) -> IntPolynomial:
    """Parse the rendering produced by IntPolynomial.to_text."""
    return IntPolynomial(IntPolynomial._terms_of_text(text, 1))


def _coeff_list(p: IntPolynomial) -> list:
    """Dense coefficients of p, indexed by degree."""
    out = [0] * (p.degree + 1)
    for k, c in p._terms.items():
        out[k] = c
    return out


def exact_div(a: IntPolynomial, d: IntPolynomial) -> IntPolynomial:
    """Exact division in the integer polynomial ring; raises if inexact.

    Integer long division on a dense coefficient list: each quotient
    coefficient must be an integer, and no remainder may be left.
    """
    if d.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    ld, dd = d.leading_coefficient, d.degree
    lower = [(k, c) for k, c in d._terms.items() if k < dd]
    r = _coeff_list(a)
    quo = {}
    for top in range(len(r) - 1, dd - 1, -1):
        if c := r[top]:
            q, left = divmod(c, ld)
            if left:
                raise ArithmeticError("quotient has non-integer coefficients")
            shift = top - dd
            quo[shift] = q
            for k, dc in lower:
                r[shift + k] -= q * dc
    if any(r[:dd]):
        raise ArithmeticError("inexact polynomial division")
    return IntPolynomial._new(1, quo)


def _reduce(r: list, b: IntPolynomial) -> list:
    """Pseudo-remainder of the dense coefficient list r by b, below b's degree.

    Works in place: each step scales r by lc(b) (unless b is monic) and
    cancels its top coefficient with a shifted multiple of b.
    """
    lb, db = b.leading_coefficient, b.degree
    lower = [(k, c) for k, c in b._terms.items() if k < db]
    for top in range(len(r) - 1, db - 1, -1):
        if c := r[top]:
            if lb != 1:
                r[:top] = [v * lb for v in r[:top]]
            shift = top - db
            for k, bc in lower:
                r[shift + k] -= c * bc
    return r[:db]


def x_power_minus_one(n: int) -> IntPolynomial:
    """X^n - 1."""
    if n < 1:
        raise ValueError("exponent must be positive")
    return IntPolynomial({n: 1, 0: -1})


@lru_cache(maxsize=256)
def cyclotomic(d: int) -> IntPolynomial:
    """The d-th cyclotomic polynomial: X^d - 1 divided by every lower one of order dividing d."""
    p = x_power_minus_one(d)
    for e in range(1, d):
        if d % e == 0:
            p = exact_div(p, cyclotomic(e))
    return p


@dataclass(frozen=True, repr=False)
class RationalFunction:
    """The reduced pair numerator/denominator that encode_ratfun returns.

    The pair is taken as given: encode_ratfun builds it coprime with a
    monic denominator, so equality is plain structural equality.
    """

    numerator: IntPolynomial
    denominator: IntPolynomial

    def to_text(self) -> str:
        return f"({self.numerator.to_text()})/({self.denominator.to_text()})"

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return f"RationalFunction({self.to_text()!r})"


# --- word encodings -------------------------------------------------------


def encode_poly(w: Word) -> IntPolynomial:
    """Polynomial encoding: letter at position k becomes the X^k coefficient."""
    # a Word's letters are positive integers, so no term needs checking
    return IntPolynomial._new(1, dict(enumerate(w)))


def _cyclotomic_orders(w: Word) -> dict:
    """For each d dividing |w|, whether the d-th cyclotomic polynomial divides P(w).

    It divides X^d - 1, so it divides P(w) exactly when it divides P(w)
    mod X^d - 1: the letters of w summed by position mod d, a polynomial of
    degree below d.  The first one, X - 1, never divides, since letters are
    positive.
    """
    m = len(w)
    return {
        d: d > 1 and not any(_reduce([sum(w[i::d]) for i in range(d)], cyclotomic(d)))
        for d in range(1, m + 1)
        if m % d == 0
    }


def encode_ratfun(w: Word) -> RationalFunction:
    """Reduced form of P(w)/(X^|w| - 1); undefined for the empty word.

    The reduced form is that of the primitive root u, of length p.  X^p - 1
    is the squarefree product of the cyclotomic polynomials of orders
    dividing p, so its gcd G with P(u) is the product of those that divide
    P(u).  The reduced pair is P(u)/G over (X^p - 1)/G, the product of the
    others; both divisions are by a monic G, and the monic denominator
    needs no content or sign normalisation.
    """
    if not w:
        raise ValueError("the rational encoding needs a nonempty word")
    root = primitive_root(w)
    common = IntPolynomial.one()
    for d, divides_root in _cyclotomic_orders(root).items():
        if divides_root:
            common = common * cyclotomic(d)
    numerator = exact_div(encode_poly(root), common)
    return RationalFunction(numerator, exact_div(x_power_minus_one(len(root)), common))


def primdiv_check(w: Word) -> bool:
    """True when no (X^|w|-1)/(X^d-1) with d a proper divisor divides P(w).

    That quotient is the product of the cyclotomic polynomials of orders e
    dividing |w| but not d, and it divides P(w) exactly when each of them
    does.  A primitive word always yields True; when the check fails the
    word is verified to be a proper power (the quotient spells out the
    period).
    """
    if not w:
        raise ValueError("primdiv_check needs a nonempty word")
    n = len(w)
    orders = _cyclotomic_orders(w)
    divisible = any(
        all(divides_w for e, divides_w in orders.items() if d % e) for d in orders if d < n
    )
    if divisible and len(primitive_root(w)) == n:
        raise TheoremCheckError("a primitive word was divisible by a power-sum factor")
    return not divisible


@dataclass(frozen=True)
class FineWilfVerdict:
    """Outcome of a periodicity-agreement test for two words."""

    bound: int
    agreement: bool
    premise_holds: bool
    roots_equal: bool


def fine_wilf_check(u: Word, v: Word, prefix_len: int) -> FineWilfVerdict:
    """Compare the infinite repetitions of u and v on a prefix.

    The premise holds when the repetitions agree on at least
    |u| + |v| - gcd(|u|, |v|) letters; in that case equal primitive roots
    are guaranteed and verified.
    """
    if not u or not v:
        raise ValueError("fine_wilf_check needs nonempty words")
    if prefix_len < 0:
        raise ValueError("prefix length must be nonnegative")
    lu, lv = len(u), len(v)
    bound = lu + lv - gcd(lu, lv)
    agreement = all(u[i % lu] == v[i % lv] for i in range(prefix_len))
    premise = agreement and prefix_len >= bound
    roots_equal = primitive_root(u) == primitive_root(v)
    if premise and not roots_equal:
        raise TheoremCheckError("periodicity premise held but the roots differ")
    return FineWilfVerdict(bound, agreement, premise, roots_equal)
