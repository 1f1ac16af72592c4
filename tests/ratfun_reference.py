"""Slow reference rational reduction: the polynomial gcd over Z[X].

This is the reduction RationalFunction ran on every pair before
encode_ratfun divided out cyclotomic polynomials instead.  A pair is
divided by its pseudo-remainder gcd and by its joint integer content, and
its denominator is made to lead with a positive coefficient.  It never
builds a cyclotomic polynomial or a primitive root, so it is an
independent twin for the differential tests of encode_ratfun.
"""

import re
from math import gcd

from wordeq import InputFormatError, IntPolynomial, RationalFunction, parse_polynomial
from wordeq.polynomials import _coeff_list, _reduce, exact_div


def content(p: IntPolynomial) -> int:
    """Nonnegative gcd of the coefficients (0 for the zero polynomial)."""
    return gcd(*(c for _, c in p.terms()))


def primitive_part(p: IntPolynomial) -> IntPolynomial:
    g = content(p)
    if g <= 1:
        return p
    return IntPolynomial({d: c // g for d, c in p.terms()})


def pseudo_rem(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Remainder of lc(b)^k a by b, with one factor lc(b) per elimination step."""
    return IntPolynomial(dict(enumerate(_reduce(_coeff_list(a), b))))


def divides(d: IntPolynomial, a: IntPolynomial) -> bool:
    """Whether d divides a over the rationals."""
    if d.is_zero:
        return a.is_zero
    return pseudo_rem(a, d).is_zero


def _normalize_gcd(p: IntPolynomial) -> IntPolynomial:
    p = primitive_part(p)
    if p.leading_coefficient < 0:
        p = -p
    return p


def poly_gcd(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Gcd over the rationals, normalized primitive with positive leading coefficient."""
    if a.is_zero and b.is_zero:
        return IntPolynomial()
    if a.is_zero:
        return _normalize_gcd(b)
    if b.is_zero:
        return _normalize_gcd(a)
    p, q = primitive_part(a), primitive_part(b)
    if p.degree < q.degree:
        p, q = q, p
    while not q.is_zero:
        r = primitive_part(pseudo_rem(p, q))
        p, q = q, r
    return _normalize_gcd(p)


def power_sum(n: int, d: int) -> IntPolynomial:
    """(X^n - 1)/(X^d - 1) = 1 + X^d + ... + X^(n-d), for d dividing n."""
    if d < 1 or n % d:
        raise ValueError("d must be a positive divisor of n")
    return IntPolynomial({k: 1 for k in range(0, n, d)})


def reduce(numerator: IntPolynomial, denominator: IntPolynomial) -> RationalFunction:
    """The unique reduced form of numerator/denominator.

    Both are divided by their gcd and by their joint integer content, and
    the denominator's leading coefficient is made positive.
    """
    if denominator.is_zero:
        raise ZeroDivisionError("rational function with zero denominator")
    if numerator.is_zero:
        return RationalFunction(IntPolynomial(), IntPolynomial.one())
    g = poly_gcd(numerator, denominator)
    if g.degree > 0:
        numerator = exact_div(numerator, g)
        denominator = exact_div(denominator, g)
    c = gcd(content(numerator), content(denominator))
    if c > 1:
        numerator = IntPolynomial({d: v // c for d, v in numerator.terms()})
        denominator = IntPolynomial({d: v // c for d, v in denominator.terms()})
    if denominator.leading_coefficient < 0:
        numerator, denominator = -numerator, -denominator
    return RationalFunction(numerator, denominator)


def parse_rational(text: str) -> RationalFunction:
    """Parse "(num)/(den)" in the to_text format and reduce it."""
    m = re.fullmatch(r"\s*\((.*)\)\s*/\s*\((.*)\)\s*", text)
    if not m:
        raise InputFormatError(f"cannot parse rational function {text!r}")
    return reduce(parse_polynomial(m.group(1)), parse_polynomial(m.group(2)))
