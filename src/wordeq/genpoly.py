"""Generalized polynomials whose exponents are linear forms in X_1..X_n.

Terms look like c * X^(a_1 X_1 + ... + a_n X_n) with nonnegative integer
a_i; exponents add under multiplication.  Substituting a length type for
(X_1, ..., X_n) collapses such an expression to an ordinary integer
polynomial, and the whole ring embeds into multivariate polynomials via
X^(X_i) -> Y_i.
"""

from __future__ import annotations

import re

from .errors import InputFormatError
from .equations import Equation, unknown_count
from .polynomials import IntPolynomial, SparsePoly


class LinForm(tuple):
    """Linear homogeneous form with nonnegative integer coefficients: its coefficient tuple.

    Forms compare as tuples, lexicographically; ``+`` adds componentwise.
    """

    __slots__ = ()

    def __new__(cls, coeffs):
        self = super().__new__(cls, coeffs)
        for a in self:
            if not isinstance(a, int) or isinstance(a, bool) or a < 0:
                raise ValueError(f"form coefficients must be nonnegative integers, got {a!r}")
        return self

    @classmethod
    def _trusted(cls, coeffs) -> "LinForm":
        """Wrap coefficients already known to be nonnegative integers, skipping the check."""
        return tuple.__new__(cls, coeffs)

    @property
    def n(self) -> int:
        return len(self)

    @property
    def is_zero(self) -> bool:
        return not any(self)

    def __add__(self, other: "LinForm") -> "LinForm":
        if len(self) != len(other):
            raise ValueError("forms live over different unknown counts")
        return LinForm._trusted([a + b for a, b in zip(self, other)])

    def evaluate(self, point) -> int:
        values = tuple(point)
        if len(values) != len(self):
            raise ValueError("evaluation point has the wrong dimension")
        return sum(a * v for a, v in zip(self, values))

    def le(self, other: "LinForm") -> bool:
        """Componentwise order; implies pointwise order on nonnegative points."""
        if len(self) != len(other):
            raise ValueError("forms live over different unknown counts")
        return all(a <= b for a, b in zip(self, other))

    def to_text(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i, a in enumerate(self, start=1):
            if a == 0:
                continue
            parts.append(f"X{i}" if a == 1 else f"{a}X{i}")
        return "+".join(parts)

    def __str__(self):
        return self.to_text()


def zero_form(n: int) -> LinForm:
    return LinForm((0,) * n)


class GenPoly(SparsePoly):
    """Integer combination of formal powers X^p with linear-form exponents p."""

    __slots__ = ()

    def __init__(self, n: int, terms=None):
        if n < 1:
            raise ValueError("need at least one unknown")
        super().__init__(n, terms)

    def _exponent(self, form: LinForm) -> LinForm:
        if form.n != self._n:
            raise ValueError("term exponent has the wrong dimension")
        return form

    @staticmethod
    def _power_text(form: LinForm) -> str:
        return "" if form.is_zero else f"X^{{{form.to_text()}}}"

    @staticmethod
    def _power_of_text(power: str, n: int) -> LinForm:
        if power and not power.startswith("X^{"):
            raise InputFormatError(f"a generalized polynomial's power is X^{{form}}, got {power!r}")
        return parse_linform(power[3:-1], n)

    @property
    def term_count(self) -> int:
        return len(self._terms)

    def substitute(self, point) -> IntPolynomial:
        """Evaluate the exponent forms at a nonnegative integer point."""
        values = tuple(point)
        if len(values) != self.n:
            raise ValueError("substitution point has the wrong dimension")
        if any(v < 0 for v in values):
            raise ValueError("substitution needs nonnegative entries")
        return IntPolynomial((form.evaluate(values), c) for form, c in self._terms.items())


def occurrence_forms(side, x: int, n: int) -> list[LinForm]:
    """Prefix forms of the occurrences of x along one side, in order.

    Consecutive forms grow componentwise, so the list is a chain for the
    componentwise order.
    """
    counts = [0] * n
    forms = []
    for y in side:
        if y == x:
            forms.append(LinForm._trusted(counts))
        counts[y - 1] += 1
    return forms


def s_polynomial(eq: Equation, x: int) -> GenPoly:
    """Positional coefficient of an unknown with symbolic prefix lengths.

    Each occurrence of x contributes X^(sum of X_j over the unknowns of
    the strict prefix), positively on the left side and negatively on the
    right; substituting any length type recovers the fixed-length
    coefficient polynomial.
    """
    # the forms come from the equation's own unknowns, so no term needs checking
    return GenPoly._new(
        eq.n,
        GenPoly._collect(
            (form, sign)
            for side, sign in ((eq.lhs, 1), (eq.rhs, -1))
            for form in occurrence_forms(side, x, eq.n)
        ),
    )


def minor_t(eq1: Equation, eq2: Equation, k: int, l: int) -> GenPoly:
    """2x2 minor of the symbolic coefficient rows of two equations."""
    unknown_count((eq1, eq2))
    s1k = s_polynomial(eq1, k)
    s2l = s_polynomial(eq2, l)
    s1l = s_polynomial(eq1, l)
    s2k = s_polynomial(eq2, k)
    return s1k * s2l - s1l * s2k


class MultiPoly(SparsePoly):
    """Plain multivariate integer polynomial keyed by exponent tuples, held as LinForms."""

    __slots__ = ()

    def _exponent(self, exps) -> LinForm:
        exps = tuple(exps)
        if len(exps) != self._n or any(e < 0 for e in exps):
            raise ValueError(f"bad exponent tuple {exps!r}")
        return LinForm(exps)

    # no text format of its own: str and repr both show the term map
    def __repr__(self):
        return f"MultiPoly({self._terms!r})"

    __str__ = __repr__


def iso_multivariate(g: GenPoly) -> MultiPoly:
    """Ring embedding sending X^(X_i) to Y_i; exponent forms become exponent tuples."""
    return MultiPoly._new(g.n, dict(g.terms()))


# --- text format ----------------------------------------------------------

_FORM_PART = re.compile(r"^(\d+)?X(\d+)$")


def parse_linform(text: str, n: int) -> LinForm:
    text = text.replace("−", "-").replace(" ", "")
    if text == "0" or not text:
        return zero_form(n)
    coeffs = [0] * n
    for part in text.split("+"):
        m = _FORM_PART.match(part)
        if not m:
            raise InputFormatError(f"cannot parse form part {part!r}")
        a = int(m.group(1)) if m.group(1) else 1
        i = int(m.group(2))
        if not 1 <= i <= n:
            raise InputFormatError(f"form variable X{i} out of range 1..{n}")
        coeffs[i - 1] += a
    return LinForm(coeffs)


def parse_genpoly(text: str, n: int) -> GenPoly:
    """Parse the rendering produced by GenPoly.to_text."""
    return GenPoly(n, GenPoly._terms_of_text(text, n))
