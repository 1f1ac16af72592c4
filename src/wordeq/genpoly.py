"""Generalized polynomials whose exponents are linear forms in X_1..X_n.

Terms look like c * X^(a_1 X_1 + ... + a_n X_n) with nonnegative integer
a_i; exponents add under multiplication.  Substituting a length type for
(X_1, ..., X_n) collapses such an expression to an ordinary integer
polynomial, and the whole ring embeds into multivariate polynomials via
X^(X_i) -> Y_i.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import InputFormatError
from .equations import Equation
from .polynomials import IntPolynomial


@dataclass(frozen=True)
class LinForm:
    """Linear homogeneous form with nonnegative integer coefficients."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        coeffs = tuple(self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        for a in coeffs:
            if not isinstance(a, int) or a < 0:
                raise ValueError(f"form coefficients must be nonnegative integers, got {a!r}")

    @property
    def n(self) -> int:
        return len(self.coeffs)

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __add__(self, other: "LinForm") -> "LinForm":
        if len(self.coeffs) != len(other.coeffs):
            raise ValueError("forms live over different unknown counts")
        return LinForm(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def evaluate(self, point) -> int:
        values = tuple(point)
        if len(values) != len(self.coeffs):
            raise ValueError("evaluation point has the wrong dimension")
        return sum(a * v for a, v in zip(self.coeffs, values))

    def le(self, other: "LinForm") -> bool:
        """Componentwise order; implies pointwise order on nonnegative points."""
        return all(a <= b for a, b in zip(self.coeffs, other.coeffs))

    def to_text(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i, a in enumerate(self.coeffs, start=1):
            if a == 0:
                continue
            parts.append(f"X{i}" if a == 1 else f"{a}X{i}")
        return "+".join(parts)

    def __str__(self):
        return self.to_text()


def zero_form(n: int) -> LinForm:
    return LinForm((0,) * n)


def unit_form(n: int, i: int) -> LinForm:
    return LinForm(tuple(1 if j == i else 0 for j in range(1, n + 1)))


class GenPoly:
    """Integer combination of formal powers X^p with linear-form exponents p."""

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms=None):
        if n < 1:
            raise ValueError("need at least one unknown")
        clean: dict[LinForm, int] = {}
        if terms:
            for form, c in terms.items() if isinstance(terms, dict) else terms:
                if form.n != n:
                    raise ValueError("term exponent has the wrong dimension")
                if not isinstance(c, int):
                    raise ValueError(f"coefficients must be integers, got {c!r}")
                if c:
                    clean[form] = clean.get(form, 0) + c
                    if not clean[form]:
                        del clean[form]
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("GenPoly is immutable")

    @staticmethod
    def zero(n: int) -> "GenPoly":
        return GenPoly(n)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def coeff(self, form: LinForm) -> int:
        return self._terms.get(form, 0)

    def terms(self):
        """Terms in canonical order (lexicographic on coefficient vectors)."""
        return sorted(self._terms.items(), key=lambda kv: kv[0].coeffs)

    @property
    def term_count(self) -> int:
        return len(self._terms)

    def _check(self, other: "GenPoly"):
        if self.n != other.n:
            raise ValueError("operands live over different unknown counts")

    def __add__(self, other: "GenPoly") -> "GenPoly":
        self._check(other)
        out = dict(self._terms)
        for f, c in other._terms.items():
            s = out.get(f, 0) + c
            if s:
                out[f] = s
            elif f in out:
                del out[f]
        return GenPoly(self.n, out)

    def __sub__(self, other: "GenPoly") -> "GenPoly":
        return self + (-other)

    def __neg__(self) -> "GenPoly":
        return GenPoly(self.n, {f: -c for f, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return GenPoly(self.n, {f: c * other for f, c in self._terms.items()})
        self._check(other)
        out: dict[LinForm, int] = {}
        for f1, c1 in self._terms.items():
            for f2, c2 in other._terms.items():
                f = f1 + f2
                s = out.get(f, 0) + c1 * c2
                if s:
                    out[f] = s
                elif f in out:
                    del out[f]
        return GenPoly(self.n, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, GenPoly) and self.n == other.n and self._terms == other._terms

    def __hash__(self):
        return hash((self.n, frozenset(self._terms.items())))

    def substitute(self, point) -> IntPolynomial:
        """Evaluate the exponent forms at a nonnegative integer point."""
        values = tuple(point)
        if len(values) != self.n:
            raise ValueError("substitution point has the wrong dimension")
        if any(v < 0 for v in values):
            raise ValueError("substitution needs nonnegative entries")
        out: dict[int, int] = {}
        for form, c in self._terms.items():
            d = form.evaluate(values)
            s = out.get(d, 0) + c
            if s:
                out[d] = s
            elif d in out:
                del out[d]
        return IntPolynomial(out)

    def to_text(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for form, c in self.terms():
            mag = abs(c)
            if form.is_zero:
                body = str(mag)
            else:
                body = f"X^{{{form.to_text()}}}"
                if mag != 1:
                    body = f"{mag}{body}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return f"GenPoly({self.to_text()!r})"


def s_polynomial(eq: Equation, x: int) -> GenPoly:
    """Positional coefficient of an unknown with symbolic prefix lengths.

    Each occurrence of x contributes X^(sum of X_j over the unknowns of
    the strict prefix), positively on the left side and negatively on the
    right; substituting any length type recovers the fixed-length
    coefficient polynomial.
    """
    n = eq.n
    out: dict[LinForm, int] = {}
    for side, sign in ((eq.lhs, 1), (eq.rhs, -1)):
        counts = [0] * n
        for y in side:
            if y == x:
                form = LinForm(tuple(counts))
                s = out.get(form, 0) + sign
                if s:
                    out[form] = s
                elif form in out:
                    del out[form]
            counts[y - 1] += 1
    return GenPoly(n, out)


def occurrence_forms(side, x: int, n: int) -> list[LinForm]:
    """Prefix forms of the occurrences of x along one side, in order.

    Consecutive forms grow componentwise, so the list is a chain for the
    componentwise order.
    """
    counts = [0] * n
    forms = []
    for y in side:
        if y == x:
            forms.append(LinForm(tuple(counts)))
        counts[y - 1] += 1
    return forms


def minor_t(eq1: Equation, eq2: Equation, k: int, l: int) -> GenPoly:
    """2x2 minor of the symbolic coefficient rows of two equations."""
    if eq1.n != eq2.n:
        raise ValueError("equations disagree on the number of unknowns")
    s1k = s_polynomial(eq1, k)
    s2l = s_polynomial(eq2, l)
    s1l = s_polynomial(eq1, l)
    s2k = s_polynomial(eq2, k)
    return s1k * s2l - s1l * s2k


class MultiPoly:
    """Plain multivariate integer polynomial keyed by exponent tuples."""

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms=None):
        clean: dict[tuple[int, ...], int] = {}
        if terms:
            for exps, c in terms.items() if isinstance(terms, dict) else terms:
                exps = tuple(exps)
                if len(exps) != n or any(e < 0 for e in exps):
                    raise ValueError(f"bad exponent tuple {exps!r}")
                if c:
                    clean[exps] = clean.get(exps, 0) + c
                    if not clean[exps]:
                        del clean[exps]
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self):
        return sorted(self._terms.items())

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        out = dict(self._terms)
        for e, c in other._terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        return MultiPoly(self.n, out)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
        return MultiPoly(self.n, out)

    def __eq__(self, other):
        return isinstance(other, MultiPoly) and self.n == other.n and self._terms == other._terms

    def __hash__(self):
        return hash((self.n, frozenset(self._terms.items())))

    def __repr__(self):
        return f"MultiPoly({self._terms!r})"


def iso_multivariate(g: GenPoly) -> MultiPoly:
    """Ring embedding sending X^(X_i) to Y_i; exponent forms become exponent tuples."""
    return MultiPoly(g.n, {form.coeffs: c for form, c in g.terms()})


# --- text format ----------------------------------------------------------

_GP_TERM = re.compile(r"^(\d+)?(?:X\^\{([^}]*)\})?$")
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
    return LinForm(tuple(coeffs))


def _split_signed_terms(text: str):
    """Signed top-level chunks; plus and minus inside braces do not split."""
    out = []
    i, size = 0, len(text)
    while i < size:
        while i < size and text[i].isspace():
            i += 1
        sign = 1
        if i < size and text[i] in "+-":
            sign = 1 if text[i] == "+" else -1
            i += 1
            while i < size and text[i].isspace():
                i += 1
        start, depth = i, 0
        while i < size:
            ch = text[i]
            if ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                if depth < 0:
                    raise InputFormatError("unbalanced braces")
            elif ch in "+-" and depth == 0:
                break
            i += 1
        if depth != 0:
            raise InputFormatError("unbalanced braces")
        term = text[start:i].strip()
        if not term:
            raise InputFormatError("dangling sign in generalized polynomial")
        out.append((sign, term))
    return out


def parse_genpoly(text: str, n: int) -> GenPoly:
    """Parse the rendering produced by GenPoly.to_text."""
    text = text.replace("−", "-").strip()
    if not text:
        raise InputFormatError("empty generalized polynomial text")
    if text == "0":
        return GenPoly.zero(n)
    terms: list[tuple[LinForm, int]] = []
    for sign, chunk in _split_signed_terms(text):
        m = _GP_TERM.match(chunk.replace(" ", ""))
        if not m or (m.group(1) is None and m.group(2) is None):
            raise InputFormatError(f"cannot parse term {chunk!r}")
        coeff = int(m.group(1)) if m.group(1) else 1
        form = parse_linform(m.group(2), n) if m.group(2) is not None else zero_form(n)
        terms.append((form, sign * coeff))
    return GenPoly(n, terms)
