"""Word equations, their coefficient polynomials and exact matrix rank.

Fixing a length type turns a word equation into a linear equation over
the field of rational functions: each unknown gets a coefficient
polynomial built from its occurrence positions.  The rank of the
resulting coefficient matrix over that field is computed exactly at one
integer point: a bound H on the coefficients of every minor makes
X = H + 2 a non-root of each nonzero minor (Cauchy's root bound), so
one fraction-free integer elimination there gives the exact rank.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import InputFormatError
from .polynomials import IntPolynomial, encode_poly
from .words import (
    LengthType,
    Morphism,
    default_names,
    resolve_unknown,
)


@dataclass(frozen=True)
class Equation:
    """A pair of words over the unknowns x_1..x_n, compared as lhs = rhs."""

    lhs: tuple[int, ...]
    rhs: tuple[int, ...]
    n: int

    def __post_init__(self):
        object.__setattr__(self, "lhs", tuple(self.lhs))
        object.__setattr__(self, "rhs", tuple(self.rhs))
        if self.n < 1:
            raise ValueError("an equation needs at least one unknown")
        for x in self.lhs + self.rhs:
            if not isinstance(x, int) or x < 1 or x > self.n:
                raise ValueError(f"unknown index {x!r} out of range 1..{self.n}")

    @property
    def is_trivial(self) -> bool:
        return self.lhs == self.rhs

    @property
    def length(self) -> int:
        return len(self.lhs) + len(self.rhs)

    def count(self, x: int) -> int:
        """Occurrences of an unknown on both sides together."""
        return self.lhs.count(x) + self.rhs.count(x)

    def solved_by(self, images) -> bool:
        """Whether images, one letter tuple per unknown (a Morphism, say), make both sides equal."""
        left: tuple[int, ...] = ()
        for x in self.lhs:
            left += images[x - 1]
        right: tuple[int, ...] = ()
        for x in self.rhs:
            right += images[x - 1]
        return left == right

    def swapped(self) -> "Equation":
        return Equation(self.rhs, self.lhs, self.n)

    def to_text(self, names: list[str] | None = None) -> str:
        names = names or default_names(self.n)
        left = " ".join(names[x - 1] for x in self.lhs) if self.lhs else "eps"
        right = " ".join(names[x - 1] for x in self.rhs) if self.rhs else "eps"
        return f"{left} = {right}"

    def __str__(self):
        return self.to_text()


def q_polynomial(eq: Equation, x: int, lt: LengthType) -> IntPolynomial:
    """Positional coefficient of an unknown at a fixed length type.

    Sum of X^(image length of the strict prefix) over the occurrences of
    x on the left side, minus the same sum over the right side.
    """
    if len(lt) != eq.n:
        raise ValueError("length type size does not match the unknown count")
    terms = []
    for side, sign in ((eq.lhs, 1), (eq.rhs, -1)):
        pos = 0
        for y in side:
            if y == x:
                terms.append((pos, sign))
            pos += lt[y - 1]
    return IntPolynomial(terms)


def residual(eq: Equation, h: Morphism) -> IntPolynomial:
    """Coefficient-weighted sum of the encoded images; zero iff h solves eq."""
    lt = h.length_type()
    total = IntPolynomial()
    for x in range(1, eq.n + 1):
        q = q_polynomial(eq, x, lt)
        if not q.is_zero:
            total = total + q * encode_poly(h.image(x))
    return total


@dataclass(frozen=True)
class PolyMatrix:
    """Rectangular matrix of integer polynomials."""

    entries: tuple[tuple[IntPolynomial, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.entries)
        object.__setattr__(self, "entries", rows)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged polynomial matrix")

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.cols != other.rows:
            raise ValueError("matrix dimensions do not match")
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = IntPolynomial()
                for k in range(self.cols):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            out.append(tuple(row))
        return PolyMatrix(tuple(out))

    def apply(self, vector) -> tuple[IntPolynomial, ...]:
        """Matrix-vector product over polynomial entries."""
        vec = tuple(vector)
        if len(vec) != self.cols:
            raise ValueError("vector size does not match")
        out = []
        for row in self.entries:
            acc = IntPolynomial()
            for a, b in zip(row, vec):
                acc = acc + a * b
            out.append(acc)
        return tuple(out)

    def evaluate(self, x) -> tuple[tuple, ...]:
        return tuple(tuple(p.evaluate(x) for p in row) for row in self.entries)


def coefficient_matrix(system, lt: LengthType) -> PolyMatrix:
    """Row per equation, column per unknown, of positional coefficients."""
    system = list(system)
    if not system:
        raise ValueError("empty system")
    n = system[0].n
    if any(eq.n != n for eq in system):
        raise ValueError("equations disagree on the number of unknowns")
    if len(lt) != n:
        raise ValueError("length type size does not match the unknown count")
    return PolyMatrix(
        tuple(tuple(q_polynomial(eq, x, lt) for x in range(1, n + 1)) for eq in system)
    )


def _integer_rank(rows) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) elimination.

    After each step every entry below the pivot rows is, up to sign, a
    minor of the input, so dividing by the previous pivot is exact.
    """
    rows = [list(r) for r in rows if any(r)]
    ncols = len(rows[0]) if rows else 0
    rank, prev = 0, 1
    for col in range(ncols):
        if rank == len(rows):
            break
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        top = rows[rank]
        p = top[col]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col]
            rows[i] = [(p * a - f * b) // prev for a, b in zip(rows[i], top)]
        prev = p
        rank += 1
    return rank


def rank_polymatrix(matrix: PolyMatrix) -> int:
    """Exact rank over the field of rational functions.

    Let H be the product over rows of max(1, the row's total absolute
    coefficient sum).  Every minor is an integer polynomial whose
    coefficients sum in absolute value to at most H, so by Cauchy's root
    bound no nonzero minor vanishes at X = H + 2.  The rank over Q(X) is
    therefore the integer rank of the matrix evaluated there.
    """
    bound = 1
    for row in matrix.entries:
        bound *= max(1, sum(abs(c) for p in row for _, c in p.items()))
    return _integer_rank(matrix.evaluate(bound + 2))


def rational_matrix_rank(rows) -> int:
    """Rank of a matrix with integer or Fraction entries, by exact elimination.

    Each row is scaled by the lcm of its denominators, which leaves the
    rank unchanged, and the integer matrix goes through the same
    fraction-free elimination as rank_polymatrix.
    """
    scaled = []
    for row in rows:
        row = [Fraction(v) for v in row]
        den = lcm(*(v.denominator for v in row))
        scaled.append([v.numerator * (den // v.denominator) for v in row])
    return _integer_rank(scaled)


def rank_by_evaluation(matrix: PolyMatrix, point: int) -> int:
    """Rank of the matrix after substituting an integer for X.

    Always at most the rank over Q(X), with equality at every point that
    is no root of a nonzero minor; rank_polymatrix evaluates at a point
    certified to be one, and tests compare it against random points.
    """
    return rational_matrix_rank(matrix.evaluate(point))


# --- text formats ---------------------------------------------------------

_INDEXED = re.compile(r"x(\d+)")


def _tokenize_side(side: str, lineno: int) -> list[str]:
    side = side.strip()
    if not side or side == "eps":
        return []
    if any(ch.isspace() for ch in side):
        return side.split()
    if re.fullmatch(r"(?:x\d+)+", side):
        return ["x" + i for i in _INDEXED.findall(side)]
    if side.isalpha():
        return list(side)
    raise InputFormatError(f"line {lineno}: cannot tokenize side {side!r}")


def parse_system(text: str):
    """Parse a system, one equation per line, with an optional name header.

    Returns (equations, names).  Unknowns are either indexed tokens
    x1..xn or single letters declared by a leading "unknowns: x y z"
    line; compact sides like "xyz" split into letters.
    """
    names: list[str] | None = None
    raw_eqs: list[tuple[int, list[str], list[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("unknowns:"):
            if raw_eqs:
                raise InputFormatError(f"line {lineno}: unknown declaration after equations")
            names = line[len("unknowns:") :].split()
            if not names:
                raise InputFormatError(f"line {lineno}: empty unknown declaration")
            continue
        if "=" not in line:
            raise InputFormatError(f"line {lineno}: missing '=' in equation {raw!r}")
        left, right = line.split("=", 1)
        raw_eqs.append((lineno, _tokenize_side(left, lineno), _tokenize_side(right, lineno)))
    if not raw_eqs:
        raise InputFormatError("no equations found")
    all_tokens = [t for _, l, r in raw_eqs for t in l + r]
    if names is None:
        if all(re.fullmatch(r"x\d+", t) for t in all_tokens):
            indices = [int(t[1:]) for t in all_tokens]
            if indices and min(indices) < 1:
                raise InputFormatError("unknown indices start at 1")
            names = default_names(max(indices) if indices else 1)
        else:
            letters = sorted({t for t in all_tokens})
            if any(len(t) != 1 for t in letters):
                raise InputFormatError(
                    "mixed unknown styles; declare names with an 'unknowns:' line"
                )
            names = letters
    n = len(names)
    lines = text.splitlines()
    equations = []
    for lineno, left, right in raw_eqs:
        raw = lines[lineno - 1]

        def resolve(token):
            try:
                return resolve_unknown(token, names)
            except InputFormatError as exc:
                col = raw.find(token) + 1
                raise InputFormatError(f"line {lineno}, column {col}: {exc}") from None

        lhs = tuple(resolve(t) for t in left)
        rhs = tuple(resolve(t) for t in right)
        if max(lhs + rhs, default=1) > n:
            raise InputFormatError(f"line {lineno}: unknown index exceeds declared count")
        equations.append(Equation(lhs, rhs, n))
    return equations, names


def parse_equation(text: str):
    """Parse a single equation; returns (equation, names)."""
    eqs, names = parse_system(text)
    if len(eqs) != 1:
        raise InputFormatError(f"expected one equation, found {len(eqs)}")
    return eqs[0], names
