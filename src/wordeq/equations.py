"""Word equations, their coefficient polynomials and exact matrix rank.

Fixing a length type turns a word equation into a linear equation over
the field of rational functions: each unknown gets a coefficient
polynomial built from its occurrence positions.  The rank of the
resulting coefficient matrix over that field is computed exactly at
integer points: the rank at a point never exceeds it, so a full rank at
X = 2 is exact, and otherwise a bound H on the coefficients of every minor
makes X = H + 2 a non-root of each nonzero minor (Cauchy's root bound).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import InputFormatError
from .polynomials import IntPolynomial, encode_poly
from .words import (
    MAX_UNKNOWNS,
    LengthType,
    Morphism,
    Word,
    default_names,
    resolve_unknown,
)


@dataclass(frozen=True)
class Equation:
    """A pair of words over the unknowns x_1..x_n, compared as lhs = rhs."""

    lhs: Word
    rhs: Word
    n: int

    def __post_init__(self):
        # a Word side's letters are checked already; any other side is checked here
        if not isinstance(self.lhs, Word):
            object.__setattr__(self, "lhs", Word(self.lhs))
        if not isinstance(self.rhs, Word):
            object.__setattr__(self, "rhs", Word(self.rhs))
        if self.n < 1:
            raise ValueError("an equation needs at least one unknown")
        for x in (*self.lhs, *self.rhs):
            if x > self.n:
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


def balance_profile(eq: Equation) -> tuple[int, ...]:
    """Occurrence surplus of each unknown, left side minus right side.

    The zero vector means the equation is balanced; a nonzero vector is
    the normal of the one hyperplane containing every solution length
    type of the equation.
    """
    return tuple(eq.lhs.count(x) - eq.rhs.count(x) for x in range(1, eq.n + 1))


def position_row(signed_sides, lt: LengthType) -> tuple[IntPolynomial, ...]:
    """One polynomial per unknown from a walk along signed words over the unknowns.

    Each occurrence of x_j contributes sign * X^(image length of the
    strict prefix of its word) to entry j.
    """
    cells: list[list[tuple[int, int]]] = [[] for _ in lt]
    for side, sign in signed_sides:
        pos = 0
        for y in side:
            cells[y - 1].append((pos, sign))
            pos += lt[y - 1]
    # positions are nonnegative integers by construction, so no term needs checking
    return tuple(IntPolynomial._new(1, IntPolynomial._collect(cell)) for cell in cells)


def coefficient_row(eq: Equation, lt: LengthType) -> tuple[IntPolynomial, ...]:
    """Positional coefficient of every unknown at a fixed length type.

    The coefficient of x is the sum of X^(image length of the strict
    prefix) over its occurrences on the left side, minus the same sum
    over the right side.
    """
    if len(lt) != eq.n:
        raise ValueError("length type size does not match the unknown count")
    return position_row(((eq.lhs, 1), (eq.rhs, -1)), lt)


def q_polynomial(eq: Equation, x: int, lt: LengthType) -> IntPolynomial:
    """Positional coefficient of one unknown at a fixed length type."""
    if not 1 <= x <= eq.n:
        raise ValueError(f"unknown index {x!r} out of range 1..{eq.n}")
    return coefficient_row(eq, lt)[x - 1]


def residual(eq: Equation, h: Morphism) -> IntPolynomial:
    """Coefficient-weighted sum of the encoded images; zero iff h solves eq."""
    total = IntPolynomial()
    for q, w in zip(coefficient_row(eq, h.length_type()), h):
        if not q.is_zero:
            total = total + q * encode_poly(w)
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


def unknown_count(system) -> int:
    """The number of unknowns shared by every equation of a nonempty system."""
    n = system[0].n
    if any(eq.n != n for eq in system):
        raise ValueError("equations disagree on the number of unknowns")
    return n


def coefficient_matrix(system, lt: LengthType) -> PolyMatrix:
    """Row per equation, column per unknown, of positional coefficients."""
    system = list(system)
    if not system:
        raise ValueError("empty system")
    unknown_count(system)
    return PolyMatrix(tuple(coefficient_row(eq, lt) for eq in system))


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

    A minor nonzero at a point is a nonzero polynomial, so the rank at any
    point is at most the rank over Q(X), itself at most min(rows, cols):
    that rank at X = 2, the common case, is exact.  Otherwise let H be the
    product over rows of max(1, the row's total absolute coefficient sum).
    Every minor's coefficients sum in absolute value to at most H, so by
    Cauchy's root bound no nonzero minor vanishes at X = H + 2, and the
    rank over Q(X) is the integer rank there.
    """
    rank = _integer_rank(matrix.evaluate(2))
    if rank == min(matrix.rows, matrix.cols):
        return rank
    bound = 1
    for row in matrix.entries:
        bound *= max(1, sum(abs(c) for p in row for c in p.coefficients()))
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


# --- text formats ---------------------------------------------------------

_INDEXED = re.compile(r"x[0-9]+")


def _tokenize_side(side: str, lineno: int) -> list[str]:
    side = side.strip()
    if not side or side == "eps":
        return []
    if any(ch.isspace() for ch in side):
        return side.split()
    if re.fullmatch(r"(?:x[0-9]+)+", side):
        return _INDEXED.findall(side)
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
            if names is not None:
                raise InputFormatError(f"line {lineno}: second unknown declaration")
            names = line[len("unknowns:") :].split()
            if not names:
                raise InputFormatError(f"line {lineno}: empty unknown declaration")
            if len(names) > MAX_UNKNOWNS:
                raise InputFormatError(f"line {lineno}: more than {MAX_UNKNOWNS} unknowns declared")
            for i, name in enumerate(names):
                if name in names[:i]:
                    raise InputFormatError(f"line {lineno}: unknown {name!r} declared twice")
            if "eps" in names:
                # eps is the empty side, so it cannot also name an unknown
                raise InputFormatError(f"line {lineno}: 'eps' cannot name an unknown")
            continue
        if "=" not in line:
            raise InputFormatError(f"line {lineno}: missing '=' in equation {raw!r}")
        left, right = line.split("=", 1)
        raw_eqs.append((lineno, _tokenize_side(left, lineno), _tokenize_side(right, lineno)))
    if not raw_eqs:
        raise InputFormatError("no equations found")
    if names is None:
        letters = sorted({t for _, left, right in raw_eqs for t in left + right})
        if letters and all(len(t) == 1 for t in letters):
            names = letters
    index = {name: i for i, name in enumerate(names or (), start=1)}
    lines = text.splitlines()
    sides = []
    for lineno, left, right in raw_eqs:
        raw = lines[lineno - 1]

        def resolve(token):
            if token in index:
                return index[token]
            try:
                return resolve_unknown(token, names)
            except InputFormatError as exc:
                col = raw.find(token) + 1
                raise InputFormatError(f"line {lineno}, column {col}: {exc}") from None

        # resolved indices are at least 1, and the check below bounds them by n
        sides.append((lineno, Word._trusted(map(resolve, left)), Word._trusted(map(resolve, right))))
    # without declared or letter names the unknowns are x1 .. the largest index written
    n = len(names) if names else max(max((*lhs, *rhs), default=1) for _, lhs, rhs in sides)
    equations = []
    for lineno, lhs, rhs in sides:
        if max((*lhs, *rhs), default=1) > n:
            raise InputFormatError(f"line {lineno}: unknown index exceeds declared count")
        equations.append(Equation(lhs, rhs, n))
    return equations, names or default_names(n)
