"""Elementary transformations and the factorization of solutions.

Every solution of an equation factors as theta composed with a chain of
elementary transformations applied after an erasing map: the erasing map
drops the unknowns with empty images and the chain is produced by a
left-to-right cancellation procedure.  The chapter also provides the two
matrices describing how composition acts on length types and on encoded
images.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import InputFormatError, TheoremCheckError
from .equations import Equation, PolyMatrix, rank_polymatrix, rational_matrix_rank
from .polynomials import IntPolynomial, encode_poly
from .words import LengthType, Morphism, Word, default_names, parse_word

Endomorphism = tuple[tuple[int, ...], ...]


def endo_identity(n: int) -> Endomorphism:
    return tuple((i,) for i in range(1, n + 1))


def endo_apply(endo: Endomorphism, unknowns) -> tuple[int, ...]:
    out: list[int] = []
    for x in unknowns:
        out.extend(endo[x - 1])
    return tuple(out)


def endo_compose(outer: Endomorphism, inner: Endomorphism) -> Endomorphism:
    """Composition acting as outer(inner(x))."""
    return tuple(endo_apply(outer, img) for img in inner)


def morphism_after_endo(g: Morphism, endo: Endomorphism) -> Morphism:
    """The morphism x -> g(endo(x))."""
    return Morphism(g.apply(img) for img in endo)


@dataclass(frozen=True)
class ElementaryTransformation:
    """Rewrites one unknown as xy (regular) or as x (singular), fixing the rest."""

    target: int
    source: int
    regular: bool

    def __post_init__(self):
        if self.target == self.source:
            raise ValueError("target and source unknowns must differ")
        if self.target < 1 or self.source < 1:
            raise ValueError("unknown indices start at 1")

    @property
    def kind(self) -> str:
        return "regular" if self.regular else "singular"

    def as_endo(self, n: int) -> Endomorphism:
        if self.target > n or self.source > n:
            raise ValueError("unknown index out of range")
        images = list(endo_identity(n))
        if self.regular:
            images[self.target - 1] = (self.source, self.target)
        else:
            images[self.target - 1] = (self.source,)
        return tuple(images)

    def to_text(self, names: list[str] | None = None) -> str:
        names = names or default_names(max(self.target, self.source))
        t, s = names[self.target - 1], names[self.source - 1]
        if self.regular:
            return f"regular {t}<-{s} {t}"
        return f"singular {t}<-{s}"


@dataclass(frozen=True)
class SolutionFactorization:
    """A solution decomposed into erasures, elementary steps and a final map.

    Applying the erasure first, then the steps in order, then theta
    reproduces the original solution exactly; the steps applied to the
    erased equation already solve it over the unknowns.
    """

    n: int
    erased: tuple[int, ...]
    steps: tuple[ElementaryTransformation, ...]
    theta: Morphism

    @property
    def s(self) -> int:
        return len(self.erased)

    @property
    def t(self) -> int:
        return sum(1 for st in self.steps if not st.regular)

    @property
    def rank_bound(self) -> int:
        return self.n - self.s - self.t

    def alpha_endo(self) -> Endomorphism:
        erased = set(self.erased)
        return tuple((() if i in erased else (i,)) for i in range(1, self.n + 1))

    def intermediate(self) -> Endomorphism:
        """The composite of the steps after the erasure, as an endomorphism."""
        f = self.alpha_endo()
        for step in self.steps:
            f = endo_compose(step.as_endo(self.n), f)
        return f

    def recompose(self) -> Morphism:
        return morphism_after_endo(self.theta, self.intermediate())

    def to_text(self, names: list[str] | None = None) -> str:
        names = names or default_names(self.n)
        parts = [f"erase {names[i - 1]}" for i in self.erased]
        parts.extend(step.to_text(names) for step in self.steps)
        theta = ", ".join(
            f"{names[i]} = {self.theta[i].to_text()}" for i in range(self.n)
        )
        parts.append(f"theta: {theta}")
        return "; ".join(parts)


def factorize_solution(eq: Equation, h: Morphism) -> SolutionFactorization:
    """Decompose a solution by left-to-right cancellation.

    The procedure erases the unknowns with empty images, then repeatedly
    compares the leading unknowns of the two sides: equal images give a
    singular step (the higher index is rewritten to the lower), otherwise
    a regular step peels the shorter image off the longer one.  Unknowns
    left unconstrained get the single letter 1 in theta.
    """
    if h.n != eq.n:
        raise ValueError("morphism and equation disagree on the unknown count")
    if not eq.solved_by(h):
        raise ValueError("the morphism does not solve the equation")
    n = eq.n
    erased = tuple(i for i in range(1, n + 1) if not h[i - 1])
    gone = set(erased)
    images = {i: h[i - 1] for i in range(1, n + 1) if i not in gone}
    u = tuple(x for x in eq.lhs if x not in gone)
    v = tuple(x for x in eq.rhs if x not in gone)
    steps: list[ElementaryTransformation] = []
    fuel = 4 * (sum(len(w) for w in images.values()) + len(u) + len(v) + 1)
    while True:
        while u and v and u[0] == v[0]:
            u, v = u[1:], v[1:]
        if not u and not v:
            break
        if not u or not v:
            raise TheoremCheckError("one-sided residue while reducing a valid solution")
        fuel -= 1
        if fuel < 0:
            raise TheoremCheckError("reduction failed to terminate")
        x, y = u[0], v[0]
        gx, gy = images[x], images[y]
        if gx == gy:
            hi, lo = (x, y) if x > y else (y, x)
            steps.append(ElementaryTransformation(target=hi, source=lo, regular=False))
            u = tuple(lo if z == hi else z for z in u)
            v = tuple(lo if z == hi else z for z in v)
            del images[hi]
        else:
            if len(gx) > len(gy):
                longer, shorter = x, y
            else:
                longer, shorter = y, x
            lw, sw = images[longer], images[shorter]
            if lw[: len(sw)] != sw:
                raise TheoremCheckError("leading images fail to align in a valid solution")
            steps.append(ElementaryTransformation(target=longer, source=shorter, regular=True))
            images[longer] = lw[len(sw) :]

            def expand(word):
                out = []
                for z in word:
                    if z == longer:
                        out.append(shorter)
                    out.append(z)
                return tuple(out)

            u, v = expand(u), expand(v)
    theta = Morphism(Word(images.get(i, (1,))) for i in range(1, n + 1))
    fact = SolutionFactorization(n=n, erased=erased, steps=tuple(steps), theta=theta)
    if fact.recompose() != h:
        raise TheoremCheckError("factorization fails to recompose the solution")
    f = fact.intermediate()
    if endo_apply(f, eq.lhs) != endo_apply(f, eq.rhs):
        raise TheoremCheckError("reduced endomorphism is not a solution over the unknowns")
    return fact


@dataclass(frozen=True)
class AbelianMatrix:
    """Occurrence-count matrix of an endomorphism of the unknowns."""

    entries: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.entries)

    def apply(self, vector) -> tuple[int, ...]:
        vec = tuple(vector)
        return tuple(sum(a * b for a, b in zip(row, vec)) for row in self.entries)

    def rank(self) -> int:
        return rational_matrix_rank(self.entries)


def abelian_matrix(endo: Endomorphism) -> AbelianMatrix:
    """Entry (i, j) counts the occurrences of x_j in the image of x_i."""
    n = len(endo)
    return AbelianMatrix(
        tuple(tuple(endo[i].count(j) for j in range(1, n + 1)) for i in range(n))
    )


def position_matrix(endo: Endomorphism, lt: LengthType) -> PolyMatrix:
    """Entry (i, j) sums X^(prefix image length) over occurrences of x_j.

    The length type is that of the downstream letter morphism, so the
    matrix pushes encoded images through the endomorphism: encoding the
    composite equals the matrix times the vector of encodings.
    """
    n = len(endo)
    if len(lt) != n:
        raise ValueError("length type size does not match the unknown count")
    rows = []
    for i in range(n):
        cells: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        pos = 0
        for z in endo[i]:
            cells[z - 1].append((pos, 1))
            pos += lt[z - 1]
        rows.append(tuple(IntPolynomial(cell) for cell in cells))
    return PolyMatrix(tuple(rows))


def verify_composition_identities(endo: Endomorphism, g: Morphism) -> dict:
    """Check both composition identities exactly for one endomorphism.

    Length types: the length type of g after endo equals the abelian
    matrix times the length type of g.  Encodings: the encoded images of
    the composite equal the position matrix (at g's length type) times
    the encoded images of g.
    """
    if len(endo) != g.n:
        raise ValueError("endomorphism and morphism disagree on the unknown count")
    composite = morphism_after_endo(g, endo)
    a = abelian_matrix(endo)
    lt_expected = a.apply(g.length_type())
    lt_actual = composite.length_type()
    if lt_actual != lt_expected:
        raise TheoremCheckError("length-type identity failed", report={"endo": endo})
    b = position_matrix(endo, g.length_type())
    encoded = b.apply(tuple(encode_poly(w) for w in g))
    direct = tuple(encode_poly(w) for w in composite)
    if encoded != direct:
        raise TheoremCheckError("encoding identity failed", report={"endo": endo})
    return {
        "length_type": list(lt_actual),
        "abelian_rank": a.rank(),
        "position_rank": rank_polymatrix(b),
        "checks_passed": True,
    }


_STEP_RE = re.compile(r"^(regular|singular)\s+(\S+)<-(\S+?)(?:\s+(\S+))?$")


def parse_factorization(text: str, n: int, names: list[str] | None = None) -> SolutionFactorization:
    """Parse the script rendering produced by SolutionFactorization.to_text."""
    names = names or default_names(n)
    index = {name: i + 1 for i, name in enumerate(names)}
    erased: list[int] = []
    steps: list[ElementaryTransformation] = []
    theta: Morphism | None = None
    for part in (p.strip() for p in text.split(";")):
        if not part:
            continue
        if part.startswith("erase "):
            name = part[len("erase ") :].strip()
            if name not in index:
                raise InputFormatError(f"unknown name {name!r} in erase clause")
            erased.append(index[name])
        elif part.startswith("theta:"):
            entries = {}
            for item in part[len("theta:") :].split(","):
                left, _, right = item.partition("=")
                name = left.strip()
                if name not in index:
                    raise InputFormatError(f"unknown name {name!r} in theta clause")
                entries[index[name]] = parse_word(right.strip())
            if sorted(entries) != list(range(1, n + 1)):
                raise InputFormatError("theta must define every unknown")
            theta = Morphism(entries[i] for i in range(1, n + 1))
        else:
            m = _STEP_RE.match(part)
            if not m:
                raise InputFormatError(f"cannot parse factorization step {part!r}")
            kind, target, source, trailer = m.groups()
            if target not in index or source not in index:
                raise InputFormatError(f"unknown name in step {part!r}")
            regular = kind == "regular"
            if regular and trailer != target:
                raise InputFormatError(f"malformed regular step {part!r}")
            steps.append(
                ElementaryTransformation(index[target], index[source], regular=regular)
            )
    if theta is None:
        raise InputFormatError("factorization script lacks a theta clause")
    return SolutionFactorization(n=n, erased=tuple(sorted(erased)), steps=tuple(steps), theta=theta)
