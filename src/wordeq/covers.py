"""Hyperplane covers for length types of high-rank solutions of pairs.

A nonzero 2x2 minor of the symbolic coefficient matrix of two equations
vanishes at every length type of a maximal-rank common solution.  Tracking
which exponent forms can realize the minimal power on each side of the
minor produces a small list of candidate equalities between linear forms,
and the corresponding integer hyperplanes cover all such length types.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import gcd

from .equations import Equation
from .errors import TheoremCheckError
from .genpoly import GenPoly, LinForm, minor_t, occurrence_forms
from .oracle import EnumerationBudget, enumerate_solutions, rank_annotate
from .words import Morphism, combinatorial_rank, commute_check


def _normalized_normal(normal: tuple[int, ...]) -> tuple[int, ...]:
    g = 0
    for v in normal:
        g = gcd(g, v)
    if g > 1:
        normal = tuple(v // g for v in normal)
    for v in normal:
        if v > 0:
            return normal
        if v < 0:
            return tuple(-w for w in normal)
    return normal


@dataclass(frozen=True, eq=False)
class Hyperplane:
    """Integer hyperplane given as an equality of two linear forms."""

    p: LinForm
    q: LinForm
    normal: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        if self.p.n != self.q.n:
            raise ValueError("forms live over different unknown counts")
        normal = tuple(a - b for a, b in zip(self.p, self.q))
        if not any(normal):
            raise ValueError("the two forms are equal; no hyperplane")
        object.__setattr__(self, "normal", normal)

    def normalized_normal(self) -> tuple[int, ...]:
        return _normalized_normal(self.normal)

    def contains(self, point) -> bool:
        values = tuple(point)
        if len(values) != len(self.normal):
            raise ValueError("point has the wrong dimension")
        return sum(a * v for a, v in zip(self.normal, values)) == 0

    def relation_text(self) -> str:
        """Reduced rendering, positive part left: "X1+2X2 = 2X3"."""
        norm = self.normalized_normal()
        left = LinForm(v if v > 0 else 0 for v in norm)
        right = LinForm(-v if v < 0 else 0 for v in norm)
        return f"{left.to_text()} = {right.to_text()}"

    def __eq__(self, other):
        return isinstance(other, Hyperplane) and self.normalized_normal() == other.normalized_normal()

    def __hash__(self):
        return hash(self.normalized_normal())

    def __str__(self):
        return self.relation_text()


@dataclass(frozen=True)
class HyperplaneCover:
    """Finite hyperplane family covering the relevant solution length types."""

    planes: tuple[Hyperplane, ...]
    bound: int
    k: int
    l: int
    minor_terms_before: int
    minor_terms_after: int
    full_pairing: bool = False

    def covers(self, point) -> bool:
        return any(plane.contains(point) for plane in self.planes)

    def to_report(self) -> dict:
        return {
            "k": self.k,
            "l": self.l,
            "bound": self.bound,
            "plane_count": len(self.planes),
            "planes": [
                {
                    "normal": list(pl.normalized_normal()),
                    "relation": pl.relation_text(),
                    "p": pl.p.to_text(),
                    "q": pl.q.to_text(),
                }
                for pl in self.planes
            ],
            "minor_terms_before": self.minor_terms_before,
            "minor_terms_after": self.minor_terms_after,
            "full_pairing": self.full_pairing,
        }


class CoverError(ValueError):
    """The two equations cannot be separated by any symbolic 2x2 minor."""


def _retained_minimal(families, minor: GenPoly, positive: bool) -> list[LinForm]:
    """Per-family minimal survivors of cancellation.

    Each family pairs one occurrence chain against another; for a fixed
    element of the first chain the earliest partner whose combined form
    survives in the minor dominates every later surviving partner, so it
    is the only one that can realize the minimum.
    """
    retained: list[LinForm] = []
    for first, second in families:
        for f in first:
            for g in second:
                form = f + g
                c = minor.coeff(form)
                if (c > 0) if positive else (c < 0):
                    if form not in retained:
                        retained.append(form)
                    break
    # componentwise-dominated forms can never be the unique minimum
    pruned = [
        f
        for f in retained
        if not any(g is not f and g.le(f) for g in retained)
    ]
    return pruned


def _occurrence_bound(eq: Equation, k: int, l: int) -> int:
    """Squared occurrence count of the unknowns k and l in one equation."""
    return (eq.count(k) + eq.count(l)) ** 2


def _candidate_pairs(eq1: Equation, eq2: Equation):
    n = eq1.n
    pairs = []
    for k in range(1, n + 1):
        for l in range(k + 1, n + 1):
            t = minor_t(eq1, eq2, k, l)
            if t.is_zero:
                continue
            bound = _occurrence_bound(eq1, k, l)
            unit = all(abs(c) == 1 for _, c in t.terms())
            pairs.append((bound, 0 if unit else 1, k, l, t))
    return pairs


def cover_pair(
    eq1: Equation,
    eq2: Equation,
    kl: tuple[int, int] | None = None,
    full_pairing: bool = False,
) -> HyperplaneCover:
    """Hyperplane cover for the length types of maximal-rank common solutions.

    Chooses the unknown pair with a nonzero minor that minimizes the
    squared occurrence bound, preferring minors whose surviving terms all
    have unit coefficients (they split cleanly into one power per term),
    with lexicographic ties.  An explicit kl overrides the choice.  The
    full-pairing variant pairs every surviving positive form with every
    surviving negative form and serves as a trivially sound cross-check.
    """
    if eq1.n != eq2.n:
        raise ValueError("equations disagree on the number of unknowns")
    if eq1.is_trivial or eq2.is_trivial:
        raise ValueError("cover construction needs nontrivial equations")
    n = eq1.n
    if kl is not None:
        k, l = kl
        t = minor_t(eq1, eq2, k, l)
        if t.is_zero:
            raise CoverError("equations indistinguishable by minors at the requested pair")
    else:
        pairs = _candidate_pairs(eq1, eq2)
        if not pairs:
            raise CoverError("equations indistinguishable by minors")
        _, _, k, l, t = min(pairs, key=lambda item: item[:4])
    bound = _occurrence_bound(eq1, k, l)
    a = occurrence_forms(eq1.lhs, k, n)
    a2 = occurrence_forms(eq1.rhs, k, n)
    c = occurrence_forms(eq1.lhs, l, n)
    c2 = occurrence_forms(eq1.rhs, l, n)
    b = occurrence_forms(eq2.lhs, l, n)
    b2 = occurrence_forms(eq2.rhs, l, n)
    d = occurrence_forms(eq2.lhs, k, n)
    d2 = occurrence_forms(eq2.rhs, k, n)
    terms_before = (len(a) + len(a2)) * (len(b) + len(b2)) + (len(c) + len(c2)) * (
        len(d) + len(d2)
    )
    if full_pairing:
        pos = [f for f, cc in t.terms() if cc > 0]
        neg = [f for f, cc in t.terms() if cc < 0]
    else:
        pos_families = [(a, b), (a2, b2), (c, d2), (c2, d)]
        neg_families = [(a, b2), (a2, b), (c, d), (c2, d2)]
        pos = _retained_minimal(pos_families, t, positive=True)
        neg = _retained_minimal(neg_families, t, positive=False)
    # equal planes (same normalized normal) keep the first one built
    planes = list(dict.fromkeys(Hyperplane(p, q) for p in pos for q in neg))
    # only the minimal selection obeys the squared occurrence bound; the
    # full pairing is a sound superset that may exceed it
    if not full_pairing and len(planes) > bound:
        raise TheoremCheckError(
            f"{len(planes)} planes exceed the bound {bound}",
            report={"k": k, "l": l},
        )
    return HyperplaneCover(
        planes=tuple(planes),
        bound=bound,
        k=k,
        l=l,
        minor_terms_before=terms_before,
        minor_terms_after=t.term_count,
        full_pairing=full_pairing,
    )


def cover_soundness_check(eq1: Equation, eq2: Equation, cover: HyperplaneCover, solutions) -> dict:
    """Every supplied solution's length type must lie on some plane of the cover."""
    checked = 0
    for h in solutions:
        if not (eq1.solved_by(h) and eq2.solved_by(h)):
            raise ValueError("a supplied morphism does not solve the pair")
        lt = h.length_type()
        if not cover.covers(lt):
            raise TheoremCheckError(
                f"length type {lt} escapes the cover",
                report={"length_type": list(lt)},
            )
        checked += 1
    return {"solutions_checked": checked, "covered": True}


def balance_profile(eq: Equation) -> tuple[int, ...]:
    """Occurrence surplus of each unknown, left side minus right side.

    The zero vector means the equation is balanced; a nonzero vector is
    the normal of the one hyperplane containing every solution length
    type of the equation.
    """
    return tuple(eq.lhs.count(x) - eq.rhs.count(x) for x in range(1, eq.n + 1))


def balance_theorem_check(eq1: Equation, eq2: Equation, budget: EnumerationBudget) -> dict:
    """Unbalanced first equation: its maximal-rank solutions must solve the second.

    Enumerates solutions of the first equation within the budget, keeps
    the ones of rank n-1, and requires that each also solves the second
    equation, provided the pair has at least one common rank-(n-1)
    solution in the budget.  Reports a skip when not applicable.
    """
    n = eq1.n
    profile = balance_profile(eq1)
    if not any(profile):
        return {"applicable": False, "reason": "first equation is balanced"}
    sols = rank_annotate(enumerate_solutions([eq1], budget), n)
    top = sols.of_rank(n - 1)
    common = [h for h in top if eq2.solved_by(h)]
    if not common:
        return {
            "applicable": False,
            "reason": "no common maximal-rank solution within budget",
            "budget": budget.describe(),
        }
    for h in top:
        if not eq2.solved_by(h):
            raise TheoremCheckError(
                "a maximal-rank solution of the unbalanced equation escapes the pair",
                report={"images": [w.to_text() for w in h]},
            )
    return {
        "applicable": True,
        "budget": budget.describe(),
        "rank_filtered": len(top.solutions),
        "common": len(common),
        "inclusion_holds": True,
    }


def graph_components(system, n: int | None = None) -> int:
    """Components of the graph joining the two leading unknowns of each equation."""
    system = list(system)
    if system:
        n = system[0].n
    elif n is None:
        raise ValueError("an empty system needs an explicit unknown count")
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for eq in system:
        if not eq.lhs or not eq.rhs:
            raise ValueError("equations with an empty side have no leading unknowns")
        a, b = find(eq.lhs[0]), find(eq.rhs[0])
        if a != b:
            parent[a] = b
    return len({find(x) for x in range(1, n + 1)})


def graph_lemma_check(system, budget: EnumerationBudget) -> dict:
    """Nonerasing solutions can have rank at most the component count."""
    system = list(system)
    r = graph_components(system)
    n = system[0].n
    sols = enumerate_solutions(system, budget).nonerasing()
    worst = 0
    for h in sols:
        rank = combinatorial_rank(h, n)
        worst = max(worst, rank)
        if rank > r:
            raise TheoremCheckError(
                f"nonerasing solution of rank {rank} exceeds component count {r}",
                report={"images": [w.to_text() for w in h]},
            )
    return {
        "components": r,
        "nonerasing_solutions": len(sols.solutions),
        "max_rank_seen": worst,
        "bound_holds": True,
        "budget": budget.describe(),
    }


def _form_exponent(lhs, rhs):
    """Exponent k when the oriented pair looks like x1... = x2^k x3..., else None."""
    if not lhs or lhs[0] != 1 or not rhs or rhs[0] != 2:
        return None
    k = 0
    for z in rhs:
        if z == 2:
            k += 1
        else:
            return k if z == 3 else None
    return None


def pair_form_check(eq1: Equation, eq2: Equation, h: Morphism) -> dict:
    """Structural form of a pair with a maximal-rank pairwise-noncommuting solution.

    After renaming the unknowns (and possibly flipping sides of either
    equation) both equations must read x1... = x2^k x3... for one shared
    k >= 1.  Preconditions that fail make the check inapplicable rather
    than wrong.
    """
    n = eq1.n
    if eq1.is_trivial or eq2.is_trivial:
        return {"applicable": False, "reason": "a trivial equation"}
    if not (eq1.solved_by(h) and eq2.solved_by(h)):
        return {"applicable": False, "reason": "the morphism does not solve the pair"}
    if not all(h):
        return {"applicable": False, "reason": "an empty image commutes with everything"}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if commute_check(h.image(i), h.image(j)):
                return {"applicable": False, "reason": f"images of x{i} and x{j} commute"}
    if combinatorial_rank(h, n) != n - 1:
        return {"applicable": False, "reason": "solution rank is not n-1"}
    if n > 5:
        return {"applicable": False, "reason": "renaming search capped at 5 unknowns"}
    for perm in itertools.permutations(range(1, n + 1)):
        rename = {old: new for old, new in zip(range(1, n + 1), perm)}

        def renamed(side):
            return tuple(rename[z] for z in side)

        options1 = [(renamed(eq1.lhs), renamed(eq1.rhs))]
        options1.append((options1[0][1], options1[0][0]))
        options2 = [(renamed(eq2.lhs), renamed(eq2.rhs))]
        options2.append((options2[0][1], options2[0][0]))
        for s1 in options1:
            k1 = _form_exponent(*s1)
            if k1 is None or k1 < 1:
                continue
            for s2 in options2:
                k2 = _form_exponent(*s2)
                if k2 == k1:
                    return {
                        "applicable": True,
                        "k": k1,
                        "renaming": list(perm),
                        "form": "x1... = x2^k x3...",
                    }
    raise TheoremCheckError(
        "no renaming puts the pair into the guaranteed shape",
        report={"eq1": eq1.to_text(), "eq2": eq2.to_text()},
    )


def chain_bound(eq1: Equation, k: int, l: int, cover: HyperplaneCover | None = None) -> int:
    """Longest strictly descending chain starting from this equation.

    With a cover of the first pair the bound is the plane count plus one;
    otherwise it is the squared occurrence bound plus one.
    """
    if cover is not None:
        return len(cover.planes) + 1
    return _occurrence_bound(eq1, k, l) + 1


def chain_bound_corollary(eq1: Equation, k: int, l: int) -> int:
    """Chain variant of the three-unknown bound; four more than the base bound."""
    return _occurrence_bound(eq1, k, l) + 5


def chain_check(equations, budget: EnumerationBudget) -> dict:
    """Verify strict descent of maximal-rank solution sets along prefixes.

    Reports the realized chain length within the budget and, when the
    last strictly smaller set is nonempty, checks it against the bound
    derived from the first pair's cover.
    """
    equations = list(equations)
    if not equations:
        raise ValueError("empty chain")
    n = equations[0].n
    for eq in equations:
        if eq.is_trivial:
            raise ValueError("chains are made of nontrivial equations")
    base = rank_annotate(enumerate_solutions([equations[0]], budget), n)
    current = base.of_rank(n - 1)
    sets = [set(current)]
    strict = []
    for eq in equations[1:]:
        kept = {h for h in sets[-1] if eq.solved_by(h)}
        strict.append(kept < sets[-1])
        sets.append(kept)
    realized = 1
    for flag in strict:
        if flag:
            realized += 1
        else:
            break
    report = {
        "prefix_set_sizes": [len(s) for s in sets],
        "strict_descent": strict,
        "realized_chain_length": realized,
        "budget": budget.describe(),
    }
    if realized >= 2 and sets[realized - 1]:
        try:
            cover = cover_pair(equations[0], equations[1])
        except CoverError:
            report["bound_checked"] = False
            return report
        limit = chain_bound(equations[0], cover.k, cover.l)
        cover_limit = chain_bound(equations[0], cover.k, cover.l, cover=cover)
        report["bound"] = limit
        report["cover_bound"] = cover_limit
        report["bound_pair"] = [cover.k, cover.l]
        report["bound_checked"] = True
        if realized > limit or realized > cover_limit:
            raise TheoremCheckError(
                f"realized chain length {realized} exceeds the bound",
                report=report,
            )
    else:
        report["bound_checked"] = False
    return report

