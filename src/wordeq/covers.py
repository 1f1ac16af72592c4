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

from .equations import Equation, balance_profile, unknown_count
from .errors import TheoremCheckError
from .genpoly import GenPoly, LinForm, minor_t, occurrence_forms, s_polynomial
from .oracle import EnumerationBudget, balanced_length_types, budget_candidates
from .oracle import enumerate_solutions, length_type_record, merge_classes
from .words import Morphism, Word, combinatorial_rank, commute_check


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
    _normalized: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self):
        if self.p.n != self.q.n:
            raise ValueError("forms live over different unknown counts")
        normal = tuple(a - b for a, b in zip(self.p, self.q))
        if not any(normal):
            raise ValueError("the two forms are equal; no hyperplane")
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "_normalized", _normalized_normal(normal))

    def normalized_normal(self) -> tuple[int, ...]:
        return self._normalized

    def contains(self, point) -> bool:
        values = tuple(point)
        if len(values) != len(self.normal):
            raise ValueError("point has the wrong dimension")
        return sum(a * v for a, v in zip(self.normal, values)) == 0

    def relation_text(self) -> str:
        """Reduced rendering, positive part left: "X1+2X2 = 2X3"."""
        norm = self._normalized
        left = LinForm._trusted(v if v > 0 else 0 for v in norm)
        right = LinForm._trusted(-v if v < 0 else 0 for v in norm)
        return f"{left.to_text()} = {right.to_text()}"

    def __eq__(self, other):
        return isinstance(other, Hyperplane) and self._normalized == other._normalized

    def __hash__(self):
        return hash(self._normalized)

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


def _chosen_pair(eq1: Equation, eq2: Equation) -> tuple[int, int, GenPoly]:
    """The pair (k, l) with a nonzero minor least by (bound, not unit, k, l), and its minor."""
    unknowns = range(1, eq1.n + 1)
    s1 = [s_polynomial(eq1, x) for x in unknowns]
    s2 = [s_polynomial(eq2, x) for x in unknowns]
    pairs = itertools.combinations(unknowns, 2)
    walk = sorted((_occurrence_bound(eq1, k, l), k, l) for k, l in pairs)
    best = None
    for bound, k, l in walk:
        if best is not None and bound > best[0]:
            break
        t = s1[k - 1] * s2[l - 1] - s1[l - 1] * s2[k - 1]
        if t.is_zero:
            continue
        if all(abs(c) == 1 for c in t.coefficients()):
            return k, l, t
        if best is None:
            best = (bound, k, l, t)
    if best is None:
        raise CoverError("equations indistinguishable by minors")
    return best[1:]


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
    with lexicographic ties.  The bound depends on eq1 alone, so the pairs
    are walked by (bound, k, l) and minors are formed, from s-polynomials
    built once per unknown, only within the least bound group that has a
    nonzero one, up to its first unit minor.  An explicit kl overrides
    the choice.  The full-pairing variant pairs every surviving positive
    form with every surviving negative form and serves as a trivially
    sound cross-check.
    """
    n = unknown_count((eq1, eq2))
    if eq1.is_trivial or eq2.is_trivial:
        raise ValueError("cover construction needs nontrivial equations")
    if kl is not None:
        k, l = kl
        t = minor_t(eq1, eq2, k, l)
        if t.is_zero:
            raise CoverError("equations indistinguishable by minors at the requested pair")
    else:
        k, l, t = _chosen_pair(eq1, eq2)
    bound = _occurrence_bound(eq1, k, l)
    a = occurrence_forms(eq1.lhs, k, n)
    a2 = occurrence_forms(eq1.rhs, k, n)
    c = occurrence_forms(eq1.lhs, l, n)
    c2 = occurrence_forms(eq1.rhs, l, n)
    b = occurrence_forms(eq2.lhs, l, n)
    b2 = occurrence_forms(eq2.rhs, l, n)
    d = occurrence_forms(eq2.lhs, k, n)
    d2 = occurrence_forms(eq2.rhs, k, n)
    terms_before = eq1.count(k) * eq2.count(l) + eq1.count(l) * eq2.count(k)
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


def _top_rank_prefix_counts(equations, budget: EnumerationBudget) -> list[int]:
    """How many rank-(n-1) solutions within the budget solve the first 1, 2, ... equations.

    At each length type the solutions of a prefix are the class
    assignments of the prefix's own record, and only types whose generic
    rank r is n - 1 count (``oracle.LengthTypeRecord.top_rank_count``).
    One more equation only joins classes, so r never rises along the
    prefixes, and the walk at a type stops at the first prefix whose
    record is None or whose r drops.  A budget past MAX_CANDIDATES is
    refused before any work.
    """
    first = equations[0]
    budget_candidates(first.n, budget)
    top = first.n - 1
    sizes = [0] * len(equations)
    for lt in balanced_length_types((first,), first.n, budget.max_total_length):
        for j in range(len(equations)):
            record = length_type_record(equations[:j + 1], lt)
            # no solution here has a rank above r, and r <= n - 1 since the first
            # equation is nontrivial (defect theorem)
            if record is None or record.generic_rank != top:
                break
            sizes[j] += record.top_rank_count(budget.alphabet)
    return sizes


def _first_escape(eq1: Equation, eq2: Equation, budget: EnumerationBudget) -> Morphism | None:
    """eq1's first rank-(n-1) solution in the budget, by length type and then images, failing eq2."""
    top = eq1.n - 1
    for lt in balanced_length_types((eq1,), eq1.n, budget.max_total_length):
        record = length_type_record((eq1,), lt)
        if record.generic_rank != top:
            continue
        rank = record.solution_rank
        for a in itertools.product(budget.alphabet, repeat=record.count):
            if rank(a) == top and not eq2.solved_by(h := record.images(a)):
                return h
    return None


def balance_theorem_check(eq1: Equation, eq2: Equation, budget: EnumerationBudget) -> dict:
    """Unbalanced first equation: its maximal-rank solutions must solve the second.

    Counts the rank-(n-1) solutions of the first equation within the
    budget and requires that each also solves the second equation,
    provided the pair has at least one common rank-(n-1) solution in the
    budget.  Reports a skip when not applicable.
    """
    unknown_count((eq1, eq2))
    if not any(balance_profile(eq1)):
        return {"applicable": False, "reason": "first equation is balanced"}
    top, common = _top_rank_prefix_counts((eq1, eq2), budget)
    if not common:
        return {
            "applicable": False,
            "reason": "no common maximal-rank solution within budget",
            "budget": budget.describe(),
        }
    # every common solution is one of eq1's, so the counts differ exactly when one escapes
    if top > common:
        escape = _first_escape(eq1, eq2, budget)
        raise TheoremCheckError(
            "a maximal-rank solution of the unbalanced equation escapes the pair",
            report={"images": [w.to_text() for w in escape]},
        )
    return {
        "applicable": True,
        "budget": budget.describe(),
        "rank_filtered": top,
        "common": common,
        "inclusion_holds": True,
    }


def graph_components(system, n: int | None = None) -> int:
    """Components of the graph joining the two leading unknowns of each equation."""
    system = list(system)
    if system:
        n = unknown_count(system)
    elif n is None:
        raise ValueError("an empty system needs an explicit unknown count")
    if not all(eq.lhs and eq.rhs for eq in system):
        raise ValueError("equations with an empty side have no leading unknowns")
    return len(set(merge_classes(n, [(eq.lhs[0] - 1, eq.rhs[0] - 1) for eq in system])))


def graph_lemma_check(system, budget: EnumerationBudget) -> dict:
    """Nonerasing solutions can have rank at most the component count."""
    system = list(system)
    r = graph_components(system)
    sols = enumerate_solutions(system, budget).nonerasing()
    worst = 0
    for h, rank in zip(sols, sols.ranks):
        worst = max(worst, rank)
        if rank > r:
            raise TheoremCheckError(
                f"nonerasing solution of rank {rank} exceeds component count {r}",
                report={"images": [w.to_text() for w in h]},
            )
    return {
        "components": r,
        "nonerasing_solutions": len(sols),
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
    if combinatorial_rank(h) != n - 1:
        return {"applicable": False, "reason": "solution rank is not n-1"}
    if n > 5:
        return {"applicable": False, "reason": "renaming search capped at 5 unknowns"}
    for perm in itertools.permutations(range(1, n + 1)):
        rename = Morphism(Word((new,)) for new in perm)
        l1, r1 = rename.apply(eq1.lhs), rename.apply(eq1.rhs)
        l2, r2 = rename.apply(eq2.lhs), rename.apply(eq2.rhs)
        options1 = [(l1, r1), (r1, l1)]
        options2 = [(l2, r2), (r2, l2)]
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
    unknown_count(equations)
    for eq in equations:
        if eq.is_trivial:
            raise ValueError("chains are made of nontrivial equations")
    sizes = _top_rank_prefix_counts(equations, budget)
    # each prefix's set holds the next one, so descent is strict exactly when the count drops
    strict = [after < before for before, after in zip(sizes, sizes[1:])]
    realized = 1
    for flag in strict:
        if flag:
            realized += 1
        else:
            break
    report = {
        "prefix_set_sizes": sizes,
        "strict_descent": strict,
        "realized_chain_length": realized,
        "budget": budget.describe(),
    }
    if realized >= 2 and sizes[realized - 1]:
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

