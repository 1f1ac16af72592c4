"""Brute-force ground truth by exhaustive enumeration over small alphabets.

Enumeration walks length types first (all nonnegative vectors with a
bounded total), then every assignment of letters, so solution sets can be
sliced by length type without re-running.  All verdicts that depend on a
budget say so; the enumerator falsifies, it never proves anything beyond
its budget.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from .equations import Equation, coefficient_matrix, rank_polymatrix
from .errors import TheoremCheckError
from .words import (
    LengthType,
    Morphism,
    Word,
    combinatorial_rank,
    words_of_length,
)


@dataclass(frozen=True)
class EnumerationBudget:
    """Alphabet and total-image-length bound for one enumeration run."""

    alphabet: tuple[int, ...] = (1, 2)
    max_total_length: int = 10

    def __post_init__(self):
        letters = tuple(self.alphabet)
        # checked before deduplication, which would merge True into 1
        for a in letters:
            if not isinstance(a, int) or isinstance(a, bool) or a < 1:
                raise ValueError(f"alphabet letters must be positive integers, got {a!r}")
        letters = tuple(sorted(set(letters)))
        object.__setattr__(self, "alphabet", letters)
        if not letters:
            raise ValueError("the alphabet must not be empty")
        top = self.max_total_length
        if not isinstance(top, int) or isinstance(top, bool):
            raise ValueError(f"max_total_length must be an integer, got {top!r}")
        if top < 0:
            raise ValueError("max_total_length must be nonnegative")

    def describe(self) -> dict:
        return {"alphabet": list(self.alphabet), "max_total_length": self.max_total_length}


def compositions(n: int, total: int):
    """All vectors of n nonnegative integers with the given sum."""
    if n == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(n - 1, total - first):
            yield (first,) + rest


def length_types_up_to(n: int, max_total: int):
    for total in range(max_total + 1):
        yield from compositions(n, total)


@dataclass(frozen=True)
class SolutionSet:
    """Complete, sorted list of the solutions found within a budget."""

    system: tuple[Equation, ...]
    n: int
    budget: EnumerationBudget
    solutions: tuple[Morphism, ...]
    candidates_visited: int
    ranks: tuple[int, ...] | None = None

    def __len__(self):
        return len(self.solutions)

    def __iter__(self):
        return iter(self.solutions)

    def of_length_type(self, lt) -> "SolutionSet":
        wanted = tuple(lt)
        keep = [i for i, h in enumerate(self.solutions) if h.length_type() == wanted]
        return self._filtered(keep)

    def of_rank(self, r: int, cap: int | None = None) -> "SolutionSet":
        """Solutions of exact combinatorial rank r (annotating on demand)."""
        annotated = self if self.ranks is not None else rank_annotate(self, cap)
        keep = [i for i, rk in enumerate(annotated.ranks) if rk == r]
        return annotated._filtered(keep)

    def nonerasing(self) -> "SolutionSet":
        keep = [i for i, h in enumerate(self.solutions) if h.is_nonerasing]
        return self._filtered(keep)

    def _filtered(self, indices) -> "SolutionSet":
        return SolutionSet(
            system=self.system,
            n=self.n,
            budget=self.budget,
            solutions=tuple(self.solutions[i] for i in indices),
            candidates_visited=self.candidates_visited,
            ranks=tuple(self.ranks[i] for i in indices) if self.ranks is not None else None,
        )

    def entries(self) -> list[dict]:
        """One report entry per solution: its images, length type and rank."""
        texts = _Texts()
        ranks = self.ranks if self.ranks is not None else (None,) * len(self.solutions)
        return [
            {
                "images": [texts[w] for w in h],
                "length_type": [len(w) for w in h],
                "rank": rank,
            }
            for h, rank in zip(self.solutions, ranks)
        ]

    def to_json_lines(self) -> str:
        return "\n".join(json.dumps(entry) for entry in self.entries())


class _Texts(dict):
    """Word -> its text, rendered on first use."""

    def __missing__(self, w):
        text = self[w] = w.to_text()
        return text


class _WordPools(dict):
    """Image length -> every word of that length over one alphabet, built on first use.

    The alphabet is checked once, by Word's rule, so the pool words skip
    the per-word check.  Over a sorted alphabet each pool is in
    lexicographic order.
    """

    def __init__(self, alphabet):
        super().__init__()
        self.alphabet = Word(alphabet)

    def __missing__(self, k):
        pool = self[k] = [Word._trusted(w) for w in words_of_length(self.alphabet, k)]
        return pool


def solutions_of_length_type(system, lt, alphabet, pools=None):
    """Image tuples of one length type solving every equation, in enumeration order.

    Images are Words, one per unknown.  When some equation's two sides
    differ in length at this length type nothing is scanned.  ``pools``
    (a ``_WordPools`` over the same alphabet) may be shared between calls.
    """
    if pools is None:
        pools = _WordPools(alphabet)
    for eq in system:
        if sum(lt[x - 1] for x in eq.lhs) != sum(lt[x - 1] for x in eq.rhs):
            return
    # bound methods and for/else: all() over a generator is measurably slower here
    checks = [eq.solved_by for eq in system]
    for images in itertools.product(*[pools[k] for k in lt]):
        for solved in checks:
            if not solved(images):
                break
        else:
            yield images


def enumerate_solutions(system, budget: EnumerationBudget, n: int | None = None) -> SolutionSet:
    """All morphisms within the budget solving every equation of the system.

    An empty system needs an explicit unknown count and is solved by
    every morphism.  Every length type counts its full candidate set as
    visited, including the ones ruled out by side lengths without a scan.
    """
    system = tuple(system)
    if system:
        n = system[0].n
        if any(eq.n != n for eq in system):
            raise ValueError("equations disagree on the number of unknowns")
    elif n is None:
        raise ValueError("an empty system needs an explicit unknown count")
    found = {}
    visited = 0
    pools = _WordPools(budget.alphabet)
    size = len(budget.alphabet)
    for lt in length_types_up_to(n, budget.max_total_length):
        visited += size ** sum(lt)
        found[lt] = list(solutions_of_length_type(system, lt, budget.alphabet, pools))
    # the budget's alphabet is sorted, so each block is in image order and
    # ordering the blocks by length type sorts all solutions
    trusted = Morphism._trusted
    solutions = tuple(trusted(images) for lt in sorted(found) for images in found[lt])
    return SolutionSet(
        system=system, n=n, budget=budget, solutions=solutions, candidates_visited=visited
    )


def rank_annotate(solset: SolutionSet, cap: int | None = None) -> SolutionSet:
    """Attach exact combinatorial ranks (up to cap, default n) to a solution set."""
    cap = cap or solset.n
    ranks = tuple(combinatorial_rank(h, cap) for h in solset.solutions)
    return SolutionSet(
        system=solset.system,
        n=solset.n,
        budget=solset.budget,
        solutions=solset.solutions,
        candidates_visited=solset.candidates_visited,
        ranks=ranks,
    )


def _first_separating_morphism(subsystem, omitted: Equation, budget, n: int):
    """First morphism within budget solving the subsystem but not the omitted equation."""
    pools = _WordPools(budget.alphabet)
    for lt in length_types_up_to(n, budget.max_total_length):
        for images in solutions_of_length_type(subsystem, lt, budget.alphabet, pools):
            if not omitted.solved_by(images):
                return Morphism._trusted(images)
    return None


def independence_check(system, budget: EnumerationBudget) -> dict:
    """Probe whether the system is equivalent to a leave-one-out subsystem.

    The system is equivalent to a proper subsystem exactly when it is
    equivalent to one obtained by dropping a single equation, so only
    those are examined.  A witness solves the remaining equations but not
    the dropped one; verdicts are relative to the budget except for the
    syntactic certainties (dropping a duplicate or trivial equation).
    """
    system = list(system)
    if not system:
        raise ValueError("independence needs at least one equation")
    n = system[0].n
    entries = []
    provably_dependent = False
    all_witnessed = True
    for i, omitted in enumerate(system):
        rest = [eq for j, eq in enumerate(system) if j != i]
        entry: dict = {"omitted_index": i, "omitted": omitted.to_text()}
        if omitted.is_trivial or any(
            (eq.lhs, eq.rhs) in ((omitted.lhs, omitted.rhs), (omitted.rhs, omitted.lhs))
            for eq in rest
        ):
            entry["provably_redundant"] = True
            entry["witness"] = None
            provably_dependent = True
            all_witnessed = False
        else:
            entry["provably_redundant"] = False
            witness = _first_separating_morphism(rest, omitted, budget, n)
            entry["witness"] = (
                [w.to_text() for w in witness] if witness is not None else None
            )
            if witness is None:
                all_witnessed = False
        entries.append(entry)
    if provably_dependent:
        verdict = "dependent"
    elif all_witnessed:
        verdict = "independent within budget"
    else:
        verdict = "not separable within budget"
    return {"verdict": verdict, "budget": budget.describe(), "subsystems": entries}


def rank_theorem_check(system, lt: LengthType, solutions, alphabet=(1, 2)) -> dict:
    """Check the rank bound of the coefficient matrix against known solutions.

    For every supplied solution of combinatorial rank r the matrix rank
    must be at most n - r.  When the matrix rank is 1, at most one length
    is zero and all equations are nontrivial, all equations must have
    identical solution sets of this length type; that part is verified by
    exhausting the morphisms of the given length type over the alphabet.
    """
    system = list(system)
    if not system:
        raise ValueError("the rank theorem check needs at least one equation")
    lt = LengthType(lt)
    n = system[0].n
    matrix = coefficient_matrix(system, lt)
    matrix_rank = rank_polymatrix(matrix)
    ranks = []
    for h in solutions:
        if h.length_type() != lt:
            raise ValueError("a supplied solution has the wrong length type")
        for eq in system:
            if not eq.solved_by(h):
                raise ValueError("a supplied morphism does not solve the system")
        r = combinatorial_rank(h, n)
        ranks.append(r)
        if matrix_rank > n - r:
            raise TheoremCheckError(
                f"matrix rank {matrix_rank} exceeds {n} - {r} for a rank-{r} solution",
                report={"matrix_rank": matrix_rank, "solution_rank": r},
            )
    report = {
        "matrix_rank": matrix_rank,
        "solution_ranks": ranks,
        "rank_bound_ok": True,
    }
    zeros = sum(1 for v in lt if v == 0)
    applicable = matrix_rank == 1 and zeros <= 1 and all(not e.is_trivial for e in system)
    claim2 = {"applicable": applicable}
    if applicable:
        candidates = 1
        for v in lt:
            candidates *= len(alphabet) ** v
        if candidates > 10**6:
            raise ValueError("length type too large for exhaustive comparison")
        sets = [set(solutions_of_length_type([eq], lt, alphabet)) for eq in system]
        equal = all(s == sets[0] for s in sets[1:])
        claim2["solution_sets_equal"] = equal
        claim2["set_size"] = len(sets[0])
        if not equal:
            raise TheoremCheckError(
                "rank-1 matrix but per-equation solution sets differ",
                report={"sizes": [len(s) for s in sets]},
            )
    report["same_solution_sets"] = claim2
    return report


def entire_system_sample(h: Morphism, max_eq_length: int) -> list[Equation]:
    """All equations up to a total length satisfied by the morphism.

    Sides run over all words on the morphism's unknowns; a pair and its
    side-swapped twin count once.  Images of candidate sides are built
    incrementally by extending shorter sides.
    """
    n = h.n
    image_of: dict[tuple[int, ...], tuple[int, ...]] = {(): ()}
    sides_by_len: list[list[tuple[int, ...]]] = [[()]]
    for length in range(1, max_eq_length + 1):
        layer = []
        for shorter in sides_by_len[length - 1]:
            base = image_of[shorter]
            for x in range(1, n + 1):
                side = shorter + (x,)
                image_of[side] = base + h[x - 1]
                layer.append(side)
        sides_by_len.append(layer)
    out = []
    for llen in range(max_eq_length + 1):
        for rlen in range(llen, max_eq_length - llen + 1):
            for lhs in sides_by_len[llen]:
                for rhs in sides_by_len[rlen]:
                    if llen == rlen and rhs < lhs:
                        continue
                    if image_of[lhs] == image_of[rhs]:
                        out.append(Equation(lhs, rhs, n))
    out.sort(key=lambda eq: (eq.length, eq.lhs, eq.rhs))
    return out


def power_identity_check(s, t, u, v, indices) -> dict:
    """Interpolation-style certificate for families of power identities.

    The two sides are s_0 u_1^i s_1 ... u_m^i s_m and
    t_0 v_1^i t_1 ... v_n^i t_n.  If they agree for m+n distinct
    exponents they agree for every exponent; after checking the premise
    the identity is spot-verified up to max(indices)+5.
    """
    s, t, u, v = list(s), list(t), list(u), list(v)
    m, n = len(u), len(v)
    if m < 1 or n < 1:
        raise ValueError("need at least one repeated factor on each side")
    if len(s) != m + 1 or len(t) != n + 1:
        raise ValueError("separator counts must exceed factor counts by one")
    if not all(u) or not all(v):
        raise ValueError("repeated factors must be nonempty")
    idx = sorted(set(indices))
    if len(idx) < m + n or any(i < 0 for i in idx):
        raise ValueError(f"need at least {m + n} distinct nonnegative exponents")

    def build(seps, reps, i):
        word = seps[0]
        for r, sep in zip(reps, seps[1:]):
            word = word + r * i + sep
        return word

    for i in idx:
        if build(s, u, i) != build(t, v, i):
            return {"certified": False, "premise_fails_at": i, "indices": idx}
    top = max(idx) + 5
    for i in range(top + 1):
        if build(s, u, i) != build(t, v, i):
            raise TheoremCheckError(
                f"certified identity failed at exponent {i}",
                report={"indices": idx, "exponent": i},
            )
    return {
        "certified": True,
        "indices": idx,
        "spot_verified_through": top,
        "detail": "identity certified by exponent count, spot-verified",
    }
