"""Brute-force ground truth by exhaustive enumeration over small alphabets.

Enumeration walks only the length types of bounded total where every
equation's sides have equal length, and lists each one's solutions as the
letter assignments of its position classes, so solution sets can be
sliced by length type without re-running.  All verdicts that depend on a
budget say so; the enumerator falsifies, it never proves anything beyond
its budget.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cached_property
from math import comb, gcd
from operator import itemgetter
from typing import NamedTuple

from .equations import Equation, balance_profile, coefficient_matrix, rank_polymatrix, unknown_count
from .errors import TheoremCheckError
from .words import (
    LengthType,
    Morphism,
    Word,
    combinatorial_rank,
    words_of_length,
)

# candidates one enumeration may test, and letters one power identity check may build:
# a larger budget is refused before any work; also the solution images one enumeration
# may list, and the length types times unknowns one independence probe may walk
MAX_CANDIDATES = 10**6


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


def balanced_length_types(system, n: int, max_total: int):
    """The length types of total at most max_total where every equation's sides have equal length.

    The sides of an equation differ in length by its surplus vector
    (``balance_profile``) dotted with the length type, so these are the
    bounded points on every surplus hyperplane, in the order of
    ``sorted(length_types_up_to(n, max_total))``.  A prefix is extended
    only while each dot product can still come back to zero, and the
    last entry is solved for.
    """
    normals = [s for s in dict.fromkeys(map(balance_profile, system)) if any(s)]
    # the entries after i, of total at most t, add between t * low and t * high to a dot product
    low = [[min((0, *s[i + 1:])) for s in normals] for i in range(n)]
    high = [[max((0, *s[i + 1:])) for s in normals] for i in range(n)]

    def extend(prefix, dots, room):
        i = len(prefix)
        if i == n - 1:
            # the bound that let this prefix through left d = 0 wherever s[i] = 0
            ends = range(room + 1)
            for d, s in zip(dots, normals):
                if s[i]:
                    v, rest = divmod(-d, s[i])
                    ends = range(v, v + 1) if not rest and v in ends else range(0)
            for v in ends:
                yield prefix + (v,)
            return
        for v in range(room + 1):
            after = [d + s[i] * v for d, s in zip(dots, normals)]
            left = room - v
            if all(lo * left <= -d <= hi * left for d, lo, hi in zip(after, low[i], high[i])):
                yield from extend(prefix + (v,), after, left)

    return extend((), [0] * len(normals), max_total)


class _Quoted(dict):
    """Word -> its JSON string, written on first use."""

    def __missing__(self, w):
        text = self[w] = '"' + w.to_text() + '"'
        return text


class _Block(NamedTuple):
    """The solutions of one length type: its class assignments in image order, with their ranks."""

    lt: tuple[int, ...]
    record: LengthTypeRecord
    assignments: tuple[tuple[int, ...], ...]
    ranks: tuple[int, ...]


@dataclass(frozen=True)
class SolutionSet:
    """Complete, sorted list of the solutions found within a budget, one block per length type.

    ``solutions`` and ``ranks`` spell the blocks out only when read; the
    size, the views and the report entries work on the blocks.
    """

    system: tuple[Equation, ...]
    n: int
    budget: EnumerationBudget
    blocks: tuple[_Block, ...]
    candidates_visited: int

    def __len__(self):
        return sum(len(b.assignments) for b in self.blocks)

    def __iter__(self):
        return iter(self.solutions)

    @cached_property
    def solutions(self) -> tuple[Morphism, ...]:
        return tuple(b.record.images(a) for b in self.blocks for a in b.assignments)

    @cached_property
    def ranks(self) -> tuple[int, ...]:
        return tuple(rank for b in self.blocks for rank in b.ranks)

    def of_length_type(self, lt) -> "SolutionSet":
        wanted = tuple(lt)
        return replace(self, blocks=tuple(b for b in self.blocks if b.lt == wanted))

    def of_rank(self, r: int) -> "SolutionSet":
        """Solutions of exact combinatorial rank r."""
        blocks = []
        for b in self.blocks:
            keep = [a for a, rank in zip(b.assignments, b.ranks) if rank == r]
            if keep:
                blocks.append(b._replace(assignments=tuple(keep), ranks=(r,) * len(keep)))
        return replace(self, blocks=tuple(blocks))

    def nonerasing(self) -> "SolutionSet":
        return replace(self, blocks=tuple(b for b in self.blocks if all(b.lt)))

    def entry_texts(self, depth: int | None = None, stop: int | None = None) -> list[str]:
        """The JSON text of each solution's report entry: images, length type and rank.

        With no depth the text is what ``json.dumps`` writes for the entry;
        at a depth it is what ``json.dumps(..., indent=2)`` writes for the
        entry nested that deep.  Word texts hold only digits, commas,
        brackets and "eps", so quoting needs no escapes.  Over letters 1-9
        a word's text is its letters' digits, so each block is written from
        one template whose image positions hold a token naming their class;
        the classes are substituted one at a time, each string followed by
        one copy per letter, which lists the block's whole product in image
        order, and a block narrowed to some ranks keeps the entries its
        assignments select.  Over an alphabet with a letter of 10 or more
        each distinct word is quoted once.  Given ``stop``, only the first
        ``stop`` solutions are written.
        """
        if depth is None:
            sep, head, middle, tail, close = ", ", '{"images": [', '], "length_type": [', '], "rank": ', "}"
        else:
            outer = "\n" + "  " * depth
            key = outer + "  "
            sep = "," + key + "  "
            head = "{" + key + '"images": [' + key + "  "
            middle = key + "]," + key + '"length_type": [' + key + "  "
            tail = key + "]," + key + '"rank": '
            close = outer + "}"
        alphabet, size = self.budget.alphabet, len(self.budget.alphabet)
        digits = max(alphabet) <= 9
        letters = [str(a) for a in alphabet]
        place = {a: i for i, a in enumerate(alphabet)}
        quote = _Quoted().__getitem__
        texts = []
        for b in self.blocks:
            room = None if stop is None else stop - len(texts)
            if room == 0:
                break
            rest = middle + sep.join(map(str, b.lt)) + tail
            if not digits:
                texts += [head + sep.join(map(quote, b.record.images(a))) + rest + str(rank) + close
                          for a, rank in zip(b.assignments[:room], b.ranks)]
                continue
            ranks = b.ranks[:room]
            picks = None
            if len(b.assignments) < size**b.record.count:
                # narrowed by rank: each kept assignment's place in the record's whole product
                picks = [sum(place[x] * size**k for k, x in enumerate(reversed(a)))
                         for a in b.assignments[:room]]
                room = picks[-1] + 1
            # a token opens and closes with different characters, so a letter between two tokens forms none
            template = head + sep.join(
                '"' + "".join(f"\x01{c}\x02" for c in run) + '"' if run else '"eps"' for run in b.record.runs
            ) + rest
            fixed = len(set(ranks)) == 1
            strings = [template + str(ranks[0]) + close if fixed else template]
            for c in range(b.record.count):
                token = f"\x01{c}\x02"
                strings = [s.replace(token, letter) for s in strings for letter in letters][:room]
            if picks is not None:
                strings = [strings[i] for i in picks]
            texts += strings if fixed else [s + str(rank) + close for s, rank in zip(strings, ranks)]
        return texts

    def to_json_lines(self) -> str:
        return "\n".join(self.entry_texts())


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


def merge_classes(size: int, pairs) -> list[int]:
    """Block of each of 0 .. size - 1 once every pair is joined, numbered by least member."""
    # every root is the least member of its block, so a member's parent never lies after it
    parent = list(range(size))
    for p, q in pairs:
        while parent[p] != p:
            parent[p] = parent[parent[p]]
            p = parent[p]
        while parent[q] != q:
            parent[q] = parent[parent[q]]
            q = parent[q]
        if p < q:
            parent[q] = p
        elif q < p:
            parent[p] = q
    # numbered in one forward pass: a member's parent comes before it, so is numbered already
    count = 0
    for p in range(size):
        if parent[p] == p:
            parent[p] = count
            count += 1
        else:
            parent[p] = parent[parent[p]]
    return parent


@dataclass(frozen=True)
class LengthTypeRecord:
    """A system at one length type: the classes of its image positions.

    A constant-free equation holds exactly when the letters its two sides
    align are equal, so the solutions at this length type are the letter
    assignments of the classes.  Classes are numbered by first position,
    so assignments in lexicographic order are solutions in image order.
    Each solution, over any alphabet, is the image of the generic solution
    g, which gives class c the letter c + 1, under a letter-to-letter map;
    rank does not grow under a morphism, so no solution's rank exceeds
    r = rank(g).
    """

    classes: tuple[int, ...]  # class of every position of the images x_1 ... x_n
    count: int
    runs: tuple[tuple[int, ...], ...]  # each unknown's classes: g, letters less one
    step: int  # the gcd of the image lengths

    @cached_property
    def generic_rank(self) -> int:
        """r = rank(g), read from the runs: renaming letters keeps the rank."""
        return combinatorial_rank(self.runs)

    @cached_property
    def period(self) -> tuple[tuple[int, int], ...]:
        """The class pairs of positions ``step`` apart."""
        c = self.classes
        return tuple((c[p], c[p + self.step]) for p in range(len(c) - self.step))

    @cached_property
    def solution_rank(self):
        """A solution's combinatorial rank here, as a function of its class assignment.

        r when r <= 1.  At r = 2, 1 exactly when the nonempty images are
        powers of one word (Lyndon-Schützenberger), that is, when their
        concatenation has period ``step``, or the assignment agrees on
        every pair of ``period``, and 2 otherwise.  From r = 3 on,
        ``combinatorial_rank`` of the images.  Enumeration, ``top_rank_count``
        and the balance check's escape search all rank by this rule.
        """
        r = self.generic_rank
        if r <= 1:
            return lambda a: r
        if r == 2:
            # g has rank 2, so it breaks the period and some pair joins two classes
            pairs = [pair for pair in dict.fromkeys(self.period) if pair[0] != pair[1]]
            left, right = itemgetter(*[c for c, _ in pairs]), itemgetter(*[e for _, e in pairs])
            return lambda a: 1 if left(a) == right(a) else 2
        return lambda a: combinatorial_rank(self.images(a))

    def top_rank_count(self, alphabet) -> int:
        """How many assignments over an alphabet of distinct letters give a solution of rank r.

        The assignments agreeing on a set of class pairs number |A|^c, c the
        classes once those pairs are joined, so below r = 3 the count comes
        in closed form: every assignment when r <= 1, and at r = 2 all but
        the |A|^c agreeing on the period pairs, which give rank 1.  From
        r = 3 on, a walk ranks every assignment with ``solution_rank``.
        """
        r, size = self.generic_rank, len(alphabet)
        if r <= 1:
            return size**self.count
        if r == 2:
            return size**self.count - size ** len(set(merge_classes(self.count, self.period)))
        rank = self.solution_rank
        return sum(rank(a) == r for a in itertools.product(alphabet, repeat=self.count))

    def images(self, a) -> Morphism:
        """The solution whose class c gets the letter a[c]."""
        return Morphism._trusted(tuple(Word._trusted([a[c] for c in run]) for run in self.runs))


def length_type_record(system, lt) -> LengthTypeRecord | None:
    """The system's record at length type lt; None when some equation's sides differ in length there."""
    runs, end = [], 0
    for k in lt:
        runs.append(range(end, end + k))
        end += k
    # the two sides of an equation align their positions one by one
    pairs = []
    for eq in system:
        left = [p for x in eq.lhs for p in runs[x - 1]]
        right = [p for x in eq.rhs for p in runs[x - 1]]
        if len(left) != len(right):
            return None
        pairs += zip(left, right)
    classes = merge_classes(end, pairs)
    return LengthTypeRecord(
        classes=tuple(classes),
        count=max(classes, default=-1) + 1,
        runs=tuple(tuple(classes[run.start:run.stop]) for run in runs),
        step=gcd(*lt),
    )


def budget_candidates(n: int, budget: EnumerationBudget) -> int:
    """Morphisms of n unknowns within the budget; past MAX_CANDIDATES a ValueError."""
    # the C(t+n-1, n-1) length types of total t hold |A|^t candidates each
    size = len(budget.alphabet)
    visited = sum(comb(t + n - 1, n - 1) * size**t for t in range(budget.max_total_length + 1))
    if visited > MAX_CANDIDATES:
        raise ValueError(f"the budget asks for {visited} candidates, more than {MAX_CANDIDATES}")
    return visited


def enumerate_solutions(system, budget: EnumerationBudget, n: int | None = None) -> SolutionSet:
    """All morphisms within the budget solving every equation of the system, with their ranks.

    An empty system needs an explicit unknown count and is solved by
    every morphism.  The solutions of a length type are the letter
    assignments of its position classes, so they are listed, not found by
    a scan; every length type still counts its full candidate set as
    visited.  A budget of more than MAX_CANDIDATES candidates is refused
    up front, and the listing stops with a ValueError once its solutions
    hold more than MAX_CANDIDATES images in all.
    """
    system = tuple(system)
    if system:
        n = unknown_count(system)
    elif n is None:
        raise ValueError("an empty system needs an explicit unknown count")
    visited = budget_candidates(n, budget)
    blocks = []
    listed = 0
    # the budget's alphabet is sorted and classes are numbered by first position,
    # so each block lists its assignments in image order, and the length types come in report order
    for lt in balanced_length_types(system, n, budget.max_total_length):
        record = length_type_record(system, lt)
        listed += len(budget.alphabet) ** record.count * n
        if listed > MAX_CANDIDATES:
            raise ValueError(f"the budget lists more than {MAX_CANDIDATES} solution images")
        assignments = tuple(itertools.product(budget.alphabet, repeat=record.count))
        r = record.generic_rank
        ranks = (r,) * len(assignments) if r <= 1 else tuple(map(record.solution_rank, assignments))
        blocks.append(_Block(lt, record, assignments, ranks))
    return SolutionSet(system=system, n=n, budget=budget, blocks=tuple(blocks), candidates_visited=visited)


def _first_separating_morphism(subsystem, omitted: Equation, budget, n: int):
    """First morphism within budget solving the subsystem but not the omitted equation.

    Raises once the length types reached hold more than MAX_CANDIDATES
    candidates, or once they number more than MAX_CANDIDATES over n; a
    witness found earlier ends the probe first.
    """
    pools = _WordPools(budget.alphabet)
    visited = 0
    for walked, lt in enumerate(length_types_up_to(n, budget.max_total_length), 1):
        visited += len(budget.alphabet) ** sum(lt)
        if visited > MAX_CANDIDATES:
            raise ValueError(f"the probe passed {MAX_CANDIDATES} candidates without a witness")
        if walked * n > MAX_CANDIDATES:
            raise ValueError(f"the probe walked {walked} length types of {n} unknowns without a witness, "
                             f"more than {MAX_CANDIDATES} image lengths")
        for images in solutions_of_length_type(subsystem, lt, budget.alphabet, pools):
            if not omitted.solved_by(images):
                return Morphism._trusted(images)
    return None


def independence_check(system, budget: EnumerationBudget, names: list[str] | None = None) -> dict:
    """Probe whether the system is equivalent to a leave-one-out subsystem.

    The system is equivalent to a proper subsystem exactly when it is
    equivalent to one obtained by dropping a single equation, so only
    those are examined.  A witness solves the remaining equations but not
    the dropped one; verdicts are relative to the budget except for the
    syntactic certainties (dropping a duplicate or trivial equation).
    The dropped equation is written with the unknown names, x1 ... xn
    when none are given.
    """
    system = list(system)
    if not system:
        raise ValueError("independence needs at least one equation")
    n = unknown_count(system)
    entries = []
    provably_dependent = False
    all_witnessed = True
    for i, omitted in enumerate(system):
        rest = [eq for j, eq in enumerate(system) if j != i]
        entry: dict = {"omitted_index": i, "omitted": omitted.to_text(names)}
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


def _solution_set_keys(system, lt, alphabet) -> list[tuple[int, tuple[int, ...] | None]]:
    """Per equation, its solution count at lt over the alphabet and, past one solution, its classes.

    The count is |A|^c for c classes, or 0 when the sides differ in length.
    Over two or more letters the classes can be read back from the
    solutions, and a set of at most one is empty or the one candidate
    here, so two equations have equal solution sets exactly when their
    keys are equal.
    """
    size = len(set(Word(alphabet)))
    records = [length_type_record((eq,), lt) for eq in system]
    counts = [0 if rec is None else size**rec.count for rec in records]
    return [(k, rec.classes if k > 1 else None) for k, rec in zip(counts, records)]


def rank_theorem_check(system, lt: LengthType, solutions, alphabet=(1, 2)) -> dict:
    """Check the rank bound of the coefficient matrix against known solutions.

    For every supplied solution of combinatorial rank r the matrix rank
    must be at most n - r.  When the matrix rank is 1, at most one length
    is zero and all equations are nontrivial, all equations must have
    identical solution sets of this length type over the alphabet; that
    part compares the equations' position classes.
    """
    system = list(system)
    if not system:
        raise ValueError("the rank theorem check needs at least one equation")
    alphabet = Word(alphabet)  # checked whether or not the second claim applies
    lt = LengthType(lt)
    n = unknown_count(system)
    matrix = coefficient_matrix(system, lt)
    matrix_rank = rank_polymatrix(matrix)
    ranks = []
    for h in solutions:
        if h.length_type() != lt:
            raise ValueError("a supplied solution has the wrong length type")
        for eq in system:
            if not eq.solved_by(h):
                raise ValueError("a supplied morphism does not solve the system")
        r = combinatorial_rank(h)
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
        keys = _solution_set_keys(system, lt, alphabet)
        equal = len(set(keys)) == 1
        claim2["solution_sets_equal"] = equal
        claim2["set_size"] = keys[0][0]
        if not equal:
            raise TheoremCheckError(
                "rank-1 matrix but per-equation solution sets differ",
                report={"sizes": [size for size, _ in keys]},
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
    the identity is spot-verified up to max(indices)+5.  The letters that
    both checks build grow with the square of the largest index, and past
    MAX_CANDIDATES the check is refused before any is built.
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
    top = max(idx) + 5
    # both sides at every premise exponent and at 0..top; each side grows linearly in the exponent
    fixed, grow = sum(map(len, s + t)), sum(map(len, u + v))
    letters = (len(idx) + top + 1) * fixed + (sum(idx) + top * (top + 1) // 2) * grow
    if letters > MAX_CANDIDATES:
        raise ValueError(f"the check would build {letters} letters, more than {MAX_CANDIDATES}")

    def build(seps, reps, i):
        word = seps[0]
        for r, sep in zip(reps, seps[1:]):
            word = word + r * i + sep
        return word

    for i in idx:
        if build(s, u, i) != build(t, v, i):
            return {"certified": False, "premise_fails_at": i, "indices": idx}
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
