"""Position-class model of constant-free systems, independent of wordeq.

Fix a length type.  A system of constant-free equations then just equates
letter positions of the concatenated images, so its solutions are exactly
the letter assignments that are constant on each class of the union of
those equalities.  The benchmark uses this model to know the work of each
oracle query before it runs (for the candidate cap and for cost
balancing) and to check the program's answers without calling it.

Equations are pairs ``(lhs, rhs)`` of tuples of 1-based unknown indices.
"""

from __future__ import annotations

from functools import lru_cache


def compositions(n: int, total: int):
    """Vectors of n nonnegative integers with the given sum, first entry slowest."""
    if n == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(n - 1, total - first):
            yield (first,) + rest


def length_types(n: int, max_total: int):
    """Length types in the order the enumerator visits them."""
    for total in range(max_total + 1):
        yield from compositions(n, total)


@lru_cache(maxsize=None)
def candidate_count(n: int, max_total: int, alphabet_size: int) -> int:
    """Sum of |A|^total(lt) over every length type within the budget."""
    return sum(alphabet_size ** sum(lt) for lt in length_types(n, max_total))


def _side_positions(side, offsets, lt):
    out = []
    for x in side:
        start = offsets[x - 1]
        out.extend(range(start, start + lt[x - 1]))
    return out


def _offsets(lt):
    offsets, pos = [], 0
    for k in lt:
        offsets.append(pos)
        pos += k
    return offsets


def _find(parent, p):
    while parent[p] != p:
        parent[p] = parent[parent[p]]
        p = parent[p]
    return p


def position_classes(system, lt):
    """Class representative of every position, or None if some sides differ in length."""
    offsets = _offsets(lt)
    parent = list(range(sum(lt)))
    for lhs, rhs in system:
        left = _side_positions(lhs, offsets, lt)
        right = _side_positions(rhs, offsets, lt)
        if len(left) != len(right):
            return None
        for p, q in zip(left, right):
            a, b = _find(parent, p), _find(parent, q)
            if a != b:
                parent[max(a, b)] = min(a, b)
    return [_find(parent, p) for p in range(len(parent))]


def enumeration_profile(system, n: int, top: int, alphabet_size: int) -> list[tuple[int, int, int]]:
    """(visited, feasible, solutions) for every max-total from 0 to top.

    Visited counts every candidate, feasible those in length types whose
    sides have equal lengths, and solutions the assignments constant on
    the position classes.
    """
    rows, visited, feasible, solutions = [], 0, 0, 0
    for total in range(top + 1):
        size = alphabet_size**total
        for lt in compositions(n, total):
            visited += size
            cls = position_classes(system, lt)
            if cls is not None:
                feasible += size
                solutions += alphabet_size ** len(set(cls))
        rows.append((visited, feasible, solutions))
    return rows


def enumeration_counts(system, n: int, max_total: int, alphabet_size: int) -> dict:
    """Candidates visited, candidates in side-length-feasible types, and solutions."""
    visited, feasible, solutions = enumeration_profile(system, n, max_total, alphabet_size)[-1]
    return {"visited": visited, "feasible": feasible, "solutions": solutions}


def first_witness(rest, omitted, n: int, max_total: int, alphabet: tuple[int, ...]):
    """First morphism in enumeration order solving ``rest`` but not ``omitted``.

    Returns ``(images, scanned)``: the images as letter tuples (None when no
    witness lies within the budget) and how many candidates come up to and
    including it.  Over a class-constant assignment the lexicographically
    first violation sets one class to the second letter: any violating set
    of raised classes contains a single class that violates alone, and that
    class alone is earlier in lexicographic order.
    """
    if len(alphabet) < 2:
        raise ValueError("witness search needs at least two letters")
    low, high = alphabet[0], alphabet[1]
    size = len(alphabet)
    scanned = 0
    for lt in length_types(n, max_total):
        total = sum(lt)
        cls = position_classes(rest, lt)
        if cls is None:
            scanned += size ** total
            continue
        offsets = _offsets(lt)
        left = _side_positions(omitted[0], offsets, lt)
        right = _side_positions(omitted[1], offsets, lt)
        if len(left) != len(right):
            raised = set()
        else:
            cut = {cls[p] for p, q in zip(left, right) if cls[p] != cls[q]}
            cut |= {cls[q] for p, q in zip(left, right) if cls[p] != cls[q]}
            if not cut:
                scanned += size ** total
                continue
            # earliest class in lexicographic order = smallest binary index
            raised = min(
                cut, key=lambda c: sum(1 << (total - 1 - p) for p in range(total) if cls[p] == c)
            )
            raised = {raised}
        letters = [high if cls[p] in raised else low for p in range(total)]
        index = 0
        for a in letters:
            index = index * size + alphabet.index(a)
        images = tuple(tuple(letters[o : o + k]) for o, k in zip(offsets, lt))
        return images, scanned + index + 1
    return None, scanned
