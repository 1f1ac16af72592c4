"""Slow reference choice of the unknown pair that cover_pair builds its cover from.

exhaustive_pairs is the exhaustive search that cover_pair used before it
walked the pairs by bound group: it forms minor_t for every unknown pair
and keeps the nonzero ones with their sort key (bound, not unit, k, l).
exhaustive_choice takes the least of them, as cover_pair did.
"""

from wordeq import CoverError, minor_t


def exhaustive_pairs(eq1, eq2):
    """(bound, 0 if unit else 1, k, l, minor) for every pair k < l with a nonzero minor."""
    n = eq1.n
    pairs = []
    for k in range(1, n + 1):
        for l in range(k + 1, n + 1):
            t = minor_t(eq1, eq2, k, l)
            if t.is_zero:
                continue
            bound = (eq1.count(k) + eq1.count(l)) ** 2
            unit = all(abs(c) == 1 for _, c in t.terms())
            pairs.append((bound, 0 if unit else 1, k, l, t))
    return pairs


def exhaustive_choice(eq1, eq2):
    """(k, l, minor) least by (bound, not unit, k, l); CoverError when every minor is zero."""
    pairs = exhaustive_pairs(eq1, eq2)
    if not pairs:
        raise CoverError("equations indistinguishable by minors")
    _, _, k, l, t = min(pairs, key=lambda item: item[:4])
    return k, l, t
