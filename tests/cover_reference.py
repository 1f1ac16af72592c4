"""Slow reference choice of the unknown pair that cover_pair builds its cover from, and of its planes.

exhaustive_pairs is the exhaustive search that cover_pair used before it
walked the pairs by bound group: it forms minor_t for every unknown pair
and keeps the nonzero ones with their sort key (bound, not unit, k, l).
exhaustive_choice takes the least of them, as cover_pair did.

table_planes builds the cover's planes at a chosen pair from the table
of occurrence-list families that cover_pair used before it derived the
families from the minor's sign rule.
"""

from wordeq import CoverError, Hyperplane, minor_t
from wordeq.genpoly import occurrence_forms


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


def _retained_minimal(families, minor, positive):
    """cover_pair's per-family minimal survivors, as written with the family table."""
    retained = []
    for first, second in families:
        for f in first:
            for g in second:
                form = f + g
                c = minor.coeff(form)
                if (c > 0) if positive else (c < 0):
                    if form not in retained:
                        retained.append(form)
                    break
    return [f for f in retained if not any(g is not f and g.le(f) for g in retained)]


def table_planes(eq1, eq2, k, l, full_pairing=False):
    """The planes of cover_pair at the pair (k, l), in order, from the hand-built family table.

    The eight occurrence lists keep the names cover_pair gave them: a and
    a2 hold k on the left and right side of eq1, c and c2 hold l there, b
    and b2 hold l on the sides of eq2 and d and d2 hold k.
    """
    n = eq1.n
    t = minor_t(eq1, eq2, k, l)
    a = occurrence_forms(eq1.lhs, k, n)
    a2 = occurrence_forms(eq1.rhs, k, n)
    c = occurrence_forms(eq1.lhs, l, n)
    c2 = occurrence_forms(eq1.rhs, l, n)
    b = occurrence_forms(eq2.lhs, l, n)
    b2 = occurrence_forms(eq2.rhs, l, n)
    d = occurrence_forms(eq2.lhs, k, n)
    d2 = occurrence_forms(eq2.rhs, k, n)
    if full_pairing:
        pos = [f for f, cc in t.terms() if cc > 0]
        neg = [f for f, cc in t.terms() if cc < 0]
    else:
        pos_families = [(a, b), (a2, b2), (c, d2), (c2, d)]
        neg_families = [(a, b2), (a2, b), (c, d), (c2, d2)]
        pos = _retained_minimal(pos_families, t, positive=True)
        neg = _retained_minimal(neg_families, t, positive=False)
    return list(dict.fromkeys(Hyperplane(p, q) for p in pos for q in neg))
