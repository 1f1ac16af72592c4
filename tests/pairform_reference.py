"""Slow reference shape of a pair: the renaming search pair_form_check made before it read the shape.

renaming_search is that search as it was written: it tries every renaming
of the unknowns in lexicographic order, applies it as a Morphism to both
sides of both equations and tests each orientation with form_exponent.
It returns (renaming, k) for the first renaming under which some
orientation of each equation reads x1... = x2^k x3... with one shared
k >= 1, and None when no renaming does.

Under one renaming at most one orientation of an equation can read so (its
left side starts with x1 and its right side with x2), so the search only
compares, renaming by renaming, one exponent per equation.
renamed_exponents lists those exponents for one equation, and
table_search runs the same search over two such lists, which a caller may
build once per equation for many pairs.
"""

import itertools

from wordeq import Morphism, Word


def form_exponent(lhs, rhs):
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


def renaming_search(eq1, eq2):
    """(renaming, k) of the first renaming that puts both equations in the form, or None."""
    n = eq1.n
    for perm in itertools.permutations(range(1, n + 1)):
        rename = Morphism(Word((new,)) for new in perm)
        l1, r1 = rename.apply(eq1.lhs), rename.apply(eq1.rhs)
        l2, r2 = rename.apply(eq2.lhs), rename.apply(eq2.rhs)
        options1 = [(l1, r1), (r1, l1)]
        options2 = [(l2, r2), (r2, l2)]
        for s1 in options1:
            k1 = form_exponent(*s1)
            if k1 is None or k1 < 1:
                continue
            for s2 in options2:
                k2 = form_exponent(*s2)
                if k2 == k1:
                    return list(perm), k1
    return None


def renamed_exponents(eq):
    """Per renaming, in lexicographic order, the k of the orientation of eq in the form, or None."""
    exponents = []
    for perm in itertools.permutations(range(1, eq.n + 1)):
        rename = Morphism(Word((new,)) for new in perm)
        lhs, rhs = rename.apply(eq.lhs), rename.apply(eq.rhs)
        k = form_exponent(lhs, rhs)
        exponents.append(form_exponent(rhs, lhs) if k is None else k)
    return exponents


def table_search(n, exponents1, exponents2):
    """renaming_search over n unknowns, from the renamed_exponents of the two equations."""
    perms = itertools.permutations(range(1, n + 1))
    for perm, k1, k2 in zip(perms, exponents1, exponents2):
        if k1 is not None and k1 == k2:
            return list(perm), k1
    return None
