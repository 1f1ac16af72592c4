"""Slow reference ranks for the differential tests.

symbolic_rank is the polynomial Bareiss elimination that rank_polymatrix
used before it became an integer elimination at X = 2, or at a certified
point when the rank at 2 is not full.  It never evaluates the matrix, so
it is an independent twin.

rank_by_evaluation is the rank at one integer point, a lower bound that
equals the rank at every point that is no root of a nonzero minor.  A
rank at 2 below min(rows, cols) is what sends rank_polymatrix to its
certified point.

factor_subset_rank is the generate-and-test search that
combinatorial_rank used before its left-to-right parse search: it tries
every r-subset of the images' factors, smallest r first.
"""

import itertools
from math import gcd

from wordeq.equations import PolyMatrix, rational_matrix_rank
from wordeq.polynomials import IntPolynomial, exact_div

from ratfun_reference import content


def rank_by_evaluation(matrix: PolyMatrix, point: int) -> int:
    """Rank of the matrix after substituting an integer for X.

    Always at most the rank over Q(X), with equality at every point that
    is no root of a nonzero minor; rank_polymatrix evaluates at 2, and at
    a point certified to be no such root when the rank at 2 is not full,
    and tests compare it against random points.
    """
    return rational_matrix_rank(matrix.evaluate(point))


def _pivot_weight(p: IntPolynomial):
    terms = p.terms()
    return (p.degree, len(terms), sum(abs(c) for _, c in terms))


def symbolic_rank(matrix: PolyMatrix) -> int:
    """Exact rank over the field of rational functions.

    Fraction-free elimination: rows are cross-multiplied against the
    pivot row, divided exactly by the previous pivot when possible
    (classic Bareiss step) and stripped of integer content otherwise.
    Row scalings by nonzero polynomials leave the rank unchanged.
    """
    rows = [[p for p in row] for row in matrix.entries]
    rows = [r for r in rows if any(not p.is_zero for p in r)]
    for r in rows:
        g = 0
        for p in r:
            g = gcd(g, content(p))
        if g > 1:
            for j, p in enumerate(r):
                r[j] = IntPolynomial({d: c // g for d, c in p.terms()})
    ncols = matrix.cols
    rank = 0
    col_of = list(range(ncols))
    prev = IntPolynomial.one()
    while rows:
        # pick the lowest-weight nonzero entry as pivot
        best = None
        for i, row in enumerate(rows):
            for j in range(rank, ncols):
                p = row[col_of[j]]
                if not p.is_zero:
                    w = _pivot_weight(p)
                    if best is None or w < best[0]:
                        best = (w, i, j)
        if best is None:
            break
        _, pi, pj = best
        rows[0], rows[pi] = rows[pi], rows[0]
        col_of[rank], col_of[pj] = col_of[pj], col_of[rank]
        pivot_row = rows[0]
        pivot = pivot_row[col_of[rank]]
        remaining = []
        for row in rows[1:]:
            factor = row[col_of[rank]]
            new = []
            for j in range(rank + 1, ncols):
                c = col_of[j]
                new.append(pivot * row[c] - factor * pivot_row[c])
            try:
                new = [exact_div(p, prev) for p in new]
            except ArithmeticError:
                g = 0
                for p in new:
                    g = gcd(g, content(p))
                if g > 1:
                    new = [IntPolynomial({d: cc // g for d, cc in p.terms()}) for p in new]
            if any(not p.is_zero for p in new):
                filled = [IntPolynomial()] * ncols
                for j, p in zip(range(rank + 1, ncols), new):
                    filled[col_of[j]] = p
                remaining.append(filled)
        rank += 1
        prev = pivot
        rows = remaining
    return rank


def _factors(letters):
    out = set()
    size = len(letters)
    for i in range(size):
        for j in range(i + 1, size + 1):
            out.add(letters[i:j])
    return out


def _in_star(word, pieces) -> bool:
    size = len(word)
    reach = [False] * (size + 1)
    reach[0] = True
    for i in range(size):
        if not reach[i]:
            continue
        for p in pieces:
            end = i + len(p)
            if end <= size and word[i:end] == p:
                reach[end] = True
    return reach[size]


def factor_subset_rank(images) -> int:
    """Least r such that some r-word set A has every nonempty image in A*.

    A minimal A can always be drawn from the factors of the images (unused
    elements can be dropped), and one element of A is a prefix of the first
    image, so the search is exhaustive over those factor subsets.
    """
    images = sorted({tuple(w) for w in images if w})
    if not images:
        return 0
    candidates = set()
    for w in images:
        candidates |= _factors(w)
    candidates = sorted(candidates, key=lambda f: (len(f), f))
    prefixes = {images[0][:i] for i in range(1, len(images[0]) + 1)}
    for r in range(1, len(images)):
        for combo in itertools.combinations(candidates, r):
            if not any(p in prefixes for p in combo):
                continue
            if all(_in_star(w, combo) for w in images):
                return r
    return len(images)
