"""Slow reference rank: fraction-free elimination over Z[X].

This is the polynomial Bareiss elimination that rank_polymatrix used
before it became a single integer elimination at a certified point.  It
never evaluates the matrix, so it is an independent twin for the
differential tests.
"""

from math import gcd

from wordeq.equations import PolyMatrix
from wordeq.polynomials import IntPolynomial, exact_div

from ratfun_reference import content


def _pivot_weight(p: IntPolynomial):
    terms = p.items()
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
                r[j] = IntPolynomial({d: c // g for d, c in p.items()})
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
                    new = [IntPolynomial({d: cc // g for d, cc in p.items()}) for p in new]
            if any(not p.is_zero for p in new):
                filled = [IntPolynomial()] * ncols
                for j, p in zip(range(rank + 1, ncols), new):
                    filled[col_of[j]] = p
                remaining.append(filled)
        rank += 1
        prev = pivot
        rows = remaining
    return rank
