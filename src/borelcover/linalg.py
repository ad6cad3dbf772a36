"""Exact linear algebra over Q on sparse rows.

A row is a dict from column index to its nonzero int or Fraction entries;
an absent column is zero.  One sparse fraction-free elimination serves rank,
determinant and reduced row echelon form.  Each row is scaled to a
primitive integer vector, reduced against the pivot rows found so far by
r <- a*r - b*p (a the pivot's leading entry, b the entry of r in the pivot
column) and divided by its content.
"""

from fractions import Fraction
from math import gcd, lcm

from .errors import MathDomainError


def _reduce(r, pivots, cols):
    """Clear the columns cols (ascending) of the integer row r, then its content.

    Returns (row, m, g): the row is m/g times r plus a combination of the
    pivot rows.
    """
    m = 1
    for c in cols:
        b = r.get(c)
        if b:
            p = pivots[c]
            a = p[c]
            g = gcd(a, b)
            a, b = a // g, b // g
            r = {j: a * v for j, v in r.items()}
            for j, v in p.items():
                w = r.get(j, 0) - b * v
                if w:
                    r[j] = w
                else:
                    del r[j]
            m *= a
    g = gcd(*r.values()) or 1
    return ({j: v // g for j, v in r.items()} if g > 1 else r), m, g


def _echelon(rows):
    """Sparse fraction-free forward elimination.

    Returns (pivots, found): pivots maps each pivot column to its primitive
    integer row, whose least column it is; found lists (pivot column, n, d)
    for each input row that did not reduce to zero, in input order, where
    the stored row is n/d times the input row plus a combination of earlier
    input rows.
    """
    pivots, found = {}, []
    for row in rows:
        den = lcm(*(x.denominator for x in row.values()))
        r, m, g = _reduce({j: x.numerator * (den // x.denominator)
                           for j, x in row.items()}, pivots, sorted(pivots))
        if r:
            c = min(r)
            pivots[c] = r
            found.append((c, den * m, g))
    return pivots, found


def rank(rows):
    """Rank: the number of pivots."""
    return len(_echelon(rows)[0])


def det(rows):
    """Determinant of the square matrix of m rows over the columns 0..m-1.

    The product of the leading entries of the pivot rows, each divided by
    its row's scale, times the sign of the pivot-column permutation.
    """
    m = len(rows)
    if any(j >= m for row in rows for j in row):
        raise MathDomainError("determinant of a non-square matrix")
    pivots, found = _echelon(rows)
    if len(found) < m:
        return Fraction(0)
    cols = [c for c, _, _ in found]
    num = (-1) ** sum(a > b for i, a in enumerate(cols) for b in cols[i + 1:])
    den = 1
    for c, n, d in found:
        num, den = num * pivots[c][c] * d, den * n
    return Fraction(num, den)


def rref(rows):
    """Reduced row echelon form: (pivot rows, pivot columns), both ascending.

    Each pivot row is cleared of the later pivot columns by the same
    fraction-free step, then divided by its leading entry, so it is a dict
    of Fractions in column order whose leading entry is 1.
    """
    pivots = _echelon(rows)[0]
    cols = sorted(pivots)
    for k in reversed(range(len(cols))):
        pivots[cols[k]] = _reduce(pivots[cols[k]], pivots, cols[k + 1:])[0]
    return [{j: Fraction(v, pivots[c][c]) for j, v in sorted(pivots[c].items())}
            for c in cols], cols
