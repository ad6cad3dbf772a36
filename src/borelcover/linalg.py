"""Exact linear algebra over Q.

Determinants and ranks use fraction-free Bareiss elimination on integer-scaled
matrices; reduced row echelon form is done with plain rational pivoting.
"""

from fractions import Fraction
from math import lcm

from .errors import MathDomainError


def _as_int_rows(rows):
    """Scale each row to integers; return (int matrix, product of row scales)."""
    out = []
    scale = Fraction(1)
    for row in rows:
        den = 1
        for x in row:
            den = lcm(den, Fraction(x).denominator)
        out.append([int(Fraction(x) * den) for x in row])
        scale *= den
    return out, scale


def _exact_div(num, d):
    q, rem = divmod(num, d)
    if rem:
        raise ArithmeticError("inexact division in fraction-free elimination")
    return q


def det(rows):
    """Determinant of a square matrix, by fraction-free Bareiss elimination."""
    m = len(rows)
    if any(len(r) != m for r in rows):
        raise MathDomainError("determinant of a non-square matrix")
    if m == 0:
        return Fraction(1)
    M, scale = _as_int_rows(rows)
    sign = 1
    prev = 1
    for k in range(m - 1):
        piv = next((i for i in range(k, m) if M[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            M[k], M[piv] = M[piv], M[k]
            sign = -sign
        for i in range(k + 1, m):
            for j in range(k + 1, m):
                M[i][j] = _exact_div(M[i][j] * M[k][k] - M[i][k] * M[k][j], prev)
            M[i][k] = 0
        prev = M[k][k]
    return Fraction(sign * M[m - 1][m - 1]) / scale


def rank(rows):
    """Rank, by fraction-free elimination with column pivoting."""
    rows = [r for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    if any(len(r) != ncols for r in rows):
        raise MathDomainError("ragged matrix")
    M, _ = _as_int_rows(rows)
    r = 0
    prev = 1
    for c in range(ncols):
        piv = next((i for i in range(r, len(M)) if M[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            M[r], M[piv] = M[piv], M[r]
        for i in range(r + 1, len(M)):
            for j in range(c + 1, ncols):
                M[i][j] = _exact_div(M[i][j] * M[r][c] - M[i][c] * M[r][j], prev)
            M[i][c] = 0
        prev = M[r][c]
        r += 1
        if r == len(M):
            break
    return r


def rref(rows):
    """Reduced row echelon form.

    Returns (matrix, pivot column indices); zero rows stay at the bottom.
    """
    M = [[Fraction(x) for x in row] for row in rows]
    if not M:
        return [], []
    ncols = len(M[0])
    if any(len(r) != ncols for r in M):
        raise MathDomainError("ragged matrix")
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(M)) if M[i][c] != 0), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = M[r][c]
        M[r] = [x / inv for x in M[r]]
        for i in range(len(M)):
            if i != r and M[i][c]:
                f = M[i][c]
                M[i] = [a - f * b for a, b in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
        if r == len(M):
            break
    return M, pivots

