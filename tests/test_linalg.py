"""linalg against dense reference eliminations and, when installed, sympy.

Matrices are drawn dense, for the references, and handed to linalg as dict
rows through conftest.dict_rows.
"""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borelcover import linalg
from borelcover.errors import MathDomainError

from conftest import dict_rows


# -- reference: dense Bareiss rank and det, dense Gauss-Jordan rref ----------

def _as_int_rows(rows):
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
    assert not rem
    return q


def ref_det(rows):
    m = len(rows)
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


def ref_rank(rows):
    if not rows:
        return 0
    ncols = len(rows[0])
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


def ref_rref(rows):
    M = [[Fraction(x) for x in row] for row in rows]
    if not M:
        return [], []
    ncols = len(M[0])
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


# -- strategies ---------------------------------------------------------------

entries = st.one_of(
    st.just(0),
    st.integers(-5, 5),
    st.builds(Fraction, st.integers(-7, 7), st.integers(1, 6)))


@st.composite
def matrices(draw, square=False):
    """Up to 7 x 8, with some rows forced to be combinations of others."""
    m = draw(st.integers(0, 7))
    ncols = m if square else draw(st.integers(0, 8))
    rows = [draw(st.lists(entries, min_size=ncols, max_size=ncols))
            for _ in range(m)]
    for i in range(m):
        if i >= 2 and draw(st.booleans()):
            a, b = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            s, t = draw(entries), draw(entries)
            rows[i] = [s * x + t * y for x, y in zip(rows[a], rows[b])]
    return rows


class TestAgainstDenseReference:
    @settings(max_examples=150)
    @given(matrices())
    def test_rank(self, rows):
        got = linalg.rank(dict_rows(rows))
        assert type(got) is int and got == ref_rank(rows)

    @settings(max_examples=150)
    @given(matrices(square=True))
    def test_det(self, rows):
        got = linalg.det(dict_rows(rows))
        assert type(got) is Fraction and got == ref_det(rows)

    @settings(max_examples=150)
    @given(matrices())
    def test_rref(self, rows):
        got, pivots = linalg.rref(dict_rows(rows))
        want, want_pivots = ref_rref(rows)
        assert got == dict_rows(want[:len(want_pivots)]) and pivots == want_pivots
        assert all(type(x) is Fraction for row in got for x in row.values())
        assert all(type(c) is int for c in pivots)

    @settings(max_examples=150)
    @given(matrices())
    def test_rref_returns_exactly_the_pivot_rows(self, rows):
        got, pivots = linalg.rref(dict_rows(rows))
        assert len(got) == len(pivots) == ref_rank(rows)
        for row, c in zip(got, pivots):
            assert list(row) == sorted(row) and min(row) == c and row[c] == 1
            assert all(x for x in row.values())
            assert not any(d in row for d in pivots if d != c)


def _sympy_matrix(sympy, rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                          for x in row] for row in rows])


class TestAgainstSympy:
    @settings(max_examples=60)
    @given(matrices())
    def test_rank_and_rref(self, rows):
        sympy = pytest.importorskip("sympy")
        if not rows or not rows[0]:
            return
        M = _sympy_matrix(sympy, rows)
        R, pivots = M.rref()
        got, got_pivots = linalg.rref(dict_rows(rows))
        assert linalg.rank(dict_rows(rows)) == M.rank()
        assert tuple(got_pivots) == pivots
        assert dict_rows([[Fraction(int(x.p), int(x.q)) for x in R.row(i)]
                          for i in range(len(pivots))]) == got

    @settings(max_examples=60)
    @given(matrices(square=True))
    def test_det(self, rows):
        sympy = pytest.importorskip("sympy")
        if not rows:
            return
        d = _sympy_matrix(sympy, rows).det()
        assert linalg.det(dict_rows(rows)) == Fraction(int(d.p), int(d.q))


class TestEdgeCases:
    def test_empty_matrix(self):
        assert linalg.rank([]) == 0
        assert linalg.det([]) == 1 and type(linalg.det([])) is Fraction
        assert linalg.rref([]) == ([], [])

    def test_zero_matrix(self):
        zero = [{} for _ in range(3)]
        assert linalg.rank(zero) == 0
        assert linalg.det(zero) == 0
        assert linalg.rref(zero) == ([], [])

    @pytest.mark.parametrize("P, sign", [
        ([[0, 1, 0], [1, 0, 0], [0, 0, 1]], -1),                  # transposition
        ([[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], -1),  # 4-cycle
        ([[0, 0, 1], [1, 0, 0], [0, 1, 0]], 1),                   # 3-cycle
        ([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], 1),
    ])
    def test_permutation_matrix_determinant_is_its_sign(self, P, sign):
        assert linalg.det(dict_rows(P)) == sign

    def test_generator_input(self):
        assert linalg.rank(iter(dict_rows([[1, 2], [2, 4]]))) == 1

    @pytest.mark.parametrize("rows", [[{0: 1, 1: 2}], [{0: 1}, {2: 1}],
                                      [{}, {1: 3, 5: 1}]])
    def test_det_refuses_a_column_past_the_rows(self, rows):
        # m dict rows span the columns 0..m-1; a column index >= m has no
        # place in a square matrix
        with pytest.raises(MathDomainError,
                           match="determinant of a non-square matrix"):
            linalg.det(rows)
