"""Grassmannian charts via exact linear algebra.

Coefficient matrices of linear systems of forms, Plucker coordinates of a
monomial chart (maximal minors), marked slices and the chart form of an
ideal (reduced row echelon against the head columns of a monomial ideal),
Gaussian initial monomials, the Hilbert-scheme membership test at the
Gotzmann level, the Hilbert polynomial of a system of forms (certified by
Gotzmann persistence from exact ranks), and the seeded random-coordinate
search that locates an arbitrary ideal in a Borel chart.  Ranks, minors and
echelon forms all come from the one sparse elimination in ``linalg``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .borel import BorelChartIdeal, MonomialIdeal, enumerate_borel_saturated
from .errors import (IterationCapError, MathDomainError, NotInChartError)
from .hilbert import (ChartConstants, HilbertPoly, ambient_dimension,
                      certified_hilbert_polynomial, chart_constants)
from .ring import XPoly, apply_change_of_coords, monomials_of_degree


def _common_degree(forms):
    if not forms:
        raise MathDomainError("empty list of forms")
    degs = {f.degree for f in forms}
    if len(degs) != 1:
        raise MathDomainError(f"forms of mixed degrees {sorted(degs)}")
    ns = {f.n for f in forms}
    if len(ns) != 1:
        raise MathDomainError("forms live in different ambient rings")
    return degs.pop()


def coefficient_matrix(forms, columns=None):
    """Rows of coefficients of scalar forms against degrevlex-descending columns."""
    d = _common_degree(forms)
    n = forms[0].n
    if columns is None:
        columns = monomials_of_degree(n, d)
    rows = []
    for f in forms:
        if not f.is_scalar():
            raise MathDomainError("coefficient matrix needs scalar coefficients")
        lookup = dict(f.terms)
        rows.append([lookup.get(m, Fraction(0)) for m in columns])
    return rows, columns


def row_space_basis(forms):
    """A canonical basis (RREF rows) of the span of the given forms."""
    rows, cols = coefficient_matrix(forms)
    R, pivots = linalg.rref(rows)
    n = forms[0].n
    d = forms[0].degree
    out = []
    for i in range(len(pivots)):
        out.append(XPoly(n, [(cols[j], R[i][j]) for j in range(len(cols)) if R[i][j]], d))
    return out


def span_in_degree(gens, t):
    """Monomial multiples of the generators that land in degree t (a spanning set)."""
    if not gens:
        raise MathDomainError("empty generator list")
    n = gens[0].n
    out = []
    for f in gens:
        if f.degree > t or not f:
            continue
        for m in monomials_of_degree(n, t - f.degree):
            out.append(f.times_monomial(m))
    return out


def dimension_in_degree(gens, t):
    """dim_K of the degree-t slice of the ideal generated by the forms."""
    forms = span_in_degree(gens, t)
    if not forms:
        return 0
    rows, _ = coefficient_matrix(forms)
    return linalg.rank(rows)


def degree_basis(gens, t):
    """A canonical basis of the degree-t slice of the generated ideal."""
    forms = span_in_degree(gens, t)
    if not forms:
        return []
    return row_space_basis(forms)


def _single_degree_chart(J):
    if J.is_zero() or not J.generated_in_single_degree():
        raise MathDomainError(f"chart ideal must be generated in one degree: {J}")
    return J.gens[0].degree()


def pluecker_coordinate(forms, J: MonomialIdeal) -> Fraction:
    """Maximal minor of the coefficient matrix on the columns of B_J.

    The value depends on the chosen basis of the span only up to a global
    nonzero scalar, so only the zero / nonzero dichotomy is intrinsic.
    """
    r = _single_degree_chart(J)
    d = _common_degree(forms)
    if d != r:
        raise MathDomainError(f"forms of degree {d} against a degree-{r} chart")
    if forms[0].n != J.n:
        raise MathDomainError("ambient mismatch between forms and chart")
    if len(forms) != len(J.gens):
        raise MathDomainError(
            f"expected {len(J.gens)} forms for this chart, got {len(forms)}")
    rows, cols = coefficient_matrix(forms)
    col_index = {m: i for i, m in enumerate(cols)}
    sub = [[row[col_index[g]] for g in J.gens] for row in rows]
    return linalg.det(sub)


@dataclass(frozen=True)
class ChartPoint:
    """An ideal presented by its marked set over a single-degree chart."""

    chart: MonomialIdeal
    marked_set: tuple


def marked_slice(forms, T: MonomialIdeal, t):
    """Marked polynomials of the degree-t span of the forms over T.

    Row reduces the coefficient matrix against the columns [T_t | N(T)_t];
    the reduced row pivoted on x^a in T_t is the marked polynomial
    x^a - sum c * x^g with tail supported on N(T)_t.  Returns a dict
    x^a -> marked polynomial.  Raises MathDomainError when the span's
    dimension differs from dim T_t and NotInChartError when some pivot falls
    outside T_t (the Plucker coordinate of T_t vanishes on the span).
    """
    inside = T.monomials_at(t)
    columns = inside + T.sous_escalier_at(t)
    rows, _ = coefficient_matrix(forms, columns)
    R, pivots = linalg.rref(rows)
    if len(pivots) != len(inside):
        raise MathDomainError(
            f"span has dimension {len(pivots)}, chart expects {len(inside)}")
    if pivots != list(range(len(inside))):
        raise NotInChartError(
            f"Plucker coordinate of {T} vanishes on the degree-{t} slice")
    return {mon: XPoly(T.n, [(columns[j], R[i][j])
                             for j in range(len(columns)) if R[i][j]], t)
            for i, mon in enumerate(inside)}


def chart_form(forms, J: MonomialIdeal) -> ChartPoint:
    """Unique marked-set presentation of span(forms) over the chart J.

    The marked polynomials are the degree-r marked slice of the span, in the
    order of B_J.  Raises NotInChartError when the Plucker coordinate of J
    vanishes.
    """
    r = _single_degree_chart(J)
    d = _common_degree(forms)
    if d != r:
        raise MathDomainError(f"forms of degree {d} against a degree-{r} chart")
    marked = marked_slice(forms, J, r)
    return ChartPoint(chart=J, marked_set=tuple(marked[h] for h in J.gens))


def initial_monomials_gauss(forms) -> MonomialIdeal:
    """Degrevlex-leading monomials of a linearly independent system of forms."""
    d = _common_degree(forms)
    rows, cols = coefficient_matrix(forms)
    R, pivots = linalg.rref(rows)
    if len(pivots) != len(forms):
        raise MathDomainError(
            f"forms are linearly dependent (rank {len(pivots)} of {len(forms)})")
    return MonomialIdeal(forms[0].n, [cols[c] for c in pivots])


def _check_bound(bound):
    if bound < 1:
        raise MathDomainError("bound must be at least 1")


_MAX_DRAWS = 1000


def _draw_invertible(rng, n, bound):
    """Integer matrix with entries in [-bound, bound] and nonzero determinant."""
    for _ in range(_MAX_DRAWS):
        g = tuple(tuple(rng.randint(-bound, bound) for _ in range(n + 1))
                  for _ in range(n + 1))
        if linalg.det([list(r) for r in g]) != 0:
            return g
    raise IterationCapError(
        f"no invertible matrix with entries in [-{bound}, {bound}] "
        f"after {_MAX_DRAWS} draws")


def random_coordinate_change(n, seed, bound=10):
    """Seeded random integer matrix with nonzero determinant; deterministic."""
    _check_bound(bound)
    return _draw_invertible(random.Random(seed), n, bound)


def in_hilb(forms, constants: ChartConstants) -> bool:
    """Membership at the Gotzmann level: rank of the next-degree matrix.

    Requires dim I_r = q(r); membership holds iff dim S_1*I_r equals q(r+1).
    By the Macaulay lower bound the rank can never be smaller.
    """
    r = constants.r
    d = _common_degree(forms)
    if d != r:
        raise MathDomainError(f"membership test needs forms of degree {r}, got {d}")
    if dimension_in_degree(forms, r) != constants.s:
        raise MathDomainError(
            f"degree-{r} component has the wrong dimension (expected {constants.s})")
    got = dimension_in_degree(forms, r + 1)
    if got < constants.s_prime:
        raise MathDomainError("rank below the Macaulay bound; inconsistent input")
    return got == constants.s_prime


_FORMS_MAX_SHIFT = 40


def hilbert_polynomial_of_forms(gens) -> HilbertPoly:
    """Hilbert polynomial of S/(gens), certified by Gotzmann persistence.

    The Hilbert function is the corank of the exact span in each degree from
    the largest generator degree on, up to the first degree of maximal
    growth; see hilbert.certified_hilbert_polynomial.
    """
    if not gens or all(not g for g in gens):
        raise MathDomainError("cannot infer a Hilbert polynomial from the zero ideal")
    gens = [g for g in gens if g]
    n = gens[0].n
    return certified_hilbert_polynomial(
        lambda t: ambient_dimension(n, t) - dimension_in_degree(gens, t),
        max(g.degree for g in gens), _FORMS_MAX_SHIFT)


@dataclass(frozen=True)
class OpenSetResult:
    """Output of the chart search: the coordinate change and the chart found."""

    g: tuple
    chart: BorelChartIdeal
    tried: int
    constants: ChartConstants


def _chart_search_setup(gens, max_ambient, max_nodes):
    n = gens[0].n
    p = hilbert_polynomial_of_forms(gens)
    constants = chart_constants(p, n)
    charts = [BorelChartIdeal.from_saturation(sat, constants.r)
              for sat in enumerate_borel_saturated(n, p, max_ambient, max_nodes)]
    basis = degree_basis(gens, constants.r)
    if len(basis) != constants.s:
        raise MathDomainError(
            f"dim I_{constants.r} = {len(basis)} but q(r) = {constants.s}; "
            "the ideal does not define a point of this Hilbert scheme")
    return constants, charts, basis


def _charts_containing(basis, g, charts):
    """Lazily yield the charts, in order, that contain the span of basis after g."""
    transformed = [apply_change_of_coords(f, g) for f in basis]
    return (chart for chart in charts
            if pluecker_coordinate(transformed, chart.chart) != 0)


def borel_open_set(gens, seed=0, bound=10, g=None, max_tries=64,
                   max_ambient=120, max_nodes=2_000_000) -> OpenSetResult:
    """Find (g, J) with J Borel of minimal saturated regularity and I^g in its chart.

    Draws seeded random rational coordinate changes until some Borel chart of
    the ideal's Hilbert scheme contains the transformed ideal; charts are
    tried in order of increasing regularity of the saturation.  A fixed g may
    be supplied, in which case no redraws happen.
    """
    _check_bound(bound)
    constants, charts, basis = _chart_search_setup(gens, max_ambient, max_nodes)
    rng = random.Random(seed)
    tried = 0
    while tried < max_tries:
        tried += 1
        gm = g if g is not None else _draw_invertible(rng, gens[0].n, bound)
        chart = next(_charts_containing(basis, gm, charts), None)
        if chart is not None:
            return OpenSetResult(g=gm, chart=chart, tried=tried,
                                 constants=constants)
        if g is not None:
            raise NotInChartError(
                "the supplied change of coordinates lands in no Borel chart")
    raise IterationCapError(
        f"no chart found after {max_tries} random coordinate changes")


def all_charts(gens, g, max_ambient=120, max_nodes=2_000_000):
    """Every Borel chart (for the ideal's Hilbert polynomial) containing I^g."""
    _, charts, basis = _chart_search_setup(gens, max_ambient, max_nodes)
    return list(_charts_containing(basis, g, charts))
