"""Grassmannian charts via exact linear algebra.

The Hilbert polynomial of forms is that of their initial ideal, from
``oracle``.  One row builder, ``_span_rows``, gives the Macaulay rows of the
degree-t slice of an ideal, which for forms of degree t are their
coefficient rows.  On them rests the canonical degree basis of a span,
``degree_basis``: its reduced row echelon rows.  The degree basis is
memoized by value for the last two spans asked for, and its forms are
immutable XPolys shared by every caller.  The seeded random-coordinate
search that locates an arbitrary ideal in a Borel chart transforms the
generators of degree at most r, not the degree-r basis: the Macaulay rows
x^m * g(f) of their images span g(I)_r and stay sparse, with small
entries, and their reduced rows are the same canonical basis.  It takes
each Plucker coordinate as the determinant of the reduced rows'
coefficient dicts on the columns of B_J (no listing of degree r) and hands
those rows back as ``OpenSetResult.basis``.  ``chart_form`` reads the
marked slice (reduced row echelon against the head columns of a monomial
ideal) off the degree basis of its forms, as it stands when the rows are
already x^a plus a tail outside B_J, and the Hilbert-scheme membership test
at the Gotzmann level builds the next degree from that basis.  Ranks, minors
and echelon forms all come from the one sparse elimination in ``linalg``;
every row passed to or from it is a dict from column index to nonzero
coefficient.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import add

from . import linalg, oracle
from .borel import MAX_AMBIENT, MAX_NODES, BorelChartIdeal, MonomialIdeal, borel_charts
from .errors import IterationCapError, MathDomainError, NotInChartError, ScaleCapError
from .hilbert import (ChartConstants, HilbertPoly, ambient_dimension, chart_constants,
                      hilbert_polynomial_of_exponents)
from .ring import (_MAX_LISTED_ENTRIES, ParamPoly, XPoly, apply_change_of_coords,
                   monomials_of_degree)


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


def _basis_of_rows(rows, columns, n, d):
    """RREF rows of a coefficient matrix as forms over the columns, and the pivots."""
    R, pivots = linalg.rref(rows)
    return [XPoly._from_dict(n, {columns[j].exps: c for j, c in row.items()}, d)
            for row in R], pivots


def _span_rows(gens, t, columns=None):
    """Coefficient rows of the degree-t multiples x^m * f of the generators.

    One row per generator f of degree at most t and per degree (t - deg f)
    monomial x^m, in that order, against the degree-t columns
    (degrevlex descending unless given): the rows of a Macaulay matrix.
    Each row is a dict from column index to coefficient holding exactly the
    terms of x^m * f, built straight from exponent tuples, the column of a
    term being that of (term exponents + multiplier exponents); no form is
    built per multiple.  Returns (rows, columns).  A matrix whose dense size
    exceeds the listing cap raises ScaleCapError before it is built.
    """
    if not gens:
        raise MathDomainError("empty generator list")
    n = gens[0].n
    if columns is None:
        columns = monomials_of_degree(n, t)
    size = len(columns) * sum(ambient_dimension(n, t - f.degree)
                              for f in gens if f.degree <= t)
    if size > _MAX_LISTED_ENTRIES:
        raise ScaleCapError(f"the degree-{t} Macaulay matrix of {size} entries exceeds "
                            f"the cap of {_MAX_LISTED_ENTRIES} entries")
    index = {m.exps: j for j, m in enumerate(columns)}
    rows = []
    for f in gens:
        if f.degree > t:
            continue
        if f.n != n:
            raise MathDomainError("forms live in different ambient rings")
        if not f.is_scalar():
            raise MathDomainError("coefficient matrix needs scalar coefficients")
        for mult in monomials_of_degree(n, t - f.degree):
            s = mult.exps
            rows.append({index[tuple(map(add, e, s))]: c for e, c in f._terms.items()})
    return rows, columns


def dimension_in_degree(gens, t):
    """dim_K of the degree-t slice of the ideal generated by the forms."""
    return linalg.rank(_span_rows(gens, t)[0])


def degree_basis(gens, t):
    """A canonical basis of the degree-t slice of the generated ideal.

    The reduced row echelon rows of the slice over the degrevlex-descending
    columns, as forms; each holds its pivot and otherwise only the columns
    of no pivot.  The last two spans asked for are memoized by value, so
    an equal list of forms built elsewhere hits the memo; each call returns
    a fresh list of the same forms, which nothing mutates.  Errors are not
    cached.
    """
    return list(_degree_basis(tuple(gens), t))


@functools.lru_cache(maxsize=2)
def _degree_basis(gens, t):
    """The degree basis of a generator tuple, as a tuple.

    Two entries cover locating an ideal: the span of the forms themselves,
    whose dimension the chart search checks, and the span of their images
    under the coordinate change, on which it tests the charts.  A caller
    that transforms a basis itself gets a third span, reduced once for
    ``chart_form`` and read again by ``in_hilb``.
    """
    return tuple(_basis_of_rows(*_span_rows(gens, t), gens[0].n, t)[0])


def _check_chart_forms(forms, J):
    """Degree r of the single-degree chart J; the forms must share r and J's ambient."""
    if J.is_zero() or not J.generated_in_single_degree():
        raise MathDomainError(f"chart ideal must be generated in one degree: {J}")
    r = J.gens[0].degree()
    d = _common_degree(forms)
    if d != r:
        raise MathDomainError(f"forms of degree {d} against a degree-{r} chart")
    if forms[0].n != J.n:
        raise MathDomainError("ambient mismatch between forms and chart")
    return r


def pluecker_coordinate(forms, J: MonomialIdeal) -> Fraction:
    """Maximal minor of the forms' coefficient dicts on the columns of B_J.

    The value depends on the chosen basis of the span only up to a global
    nonzero scalar, so only the zero / nonzero dichotomy is intrinsic.
    """
    _check_chart_forms(forms, J)
    if len(forms) != len(J.gens):
        raise MathDomainError(
            f"expected {len(J.gens)} forms for this chart, got {len(forms)}")
    if not all(f.is_scalar() for f in forms):
        raise MathDomainError("coefficient matrix needs scalar coefficients")
    position = {m.exps: k for k, m in enumerate(J.gens)}
    return linalg.det([{position[e]: c for e, c in f._terms.items() if e in position}
                       for f in forms])


@dataclass(frozen=True)
class ChartPoint:
    """An ideal presented by its marked set over a single-degree chart."""

    chart: MonomialIdeal
    marked_set: tuple


def marked_slice(gens, T: MonomialIdeal, t):
    """Marked polynomials of the degree-t slice of the ideal (gens) over T.

    For forms of degree t that slice is their span.  Row reduces the rows of
    the degree-t multiples of the generators against the columns
    [T_t | N(T)_t]; the reduced row pivoted on x^a in T_t is the marked
    polynomial x^a - sum c * x^g with tail supported on N(T)_t.  Returns a
    dict x^a -> marked polynomial.  Raises MathDomainError when the slice's
    dimension differs from dim T_t and NotInChartError when some pivot falls
    outside T_t (the Plucker coordinate of T_t vanishes on the slice).
    """
    if gens and gens[0].n != T.n:
        raise MathDomainError("ambient mismatch between forms and chart")
    inside = T.monomials_at(t)
    rows, columns = _span_rows(gens, t, inside + T.sous_escalier_at(t))
    basis, pivots = _basis_of_rows(rows, columns, T.n, t)
    if len(pivots) != len(inside):
        raise MathDomainError(
            f"span has dimension {len(pivots)}, chart expects {len(inside)}")
    if pivots != list(range(len(inside))):
        raise NotInChartError(
            f"Plucker coordinate of {T} vanishes on the degree-{t} slice")
    return dict(zip(inside, basis))


def chart_form(forms, J: MonomialIdeal) -> ChartPoint:
    """Unique marked-set presentation of span(forms) over the chart J.

    The marked polynomials are the degree-r marked slice of the span, in the
    order of B_J, read off its degree basis: the marked set is unique, so
    the sparse reduced rows serve as well as the forms.  When each row of
    the degree basis meets B_J in one monomial x^a, with coefficient 1, and
    the x^a are all of B_J (so the pivots are B_J), the rows are already the
    marked polynomials; otherwise the basis is reduced against B_J by
    ``marked_slice``.  Raises NotInChartError when the Plucker coordinate of
    J vanishes.
    """
    r = _check_chart_forms(forms, J)
    basis = degree_basis(forms, r)
    marked = _marked_rows(basis, J)
    if marked is None:
        marked = marked_slice(basis, J, r)
    return ChartPoint(chart=J, marked_set=tuple(marked[h] for h in J.gens))


def _marked_rows(basis, J):
    """The rows as a dict x^a -> row when they are x^a plus a tail outside B_J.

    None unless there is one row per generator x^a of J, each holding
    exactly one monomial of B_J, x^a itself, with coefficient 1.
    """
    heads = {m.exps: m for m in J.gens}
    marked = {}
    for f in basis:
        inside = [e for e in f._terms if e in heads]
        if len(inside) != 1 or f._terms[inside[0]] != 1:
            return None
        marked[heads[inside[0]]] = f
    return marked if len(marked) == len(heads) == len(basis) else None


def _check_bound(bound):
    if bound < 1:
        raise MathDomainError("bound must be at least 1")


_MAX_DRAWS = 1000


def _draw_invertible(rng, n, bound):
    """Integer matrix with entries in [-bound, bound] and nonzero determinant."""
    for _ in range(_MAX_DRAWS):
        g = tuple(tuple(rng.randint(-bound, bound) for _ in range(n + 1))
                  for _ in range(n + 1))
        if linalg.det([{j: a for j, a in enumerate(row) if a} for row in g]) != 0:
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
    By the Macaulay lower bound the rank can never be smaller.  The dict
    rows x_j*f come from the memoized degree basis of the forms: each holds
    its pivot and otherwise only the N(r) - q(r) non-pivot columns, so stays
    sparse.
    """
    r = constants.r
    d = _common_degree(forms)
    if d != r:
        raise MathDomainError(f"membership test needs forms of degree {r}, got {d}")
    if forms[0].n != constants.n:
        raise MathDomainError("ambient mismatch between forms and Hilbert scheme")
    basis = degree_basis(forms, r)
    if len(basis) != constants.s:
        raise MathDomainError(
            f"degree-{r} component has the wrong dimension (expected {constants.s})")
    got = dimension_in_degree(basis, r + 1)
    if got < constants.s_prime:
        raise MathDomainError("rank below the Macaulay bound; inconsistent input")
    return got == constants.s_prime


def hilbert_polynomial_of_forms(gens) -> HilbertPoly:
    """Hilbert polynomial of S/in(I), the same as that of S/(gens) = S/I.

    in(I) is led by a degrevlex oracle.groebner_basis, x_k being the variable
    (k,); max_vars = n + 1 leaves the bound on n to the ambient cap.
    """
    if not any(gens):
        raise MathDomainError("cannot infer a Hilbert polynomial from the zero ideal")
    gens = [g for g in gens if g]
    n = gens[0].n
    if any(f.n != n or not f.is_scalar() for f in gens):
        raise MathDomainError("need forms with scalar coefficients in one ambient ring")
    basis = oracle.groebner_basis(
        [ParamPoly._from_dict({tuple(((k,), x) for k, x in enumerate(e) if x): c
                               for e, c in f._terms.items()}) for f in gens],
        max_vars=n + 1)
    variables = sorted({v for p in basis for v in p.variables()})
    key = oracle.make_order(variables)
    leads = [dict(max(p._terms, key=key)) for p in basis]
    return hilbert_polynomial_of_exponents(
        [tuple(lead.get(v, 0) for v in variables) for lead in leads], n)


@dataclass(frozen=True)
class OpenSetResult:
    """Output of the chart search: the coordinate change, chart and span found."""

    g: tuple
    chart: BorelChartIdeal
    tried: int
    constants: ChartConstants
    basis: tuple        # degree_basis of the degree-r slice after g


def _chart_search_setup(gens, max_ambient, max_nodes):
    constants = chart_constants(hilbert_polynomial_of_forms(gens), gens[0].n)
    charts = borel_charts(constants, max_ambient, max_nodes)
    dim = len(degree_basis(gens, constants.r))
    if dim != constants.s:
        raise MathDomainError(
            f"dim I_{constants.r} = {dim} but q(r) = {constants.s}; "
            "the ideal does not define a point of this Hilbert scheme")
    return constants, charts


def _charts_containing(gens, g, charts, r):
    """The reduced degree-r slice of (gens) after g, and the charts containing it.

    The generators of degree at most r are transformed, and the degree-r
    multiples x^m * g(f) of their images, which span g(I)_r, are row
    reduced once through the memoized degree_basis: Macaulay rows, sparse
    with small entries.  The reduced rows are canonical, so they are the
    same whichever spanning set they come from.  Each chart's Plucker
    coordinate is a minor of those rows, and whether it vanishes does not
    depend on the basis.  The charts are yielded lazily.
    """
    reduced = degree_basis([apply_change_of_coords(f, g) for f in gens
                            if f.degree <= r], r)
    return reduced, (chart for chart in charts
                     if pluecker_coordinate(reduced, chart.chart) != 0)


def borel_open_set(gens, seed=0, bound=10, g=None, max_tries=64,
                   max_ambient=MAX_AMBIENT, max_nodes=MAX_NODES) -> OpenSetResult:
    """Find (g, J) with J Borel of minimal saturated regularity and I^g in its chart.

    Draws seeded random rational coordinate changes until some Borel chart of
    the ideal's Hilbert scheme contains the transformed ideal; charts are
    tried in order of increasing regularity of the saturation.  A fixed g may
    be supplied, in which case no redraws happen.  The result's basis is
    the reduced transformed span the search found the chart on.
    """
    _check_bound(bound)
    constants, charts = _chart_search_setup(gens, max_ambient, max_nodes)
    rng = random.Random(seed)
    tried = 0
    while tried < max_tries:
        tried += 1
        gm = g if g is not None else _draw_invertible(rng, gens[0].n, bound)
        reduced, found = _charts_containing(gens, gm, charts, constants.r)
        chart = next(found, None)
        if chart is not None:
            return OpenSetResult(g=gm, chart=chart, tried=tried,
                                 constants=constants, basis=tuple(reduced))
        if g is not None:
            raise NotInChartError(
                "the supplied change of coordinates lands in no Borel chart")
    raise IterationCapError(
        f"no chart found after {max_tries} random coordinate changes")


def all_charts(gens, g, max_ambient=MAX_AMBIENT, max_nodes=MAX_NODES):
    """Every Borel chart (for the ideal's Hilbert polynomial) containing I^g."""
    constants, charts = _chart_search_setup(gens, max_ambient, max_nodes)
    return list(_charts_containing(gens, g, charts, constants.r)[1])
