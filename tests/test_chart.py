import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from borelcover import chart as chart_module
from borelcover.borel import (MonomialIdeal, borel_charts, enumerate_borel_in_g,
                              is_strongly_stable, truncate)
from borelcover.chart import (ChartPoint, _common_degree, _degree_basis, _draw_invertible,
                              _span_rows, all_charts, borel_open_set, chart_form,
                              degree_basis, dimension_in_degree,
                              hilbert_polynomial_of_forms, in_hilb,
                              marked_slice, pluecker_coordinate,
                              random_coordinate_change)
from borelcover.errors import (IterationCapError, MathDomainError,
                               NotInChartError, ScaleCapError)
from borelcover.hilbert import (ambient_dimension, chart_constants, hilbert_polynomial,
                                parse_hilbert_poly)
from borelcover import linalg
from borelcover.ring import (XPoly, apply_change_of_coords, monomials_of_degree,
                             parse_xpoly)

from conftest import (borel_closure, certified_hilbert_polynomial, dict_rows,
                      marked_set_from_ideal, monomial_ideals, record_fields,
                      reference_chart_records)

TWO_POINTS = [
    "x0^2 - x0*x2", "x1^2 - x1*x2", "x2^2 - x0*x2 - x1*x2", "x0*x1",
]
NON_BOREL_CHART = "x0^2, x1^2, x2^2, x0*x1"


def _monomial_forms(J):
    return [XPoly.from_monomial(g) for g in J.gens]


def coefficient_matrix(forms):
    """Rows of coefficients of scalar forms against degrevlex-descending columns.

    A reference for the library's one row builder: one dense row per form,
    read off its terms, a zero row for a zero form.
    """
    d = _common_degree(forms)
    columns = monomials_of_degree(forms[0].n, d)
    rows = []
    for f in forms:
        if not f.is_scalar():
            raise MathDomainError("coefficient matrix needs scalar coefficients")
        lookup = dict(f.terms)
        rows.append([lookup.get(m, Fraction(0)) for m in columns])
    return rows, columns


def row_space_basis(forms):
    """A canonical basis (RREF rows) of the span of the given forms."""
    rows, columns = coefficient_matrix(forms)
    R, _ = linalg.rref(dict_rows(rows))
    return [XPoly(forms[0].n, [(columns[j], c) for j, c in row.items()],
                  forms[0].degree) for row in R]


class TestPluecker:
    def test_chart_against_itself(self, j1sat):
        T = truncate(j1sat, 4)
        assert pluecker_coordinate(_monomial_forms(T), T) == 1

    def test_sheared_quadrics(self, two_quadrics, g_shear):
        transformed = [apply_change_of_coords(f, g_shear) for f in two_quadrics]
        J = MonomialIdeal.parse("x2^2, x2*x1", 2)
        assert pluecker_coordinate(row_space_basis(transformed), J) != 0

    def test_zero_form_gives_a_zero_row(self):
        forms = [parse_xpoly("x2^2 + x1*x0", 2), XPoly.zero(2, 2)]
        J = MonomialIdeal.parse("x2^2, x2*x1", 2)
        assert pluecker_coordinate(forms, J) == 0

    def test_different_monomial_ideal_vanishes(self):
        J = MonomialIdeal.parse("x2^2, x2*x1", 2)
        other = MonomialIdeal.parse("x2^2, x1^2", 2)
        assert pluecker_coordinate(_monomial_forms(other), J) == 0

    def test_wrong_form_count(self, j1sat):
        T = truncate(j1sat, 4)
        with pytest.raises(MathDomainError):
            pluecker_coordinate(_monomial_forms(T)[:5], T)

    def test_mixed_degrees_rejected(self, j1sat):
        with pytest.raises(MathDomainError):
            pluecker_coordinate([parse_xpoly("x2", 2), parse_xpoly("x2^2", 2)],
                                truncate(j1sat, 4))


def reference_pluecker(forms, J):
    """The minor of the dense coefficient matrix on the columns of B_J."""
    rows, columns = coefficient_matrix(forms)
    keep = [columns.index(h) for h in J.gens]
    return linalg.det(dict_rows([[row[j] for j in keep] for row in rows]))


@st.composite
def forms_and_charts(draw):
    """Forms of one degree d in P^n and a chart J of as many degree-d monomials."""
    n, d = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    mons = monomials_of_degree(n, d)
    k = draw(st.integers(1, min(len(mons), 4)))
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    forms = [XPoly(n, [(m, draw(coeff)) for m in
                       draw(st.lists(st.sampled_from(mons), max_size=5, unique=True))], d)
             for _ in range(k)]
    J = MonomialIdeal(n, draw(st.lists(st.sampled_from(mons), min_size=k, max_size=k,
                                       unique=True)))
    return forms, J


class TestPlueckerFromCoefficientDicts:
    @settings(max_examples=60)
    @given(forms_and_charts())
    def test_against_the_dense_minor(self, forms_and_chart):
        forms, J = forms_and_chart
        assert pluecker_coordinate(forms, J) == reference_pluecker(forms, J)

    def test_no_macaulay_matrix_and_no_listing(self, monkeypatch):
        # every chart of six plane points, tried on a located (2,3) complete
        # intersection as the chart search tries them
        gens = complete_intersection(2, (2, 3), 1)
        res = borel_open_set(gens, seed=1)
        charts = [ch.chart for ch in borel_charts(res.constants, 120, 2_000_000)]
        want = [reference_pluecker(list(res.basis), J) for J in charts]
        assert any(want) and not all(want)
        calls = []
        for name in ("_span_rows", "monomials_of_degree"):
            def counted(*args, name=name, real=getattr(chart_module, name)):
                calls.append(name)
                return real(*args)
            monkeypatch.setattr(chart_module, name, counted)
        assert [pluecker_coordinate(list(res.basis), J) for J in charts] == want
        assert calls == []

    def test_scalar_coefficients_after_the_count(self):
        J = MonomialIdeal.parse("x2^2, x2*x1", 2)
        forms = [parse_xpoly("C[1,1]*x2^2 + x0^2", 2), parse_xpoly("x2*x1", 2)]
        with pytest.raises(MathDomainError,
                           match="^coefficient matrix needs scalar coefficients$"):
            pluecker_coordinate(forms, J)
        with pytest.raises(MathDomainError, match="^expected 2 forms for this chart, got 1$"):
            pluecker_coordinate(forms[:1], J)


class TestChartInputChecks:
    # pluecker_coordinate and chart_form share these checks, in this order
    @pytest.mark.parametrize("forms, chart, message", [
        (["x2^2", "x1"], "x2^2, x1", r"chart ideal must be generated in one degree: \("),
        ([], "x2^2, x2*x1", "empty list of forms"),
        (["x2^2", "x1"], "x2^2, x2*x1", r"forms of mixed degrees \[1, 2\]"),
        (["x2", "x3"], "x2^2, x2*x1", "forms live in different ambient rings"),
        (["x2", "x1"], "x2^2, x2*x1", "forms of degree 1 against a degree-2 chart"),
        (["x3", "x3 + x0"], "x2^2, x2*x1", "forms of degree 1 against a degree-2 chart"),
        (["x3^2", "x3*x2"], "x2^2, x2*x1", "ambient mismatch between forms and chart"),
    ], ids=["chart", "no-forms", "mixed", "ambients", "degree", "degree-first",
            "ambient"])
    def test_same_messages(self, forms, chart, message):
        J = MonomialIdeal.parse(chart, 2)
        parsed = [parse_xpoly(f, 3 if "x3" in f else 2) for f in forms]
        for check in (pluecker_coordinate, chart_form):
            with pytest.raises(MathDomainError, match=f"^{message}"):
                check(parsed, J)


class TestChartForm:
    def test_sheared_quadrics(self, two_quadrics, g_shear):
        transformed = [apply_change_of_coords(f, g_shear) for f in two_quadrics]
        point = chart_form(transformed, MonomialIdeal.parse("x2^2, x2*x1", 2))
        assert [str(f) for f in point.marked_set] == \
            ["x2^2", "x2*x1 + 1/2*x1^2"]

    def test_monomial_point_has_zero_tails(self, j1sat):
        T = truncate(j1sat, 4)
        point = chart_form(_monomial_forms(T), T)
        assert list(point.marked_set) == _monomial_forms(T)

    def test_eleven_element_marked_basis(self, two_quadrics, g_shear, j1sat):
        basis = degree_basis(two_quadrics, 4)
        transformed = [apply_change_of_coords(f, g_shear) for f in basis]
        point = chart_form(transformed, truncate(j1sat, 4))
        from borelcover.fixtures import QUARTIC_POINTS, reference_marked_basis
        assert list(point.marked_set) == reference_marked_basis(QUARTIC_POINTS)

    def test_not_in_chart(self, j1sat, j2sat):
        T1, T2 = truncate(j1sat, 4), truncate(j2sat, 4)
        with pytest.raises(NotInChartError):
            chart_form(_monomial_forms(T2), T1)

    def test_wrong_dimension_is_a_domain_error(self, j1sat):
        T = truncate(j1sat, 4)
        forms = _monomial_forms(T)
        for bad in (forms[:5], forms[:-1] + forms[:1]):
            with pytest.raises(MathDomainError) as exc:
                chart_form(bad, T)
            assert not isinstance(exc.value, NotInChartError)

    def test_reference_coefficient_matrix(self, two_quadrics, g_shear):
        # the reduced matrix is the identity block on the chart columns with
        # a single 1/2 entry in the tail block
        transformed = [apply_change_of_coords(f, g_shear) for f in two_quadrics]
        point = chart_form(transformed, MonomialIdeal.parse("x2^2, x2*x1", 2))
        rows, cols = coefficient_matrix(point.marked_set)
        assert [str(m) for m in cols] == \
            ["x2^2", "x2*x1", "x1^2", "x2*x0", "x1*x0", "x0^2"]
        assert rows == [
            [1, 0, 0, 0, 0, 0],
            [0, 1, Fraction(1, 2), 0, 0, 0],
        ]

    def test_row_space_preserved(self, two_quadrics, g_shear):
        transformed = [apply_change_of_coords(f, g_shear) for f in two_quadrics]
        J = MonomialIdeal.parse("x2^2, x2*x1", 2)
        point = chart_form(transformed, J)
        stacked = list(transformed) + list(point.marked_set)
        rows, _ = coefficient_matrix(stacked)
        assert linalg.rank(dict_rows(rows)) == len(J.gens)


class TestMarkedSlice:
    def test_chart_form_agrees_with_marked_set_from_ideal(self, two_quadrics,
                                                          g_shear):
        basis = degree_basis(two_quadrics, 4)
        transformed = [apply_change_of_coords(f, g_shear) for f in basis]
        points = [(transformed, c.chart)
                  for c in all_charts(two_quadrics, g_shear)]
        two_points = [parse_xpoly(s, 2) for s in TWO_POINTS]
        for gens in (two_quadrics, two_points):
            for seed in range(6):
                res = borel_open_set(gens, seed=seed)
                basis = degree_basis(gens, res.constants.r)
                points.append(([apply_change_of_coords(f, res.g) for f in basis],
                               res.chart.chart))
        for forms, J in points:
            assert chart_form(forms, J).marked_set == \
                tuple(marked_set_from_ideal(forms, J))

    def test_keys_are_the_ideal_slice(self, j1sat):
        T = truncate(j1sat, 3)
        forms = [XPoly.from_monomial(m) for m in T.monomials_at(4)]
        marked = marked_slice(forms, T, 4)
        assert list(marked) == T.monomials_at(4)
        assert all(f == XPoly.from_monomial(m) for m, f in marked.items())


def initial_monomials(forms):
    """Degrevlex-leading monomials of the span: the pivot columns of its RREF."""
    rows, columns = coefficient_matrix(forms)
    return MonomialIdeal(forms[0].n,
                         [columns[c] for c in linalg.rref(dict_rows(rows))[1]])


class TestGaussianInitialMonomials:
    def test_initial_ideal_chart_is_nonzero(self, two_quadrics):
        # the Gaussian initial monomials always give a usable chart
        basis = degree_basis(two_quadrics, 4)
        for seed in range(4):
            g = random_coordinate_change(2, seed, bound=5)
            transformed = [apply_change_of_coords(f, g) for f in basis]
            J = initial_monomials(transformed)
            assert pluecker_coordinate(row_space_basis(transformed), J) != 0


class TestRandomCoordinateChange:
    def test_deterministic(self):
        assert random_coordinate_change(2, 42) == random_coordinate_change(2, 42)

    def test_invertible_even_with_tiny_bound(self):
        for seed in range(10):
            g = random_coordinate_change(2, seed, bound=1)
            assert linalg.det(dict_rows(g)) != 0

    def test_singular_draws_are_capped(self):
        # entries in [0, 0] are always singular; the draw gives up
        with pytest.raises(IterationCapError):
            _draw_invertible(random.Random(0), 2, 0)

    def test_explicit_shear_is_invertible(self, g_shear):
        assert linalg.det(dict_rows(g_shear)) != 0


class TestInHilb:
    def test_transformed_quadrics(self, two_quadrics, g_shear):
        c = chart_constants(4, 2)
        basis = degree_basis(two_quadrics, 4)
        transformed = [apply_change_of_coords(f, g_shear) for f in basis]
        assert in_hilb(transformed, c)

    def test_chart_monomial_point(self, j1sat):
        c = chart_constants(4, 2)
        assert in_hilb(_monomial_forms(truncate(j1sat, 4)), c)

    def test_cubic_curves_outsider(self):
        c = chart_constants("3*t", 3)
        J1 = MonomialIdeal.parse("x2^3, x3^2, x2^2*x1, x3*x1, x3*x2", 3)
        assert not in_hilb(_monomial_forms(truncate(J1, 3)), c)

    def test_membership_matches_polynomial(self):
        # nonemptiness of a Borel chart is equivalent to the right polynomial
        c = chart_constants("3*t", 3)
        for J in enumerate_borel_in_g(3, c.r, c.s):
            assert in_hilb(_monomial_forms(J), c) == \
                (hilbert_polynomial(J) == c.p)

    def test_ambient_mismatch(self):
        forms = [parse_xpoly(s, 3) for s in ("x0^2", "x0*x1", "x0*x2", "x0*x3")]
        with pytest.raises(MathDomainError, match="ambient mismatch"):
            in_hilb(forms, chart_constants("2", 2))


def raw_forms_in_hilb(forms, constants):
    """The membership test ranked on the raw forms at degrees r and r + 1."""
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


def _outcome(test, forms, constants):
    try:
        return test(forms, constants)
    except MathDomainError as exc:
        return type(exc), str(exc)


# Every Borel ideal of G(s, S_r) for (3, 3t) and (2, 4), with its chart
# constants: three members and four empty loci in all.
BOREL_POINTS = [(c, J) for c in (chart_constants("3*t", 3), chart_constants(4, 2))
                for J in enumerate_borel_in_g(c.n, c.r, c.s)]


class TestInHilbAgainstRawForms:
    def test_every_borel_ideal(self):
        verdicts = []
        for c, J in BOREL_POINTS:
            forms = _monomial_forms(J)
            verdicts.append(in_hilb(forms, c))
            assert verdicts[-1] == raw_forms_in_hilb(forms, c) == \
                (hilbert_polynomial(J) == c.p)
        assert verdicts.count(True) == 3 and verdicts.count(False) == 4

    @settings(max_examples=30)
    @given(st.booleans(), st.data(), st.integers(0, 2 ** 32))
    def test_under_integer_coordinate_change(self, member, data, seed):
        c, J = data.draw(st.sampled_from(
            [(c, J) for c, J in BOREL_POINTS if (hilbert_polynomial(J) == c.p) == member]))
        g = random_coordinate_change(c.n, seed, bound=3)
        forms = [apply_change_of_coords(f, g) for f in _monomial_forms(J)]
        assert in_hilb(forms, c) is member
        assert raw_forms_in_hilb(forms, c) is member

    @pytest.mark.parametrize("forms, match", [
        (["x2^2", "x2*x1", "x1^2", "x2^2 + x2*x1"], "wrong dimension"),
        (["C[1,1]*x2^2 + x0^2", "x2*x1", "x1^2", "x0*x1"], "scalar coefficients"),
        (["x2^2", "x2*x1", "x1^2", "x1"], "mixed degrees"),
        (["x2", "x1", "x0", "x2 + x1"], "needs forms of degree 2"),
    ])
    def test_error_paths(self, forms, match):
        # two points in the plane: r = 2 and s = 4
        forms = [parse_xpoly(s, 2) for s in forms]
        c = chart_constants(2, 2)
        got = _outcome(in_hilb, forms, c)
        assert got == _outcome(raw_forms_in_hilb, forms, c)
        assert got[0] is MathDomainError and match in got[1]

    def test_next_degree_rows_are_sparse(self, monkeypatch):
        # the rows x_j*f come from the RREF basis, whose rows carry a pivot
        # and otherwise only the N(r) - s non-pivot columns
        c, J = next((c, J) for c, J in BOREL_POINTS
                    if c.n == 3 and hilbert_polynomial(J) == c.p)
        g = random_coordinate_change(c.n, 7, bound=3)
        forms = [apply_change_of_coords(f, g) for f in _monomial_forms(J)]
        assert max(len(f.terms) for f in forms) > 1 + c.N_r - c.s
        calls = []
        rank = linalg.rank
        monkeypatch.setattr(linalg, "rank", lambda rows: calls.append(rows) or rank(rows))
        assert in_hilb(forms, c)
        (rows,) = calls
        assert len(rows) == (c.n + 1) * c.s
        assert max(len(row) for row in rows) <= 1 + c.N_r - c.s


@st.composite
def generator_lists(draw):
    """Forms of degree 1..3 in P^n, n <= 3, with rational coefficients.

    A form may be zero; an empty draw of monomials gives one.
    """
    n = draw(st.integers(1, 3))
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        d = draw(st.integers(1, 3))
        mons = draw(st.lists(st.sampled_from(monomials_of_degree(n, d)),
                             max_size=4, unique=True))
        gens.append(XPoly(n, [(m, draw(coeff)) for m in mons], d))
    return gens


# a quadric and a quartic in P^3, with Hilbert polynomial 8t - 8
FOUND_QUADRIC_AND_QUARTIC = (
    "7/2*x2^1*x0^1 + 7/2*x1^2 + 1/3*x3^1*x0^1 + 2*x2^2",
    "(1/3*x3^2+1/3*x3^1*x0^1+2*x1^1*x0^1)^2")


def rank_walk_hilbert_polynomial(gens, max_shift):
    """Reference Hilbert polynomial of forms: the Gotzmann-certified walk over
    the coranks of whole degree slices, from the largest generator degree."""
    n = gens[0].n
    return certified_hilbert_polynomial(
        lambda t: ambient_dimension(n, t) - dimension_in_degree(gens, t),
        max(g.degree for g in gens), max_shift)


class TestHilbertPolynomialOfForms:
    def test_two_quadrics(self, two_quadrics):
        assert hilbert_polynomial_of_forms(two_quadrics) == parse_hilbert_poly("4")

    def test_two_points(self):
        forms = [parse_xpoly(s, 2) for s in TWO_POINTS]
        assert hilbert_polynomial_of_forms(forms) == parse_hilbert_poly("2")

    def test_transform_invariant(self, two_quadrics, g_shear):
        transformed = [apply_change_of_coords(f, g_shear) for f in two_quadrics]
        assert hilbert_polynomial_of_forms(transformed) == \
            hilbert_polynomial_of_forms(two_quadrics)

    def test_three_cubics_without_common_zero(self):
        # Hilbert function 6, 3, 1, 0, 0 from degree 2: interpolating it gave
        # 1/2*t^2-15/2*t+28; the polynomial is 0
        forms = [parse_xpoly(s, 2) for s in (
            "2*x2*x1^2 - x1^2*x0 - x1*x0^2",
            "-2*x2^2*x1 - 2*x1^3 - 2*x2^2*x0 - x2*x0^2 - x0^3",
            "-3*x2^3 + x2^2*x1 - x2^2*x0 + x2*x1*x0 + 3*x1*x0^2 - x0^3")]
        assert hilbert_polynomial_of_forms(forms).is_zero()

    def test_zero_ideal_rejected(self):
        for gens in ([], [XPoly.zero(2, 2)], [XPoly.zero(2, 1), XPoly.zero(2, 3)]):
            with pytest.raises(MathDomainError, match="zero ideal"):
                hilbert_polynomial_of_forms(gens)

    @settings(max_examples=40)
    @given(st.one_of(monomial_ideals(max_n=2, max_degree=3),
                     monomial_ideals(max_n=3, max_degree=3)).map(borel_closure))
    def test_matches_eliahou_kervaire_on_borel_closures(self, J):
        assert hilbert_polynomial_of_forms(_monomial_forms(J)) == \
            hilbert_polynomial(J)

    @settings(max_examples=25)
    @given(monomial_ideals(max_gens=2, max_degree=3), st.integers(0, 2 ** 32))
    def test_invariant_under_integer_coordinate_change(self, J, seed):
        g = random_coordinate_change(J.n, seed, bound=3)
        transformed = [apply_change_of_coords(f, g) for f in _monomial_forms(J)]
        assert hilbert_polynomial_of_forms(transformed) == hilbert_polynomial(J)

    @settings(max_examples=40)
    @given(generator_lists())
    def test_against_the_rank_walk(self, gens):
        assume(any(gens))
        try:
            walk = rank_walk_hilbert_polynomial([g for g in gens if g], 12)
        except ScaleCapError:
            assume(False)  # no certificate within the window: nothing to compare
        assert hilbert_polynomial_of_forms(gens) == walk

    def test_past_the_ambient_cap(self):
        # the rank walk reached degree 20 for the quadric and quartic and
        # degree 24 for the sextics before the ambient cap could fire
        forms = [parse_xpoly(s, 3) for s in FOUND_QUADRIC_AND_QUARTIC]
        assert hilbert_polynomial_of_forms(forms) == parse_hilbert_poly("8*t-8")
        sextics = [parse_xpoly(f"x{i}^6", 3) for i in (3, 2, 1)]
        assert hilbert_polynomial_of_forms(sextics) == parse_hilbert_poly("216")

    def test_errors(self):
        for gens in ([parse_xpoly("C[1,1]*x1 + x0", 1)],
                     [parse_xpoly("x1", 1), parse_xpoly("x1", 2)]):
            with pytest.raises(MathDomainError, match="scalar coefficients in one "
                               "ambient ring"):
                hilbert_polynomial_of_forms(gens)


def old_span_in_degree(gens, t):
    """The degree-t multiples x^m * f as forms, one XPoly per multiple."""
    n = gens[0].n
    return [XPoly.from_monomial(m) * f for f in gens if f and f.degree <= t
            for m in monomials_of_degree(n, t - f.degree)]


class TestSpanRowsAgainstFormMultiples:
    @settings(max_examples=40)
    @given(generator_lists(), st.integers(0, 2))
    def test_dimension_and_basis(self, gens, shift):
        t = max(f.degree for f in gens) + shift
        forms = old_span_in_degree(gens, t)
        assert dimension_in_degree(gens, t) == \
            (linalg.rank(dict_rows(coefficient_matrix(forms)[0])) if forms else 0)
        assert degree_basis(gens, t) == (row_space_basis(forms) if forms else [])

    @settings(max_examples=40)
    @given(generator_lists(), st.integers(0, 2))
    def test_each_row_holds_exactly_its_multiple(self, gens, shift):
        # zero forms included: each gives empty rows, one per multiplier
        t = max(f.degree for f in gens) + shift
        rows, columns = _span_rows(gens, t)
        multiples = [XPoly.from_monomial(m) * f for f in gens if f.degree <= t
                     for m in monomials_of_degree(gens[0].n, t - f.degree)]
        assert len(rows) == len(multiples)
        for row, h in zip(rows, multiples):
            assert all(c for c in row.values())
            assert {columns[j]: c for j, c in row.items()} == dict(h.terms)

    @settings(max_examples=40)
    @given(generator_lists())
    def test_forms_of_one_degree_against_coefficient_matrix(self, gens):
        d = gens[0].degree
        forms = [f for f in gens if f.degree == d]
        rows, columns = coefficient_matrix(forms)
        assert _span_rows(forms, d) == (dict_rows(rows), columns)
        assert degree_basis(forms, d) == row_space_basis(forms)

    def test_errors(self):
        for call in (dimension_in_degree, degree_basis):
            with pytest.raises(MathDomainError, match="empty generator list"):
                call([], 2)
            with pytest.raises(MathDomainError, match="scalar coefficients"):
                call([parse_xpoly("C[1,1]*x1 + x0", 1)], 2)

    def test_matrix_cap_before_building(self):
        # rows x columns = 3 * N(18) * N(24) in P^3: 3990 x 2925 > 10 M, while
        # degree 23 (3420 x 2600) stays under the cap
        sextics = [parse_xpoly(f"x{i}^6", 3) for i in (3, 2, 1)]
        with pytest.raises(ScaleCapError, match="degree-24 Macaulay matrix of "
                           "11670750 entries exceeds the cap of 10000000"):
            _span_rows(sextics, 24)
        # the column listing's cap keeps precedence: N(2) * 3001 > 10 M
        with pytest.raises(ScaleCapError, match=r"degree-2 monomials of P\^3000"):
            _span_rows([parse_xpoly("x1", 3000)], 2)
        rows, columns = _span_rows([parse_xpoly("x1", 3000)], 1)
        assert len(rows) == 1 and len(columns) == 3001


class TestBorelOpenSet:
    def test_explicit_shear(self, two_quadrics, g_shear, j1sat):
        res = borel_open_set(two_quadrics, g=g_shear)
        assert res.chart.saturation == j1sat
        assert res.chart.chart == truncate(j1sat, 4)

    def test_twenty_seeds(self, two_quadrics, j1sat):
        hits = 0
        for seed in range(20):
            res = borel_open_set(two_quadrics, seed=seed)
            basis = degree_basis(two_quadrics, res.constants.r)
            transformed = [apply_change_of_coords(f, res.g) for f in basis]
            assert pluecker_coordinate(transformed, res.chart.chart) != 0
            if res.chart.saturation == j1sat:
                hits += 1
        assert hits >= 19

    def test_identity_override_on_borel_point(self, j1sat):
        T = truncate(j1sat, 4)
        ident = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        res = borel_open_set(_monomial_forms(T), g=ident)
        assert res.g == ident
        assert res.chart.saturation == j1sat

    def test_two_points_ideal(self):
        forms = [parse_xpoly(s, 2) for s in TWO_POINTS]
        res = borel_open_set(forms, seed=3)
        assert res.chart.saturation == MonomialIdeal.parse("x2, x1^2", 2)
        basis = degree_basis(forms, res.constants.r)
        transformed = [apply_change_of_coords(f, res.g) for f in basis]
        assert pluecker_coordinate(transformed, res.chart.chart) != 0

    def test_all_charts_variant(self, two_quadrics, g_shear, j1sat, j2sat):
        charts = all_charts(two_quadrics, g_shear)
        sats = [c.saturation for c in charts]
        assert j1sat in sats

    def test_found_chart_is_the_first_containing_chart(self, two_quadrics,
                                                       g_shear):
        three_points = [parse_xpoly(s, 2) for s in ("x2*x1", "x2*x0", "x1*x0")]
        rng = random.Random(7)
        gs = [g_shear] + [_draw_invertible(rng, 2, 3) for _ in range(4)]
        most = 0
        for gens in (two_quadrics, three_points):
            for g in gs:
                charts = all_charts(gens, g)
                most = max(most, len(charts))
                regs = [c.regularity_sat for c in charts]
                assert regs == sorted(regs)
                if charts:
                    assert borel_open_set(gens, g=g).chart == charts[0]
        assert most >= 2

    def test_bad_override_raises(self, two_quadrics):
        ident = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        # (x2^2, x1^2) is itself monomial but not Borel, and its degree-4
        # truncation misses both Borel charts without a coordinate change
        with pytest.raises(NotInChartError):
            borel_open_set(two_quadrics, g=ident)

    def test_iteration_cap(self, two_quadrics):
        with pytest.raises(IterationCapError):
            borel_open_set(two_quadrics, seed=0, max_tries=0)

    def test_redraws_after_unlucky_changes(self, two_quadrics, j1sat):
        # with tiny entries the first draws miss every chart, forcing redraws
        res = borel_open_set(two_quadrics, seed=0, bound=1)
        assert res.tried > 1
        assert res.chart.saturation == j1sat


class TestSearchRecords:
    @pytest.mark.parametrize("n, gens", [
        (2, ("x2^2", "x1^2")),                            # in 1 of 2 charts
        (2, ("x2*x1", "x2*x0", "x1*x0")),                 # in both charts
        (3, ("x2^2-x3*x1", "x2*x1-x3*x0", "x1^2-x2*x0")),  # in 2 of 3 charts
    ])
    def test_records_equal_the_saturate_then_truncate_path(self, n, gens):
        forms = [parse_xpoly(s, n) for s in gens]
        g = random_coordinate_change(n, 0)
        c = chart_constants(hilbert_polynomial_of_forms(forms), n)
        basis = [apply_change_of_coords(f, g) for f in degree_basis(forms, c.r)]
        want = [ch for ch in reference_chart_records(c)
                if pluecker_coordinate(basis, ch.chart) != 0]
        got = all_charts(forms, g)
        assert want
        assert record_fields(got) == record_fields(want)
        assert borel_open_set(forms, g=g).chart == want[0]


class TestNonBorelChartCaution:
    def test_two_points_live_in_non_borel_chart(self):
        # regression: the emptiness criterion only applies to Borel charts
        J = MonomialIdeal.parse(NON_BOREL_CHART, 2)
        assert not is_strongly_stable(J)
        forms = [parse_xpoly(s, 2) for s in TWO_POINTS]
        c = chart_constants(2, 2)
        basis = degree_basis(forms, c.r)
        assert pluecker_coordinate(basis, J) != 0
        assert in_hilb(basis, c)


def complete_intersection(n, degrees, seed):
    """Seeded dense forms of the degrees in P^n, integer coefficients in [-5, 5]."""
    rng = random.Random(seed)
    return [XPoly(n, [(m, rng.randint(-5, 5)) for m in monomials_of_degree(n, d)], d)
            for d in degrees]


MEMO_CALLS = {
    "degree_basis": lambda gens, res, forms: degree_basis(gens, res.constants.r),
    "degree_basis-transformed":
        lambda gens, res, forms: degree_basis(forms, res.constants.r),
    "chart_form": lambda gens, res, forms: chart_form(forms, res.chart.chart),
    "in_hilb": lambda gens, res, forms: in_hilb(forms, res.constants),
    "borel_open_set": lambda gens, res, forms: borel_open_set(gens, seed=1),
    "all_charts": lambda gens, res, forms: all_charts(gens, res.g),
}


class TestDegreeBasisMemo:
    @pytest.fixture
    def located(self):
        """Six plane points: a (2,3) complete intersection, its chart search
        result and its transformed degree-r basis."""
        gens = complete_intersection(2, (2, 3), 1)
        assert hilbert_polynomial_of_forms(gens) == parse_hilbert_poly("6")
        res = borel_open_set(gens, seed=1)
        basis = degree_basis(gens, res.constants.r)
        return gens, res, [apply_change_of_coords(f, res.g) for f in basis]

    @pytest.mark.parametrize("name", list(MEMO_CALLS))
    def test_cold_and_warm_results_agree(self, located, name):
        _degree_basis.cache_clear()
        cold = MEMO_CALLS[name](*located)
        assert MEMO_CALLS[name](*located) == cold

    def test_equal_lists_share_one_entry(self, located):
        gens, res, transformed = located
        r = res.constants.r
        _degree_basis.cache_clear()
        first = degree_basis(transformed, r)
        again = degree_basis([apply_change_of_coords(f, res.g)
                              for f in degree_basis(gens, r)], r)
        assert again == first and all(a is b for a, b in zip(again, first))
        assert _degree_basis.cache_info().misses == 2

    def test_mutating_a_result_leaves_the_memo(self, located):
        gens, res, _ = located
        r = res.constants.r
        basis = degree_basis(gens, r)
        want = list(basis)
        basis.append(basis[0])
        basis[0] = XPoly.zero(2, r)
        assert degree_basis(gens, r) == want

    def test_errors_are_raised_again(self):
        sextics = [parse_xpoly(f"x{i}^6", 3) for i in (3, 2, 1)]
        param = [parse_xpoly("C[1,1]*x1 + x0", 1)]
        _degree_basis.cache_clear()
        for gens, t, error, match in ((sextics, 24, ScaleCapError, "exceeds the cap"),
                                      (param, 2, MathDomainError, "scalar coefficients")):
            for _ in range(2):
                with pytest.raises(error, match=match):
                    degree_basis(gens, t)
        assert _degree_basis.cache_info().currsize == 0

    def test_redundant_spanning_set(self, located):
        _, res, transformed = located
        J, r = res.chart.chart, res.constants.r
        redundant = transformed + [transformed[0] + transformed[1],
                                   transformed[2].scale(3), transformed[-1]]
        point = chart_form(redundant, J)
        assert point == chart_form(degree_basis(redundant, r), J) == \
            chart_form(transformed, J)
        assert point.marked_set == tuple(marked_slice(transformed, J, r)[h]
                                         for h in J.gens)


class TestOneEliminationPerSpan:
    @pytest.mark.parametrize("n, degrees, seed", [
        (2, (2, 3), 1), (2, (2, 3), 2), (2, (2, 2), 1), (3, (1, 2), 1), (3, (1, 3), 1),
    ], ids=["P2-23-seed1", "P2-23-seed2", "P2-22", "P3-12", "P3-13"])
    def test_locate_sequence_reduces_the_transformed_span_once(
            self, monkeypatch, n, degrees, seed):
        # the open-set search, the basis, the change of coordinates, the
        # chart form and the membership test, as the locate workload runs them
        gens = complete_intersection(n, degrees, seed)
        calls = []
        for name in ("rref", "det"):
            def counted(rows, name=name, real=getattr(linalg, name)):
                calls.append((stage, name, rows))
                return real(rows)
            monkeypatch.setattr(linalg, name, counted)
        _degree_basis.cache_clear()
        stage = "search"
        res = borel_open_set(gens, seed=seed)
        c = res.constants
        stage = "basis"
        basis = degree_basis(gens, c.r)
        transformed = [apply_change_of_coords(f, res.g) for f in basis]
        stage = "chart_form"
        chart_form(transformed, res.chart.chart)
        stage = "in_hilb"
        assert in_hilb(transformed, c)
        monkeypatch.undo()
        assert res.tried == 1
        # a row of the degree basis holds its pivot and otherwise only the
        # N(r) - s columns of no pivot; the transformed forms are denser
        width = 1 + c.N_r - c.s
        assert min(len(f.terms) for f in transformed) > width
        moved = [apply_change_of_coords(f, res.g) for f in gens]
        rrefs = [(stage, rows) for stage, name, rows in calls if name == "rref"]
        # the search reduces the forms' own Macaulay rows (the dimension
        # check) and the moved generators' Macaulay rows, whose entries are
        # those of the moved generators; chart_form reduces the dense image
        # of the basis, the only elimination on it; the marked rows are read
        # off its degree basis with no further elimination
        assert rrefs == [("search", _span_rows(gens, c.r)[0]),
                         ("search", _span_rows(moved, c.r)[0]),
                         ("chart_form", _span_rows(transformed, c.r)[0])]
        assert all(len(row) <= max(len(f.terms) for f in moved)
                   for row in rrefs[1][1])
        # the search's Plucker minors see only sparse reduced rows
        assert all(len(row) <= width for stage, name, rows in calls
                   if name == "det" and stage == "search" for row in rows)
        assert {stage for stage, _, _ in calls} == {"search", "chart_form"}


def old_route_charts(gens, g, charts, r):
    """The search's former route: the degree basis of the forms, transformed
    and reduced densely, and the charts whose Plucker coordinate is nonzero
    on it, in order."""
    reduced = row_space_basis([apply_change_of_coords(f, g)
                               for f in degree_basis(gens, r)])
    return reduced, [ch for ch in charts if pluecker_coordinate(reduced, ch.chart) != 0]


def old_route_open_set(gens, seed, bound=10, max_tries=64):
    """(g, tried, chart, basis) as the former route's search draws and finds them."""
    c = chart_constants(hilbert_polynomial_of_forms(gens), gens[0].n)
    charts = borel_charts(c)
    rng = random.Random(seed)
    for tried in range(1, max_tries + 1):
        g = _draw_invertible(rng, gens[0].n, bound)
        reduced, found = old_route_charts(gens, g, charts, c.r)
        if found:
            return g, tried, found[0], reduced
    raise IterationCapError("no chart")


def perfbench_locate_inputs(seed):
    """(forms, search seed) of each operation of the perfbench `locate`
    workload, drawn as `workloads._locate_ops` draws them."""
    bench = str(Path(__file__).resolve().parents[1] / "perfbench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    import workloads

    rng = random.Random(seed)
    return [(workloads.complete_intersection(rng, n, degrees), rng.randrange(1 << 30))
            for n, degrees, count in workloads.LOCATE_FAMILIES for _ in range(count)]


def _redundant(gens):
    """The forms, a combination of the first and last, a scalar multiple, a
    repeat and a multiple by x_0 of the first."""
    first, last = gens[0], gens[-1]
    x0 = parse_xpoly("x0", first.n)
    lift = first
    while lift.degree < last.degree:
        lift = lift * x0
    return gens + [last + lift, first.scale(3), first, first * x0]


def _above_r(gens):
    """The forms and a multiple of each above the Gotzmann number r."""
    c = chart_constants(hilbert_polynomial_of_forms(gens), gens[0].n)
    x = parse_xpoly(f"x{gens[0].n}", gens[0].n)
    extra = []
    for f in gens:
        while f.degree <= c.r:
            f = f * x
        extra.append(f)
    return gens + extra


class TestSearchAgainstTheOldRoute:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_perfbench_locate_inputs(self, seed):
        for gens, op_seed in perfbench_locate_inputs(seed):
            g, tried, chart, basis = old_route_open_set(gens, op_seed)
            res = borel_open_set(gens, seed=op_seed)
            assert (res.g, res.tried, res.chart, list(res.basis)) == \
                (g, tried, chart, basis)
            c = res.constants
            assert all_charts(gens, g) == old_route_charts(gens, g, borel_charts(c), c.r)[1]

    @pytest.mark.parametrize("spanning", [_redundant, _above_r],
                             ids=["redundant", "above-r"])
    @pytest.mark.parametrize("n, degrees, seed", [
        (2, (2, 2), 1), (2, (2, 3), 2), (3, (1, 2), 1), (3, (2, 2), 1)])
    def test_other_generator_lists(self, spanning, n, degrees, seed):
        gens = spanning(complete_intersection(n, degrees, seed))
        g, tried, chart, basis = old_route_open_set(gens, seed)
        res = borel_open_set(gens, seed=seed)
        assert (res.g, res.tried, res.chart, list(res.basis)) == (g, tried, chart, basis)
        c = res.constants
        for h in (g, random_coordinate_change(n, seed + 10, bound=2)):
            assert all_charts(gens, h) == \
                old_route_charts(gens, h, borel_charts(c), c.r)[1]

    def test_fixed_change_in_no_chart(self, two_quadrics):
        ident = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        c = chart_constants(hilbert_polynomial_of_forms(two_quadrics), 2)
        assert old_route_charts(two_quadrics, ident, borel_charts(c), c.r)[1] == []
        assert all_charts(two_quadrics, ident) == []
        with pytest.raises(NotInChartError, match="lands in no Borel chart"):
            borel_open_set(two_quadrics, g=ident)


class TestChartFormShortcut:
    def test_every_containing_chart_against_marked_slice(self, monkeypatch):
        fallbacks = []
        real = chart_module.marked_slice
        monkeypatch.setattr(chart_module, "marked_slice",
                            lambda *args: fallbacks.append(args) or real(*args))
        paths = set()
        for n, degrees, seed in [(2, (2, 2), 1), (2, (2, 3), 1), (3, (1, 2), 1),
                                 (3, (1, 3), 2), (3, (2, 2), 1)]:
            gens = complete_intersection(n, degrees, seed)
            g = random_coordinate_change(n, seed)
            c = chart_constants(hilbert_polynomial_of_forms(gens), n)
            moved = [apply_change_of_coords(f, g) for f in degree_basis(gens, c.r)]
            pivots = initial_monomials(moved)
            for ch in all_charts(gens, g):
                J = ch.chart
                want = real(moved, J, c.r)
                before = len(fallbacks)
                assert chart_form(moved, J) == ChartPoint(
                    chart=J, marked_set=tuple(want[h] for h in J.gens))
                # the rows are read as they stand exactly when their
                # degrevlex pivots are B_J; any other chart falls back
                fell_back = len(fallbacks) - before
                assert fell_back == (0 if pivots == J else 1)
                paths.add(fell_back)
        assert paths == {0, 1}

    @pytest.mark.parametrize("form, marked", [("x1 + 2*x0", "1/2*x1 + x0"),
                                              ("x1 + x0", "x1 + x0")])
    def test_a_row_meeting_b_j_off_its_pivot(self, form, marked):
        # the row's pivot x1 lies outside J = (x0): it is the marked
        # polynomial of x0 only when x0 has coefficient 1
        J = MonomialIdeal.parse("x0", 1)
        point = chart_form([parse_xpoly(form, 1)], J)
        assert point.marked_set == (parse_xpoly(marked, 1),)
        assert point.marked_set == (marked_slice([parse_xpoly(form, 1)], J, 1)[J.gens[0]],)

    def test_fallback_keeps_its_errors(self, j1sat, j2sat):
        forms = [XPoly.from_monomial(m) for m in truncate(j1sat, 4).gens]
        with pytest.raises(NotInChartError):
            chart_form(forms, truncate(j2sat, 4))
        with pytest.raises(MathDomainError, match="span has dimension 10, chart expects 11"):
            chart_form(forms[:-1], truncate(j1sat, 4))
