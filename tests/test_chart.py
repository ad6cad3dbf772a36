import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borelcover.borel import (MonomialIdeal, enumerate_borel_in_g,
                              is_strongly_stable, truncate)
from borelcover.chart import (_draw_invertible, all_charts, borel_open_set,
                              chart_form, coefficient_matrix, degree_basis,
                              hilbert_polynomial_of_forms,
                              in_hilb, initial_monomials_gauss, marked_slice,
                              pluecker_coordinate, random_coordinate_change,
                              row_space_basis)
from borelcover.errors import (IterationCapError, MathDomainError,
                               NotInChartError)
from borelcover.hilbert import chart_constants, hilbert_polynomial, \
    parse_hilbert_poly
from borelcover.marked import marked_set_from_ideal
from borelcover import linalg
from borelcover.ring import (XPoly, apply_change_of_coords, parse_xpoly)

from conftest import borel_closure, monomial_ideals

TWO_POINTS = [
    "x0^2 - x0*x2", "x1^2 - x1*x2", "x2^2 - x0*x2 - x1*x2", "x0*x1",
]
NON_BOREL_CHART = "x0^2, x1^2, x2^2, x0*x1"


def _monomial_forms(J):
    return [XPoly.from_monomial(g) for g in J.gens]


class TestPluecker:
    def test_chart_against_itself(self, j1sat):
        T = truncate(j1sat, 4)
        assert pluecker_coordinate(_monomial_forms(T), T) == 1

    def test_sheared_quadrics(self, two_quadrics, g_shear):
        transformed = [apply_change_of_coords(f, g_shear) for f in two_quadrics]
        J = MonomialIdeal.parse("x2^2, x2*x1", 2)
        assert pluecker_coordinate(row_space_basis(transformed), J) != 0

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
        assert linalg.rank(rows) == len(J.gens)


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


class TestGaussianInitialMonomials:
    def test_sheared_quadrics(self, two_quadrics, g_shear):
        transformed = [apply_change_of_coords(f, g_shear) for f in two_quadrics]
        got = initial_monomials_gauss(transformed)
        assert got == MonomialIdeal.parse("x2^2, x2*x1", 2)

    def test_monomials_fixed(self, j1sat):
        T = truncate(j1sat, 4)
        assert initial_monomials_gauss(_monomial_forms(T)) == T

    def test_single_elimination_step(self):
        forms = [parse_xpoly("x1^2 + x0^2", 2), parse_xpoly("x0^2", 2)]
        assert initial_monomials_gauss(forms) == \
            MonomialIdeal.parse("x1^2, x0^2", 2)

    def test_dependent_rows_rejected(self):
        f = parse_xpoly("x1^2 + x0^2", 2)
        with pytest.raises(MathDomainError):
            initial_monomials_gauss([f, f])

    def test_initial_ideal_chart_is_nonzero(self, two_quadrics):
        # the Gaussian initial monomials always give a usable chart
        rng = random.Random(5)
        basis = degree_basis(two_quadrics, 4)
        for seed in range(4):
            g = random_coordinate_change(2, seed, bound=5)
            transformed = [apply_change_of_coords(f, g) for f in basis]
            J = initial_monomials_gauss(row_space_basis(transformed))
            assert pluecker_coordinate(row_space_basis(transformed), J) != 0


class TestRandomCoordinateChange:
    def test_deterministic(self):
        assert random_coordinate_change(2, 42) == random_coordinate_change(2, 42)

    def test_invertible_even_with_tiny_bound(self):
        for seed in range(10):
            g = random_coordinate_change(2, seed, bound=1)
            assert linalg.det([list(r) for r in g]) != 0

    def test_singular_draws_are_capped(self):
        # entries in [0, 0] are always singular; the draw gives up
        with pytest.raises(IterationCapError):
            _draw_invertible(random.Random(0), 2, 0)

    def test_explicit_shear_is_invertible(self, g_shear):
        assert linalg.det([list(r) for r in g_shear]) != 0


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

    @settings(deadline=None, max_examples=40)
    @given(st.one_of(monomial_ideals(max_n=2, max_degree=3),
                     monomial_ideals(max_n=3, max_degree=2)).map(borel_closure))
    def test_matches_eliahou_kervaire_on_borel_closures(self, J):
        assert hilbert_polynomial_of_forms(_monomial_forms(J)) == \
            hilbert_polynomial(J)

    @settings(deadline=None, max_examples=25)
    @given(monomial_ideals(max_gens=2, max_degree=2), st.integers(0, 2 ** 32))
    def test_invariant_under_integer_coordinate_change(self, J, seed):
        g = random_coordinate_change(J.n, seed, bound=3)
        transformed = [apply_change_of_coords(f, g) for f in _monomial_forms(J)]
        assert hilbert_polynomial_of_forms(transformed) == hilbert_polynomial(J)


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
