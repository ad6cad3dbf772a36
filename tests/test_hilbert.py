import pytest
from hypothesis import given, settings

from borelcover import hilbert
from borelcover.borel import (MonomialIdeal, enumerate_borel_in_g,
                              enumerate_borel_saturated, is_strongly_stable,
                              regularity, truncate)
from borelcover.errors import (InadmissiblePolynomialError, MathDomainError,
                               ParseError)
from borelcover.hilbert import (HilbertPoly, ambient_dimension, binom,
                                borel_dim_at, certified_hilbert_polynomial,
                                chart_constants, gotzmann_number,
                                gotzmann_representation, hilbert_function,
                                hilbert_polynomial, macaulay_representation,
                                parse_hilbert_poly)
from borelcover.ring import Monomial

from conftest import borel_closure, monomial_ideals


class TestHilbertPoly:
    def test_integer_valuedness_enforced(self):
        with pytest.raises(MathDomainError):
            HilbertPoly.from_power_coeffs(["1/2", 0])  # t/2 is not integer valued

    def test_binomial_coords_of_half_square(self):
        # (t^2 + t)/2 = C(t+1, 2) is integer valued
        p = HilbertPoly.from_power_coeffs(["0", "1/2", "1/2"])
        assert [p.evaluate(t) for t in range(5)] == [0, 1, 3, 6, 10]

    def test_parse_and_str(self):
        for text, values in [("3*t", [0, 3, 6]), ("7", [7, 7, 7]),
                             ("2*t+3", [3, 5, 7]), ("t^2-t", [0, 0, 2]),
                             ("4t", [0, 4, 8])]:
            p = parse_hilbert_poly(text)
            assert [p.evaluate(t) for t in range(3)] == values
            assert parse_hilbert_poly(str(p)) == p

    def test_parse_rejects(self):
        with pytest.raises(ParseError):
            parse_hilbert_poly("t + bogus")
        with pytest.raises(ParseError):
            parse_hilbert_poly("")

    def test_arithmetic(self):
        p, q = parse_hilbert_poly("2*t+3"), parse_hilbert_poly("t+1")
        assert (p - q) == parse_hilbert_poly("t+2")
        assert (p - p).is_zero()


class TestHilbertFunction:
    def test_counted_sous_escalier(self, j1sat):
        assert hilbert_function(j1sat, 2) == 4
        outside = [str(m) for m in j1sat.sous_escalier_at(2)]
        assert outside == ["x1^2", "x2*x0", "x1*x0", "x0^2"]

    def test_unit_ideal(self):
        one = MonomialIdeal(2, [Monomial((0, 0, 0))])
        for t in range(4):
            assert hilbert_function(one, t) == 0

    def test_zero_ideal(self):
        zero = MonomialIdeal.zero(3)
        for t in range(4):
            assert hilbert_function(zero, t) == ambient_dimension(3, t)

    def test_negative_degree(self, j1sat):
        with pytest.raises(MathDomainError):
            hilbert_function(j1sat, -1)


class TestHilbertPolynomial:
    def test_cubic_curve_charts(self):
        j1 = MonomialIdeal.parse("x2^3, x3^2, x2^2*x1, x3*x1, x3*x2", 3)
        assert hilbert_polynomial(truncate(j1, 3)) == parse_hilbert_poly("2*t+3")
        j4 = MonomialIdeal.parse(
            "x1^3, x2^3, x3^2, x2*x1^2, x2^2*x1, x3*x1^2, x3*x2^2, x3*x2*x1", 3)
        assert hilbert_polynomial(truncate(j4, 3)) == parse_hilbert_poly("9")

    def test_lex_cubic(self, lex_cubic):
        assert hilbert_polynomial(lex_cubic) == parse_hilbert_poly("3*t")

    def test_agrees_with_function_beyond_regularity(self, j1sat, lex_cubic):
        for J in (j1sat, lex_cubic, truncate(j1sat, 4)):
            p = hilbert_polynomial(J)
            reg = regularity(J)
            for t in range(reg, reg + J.n + 4):
                assert p.evaluate(t) == hilbert_function(J, t)

    def test_unit_ideal_rejected(self):
        with pytest.raises(MathDomainError):
            hilbert_polynomial(MonomialIdeal(2, [Monomial((0, 0, 0))]))

    def test_borel_ideals_skip_the_hilbert_function(self, lex_cubic, monkeypatch):
        def refuse(J, t):
            raise AssertionError("brute-force Hilbert function called")

        monkeypatch.setattr(hilbert, "hilbert_function", refuse)
        assert hilbert_polynomial(lex_cubic) == parse_hilbert_poly("3*t")

    def test_non_borel_ideal(self):
        # S/(x0^2) has Hilbert function N(t) - N(t-2) = 2t + 1
        J = MonomialIdeal.parse("x0^2", 2)
        assert not is_strongly_stable(J)
        assert hilbert_polynomial(J) == parse_hilbert_poly("2*t+1")

    @pytest.mark.parametrize("text", ["x0^3, x1^3, x2^3", "x0^4, x1^4, x2^4"])
    def test_artinian_complete_intersection_is_zero(self, text):
        # the Hilbert function 1, 3, 6, 7, 6, 3, 1, 0, ... of (x0^3, x1^3, x2^3)
        # fits a quadratic on 6, 3, 1, 0, 0; only the zeros count
        J = MonomialIdeal.parse(text, 2)
        assert not is_strongly_stable(J)
        assert hilbert_polynomial(J) == HilbertPoly.zero()
        assert str(hilbert_polynomial(J)) == "0"


def _recording(hf):
    """hf together with the list of degrees it was asked for."""
    asked = []

    def wrapped(t):
        asked.append(t)
        return hf(t)

    return wrapped, asked


class TestCertifiedHilbertPolynomial:
    def test_macaulay_representation(self):
        # 7 = C(4,3) + C(3,2), 4 = C(4,4) + C(3,3) + C(2,2) + C(1,1)
        assert macaulay_representation(7, 3) == [(3, 4), (2, 3)]
        assert macaulay_representation(4, 4) == [(4, 4), (3, 3), (2, 2), (1, 1)]
        assert macaulay_representation(0, 5) == []
        for t in range(1, 6):
            for c in range(60):
                rep = macaulay_representation(c, t)
                assert sum(binom(k, i) for i, k in rep) == c
                assert all(k1 > k2 for (_, k1), (_, k2) in zip(rep, rep[1:]))
                assert all(k >= i >= 1 for i, k in rep)

    def test_stops_at_the_first_maximal_growth(self):
        # S/(x0^3, x1^3, x2^3) first keeps its growth maximal from 7 to 8
        J = MonomialIdeal.parse("x0^3, x1^3, x2^3", 2)
        hf, asked = _recording(lambda t: hilbert_function(J, t))
        assert certified_hilbert_polynomial(hf, 3, 80).is_zero()
        assert asked == list(range(3, 9))

    def test_cap(self):
        # N(t) - 1 in P^2 grows past Macaulay's bound at every step, so
        # nothing is certified and the cap must stop the search
        with pytest.raises(MathDomainError):
            certified_hilbert_polynomial(lambda t: ambient_dimension(2, t) - 1, 1, 10)

    @settings(deadline=None, max_examples=60)
    @given(monomial_ideals())
    def test_agrees_with_the_function_after_the_certificate(self, J):
        hf, asked = _recording(lambda t: hilbert_function(J, t))
        poly = certified_hilbert_polynomial(hf, J.max_gen_degree(), 80)
        t1 = max(asked) - 1
        for t in range(t1, t1 + J.n + 3):
            assert poly.evaluate(t) == hilbert_function(J, t)


class TestEliahouKervaire:
    def test_unit_ideal_counts_everything(self):
        one = MonomialIdeal(3, [Monomial((0, 0, 0, 0))])
        assert [borel_dim_at(one, t) for t in range(4)] == [
            ambient_dimension(3, t) for t in range(4)]

    @settings(deadline=None)
    @given(monomial_ideals().map(borel_closure))
    def test_matches_brute_force(self, J):
        assert is_strongly_stable(J)
        n = J.n
        for t in range(regularity(J) + n + 3):
            assert ambient_dimension(n, t) - borel_dim_at(J, t) == hilbert_function(J, t)
        brute = certified_hilbert_polynomial(
            lambda t: hilbert_function(J, t), J.max_gen_degree(), 80)
        assert hilbert_polynomial(J) == brute


class TestGotzmann:
    def test_reference_values(self):
        assert gotzmann_number(4, 2) == 4
        assert gotzmann_number("4*t", 3) == 6
        assert gotzmann_number("3*t", 3) == 3
        assert gotzmann_number(2, 2) == 2
        assert gotzmann_number(7, 2) == 7

    def test_representation_shape(self):
        # 3t = C(t+1,1) + C(t,1) + C(t-1,1)
        assert gotzmann_representation("3*t", 3) == [1, 1, 1]
        assert gotzmann_representation(4, 2) == [0, 0, 0, 0]

    def test_inadmissible(self):
        with pytest.raises(InadmissiblePolynomialError):
            gotzmann_number(HilbertPoly.zero(), 2)
        with pytest.raises(InadmissiblePolynomialError):
            gotzmann_number("t^2", 2)  # degree must stay below n
        with pytest.raises(InadmissiblePolynomialError):
            gotzmann_number(parse_hilbert_poly("t^2-5*t"), 4)

    def test_bounds_regularity_of_saturations(self):
        # the Gotzmann number dominates reg(J^sat) over each listed scheme
        for n, p in [(2, "4"), (3, "3*t"), (2, "7")]:
            c = chart_constants(parse_hilbert_poly(p), n)
            for sat in enumerate_borel_saturated(n, c.p):
                assert regularity(sat) <= c.r


class TestChartConstants:
    def test_reference_values(self):
        c = chart_constants(4, 2)
        assert (c.r, c.N_r, c.s, c.D) == (4, 15, 11, 44)
        c = chart_constants("3*t", 3)
        assert (c.r, c.s) == (3, 11)
        c = chart_constants(7, 2)
        assert (c.r, c.s, c.N_r) == (7, 29, 36)

    def test_q_consistency(self):
        c = chart_constants(4, 2)
        assert c.q(c.r) == c.s
        assert c.q(c.r + 1) == c.s_prime
        assert c.D == c.p.evaluate(c.r) * c.s


class TestMacaulayBound:
    def test_growth_at_gotzmann_level(self):
        # dim J_{r+1} >= q(r+1) for every Borel member of the family,
        # with equality exactly when the quotient has the target polynomial
        c = chart_constants("3*t", 3)
        for J in enumerate_borel_in_g(3, c.r, c.s):
            products = {g * Monomial.variable(3, i)
                        for g in J.gens for i in range(4)}
            assert len(products) >= c.s_prime
            matches = hilbert_polynomial(J) == c.p
            assert (len(products) == c.s_prime) == matches
