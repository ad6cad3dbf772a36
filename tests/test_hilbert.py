import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from borelcover import hilbert
from borelcover.borel import (MonomialIdeal, enumerate_borel_in_g,
                              enumerate_borel_saturated, is_strongly_stable,
                              regularity, truncate)
from borelcover.errors import (InadmissiblePolynomialError, MathDomainError,
                               ParseError, ScaleCapError)
from borelcover.hilbert import (HilbertPoly, ambient_dimension, binom,
                                borel_dim_at, borel_hp_degree, chart_constants,
                                gotzmann_number, gotzmann_representation,
                                hilbert_function, hilbert_polynomial,
                                parse_hilbert_poly)
from borelcover.ring import Monomial

from conftest import (borel_closure, certified_hilbert_polynomial,
                      macaulay_representation, monomial_ideals)


def reference_hilbert_str(p):
    """The printer that the shared text helpers replaced."""
    coeffs = p.power_coeffs()
    if not coeffs:
        return "0"
    chunks = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        q = abs(c)
        if k == 0:
            body = str(q)
        else:
            tpart = "t" if k == 1 else f"t^{k}"
            body = tpart if q == 1 else f"{q}*{tpart}"
        if not chunks:
            chunks.append(body if sign == "+" else "-" + body)
        else:
            chunks.append(f"{sign}{body}")
    return "".join(chunks)


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

    def test_zero_denominator_rejected(self):
        with pytest.raises(ParseError, match="cannot read a number in '1/0\\*t'"):
            parse_hilbert_poly("1/0*t")

    def test_rational_coefficients_must_give_integer_values(self):
        with pytest.raises(ParseError, match="^polynomial is not integer-valued$"):
            parse_hilbert_poly("1/2*t")
        p = parse_hilbert_poly("1/2*t^2+1/2*t")
        assert p == HilbertPoly.binomial_shift(2, 1)  # C(t+1, 2)

    @given(st.integers(0, 6), st.integers(-10, 12), st.integers(-15, 15))
    def test_binomial_shift_is_the_binomial(self, a, c, t):
        assert HilbertPoly.binomial_shift(a, c).evaluate(t) == binom(t + c, a)

    @pytest.mark.parametrize("coords", [[Fraction(1, 2), 3], [2, -1.5], [0, 0, 7.25]])
    def test_non_integral_coordinates_refused(self, coords):
        # int() used to truncate them: HilbertPoly([1/2, 3]).coords == (0, 3)
        with pytest.raises(ValueError, match="non-integral"):
            HilbertPoly(coords)

    def test_integral_fraction_coordinates_accepted(self):
        p = HilbertPoly([Fraction(-2), Fraction(6, 2), Fraction(0)])
        assert p.coords == (-2, 3) and all(type(c) is int for c in p.coords)
        # _from_function builds its coordinates as Fractions
        half = Fraction(1, 2)
        assert HilbertPoly.from_power_coeffs([0, half, half]).coords == (0, -1, 1)

    @given(st.lists(st.integers(-50, 50), max_size=5))
    def test_power_coeffs_round_trip(self, coords):
        p = HilbertPoly(coords)
        assert HilbertPoly.from_power_coeffs(p.power_coeffs()) == p

    @settings(max_examples=200)
    @given(st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=8))
    def test_str_against_reference(self, coords):
        p = HilbertPoly(coords)
        assert str(p) == reference_hilbert_str(p)
        assert parse_hilbert_poly(str(p)) == p

    @pytest.mark.parametrize("text", ["3*t", "4t", "t^2-t", "t**2", "1/2*t^2+1/2*t",
                                      "2 t", "\u22122*t+3", "+t"])
    def test_accepted_forms(self, text):
        p = parse_hilbert_poly(text)
        assert parse_hilbert_poly(str(p)) == p

    @pytest.mark.parametrize("text", ["5--3", "2*t--1", "7+", "+", "-", "t2", "2t3",
                                      "3*t^", "t**", "3*", "*t", "t^2*t", "3**t"])
    def test_malformed(self, text):
        with pytest.raises(ParseError):
            parse_hilbert_poly(text)

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

    @settings(max_examples=60)
    @given(monomial_ideals(max_n=4).map(borel_closure))
    def test_borel_degree_is_that_of_the_quotient(self, J):
        # interpolating the closed form at degree n gives the same polynomial
        n = J.n
        full = HilbertPoly._from_function(lambda t: ambient_dimension(n, t) - sum(
            binom(t - g.degree() + g.min_var(), g.min_var()) for g in J.gens), n)
        k = min(g.min_var() for g in J.gens if len(g.support()) == 1)
        assert hilbert_polynomial(J) == full
        assert full.degree() == k - 1 == borel_hp_degree(J)

    def test_borel_degree_is_capped(self):
        # interpolating (x_n) at degree n took 11 s for n = 1200
        assert hilbert_polynomial(MonomialIdeal.parse("x101", 101)) == \
            HilbertPoly.binomial_shift(100, 100)
        for compute in (hilbert_polynomial, borel_hp_degree):
            with pytest.raises(ScaleCapError,
                               match="Hilbert polynomial degree 101 exceeds the cap 100"):
                compute(MonomialIdeal.parse("x102", 102))
        assert hilbert_polynomial(MonomialIdeal.parse("x102, x101", 102)) == \
            HilbertPoly.binomial_shift(100, 100)

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
        with pytest.raises(ScaleCapError):
            certified_hilbert_polynomial(lambda t: ambient_dimension(2, t) - 1, 1, 10)

    @settings(max_examples=60)
    @given(monomial_ideals())
    # S/(x2^2*x1^2, x0^4) in P^3 has Hilbert polynomial 16t - 32 and Gotzmann
    # number 88, so its growth is not maximal within the 80 degrees tried
    @example(MonomialIdeal(3, [Monomial((0, 2, 2, 0)), Monomial((4, 0, 0, 0))]))
    def test_agrees_with_the_function_after_the_certificate(self, J):
        # hf counts by inclusion-exclusion over the (at most 3) generators,
        # so the 84 degrees of the example need no listing of monomials
        K, values = taylor_numerator([g.exps for g in J.gens]), {}

        def hf(t):
            values[t] = function_from_numerator(K, J.n, t)
            return values[t]

        t0 = max(J.max_gen_degree(), 1)
        try:
            poly = certified_hilbert_polynomial(hf, t0, 80)
        except ScaleCapError:
            # the cap is right only if no degree of the window grows maximally
            assert sorted(values) == list(range(t0, t0 + 81))
            for t in range(t0, t0 + 80):
                bound = sum(binom(k + 1, i + 1)
                            for i, k in macaulay_representation(values[t], t))
                assert values[t + 1] < bound
            return
        t1 = max(values) - 1
        for t in range(t1, t1 + J.n + 3):
            assert poly.evaluate(t) == hilbert_function(J, t)


def taylor_numerator(gens):
    """K(t) by inclusion-exclusion over the generators (the Taylor resolution):
    K = sum over subsets A of G(J) of (-1)^|A| t^deg lcm(A), as {power: coefficient}."""
    out = {}
    for size in range(len(gens) + 1):
        for subset in itertools.combinations(gens, size):
            lcm = [max(col) for col in zip(*subset)]
            out[sum(lcm)] = out.get(sum(lcm), 0) + (-1) ** size
    return {k: c for k, c in out.items() if c}


def numerator(gens):
    """series_numerator as {power: nonzero coefficient}."""
    return {k: c for k, c in enumerate(hilbert.series_numerator(gens)) if c}


def function_from_numerator(K, n, t):
    """HF(t) of S/J from K(t) / (1 - t)^(n+1): sum_i k_i C(t - i + n, n)."""
    return sum(c * binom(t - i + n, n) for i, c in K.items() if i <= t)


class TestHilbertSeries:
    @settings(max_examples=80)
    @given(monomial_ideals(max_gens=5, max_degree=5))
    def test_numerator_is_the_taylor_sum(self, J):
        exps = [g.exps for g in J.gens]
        assert numerator(exps) == taylor_numerator(exps)

    @settings(max_examples=60)
    @given(monomial_ideals(max_gens=4))
    def test_numerator_gives_the_function_in_every_degree(self, J):
        K = numerator([g.exps for g in J.gens])
        for t in range(J.max_gen_degree() + 4):
            assert function_from_numerator(K, J.n, t) == hilbert_function(J, t)

    @settings(max_examples=60)
    @given(monomial_ideals(max_gens=4).filter(lambda J: not is_strongly_stable(J)))
    def test_non_borel_ideals_against_the_certified_walk(self, J):
        try:
            walk = certified_hilbert_polynomial(lambda t: hilbert_function(J, t),
                                                J.max_gen_degree(), 30)
        except ScaleCapError:
            assume(False)  # no certificate within the window: nothing to compare
        assert hilbert_polynomial(J) == walk

    def test_past_the_walks_window(self):
        # the walk found no maximal growth within 80 degrees: the Gotzmann
        # number of 16t - 32 is 88.  HF past it comes by inclusion-exclusion
        # over the two generators, without listing the degree-t monomials
        J = MonomialIdeal(3, [Monomial((0, 2, 2, 0)), Monomial((4, 0, 0, 0))])
        p = hilbert_polynomial(J)
        assert p == parse_hilbert_poly("16*t-32")
        K = taylor_numerator([g.exps for g in J.gens])
        for t in (95, 110):
            assert p.evaluate(t) == function_from_numerator(K, 3, t)

    def test_many_generators_and_large_exponents(self):
        # 1001 generators x2 * (x0, x1)^1000, and exponents above 1000: the
        # recursion keeps an explicit stack, so neither meets the recursion
        # limit.  (x2) ∩ (x0, x1)^1000 cuts out the line x2 = 0, with
        # polynomial t + 1, and a point of multiplicity C(1001, 2) = 500500
        J = MonomialIdeal(2, [Monomial((i, 1000 - i, 1)) for i in range(1001)])
        assert not is_strongly_stable(J)
        assert hilbert_polynomial(J) == parse_hilbert_poly("t+500501")
        gens = [Monomial((0, 1, 1500, 0)), Monomial((3, 1200, 0, 0)),
                Monomial((2001, 0, 1, 0))]
        K = numerator([g.exps for g in gens])
        assert K == taylor_numerator([g.exps for g in gens])
        p = hilbert_polynomial(MonomialIdeal(3, gens))
        for t in (4701, 5000):
            assert p.evaluate(t) == function_from_numerator(K, 3, t)

    def test_work_cap(self, monkeypatch):
        J = MonomialIdeal.parse("x2*x1^2, x2^2*x0, x1*x0^3", 2)
        assert hilbert_polynomial(J) == parse_hilbert_poly("7")
        monkeypatch.setattr(hilbert, "_MAX_QUOTIENTS", 2)
        with pytest.raises(ScaleCapError, match="exceeded 2 colon quotients"):
            hilbert_polynomial(J)

    def test_degree_cap_before_any_coordinate(self, monkeypatch):
        # (x1) is not strongly stable; its series numerator is 1 - t
        monkeypatch.setattr(HilbertPoly, "__init__", None)
        for n in (102, 100000):
            with pytest.raises(ScaleCapError,
                               match=f"Hilbert polynomial degree {n - 1} exceeds"):
                hilbert_polynomial(MonomialIdeal.parse("x1", n))


class TestEliahouKervaire:
    def test_unit_ideal_counts_everything(self):
        one = MonomialIdeal(3, [Monomial((0, 0, 0, 0))])
        assert [borel_dim_at(one, t) for t in range(4)] == [
            ambient_dimension(3, t) for t in range(4)]

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
