import itertools
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from borelcover.borel import (MonomialIdeal, borel_leq,
                              enumerate_borel_in_g, enumerate_borel_saturated,
                              is_borel_chart, is_m_truncation,
                              is_strongly_stable, regularity,
                              rho, saturate, saturate_any, star_decompose,
                              truncate, up_moves)
from borelcover.errors import MathDomainError, ParseError, ScaleCapError
from borelcover.hilbert import chart_constants, hilbert_polynomial, \
    parse_hilbert_poly
from borelcover.ring import Monomial, monomials_of_degree

from conftest import (borel_closure, borel_leq_partial_sums, monomial_ideals,
                      mono)


class TestMonomialIdeal:
    def test_minimalization_and_order(self):
        J = MonomialIdeal.parse("x1^3, x2*x1, x2^2, x2^2*x1", 2)
        assert [str(g) for g in J.gens] == ["x2^2", "x2*x1", "x1^3"]

    def test_membership(self, j1sat):
        assert j1sat.contains(mono("x2^2*x0^3", 2))
        assert not j1sat.contains(mono("x1^2*x0", 2))

    def test_json_round_trip(self, j1sat):
        data = json.loads(j1sat.to_json())
        assert data == {"n": 2, "gens": [[0, 0, 2], [0, 1, 1], [0, 3, 0]]}
        assert MonomialIdeal.from_json_dict(data) == j1sat

    def test_json_with_text_generators(self):
        J = MonomialIdeal.from_json_dict({"n": 2, "gens": ["x2^2", "x2*x1"]})
        assert J == MonomialIdeal.parse("x2^2, x2*x1", 2)

    def test_json_malformed(self):
        with pytest.raises(ParseError):
            MonomialIdeal.from_json_dict({"gens": []})
        with pytest.raises(ParseError):
            MonomialIdeal.from_json_dict({"n": 2, "gens": [[1, 2]]})
        with pytest.raises(ParseError):
            MonomialIdeal.from_json_dict({"n": 2, "gens": [[0, -1, 1]]})

    @pytest.mark.parametrize("n", [-1, 1.5, True, "2", None])
    def test_json_ambient_index_is_a_natural_number(self, n):
        with pytest.raises(ParseError):
            MonomialIdeal.from_json_dict({"n": n, "gens": []})

    def test_text_parse(self):
        J = MonomialIdeal.parse("(x2^2, x2*x1, x1^3)", 2)
        assert len(J.gens) == 3


class TestBorelOrder:
    def test_chain_to_top(self):
        assert borel_leq(mono("x1^2", 2), mono("x2^2", 2))

    def test_incomparable_pair(self):
        a, b = mono("x1^2", 2), mono("x2*x0", 2)
        assert not borel_leq(a, b)
        assert not borel_leq(b, a)

    def test_reflexive(self):
        m = mono("x2*x1*x0", 2)
        assert borel_leq(m, m)

    def test_unequal_degrees(self):
        with pytest.raises(MathDomainError):
            borel_leq(mono("x1", 2), mono("x1^2", 2))

    def test_matches_partial_sum_criterion(self):
        # independent characterization: top partial sums dominate
        for n, d in [(2, 3), (3, 2)]:
            mons = monomials_of_degree(n, d)
            for a, b in itertools.product(mons, mons):
                assert borel_leq(a, b) == borel_leq_partial_sums(a, b)

    @pytest.mark.parametrize("n,d", [(1, 4), (2, 3), (3, 2), (3, 3), (4, 2)])
    def test_matches_breadth_first_search(self, n, d):
        # independent of the criterion: b is reachable from a by increasing moves
        mons = monomials_of_degree(n, d)
        for a, b in itertools.product(mons, mons):
            assert borel_leq(a, b) == _reachable_by_up_moves(a, b)


def _reachable_by_up_moves(a, b):
    """Breadth-first search over increasing elementary moves from a to b."""
    seen = {a}
    frontier = [a]
    while frontier:
        if b in frontier:
            return True
        frontier = [u for m in frontier for u in up_moves(m) if u not in seen]
        seen.update(frontier)
    return False


class TestStability:
    def test_reference_cases(self, j1sat):
        assert is_strongly_stable(j1sat)
        assert not is_strongly_stable(
            MonomialIdeal.parse("x0^2, x1^2, x2^2, x0*x1", 2))
        assert is_strongly_stable(MonomialIdeal.parse("x2^5", 2))

    def test_matches_degreewise_closure(self, j1sat, j2sat):
        # independent check: every graded slice is closed under single moves
        for J in (j1sat, j2sat, MonomialIdeal.parse("x0^2, x1^2, x2^2, x0*x1", 2)):
            reg_guess = J.max_gen_degree() + 1
            closed = all(
                J.contains(u)
                for t in range(reg_guess + 1)
                for m in J.monomials_at(t)
                for u in up_moves(m))
            assert closed == is_strongly_stable(J)

    @given(st.one_of(monomial_ideals(), monomial_ideals().map(borel_closure)))
    def test_matches_degreewise_closure_on_random_ideals(self, J):
        closed = all(J.contains(u)
                     for t in range(J.max_gen_degree() + 2)
                     for m in J.monomials_at(t)
                     for u in up_moves(m))
        assert closed == is_strongly_stable(J)


class TestSaturation:
    def test_degree_four_truncation(self, j1sat):
        assert saturate(truncate(j1sat, 4)) == j1sat

    def test_lex_segment(self):
        lex11 = MonomialIdeal.parse(
            "x3^3, x3^2*x2, x3*x2^2, x2^3, x3^2*x1, x3*x2*x1, x3*x1^2,"
            "x3^2*x0, x3*x2*x0, x3*x1*x0, x3*x0^2", 3)
        assert saturate(lex11) == MonomialIdeal.parse("x3, x2^3", 3)

    def test_idempotent(self, j1sat):
        assert saturate(j1sat) == j1sat

    def test_requires_borel(self):
        with pytest.raises(MathDomainError):
            saturate(MonomialIdeal.parse("x0^2", 2))

    def test_general_saturation_agrees_on_borel(self, j1sat, j2sat):
        for J in (j1sat, truncate(j1sat, 4), j2sat):
            assert saturate_any(J) == saturate(J)

    def test_general_saturation_of_squares(self):
        J = MonomialIdeal.parse("x0^2, x1^2, x2^2", 2)
        assert saturate_any(J) == MonomialIdeal(2, [Monomial((0, 0, 0))])


class TestRegularityTruncationRho:
    def test_regularity(self, j1sat, lex_cubic):
        assert regularity(j1sat) == 3
        assert regularity(lex_cubic) == 3
        assert regularity(MonomialIdeal.parse("x2", 2)) == 1

    def test_truncation_counts(self, j1sat):
        c = chart_constants(4, 2)
        T = truncate(j1sat, 4)
        assert len(T.gens) == c.s == 11
        assert all(g.degree() == 4 for g in T.gens)

    def test_truncate_below_min_degree(self, j1sat):
        assert truncate(j1sat, 1) == j1sat

    def test_squares_not_a_truncation(self):
        J = MonomialIdeal.parse("x0^2, x1^2, x2^2", 2)
        assert not is_m_truncation(J, 2)

    def test_chart_ideals_are_truncations(self):
        for n, p in [(2, "4"), (3, "3*t")]:
            c = chart_constants(parse_hilbert_poly(p), n)
            for sat in enumerate_borel_saturated(n, c.p):
                assert is_m_truncation(truncate(sat, c.r), c.r)

    def test_rho(self, j1sat, lex_cubic, j2sat):
        assert rho(j1sat) == 3
        assert rho(lex_cubic) == 0
        assert rho(j2sat) == 4


class TestStarDecompose:
    def test_strip_twice(self, j1sat):
        eta, alpha = star_decompose(mono("x2*x1^3", 2), j1sat)
        assert (str(eta), str(alpha)) == ("x1^2", "x2*x1")

    def test_basis_member(self, j1sat):
        eta, alpha = star_decompose(mono("x2*x1", 2), j1sat)
        assert eta.is_one() and alpha == mono("x2*x1", 2)

    def test_strip_across_variables(self, j1sat):
        eta, alpha = star_decompose(mono("x2^3*x0", 2), j1sat)
        assert (str(eta), str(alpha)) == ("x2*x0", "x2^2")

    def test_cofactor_bounded_by_min(self, j1sat):
        # max of the cofactor never exceeds min of the reached generator
        for t in range(2, 6):
            for m in j1sat.monomials_at(t):
                eta, alpha = star_decompose(m, j1sat)
                assert eta * alpha == m
                if not eta.is_one():
                    assert eta.max_var() <= alpha.min_var()

    def test_non_member_rejected(self, j1sat):
        with pytest.raises(MathDomainError):
            star_decompose(mono("x1^2", 2), j1sat)


class TestEnumerateInG:
    def test_all_pairs_oracle(self):
        # brute force over all 2-subsets of the degree-2 monomials
        mons = monomials_of_degree(2, 2)
        closed = []
        for pair in itertools.combinations(mons, 2):
            ideal = MonomialIdeal(2, pair)
            if len(ideal.gens) == 2 and is_strongly_stable(ideal):
                closed.append(ideal)
        got = enumerate_borel_in_g(2, 2, 2)
        assert got == closed
        assert got == [MonomialIdeal.parse("x2^2, x2*x1", 2)]

    def test_full_space(self):
        got = enumerate_borel_in_g(2, 2, 6)
        assert len(got) == 1
        assert len(got[0].gens) == 6

    def test_family_of_eleven(self):
        got = enumerate_borel_in_g(3, 3, 11)
        assert len(got) == 5
        assert all(is_strongly_stable(J) for J in got)
        assert all(len(J.gens) == 11 for J in got)

    def test_too_many_generators(self):
        with pytest.raises(MathDomainError):
            enumerate_borel_in_g(2, 2, 7)

    def test_scale_cap(self):
        with pytest.raises(ScaleCapError):
            enumerate_borel_in_g(3, 16, 862, max_ambient=120)


class TestEnumerateSaturated:
    def test_four_points(self, j1sat, j2sat):
        assert enumerate_borel_saturated(2, 4) == [j1sat, j2sat]

    def test_cubic_curves(self, lex_cubic):
        assert enumerate_borel_saturated(3, "3*t") == [lex_cubic]

    def test_seven_points(self):
        want = [
            "(x2^2, x2*x1^3, x1^4)",
            "(x2^3, x2^2*x1, x2*x1^2, x1^4)",
            "(x2^2, x2*x1^2, x1^5)",
            "(x2^2, x2*x1, x1^6)",
            "(x2, x1^7)",
        ]
        got = enumerate_borel_saturated(2, 7)
        assert [str(J) for J in got] == want
        regs = [regularity(J) for J in got]
        assert regs == sorted(regs)

    def test_members_are_borel_distinct_with_matching_polynomial(self):
        for n, p in [(2, "4"), (3, "3*t"), (2, "7")]:
            p = parse_hilbert_poly(p)
            sats = enumerate_borel_saturated(n, p)
            assert len(set(sats)) == len(sats)
            for sat in sats:
                assert is_strongly_stable(sat)
                assert saturate(sat) == sat
                assert hilbert_polynomial(sat) == p


class TestIsBorelChart:
    @pytest.mark.parametrize("n, p", [
        (2, "4"), (2, "7"), (2, "10"), (3, "3*t"), (3, "2*t+2"), (3, "3*t+1"),
        (3, "3*t+2"), (3, "2*t+4"), (4, "3*t"), (4, "2*t+1")])
    def test_agrees_with_the_hilbert_polynomial(self, n, p):
        c = chart_constants(p, n)
        for J in enumerate_borel_in_g(n, c.r, c.s):
            assert is_borel_chart(J, c) == (hilbert_polynomial(J) == c.p)


class TestStructuralProperties:
    def test_divide_by_min_stays_inside(self, j1sat):
        # members above the basis stay in the ideal after dividing by min
        for t in range(2, 6):
            for m in j1sat.monomials_at(t):
                if m not in j1sat.gens:
                    assert j1sat.contains(m / Monomial.variable(2, m.min_var()))

    def test_boundary_products(self, j1sat):
        # x_i * (outside monomial) landing inside is either a generator or
        # uses a variable above the minimum
        for t in range(1, 5):
            for m in j1sat.sous_escalier_at(t):
                for i in range(3):
                    prod = m * Monomial.variable(2, i)
                    if j1sat.contains(prod) and prod not in j1sat.gens:
                        assert not m.is_one()
                        assert i > m.min_var()

    def test_dimension_split_of_saturation(self):
        # quotient by a chart's saturation contains the full d-dimensional
        # coordinate ring and kills the top variables beyond the regularity
        for n, p in [(2, "4"), (3, "3*t"), (2, "7")]:
            c = chart_constants(parse_hilbert_poly(p), n)
            d = c.d
            for sat in enumerate_borel_saturated(n, c.p):
                reg = regularity(sat)
                for t in range(reg + 2):
                    for m in monomials_of_degree(n, t):
                        if m.is_one() or m.max_var() <= d:
                            assert not sat.contains(m)
                for m in monomials_of_degree(n, reg):
                    if not m.is_one() and m.min_var() >= d + 1:
                        assert sat.contains(m)
