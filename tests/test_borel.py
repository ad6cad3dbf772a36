import itertools
import json
import time
from operator import le

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from borelcover.borel import (BorelChartIdeal, MonomialIdeal, borel_charts,
                              ek_histogram, enumerate_borel_in_g,
                              enumerate_borel_saturated, is_borel_chart,
                              is_strongly_stable, regularity, rho, saturate,
                              star_decompose, truncate)
from borelcover.errors import MathDomainError, ParseError, ScaleCapError
from borelcover.hilbert import (ChartConstants, ambient_dimension, binom,
                               borel_dim_at, chart_constants,
                               hilbert_polynomial, parse_hilbert_poly)
from borelcover.hilbert import _minimal
from borelcover.ring import Monomial, canonical_key, monomials_of_degree

from conftest import (CHART_FAMILIES, borel_closure, monomial_ideals, mono,
                      record_fields, reference_chart_records, scan_contains,
                      scan_star_decompose, up_moves)


def all_pairs_minimal(gens):
    """The distinct generators that no other one divides, in canonical order."""
    distinct = set(gens)
    return sorted((g for g in distinct
                   if not any(h != g and h.divides(g) for h in distinct)),
                  key=canonical_key)


def grouped_minimal(gens):
    """The minimalization loop MonomialIdeal.__init__ once ran on Monomials:
    each degree tested against the generators kept below it."""
    minimal = []
    for _, same in itertools.groupby(sorted(set(gens), key=canonical_key),
                                     Monomial.degree):
        minimal += [g for g in same
                    if not any(all(map(le, h.exps, g.exps)) for h in minimal)]
    return minimal


def built_truncation(J, m):
    """The degree->=m part of J built as truncate once did: every product
    g * u of degree m of a generator below m, minimalized again."""
    gens = []
    for g in J.gens:
        d = g.degree()
        if d >= m:
            gens.append(g)
        else:
            gens.extend(g * u for u in monomials_of_degree(J.n, m - d))
    return MonomialIdeal(J.n, gens)


# Saturation of an arbitrary monomial ideal, kept as a test-local reference
# for `saturate` and the truncation tests: J : (x_0, ..., x_n)^infinity is
# the intersection over i of J : x_i^infinity.

def colon_variable_power(J, i):
    """J : x_i^infinity: delete x_i from each generator."""
    return MonomialIdeal(J.n, [Monomial(g.exps[:i] + (0,) + g.exps[i + 1:])
                               for g in J.gens])


def intersect(A, B):
    if A.is_zero() or B.is_zero():
        return MonomialIdeal.zero(A.n)
    return MonomialIdeal(A.n, [Monomial(map(max, a.exps, b.exps))
                               for a in A.gens for b in B.gens])


def saturate_any(J):
    out = colon_variable_power(J, 0)
    for i in range(1, J.n + 1):
        out = intersect(out, colon_variable_power(J, i))
    return out


@st.composite
def generator_lists(draw, max_n=3, max_exponent=2, max_gens=20):
    """Monomials of mixed degrees, with repeats and possibly the unit."""
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(0, max_gens))   # not hypothesis's short default lists
    exps = st.lists(st.integers(0, max_exponent), min_size=n + 1, max_size=n + 1)
    return n, [Monomial(e) for e in draw(st.lists(exps, min_size=k, max_size=k))]


class TestMonomialIdeal:
    def test_minimalization_and_order(self):
        J = MonomialIdeal.parse("x1^3, x2*x1, x2^2, x2^2*x1", 2)
        assert [str(g) for g in J.gens] == ["x2^2", "x2*x1", "x1^3"]

    @given(generator_lists())
    def test_minimalization_against_all_pairs(self, drawn):
        n, gens = drawn
        assert list(MonomialIdeal(n, gens).gens) == all_pairs_minimal(gens)

    @given(generator_lists())
    def test_one_minimal_routine_against_both_definitions(self, drawn):
        _, gens = drawn
        want = [g.exps for g in all_pairs_minimal(gens)]
        assert [g.exps for g in grouped_minimal(gens)] == want
        assert _minimal([g.exps for g in gens]) == want
        assert _minimal(iter([g.exps for g in reversed(gens)])) == want

    def test_parse_of_large_powers(self):
        # a power of one term is raised in one step, not by e products
        text = ", ".join(f"x2*x0^{i}*x1^{1000 - i}" for i in range(1001))
        start = time.perf_counter()
        J = MonomialIdeal.parse(text, 2)
        assert time.perf_counter() - start < 1
        assert J == MonomialIdeal(2, [(i, 1000 - i, 1) for i in range(1001)])

    def test_membership(self, j1sat):
        assert j1sat.contains(mono("x2^2*x0^3", 2))
        assert not j1sat.contains(mono("x1^2*x0", 2))

    def test_json_round_trip(self, j1sat):
        data = json.loads(json.dumps(j1sat.to_json_dict(), sort_keys=True))
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


def set_based_degrees(J):
    """(min, max, single degree?) of J's generator degrees, read off their set."""
    degrees = {g.degree() for g in J.gens}
    return min(degrees, default=0), max(degrees, default=0), len(degrees) <= 1


@st.composite
def built_ideals(draw):
    """An ideal from each way the package builds one: __init__, truncate,
    saturate and enumerate_borel_in_g."""
    way = draw(st.sampled_from(["init", "truncate", "saturate", "enumerate"]))
    if way == "init":
        return MonomialIdeal(*draw(generator_lists()))
    if way == "truncate":
        return truncate(draw(monomial_ideals()), draw(st.integers(0, 6)))
    if way == "saturate":
        return saturate(borel_closure(draw(monomial_ideals())))
    n, r = draw(st.sampled_from([(n, r) for n, r in small_slices(15)]))
    found = enumerate_borel_in_g(n, r, draw(st.integers(0, ambient_dimension(n, r))))
    return draw(st.sampled_from(found)) if found else MonomialIdeal.zero(n)


class TestGeneratorDegrees:
    @settings(max_examples=200)
    @given(built_ideals())
    @example(MonomialIdeal.zero(2))
    @example(MonomialIdeal(2, [(0, 0, 0)]))
    @example(MonomialIdeal.parse("x1^3, x2*x1, x2^2, x2^2*x1", 2))
    def test_ends_of_gens_against_the_set(self, J):
        assert (J.min_gen_degree(), J.max_gen_degree(),
                J.generated_in_single_degree()) == set_based_degrees(J)


def outcome(f, *args):
    """f(*args), or the type and message of the exception it raised."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc), str(exc)


def scan_strongly_stable(J):
    """Reference stability test: every increasing move of a generator stays in J."""
    return all(scan_contains(J, u) for g in J.gens for u in up_moves(g))


# Ideals of P^n, n <= 4, on generators of mixed degrees, Borel or not, with
# the zero and the unit ideal among them
membership_ideals = st.one_of(
    monomial_ideals(max_n=4, max_gens=4, max_degree=3),
    monomial_ideals(max_n=4, max_gens=3, max_degree=3).map(borel_closure),
    st.integers(1, 4).map(MonomialIdeal.zero),
    st.integers(1, 4).map(lambda n: MonomialIdeal(n, [Monomial.one(n)])))


class TestMembershipAgainstScan:
    """The tuple-based membership against the Monomial.divides scan it replaced."""

    @settings(max_examples=150)
    @given(membership_ideals)
    def test_membership_and_listings(self, J):
        for t in range(J.max_gen_degree() + 2):
            mons = monomials_of_degree(J.n, t)
            assert [J.contains(m) for m in mons] == [scan_contains(J, m) for m in mons]
            assert J.monomials_at(t) == [m for m in mons if scan_contains(J, m)]
            assert J.sous_escalier_at(t) == [m for m in mons if not scan_contains(J, m)]
        assert is_strongly_stable(J) == scan_strongly_stable(J)

    @settings(max_examples=100)
    @given(membership_ideals.filter(is_strongly_stable))
    def test_star_decompose(self, J):
        for t in range(J.max_gen_degree() + 2):
            for m in monomials_of_degree(J.n, t):
                assert outcome(star_decompose, m, J) == outcome(scan_star_decompose, m, J)

    def test_star_decompose_escape_message(self):
        # outside a Borel ideal the strip can leave it; the message is unchanged
        J = MonomialIdeal.parse("x1^2", 2)
        gamma = mono("x2*x1^2", 2)
        got = outcome(star_decompose, gamma, J)
        assert got == outcome(scan_star_decompose, gamma, J)
        assert got[0] is MathDomainError and "escaped" in got[1]

    def test_star_decompose_non_member_message(self):
        # the strip of a non-member reaches 1; the membership test made then
        # picks this message, not the escape one
        J = MonomialIdeal.parse("x2, x1^3", 2)
        for gamma in (mono("x1^2*x0", 2), Monomial.one(2)):
            got = outcome(star_decompose, gamma, J)
            assert got == outcome(scan_star_decompose, gamma, J)
            assert got == (MathDomainError, f"{gamma} is not a member of {J}")
        with pytest.raises(TypeError, match="^expected Monomial, got tuple$"):
            star_decompose((0, 1, 0), J)

    @pytest.mark.parametrize("J", [MonomialIdeal.zero(2), MonomialIdeal.parse("x2, x1^3", 2)],
                             ids=["zero", "nonzero"])
    def test_monomial_of_another_ambient_is_refused(self, J):
        with pytest.raises(MathDomainError, match="different ambient rings"):
            J.contains(Monomial((1, 2)))
        with pytest.raises(TypeError, match="expected Monomial, got tuple"):
            J.contains((0, 1, 2))


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

    @given(st.one_of(monomial_ideals(), monomial_ideals().map(borel_closure)))
    def test_against_the_monomial_path(self, J):
        # the colon built as Monomials and minimalized by MonomialIdeal
        want = colon_variable_power(J, 0)
        if is_strongly_stable(J):
            got = saturate(J)
            assert got == want and got.gens == want.gens and hash(got) == hash(want)
        else:
            with pytest.raises(MathDomainError, match="saturate requires"):
                saturate(J)

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

    def test_truncation_work_is_capped(self):
        # the unit ideal forms all N(m) = C(m + 2, 2) monomials of degree m:
        # 9 870 at m = 139 are formed, 10 011 at m = 140 are refused
        unit = MonomialIdeal(2, [(0, 0, 0)])
        assert len(truncate(unit, 139).gens) == 9870
        with pytest.raises(ScaleCapError, match="would form 10011 monomials"):
            truncate(unit, 140)

    @settings(max_examples=150)
    @given(st.one_of(monomial_ideals(), monomial_ideals().map(borel_closure)),
           st.integers(0, 7))
    @example(MonomialIdeal.parse("x2^5, x1*x0, x2*x1^2", 2), 3)
    @example(MonomialIdeal(2, [(0, 0, 0)]), 2)
    def test_against_the_built_products(self, J, m):
        # m = 0, and m below, at and above the generator degrees (1 to 4)
        got, want = truncate(J, m), built_truncation(J, m)
        assert got == want and got.gens == want.gens and hash(got) == hash(want)
        assert all(g.degree() >= m for g in got.gens)

    def test_cap_before_any_member(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("formed members past the cap")

        monkeypatch.setattr(MonomialIdeal, "_members_at", refuse)
        with pytest.raises(ScaleCapError, match="would form 10011 monomials"):
            truncate(MonomialIdeal(2, [(0, 0, 0)]), 140)

    def test_squares_not_a_truncation(self):
        # an m-truncation is the degree->=m part of its saturation
        J = MonomialIdeal.parse("x0^2, x1^2, x2^2", 2)
        assert J != truncate(saturate_any(J), 2)

    def test_chart_ideals_are_truncations(self):
        for n, p in [(2, "4"), (3, "3*t")]:
            c = chart_constants(parse_hilbert_poly(p), n)
            for sat in enumerate_borel_saturated(n, c.p):
                T = truncate(sat, c.r)
                assert T == truncate(saturate_any(T), c.r)

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
                    assert max(eta.support()) <= alpha.min_var()

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

    def test_negative_degree_has_no_monomials(self):
        # C(n + r, n) is 1 at n = 2, r = -3, but S_-3 is empty
        assert enumerate_borel_in_g(2, -3, 0) == [MonomialIdeal.zero(2)]
        with pytest.raises(MathDomainError):
            enumerate_borel_in_g(2, -3, 1)


def reference_down_moves(mon):
    """Results of decreasing elementary moves x_j -> x_i, i < j."""
    out = []
    n = mon.n
    for j in mon.support():
        for i in range(j):
            out.append(mon / Monomial.variable(n, j) * Monomial.variable(n, i))
    return out


def reference_poset(n, r):
    """Degree-r monomials ascending and the indices one decreasing move below each."""
    asc = list(reversed(monomials_of_degree(n, r)))
    index = {m: i for i, m in enumerate(asc)}
    return asc, [sorted({index[d] for d in reference_down_moves(m)}) for m in asc]


def reference_enumerate_in_g(poset, n, s):
    """Reference walk over reference_poset(n, r): (ideals, search nodes), no caps.

    Recursive insertion along ascending degrevlex, each candidate tested
    against a list of booleans and every leaf minimalized by MonomialIdeal.
    """
    asc, lower = poset
    N = len(asc)
    target = N - s
    results = []
    nodes = 0
    chosen = [False] * N

    def rec(start, count):
        nonlocal nodes
        nodes += 1
        if count == target:
            results.append(MonomialIdeal(n, [asc[i] for i in range(N)
                                             if not chosen[i]]))
            return
        for i in range(start, N):
            if N - i < target - count:
                break
            if all(chosen[k] for k in lower[i]):
                chosen[i] = True
                rec(i + 1, count + 1)
                chosen[i] = False

    rec(0, 0)
    results.sort(key=lambda J: tuple(canonical_key(g) for g in J.gens))
    return results, nodes


def small_slices(max_ambient=35):
    """Every (n, r) with n >= 1 and N(r) <= max_ambient."""
    for n in range(1, max_ambient):
        r = 0
        while ambient_dimension(n, r) <= max_ambient:
            yield n, r
            r += 1


class TestBitmaskWalk:
    def test_matches_the_recursive_walk(self):
        # same ideals in the same order, and the same node count to the cap
        for n, r in small_slices():
            poset = reference_poset(n, r)
            for s in range(len(poset[0]) + 1):
                want, nodes = reference_enumerate_in_g(poset, n, s)
                assert enumerate_borel_in_g(n, r, s, max_nodes=nodes) == want, (n, r, s)
                with pytest.raises(ScaleCapError):
                    enumerate_borel_in_g(n, r, s, max_nodes=nodes - 1)

    @pytest.mark.parametrize("n, p, nodes", [
        (2, "7", 19), (3, "3*t+2", 318), (3, "4*t", 1658), (3, "5*t-2", 39050)])
    def test_node_cap_boundary(self, n, p, nodes):
        c = chart_constants(p, n)
        enumerate_borel_in_g(n, c.r, c.s, max_ambient=200, max_nodes=nodes)
        with pytest.raises(ScaleCapError,
                           match=f"enumeration exceeded {nodes - 1} search nodes"):
            enumerate_borel_in_g(n, c.r, c.s, max_ambient=200, max_nodes=nodes - 1)

    @pytest.mark.parametrize("n, r, s", [(2, 4, 11), (3, 4, 20), (3, 3, 11), (2, 0, 1)])
    def test_leaves_equal_and_hash_like_built_ideals(self, n, r, s):
        got = enumerate_borel_in_g(n, r, s)
        assert got
        for J in got:
            built = MonomialIdeal(n, J.gens)
            assert J == built and hash(J) == hash(built)
            assert J.gens == built.gens and J.n == built.n


class TestTrustedLeaves:
    @pytest.mark.parametrize("n", range(5))
    def test_one_degree_listing_is_a_minimal_basis(self, n):
        for d in range(6):
            mons = monomials_of_degree(n, d)
            assert MonomialIdeal(n, mons).gens == tuple(mons)
            trusted = MonomialIdeal._from_sorted(n, mons)
            assert trusted == MonomialIdeal(n, mons)
            assert hash(trusted) == hash(MonomialIdeal(n, mons))


def histogram_count(J):
    """dim J_{r+1} of a Borel J generated in degree r as the histogram sum
    sum_k a_k (k + 1): a generator with min variable k has k + 1 multiples
    u * g of degree r + 1 with max(u) <= k."""
    return sum(a * (k + 1) for k, a in enumerate(ek_histogram(J)))


def single_degree_borel(I):
    """Borel closure of I cut down to its top generator degree."""
    J = borel_closure(I)
    return truncate(J, J.max_gen_degree())


class TestHistogram:
    def test_unit_generator_counts_at_n(self):
        assert ek_histogram(MonomialIdeal(2, [Monomial.one(2)])) == (0, 0, 1)

    def test_counts_min_variables(self, j1sat):
        # x2^2 has min variable 2; x2*x1 and x1^3 have min variable 1
        assert ek_histogram(j1sat) == (0, 2, 1)
        assert ek_histogram(MonomialIdeal.parse("x2^2, x2*x0", 2)) == (1, 0, 1)

    @given(monomial_ideals().map(single_degree_borel))
    def test_histogram_polynomial_is_the_hilbert_polynomial(self, J):
        n, r = J.n, J.max_gen_degree()
        hist = ek_histogram(J)
        assert len(hist) == n + 1 and sum(hist) == len(J.gens)
        hp = hilbert_polynomial(J)
        # two polynomials of degree <= n that agree at n + 1 points are equal
        for t in range(r, r + n + 1):
            assert hp.evaluate(t) == binom(t + n, n) - sum(
                a * binom(t - r + k, k) for k, a in enumerate(hist))

    @given(monomial_ideals().map(single_degree_borel), st.integers(-1, 1))
    def test_chart_test_is_the_eliahou_kervaire_count(self, J, shift):
        # constants whose q(r+1) is dim J_{r+1} shifted by -1, 0 or 1
        n, r = J.n, J.max_gen_degree()
        p = hilbert_polynomial(J)
        c = ChartConstants(n=n, p=p, d=max(p.degree(), 0), r=r,
                           N_r=ambient_dimension(n, r), s=len(J.gens),
                           s_prime=borel_dim_at(J, r + 1) + shift, D=0)
        assert histogram_count(J) == borel_dim_at(J, r + 1)
        assert is_borel_chart(J, c) == (histogram_count(J) == c.s_prime)


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


class TestChartRecords:
    @pytest.mark.parametrize("n, p", CHART_FAMILIES)
    def test_records_equal_the_saturate_then_truncate_path(self, n, p):
        c = chart_constants(p, n)
        want = reference_chart_records(c)
        got = borel_charts(c)
        assert record_fields(got) == record_fields(want)
        assert enumerate_borel_saturated(n, p) == [ch.saturation for ch in want]

    def test_record_is_read_off_its_chart(self, j1sat):
        J = truncate(j1sat, 4)
        assert BorelChartIdeal.from_chart(J) == BorelChartIdeal(
            chart=J, saturation=j1sat, regularity_sat=3, rho=3)

    def test_from_chart_requires_a_borel_ideal(self):
        with pytest.raises(MathDomainError, match="saturate requires"):
            BorelChartIdeal.from_chart(MonomialIdeal.parse("x1^2, x0^2", 2))


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
                        if m.is_one() or max(m.support()) <= d:
                            assert not sat.contains(m)
                for m in monomials_of_degree(n, reg):
                    if not m.is_one() and m.min_var() >= d + 1:
                        assert sat.contains(m)
