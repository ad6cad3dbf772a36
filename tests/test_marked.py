import gc
import random
import zlib
from dataclasses import replace
from fractions import Fraction
from operator import add

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from borelcover import marked
from borelcover.borel import (MonomialIdeal, enumerate_borel_in_g,
                              enumerate_borel_saturated, regularity, rho,
                              saturate, truncate)
from borelcover.chart import (_degree_basis, borel_open_set, chart_form, degree_basis,
                              in_hilb, random_coordinate_change)
from borelcover.cover import classify_grassmannian_borel
from borelcover.errors import (InadmissiblePolynomialError, MathDomainError,
                               NotInChartError, ReductionCapError, ScaleCapError)
from borelcover.hilbert import chart_constants, hilbert_polynomial
from borelcover.marked import (assignment_from_marked_set, bounds, ek_spairs,
                               embedding_dimension, is_marked_basis,
                               naive_minor_count, reduce, scheme_equations,
                               template)
from borelcover.ring import (Monomial, ParamPoly, XPoly, apply_change_of_coords,
                             monomials_of_degree, parse_parampoly, parse_xpoly)

from conftest import (CHART_FAMILIES, _rank_is_marked_basis, borel_closure,
                      form_terms, marked_set_from_ideal, mono, monomial_ideals,
                      rational_sampler, scan_contains, scan_star_decompose,
                      specialize, template_polys)


class TestTemplate:
    def test_flagship_polynomials(self, j1sat):
        tpl = template(j1sat, 2)
        assert tpl.num_vars == 12
        assert [str(f) for f in template_polys(tpl)] == [
            "x2^2 - C[1,1]*x1^2 - C[1,2]*x2*x0 - C[1,3]*x1*x0 - C[1,4]*x0^2",
            "x2*x1 - C[2,1]*x1^2 - C[2,2]*x2*x0 - C[2,3]*x1*x0 - C[2,4]*x0^2",
            "x1^3 - C[3,1]*x1^2*x0 - C[3,2]*x2*x0^2 - C[3,3]*x1*x0^2 - C[3,4]*x0^3",
        ]

    def test_lex_cubic_dimensions(self, lex_cubic):
        for m in (0, 1):
            tpl = template(lex_cubic, m)
            assert tpl.num_vars == 12
            assert [len(t) for t in tpl.tails] == [3, 9]

    def test_gotzmann_level_gives_cell_dimension(self, j1sat):
        c = chart_constants(4, 2)
        assert template(j1sat, c.r).num_vars == c.D == 44

    def test_single_head_monomial_in_ideal(self, j1sat):
        tpl = template(j1sat, 3)
        for f in template_polys(tpl):
            inside = [m for m in f.support() if tpl.ideal.contains(m)]
            assert len(inside) == 1

    def test_rejects_level_below_range(self):
        # min generator degree 1 but rho-1 = 3: level 2 changes the ideal
        sat = MonomialIdeal.parse("x3, x2^2, x2*x1^3, x1^4", 3)
        from borelcover.borel import rho, is_strongly_stable, saturate
        assert is_strongly_stable(sat) and saturate(sat) == sat
        assert rho(sat) == 4
        template(sat, 3)  # fine
        template(sat, 1)  # truncation equals the saturation: fine
        with pytest.raises(MathDomainError):
            template(sat, 2)

    def test_rejects_unsaturated(self, j1sat):
        with pytest.raises(MathDomainError):
            template(truncate(j1sat, 4), 4)


@pytest.fixture
def hp_calls(monkeypatch):
    """The ideals whose Hilbert polynomial `marked` asks for, in order."""
    calls = []

    def counted(J, real=marked.hilbert_polynomial):
        calls.append(J)
        return real(J)

    monkeypatch.setattr(marked, "hilbert_polynomial", counted)
    return calls


class TestTemplateFromTAlone:
    @pytest.mark.parametrize("n, p", CHART_FAMILIES)
    def test_template_computes_no_hilbert_polynomial(self, hp_calls, n, p):
        c = chart_constants(p, n)
        for sat in enumerate_borel_saturated(n, c.p):
            # the degree of the saturation's Hilbert polynomial
            want = max(hilbert_polynomial(sat).degree(), 0)
            for m in {max(rho(sat) - 1, 0), regularity(sat), c.r}:
                assert template(sat, m).hp_degree == want
        assert hp_calls == []

    def test_is_marked_basis_computes_one_hilbert_polynomial(self, hp_calls, j1sat):
        T = truncate(j1sat, 4)
        assert is_marked_basis([XPoly.from_monomial(g) for g in T.gens], T)
        assert hp_calls == [T]
        T = MonomialIdeal.parse("x2, x1^120", 2)
        G = [parse_xpoly("x2 + x1", 2), parse_xpoly("x1^120 + x1^119*x0", 2)]
        assert is_marked_basis(G, T)
        assert hp_calls[1:] == [T]

    @settings(max_examples=60)
    @given(monomial_ideals().map(borel_closure))
    def test_any_strongly_stable_ideal(self, T):
        # mixed head degrees, often not saturated
        tpl = marked._template_over(T)
        assert tpl.hp_degree == max(hilbert_polynomial(T).degree(), 0)
        for d in range(T.max_gen_degree() + 2):
            assert tpl.members_at(d) == {m.exps for m in T.monomials_at(d)}

    def test_hilbert_polynomial_degree_cap(self):
        # (x200) in P^200 has a polynomial of degree 199: the tails are listed,
        # then the cap refuses it with the message of hilbert_polynomial
        with pytest.raises(ScaleCapError,
                           match="^Hilbert polynomial degree 199 exceeds the cap 100$"):
            template(MonomialIdeal.parse("x200", 200), 1)


class TestEKSPairs:
    def test_count_single_degree(self, j1sat):
        c = chart_constants(4, 2)
        T3 = truncate(j1sat, 3)
        pairs = ek_spairs(T3)
        q3 = c.q(3)
        q4 = c.q(4)
        assert len(pairs) == q3 * (2 + 1) - q4 == 7

    def test_top_variable_power_has_none(self):
        assert ek_spairs(MonomialIdeal.parse("x2^4", 2)) == []

    def test_multi_degree_pair(self, j1sat):
        pairs = ek_spairs(j1sat)
        tagged = {(str(p.alpha), p.var, str(p.beta), str(p.eta)) for p in pairs}
        assert ("x1^3", 2, "x2*x1", "x1^2") in tagged
        assert len(pairs) == 2

    def test_syzygy_identity(self, j1sat):
        n = 2
        for T in (j1sat, truncate(j1sat, 3), truncate(j1sat, 4)):
            for p in ek_spairs(T):
                assert p.alpha * Monomial.variable(n, p.var) == p.eta * p.beta
                assert p.var > p.alpha.min_var()
                if not p.eta.is_one():
                    assert max(p.eta.support()) <= p.beta.min_var()


class TestReduce:
    def test_already_reduced(self, j1sat):
        tpl = template(j1sat, 2)
        h = XPoly(2, [(mono("x1^2", 2), ParamPoly.var((1, 1)))])
        res = reduce(form_terms(h), tpl)
        assert res.poly == h
        assert res.steps == 0

    def test_member_of_generated_set_reduces_to_zero(self, j1sat):
        tpl = template(j1sat, 2)
        h = XPoly.from_monomial(mono("x0", 2)) * template_polys(tpl)[1]
        res = reduce(form_terms(h), tpl)
        assert not res.poly

    def test_support_lands_outside(self, j1sat):
        tpl = template(j1sat, 2)
        for pair in ek_spairs(tpl.ideal):
            res = reduce(marked._spair_terms(pair, tpl), tpl)
            assert all(not tpl.ideal.contains(m) for m in res.poly.support())

    def test_step_cap_is_a_hard_error(self):
        # a template that puts each head into its own tail, with a parameter
        # factor, violates the precondition: rewriting x^a brings back
        # C*x^a, and the input-derived cap ends the loop
        tpl = template(MonomialIdeal.parse("x2, x1^2", 2), 2)
        bad = replace(
            tpl, tails=tuple(tail + (head,) for head, tail in zip(tpl.heads, tpl.tails)),
            factors=tuple(keys + ((i, len(keys) + 1),)
                          for i, keys in enumerate(tpl.factors, start=1)))
        for pair in ek_spairs(bad.ideal):
            with pytest.raises(ReductionCapError, match="precondition violated"):
                reduce(marked._spair_terms(pair, bad), bad)


def reference_reduce(h, tpl, strategy="largest"):
    """The rewriting loop on whole XPolys: rescan h, reduce, subtract.

    Rewrites the degrevlex-largest monomial of T first, or with
    strategy="smallest" the smallest one.  Membership in T and the star
    decompositions are the test-local scans of conftest, not the library's.
    """
    T = tpl.ideal
    polys = template_polys(tpl)
    step_cap = 10 * (tpl.hp_degree + 2) * max(len(h.terms), 1)
    depth = {mon: 1 for mon, _ in h.terms if scan_contains(T, mon)}
    steps = 0
    max_chain = 0
    while True:
        terms = h.terms if strategy == "largest" else tuple(reversed(h.terms))
        hit = next(((mon, c) for mon, c in terms if scan_contains(T, mon)), None)
        if hit is None:
            return h, steps, max_chain
        target, c = hit
        steps += 1
        if steps > step_cap:
            raise ReductionCapError(f"reduction exceeded {step_cap} steps")
        level = depth.get(target, 1)
        max_chain = max(max_chain, level)
        eta, beta = scan_star_decompose(target, T)
        i = tpl.head_index[beta]
        h = h - (XPoly.from_monomial(eta) * polys[i]).scale(c)
        for tail in tpl.tails[i]:
            new_mon = tail * eta
            if scan_contains(T, new_mon):
                depth[new_mon] = max(depth.get(new_mon, 0), level + 1)


def reference_spair_polynomial(pair, tpl):
    """x_j * F_a - x^eta * F_b in XPoly arithmetic."""
    polys = template_polys(tpl)
    x_j = Monomial.variable(tpl.ideal.n, pair.var)
    return (XPoly.from_monomial(x_j) * polys[tpl.head_index[pair.alpha]]
            - XPoly.from_monomial(pair.eta) * polys[tpl.head_index[pair.beta]])


def eager_template_polys(sat, m):
    """F_a for every head of truncate(sat, m), built as template() once built
    them: an XPoly per head, with -C[i,j] on the j-th tail."""
    T = truncate(sat, m)
    polys = []
    for i, head in enumerate(T.gens, start=1):
        terms = [(head, Fraction(1))]
        terms.extend((g, -ParamPoly.var((i, j)))
                     for j, g in enumerate(T.sous_escalier_at(head.degree()), start=1))
        polys.append(XPoly(sat.n, terms, head.degree()))
    return dict(zip(T.gens, polys))


def dict_spair_polynomial(pair, polys):
    """x_j * F_a - x^eta * F_b on exponent dicts, subtracting ParamPolys."""
    n = pair.alpha.n
    x_j = Monomial.variable(n, pair.var).exps
    acc = {tuple(map(add, g.exps, x_j)): k for g, k in polys[pair.alpha].terms}
    for g, k in polys[pair.beta].terms:
        mon = tuple(map(add, g.exps, pair.eta.exps))
        prev = acc.get(mon)
        acc[mon] = -k if prev is None else prev - k
    return XPoly(n, [(Monomial(e), c) for e, c in acc.items() if c],
                 pair.alpha.degree() + 1)


def reference_scheme_equations(sat, m, strategy):
    """(generators, num_vars, spair_count, max_chain, max_degree) from the
    reference reduction of the reference S-polynomials, deduplicated in
    S-pair order with scalars promoted to constant ParamPolys."""
    tpl = template(sat, m)
    pairs = ek_spairs(tpl.ideal)
    gens = []
    seen = set()
    max_chain = 0
    for pair in pairs:
        poly, _, chain = reference_reduce(reference_spair_polynomial(pair, tpl),
                                          tpl, strategy)
        max_chain = max(max_chain, chain)
        for _, coeff in poly.terms:
            if isinstance(coeff, Fraction):
                coeff = ParamPoly.const(coeff)
            if coeff and coeff not in seen:
                seen.add(coeff)
                gens.append(coeff)
    return (gens, tpl.num_vars, len(pairs), max_chain,
            max((g.degree() for g in gens), default=0))


def _scheme_fingerprint(gens, *rest):
    return ([(g, str(g)) for g in gens],) + rest


# The library rewrites in one order.  The normal form does not depend on the
# order, so it must equal the reference's in both: the equations with their
# text, and max_chain.  The equations are reduced from S-polynomials with the
# int coefficients -1 and 1, so their values are ints, where the reference's
# XPoly arithmetic gives Fractions of the same values and text.

def assert_scheme_equations_as_reference(sat, m):
    S = scheme_equations(sat, m)
    assert all(type(v) is int for g in S.generators for _, v in g.terms)
    got = _scheme_fingerprint(S.generators, S.num_vars, S.spair_count,
                              S.max_chain, S.max_degree)
    for strategy in ("largest", "smallest"):
        assert got == _scheme_fingerprint(
            *reference_scheme_equations(sat, m, strategy))


def _reduction_fingerprint(poly, max_chain):
    return (str(poly), poly.degree, form_terms(poly), max_chain)


def assert_reduces_as_reference(h, tpl):
    """reduce on h's terms against the reference on h itself; steps counts
    rewrites, so it is compared with the largest-first order only."""
    res = reduce(form_terms(h), tpl)
    got = _reduction_fingerprint(res.poly, res.max_chain)
    for strategy in ("largest", "smallest"):
        poly, steps, max_chain = reference_reduce(h, tpl, strategy)
        assert got == _reduction_fingerprint(poly, max_chain)
        if strategy == "largest":
            assert res.steps == steps


def assert_spairs_reduce_as_reference(sat, m):
    tpl = template(sat, m)
    for pair in ek_spairs(tpl.ideal):
        assert_reduces_as_reference(reference_spair_polynomial(pair, tpl), tpl)


REDUCTION_CHARTS = [
    ("x2, x1^10", 2, 10),
    ("x3, x2^3", 3, 3),
    ("x2^2, x2*x1, x1^3", 2, 2),
    ("x2^2, x2*x1, x1^3", 2, 3),
    ("x2^2, x2*x1, x1^3", 2, 4),
    ("x2, x1^3", 2, 2),
    ("x2, x1^3", 2, 3),
]


class TestReduceAgainstReference:
    @pytest.mark.parametrize("sat_text, n, m", REDUCTION_CHARTS)
    def test_fixed_charts(self, sat_text, n, m):
        assert_spairs_reduce_as_reference(MonomialIdeal.parse(sat_text, n), m)

    @settings(max_examples=20)
    @given(monomial_ideals(max_gens=2, max_degree=3).map(borel_closure))
    def test_saturated_borel_closures(self, J):
        sat = saturate(J)
        assume(not sat.contains_one())
        for m in (regularity(sat), regularity(sat) + 1):
            assert_spairs_reduce_as_reference(sat, m)

    def test_scalar_and_parametric_coefficients(self, j1sat):
        # a scalar form reduces with Fraction, ParamPoly and mixed sums
        tpl = template(j1sat, 2)
        h = parse_xpoly("x2^3 + 2*x2^2*x1 - 1/3*x2*x1^2 + x1^3 + x2*x1*x0", 2)
        assert_reduces_as_reference(h, tpl)

    def test_rational_parameter_coefficients(self, j1sat):
        tpl = template(j1sat, 2)
        h = parse_xpoly("1/2*C[1,1]*x2^3 - 2/3*C[1,2]*C[2,1]*x2^2*x1"
                        " + 3/4*x2*x1^2 + 5/7*C[3,1]^2*x1^2*x0", 2)
        assert_reduces_as_reference(h, tpl)

    def test_untouched_scalar_stays_a_fraction(self, lex_cubic):
        # no rewrite of x3^3*x1 or x2^3*x1 lands on x0^4 or x2*x0^3, so
        # those coefficients come back with the values they went in with,
        # each wrapped as a ParamPoly; x2^2*x1^2 is rewritten
        tpl = template(lex_cubic, 3)
        h = XPoly(3, [(mono("x3^3*x1", 3), parse_parampoly("1/2*C[1,1]")),
                      (mono("x2^3*x1", 3),
                       parse_parampoly("-2/3*C[1,2]*C[2,3] + 3/4")),
                      (mono("x2^2*x1^2", 3), Fraction(-1, 3)),
                      (mono("x2*x0^3", 3), parse_parampoly("4/5*C[3,1]")),
                      (mono("x0^4", 3), Fraction(5, 7))], 4)
        assert_reduces_as_reference(h, tpl)
        out = dict(reduce(form_terms(h), tpl).poly.terms)
        assert out[mono("x0^4", 3)] == ParamPoly.const(Fraction(5, 7))
        assert [type(v) for _, v in out[mono("x0^4", 3)].terms] == [Fraction]
        assert out[mono("x2*x0^3", 3)] == h.coefficient(mono("x2*x0^3", 3))
        assert isinstance(out[mono("x2^2*x1^2", 3)], ParamPoly)

    @pytest.mark.parametrize("sat_text, n, m", REDUCTION_CHARTS)
    def test_spair_polynomials_match_xpoly_arithmetic(self, sat_text, n, m):
        tpl = template(MonomialIdeal.parse(sat_text, n), m)
        for pair in ek_spairs(tpl.ideal):
            got = marked._spair_terms(pair, tpl)
            want = reference_spair_polynomial(pair, tpl)
            assert got == form_terms(want)
            assert sum(next(iter(got))) == want.degree
            assert all(type(v) is int for d in got.values() for v in d.values())


class TestTemplateAgainstEagerConstruction:
    @pytest.mark.parametrize("n, p", CHART_FAMILIES)
    def test_polys_and_spair_polynomials(self, n, p):
        for sat in enumerate_borel_saturated(n, p):
            for m in {max(rho(sat) - 1, 0), regularity(sat)}:
                tpl = template(sat, m)
                polys = eager_template_polys(sat, m)
                assert template_polys(tpl) == tuple(polys.values())
                assert [str(f) for f in template_polys(tpl)] == \
                    [str(f) for f in polys.values()]
                for pair in ek_spairs(tpl.ideal):
                    got = marked._spair_terms(pair, tpl)
                    want = dict_spair_polynomial(pair, polys)
                    assert got == form_terms(want)
                    assert sum(next(iter(got))) == want.degree


@st.composite
def shuffled_forms(draw):
    """A degree-3 form in P^2 with ParamPoly coefficients, and the same form
    with each coefficient built from its terms in another order."""
    variable = st.tuples(st.integers(1, 3), st.integers(1, 4))
    multi_index = st.dictionaries(variable, st.integers(1, 2), max_size=2)
    value = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
    coefficient = st.lists(st.tuples(multi_index, value), min_size=1, max_size=4)
    mons = draw(st.lists(st.sampled_from(monomials_of_degree(2, 3)), min_size=1,
                         max_size=5, unique=True))
    pairs = []
    for mon in mons:
        terms = [(cm.items(), c) for cm, c in draw(coefficient)]
        order = draw(st.permutations(range(len(terms))))
        pairs.append(((mon, ParamPoly(terms)),
                      (mon, ParamPoly([terms[k] for k in order]))))
    assume(all(c for (_, c), _ in pairs))
    return XPoly(2, [a for a, _ in pairs], 3), XPoly(2, [b for _, b in pairs], 3)


class TestReductionIsOrderFree:
    @settings(max_examples=40)
    @given(shuffled_forms())
    def test_shuffled_coefficients_reduce_alike(self, forms):
        # the dicts reduce builds depend on the order of the input's terms;
        # equality, hashes, text and .terms must not
        tpl = template(MonomialIdeal.parse("x2^2, x2*x1, x1^3", 2), 2)
        h, shuffled = forms
        a, b = reduce(form_terms(h), tpl).poly, reduce(form_terms(shuffled), tpl).poly
        assert a == b and str(a) == str(b)
        for (mon, c), (mon2, c2) in zip(a.terms, b.terms):
            assert mon == mon2 and isinstance(c, ParamPoly)
            rebuilt = ParamPoly(reversed(c.terms))
            assert c == c2 == rebuilt
            assert hash(c) == hash(c2) == hash(rebuilt)
            assert str(c) == str(c2) == str(rebuilt)
            assert c.terms == c2.terms == tuple(sorted(
                c.terms, key=lambda t: (-sum(e for _, e in t[0]), t[0])))


class TestSchemeEquationsAgainstReference:
    @pytest.mark.parametrize("sat_text, n, m", REDUCTION_CHARTS)
    def test_fixed_charts(self, sat_text, n, m):
        assert_scheme_equations_as_reference(MonomialIdeal.parse(sat_text, n), m)

    @settings(max_examples=20)
    @given(monomial_ideals(max_gens=2, max_degree=3).map(borel_closure))
    def test_saturated_borel_closures(self, J):
        sat = saturate(J)
        assume(not sat.contains_one())
        for m in (regularity(sat), regularity(sat) + 1):
            assert_scheme_equations_as_reference(sat, m)

    @pytest.mark.parametrize("sat_text, n, m", [("x2^2, x2*x1, x1^3", 2, 2),
                                                ("x3, x2^3", 3, 3)])
    def test_one_reduce_call_per_spair(self, monkeypatch, sat_text, n, m):
        # the tracer counts reductions by wrapping the module's reduce
        calls = []

        def counting_reduce(*args, **kwargs):
            calls.append(args[0])
            return reduce(*args, **kwargs)

        monkeypatch.setattr(marked, "reduce", counting_reduce)
        S = scheme_equations(MonomialIdeal.parse(sat_text, n), m)
        assert len(calls) == S.spair_count > 0


class TestNoReferenceCycles:
    def test_calls_leave_no_cyclic_garbage(self, j1sat):
        # cyclic garbage outlives its call until the collector runs, and
        # raises the peak memory of every caller
        forms = [XPoly.from_monomial(m) for m in j1sat.gens]
        g = ((1, 2, 0), (0, 1, 3), (1, 0, 1))
        calls = [lambda: monomials_of_degree(2, 5),
                 lambda: enumerate_borel_in_g(2, 4, 11),
                 lambda: apply_change_of_coords(forms[0], g),
                 lambda: degree_basis(forms, 3),
                 lambda: scheme_equations(j1sat, 2)]
        gc.collect()
        gc.disable()
        try:
            for call in calls:
                call()
                assert gc.collect() == 0
        finally:
            gc.enable()


class TestSchemeEquations:
    def test_flagship_exact_generators(self, j1sat):
        from borelcover.fixtures import A8_CHART, reference_equations
        S = scheme_equations(j1sat, 2)
        assert S.num_vars == 12
        assert S.max_degree == 3
        assert set(S.generators) == set(reference_equations(A8_CHART))

    def test_zero_ideal_chart(self, lex_cubic):
        for m in (0, 1):
            S = scheme_equations(lex_cubic, m)
            assert S.generators == ()
            assert S.num_vars == 12

    def test_bounds_at_regularity(self, j1sat):
        S = scheme_equations(j1sat, 3)
        assert S.num_vars == 24
        assert S.bound_count == 28 and S.bound_degree == 2
        assert len(S.generators) <= 28
        assert S.max_degree <= 2
        assert S.max_chain <= hilbert_polynomial(j1sat).degree() + 1 == 1

    def test_chain_bound_across_charts(self):
        # chain length <= d + 1 at every level >= reg(saturation)
        from borelcover.borel import enumerate_borel_saturated
        for n, p in [(2, "7"), (3, "3*t")]:
            d = max(hilbert_polynomial_degree(p), 0)
            for sat in enumerate_borel_saturated(n, p):
                r_prime = regularity(sat)
                S = scheme_equations(sat, r_prime)
                assert S.max_chain <= d + 1
                assert S.max_degree <= d + 2
                assert len(S.generators) <= S.bound_count

    def test_monomial_point_satisfies_equations(self, j1sat, lex_cubic):
        for sat, m in [(j1sat, 2), (j1sat, 3), (lex_cubic, 3)]:
            S = scheme_equations(sat, m)
            for g in S.generators:
                assert dict(g.terms).get((), 0) == 0

    def test_max_degree_is_the_largest_generator_degree(self):
        # scheme_equations reports the largest generator degree
        from borelcover.cover import atlas
        from borelcover.borel import borel_charts
        found = [entry.equations for entry in atlas(2, "7", with_equations=True).charts]
        charts = borel_charts(chart_constants("4*t", 3))
        found += [scheme_equations(c.saturation, c.regularity_sat) for c in charts]
        assert len(charts) == 4
        for S in found:
            assert S.generators
            assert S.max_degree == max(g.degree() for g in S.generators)


def hilbert_polynomial_degree(p):
    from borelcover.hilbert import parse_hilbert_poly
    return parse_hilbert_poly(p).degree()


class TestIsMarkedBasis:
    def test_reference_marked_basis(self, j1sat):
        from borelcover.fixtures import QUARTIC_POINTS, reference_marked_basis
        G = reference_marked_basis(QUARTIC_POINTS)
        assert is_marked_basis(G, truncate(j1sat, 4))

    def test_sheared_quadrics_fail_in_small_chart(self):
        J = MonomialIdeal.parse("x2^2, x2*x1", 2)
        G = [parse_xpoly("x2^2", 2), parse_xpoly("x2*x1 + 1/2*x1^2", 2)]
        assert not is_marked_basis(G, J)

    def test_monomial_point(self, j1sat):
        T = truncate(j1sat, 4)
        G = [XPoly.from_monomial(g) for g in T.gens]
        assert is_marked_basis(G, T)

    def test_rejects_non_marked_set(self, j1sat):
        T = truncate(j1sat, 4)
        bad = [XPoly.from_monomial(T.gens[0]) for _ in T.gens]
        with pytest.raises(MathDomainError):
            is_marked_basis(bad, T)

    def test_rejects_parametric_coefficients(self):
        # a marked set is a point: its coefficients are numbers
        T = MonomialIdeal.parse("x2, x1^2", 2)
        f = XPoly(2, [(mono("x2", 2), Fraction(1)),
                      (mono("x1", 2), ParamPoly.var((1, 1)))])
        with pytest.raises(MathDomainError,
                           match="^coefficient matrix needs scalar coefficients$"):
            is_marked_basis([f, parse_xpoly("x1^2", 2)], T)

    def test_rejects_the_zero_ideal(self):
        # S/(0) has Hilbert polynomial C(t+2, 2), of degree n = 2
        with pytest.raises(InadmissiblePolynomialError,
                           match="^degree 2 polynomial is not admissible in P\\^2$"):
            is_marked_basis([], MonomialIdeal(2, []))

    def test_heads_above_the_gotzmann_number(self):
        # (x2, x1^120) has Gotzmann number 120: a rank walk would reach degree
        # 121.  Each marked set over it cuts out 120 points on a line, so
        # each is a basis
        T = MonomialIdeal.parse("x2, x1^120", 2)
        assert is_marked_basis([XPoly.from_monomial(g) for g in T.gens], T)
        G = [parse_xpoly("x2 + x1", 2), parse_xpoly("x1^120 + x1^119*x0", 2)]
        assert is_marked_basis(G, T)


@st.composite
def marked_sets(draw):
    """A strongly stable T with a marked set G over it: (T, G).

    T is the Borel closure of random monomials in P^2 or P^3: a power x_n^a,
    a monomial of higher degree in x_0..x_{n-1}, which keeps its closure's
    generators out of (x_n^a), and up to one more.  So its heads have mixed
    degrees, and it is not saturated when a monomial holds x_0.  No monomial
    is a pure power of x_0, which would make S/T finite, and none has degree
    above 3, past which the rank reference can take seconds.  G is the
    monomial set (the zero assignment), random tails, one coefficient per
    tail (sparse), or the lifted point: the marked set over T of the ideal
    of T after a random coordinate change.
    """
    n = draw(st.integers(2, 3))
    a = draw(st.integers(1, 2))

    def monomials(d, top):
        return st.lists(st.integers(0, top), min_size=d, max_size=d).filter(
            any).map(lambda vs: Monomial([vs.count(i) for i in range(n + 1)]))

    gens = [Monomial([0] * n + [a]), draw(monomials(draw(st.integers(a + 1, 3)), n - 1))]
    gens += draw(st.lists(st.integers(1, 3).flatmap(lambda d: monomials(d, n)), max_size=1))
    T = borel_closure(MonomialIdeal(n, gens))
    kind = draw(st.sampled_from(["zero", "random", "sparse", "lifted"]))
    if kind == "lifted":
        g = random_coordinate_change(T.n, draw(st.integers(0, 2 ** 32)), bound=3)
        moved = [apply_change_of_coords(XPoly.from_monomial(h), g) for h in T.gens]
        try:
            return T, marked_set_from_ideal(moved, T)
        except NotInChartError:
            assume(False)
    coefficients = st.fractions(-4, 4, max_denominator=3)
    G = []
    for h in T.gens:
        tail = T.sous_escalier_at(h.degree())
        cs = [0] * len(tail)
        if kind == "random":
            cs = [draw(coefficients) for _ in tail]
        elif kind == "sparse" and tail:
            cs[draw(st.integers(0, len(tail) - 1))] = draw(coefficients)
        G.append(XPoly(T.n, [(h, 1)] + [(m, c) for m, c in zip(tail, cs) if c]))
    return T, G


class TestIsMarkedBasisAgainstRanks:
    @settings(max_examples=100)
    @given(marked_sets())
    def test_borel_closures(self, T_and_G):
        T, G = T_and_G
        assert is_marked_basis(G, T) == _rank_is_marked_basis(G, T)


def _generic_is_marked_basis(G, T):
    """The criterion on the generic template: reduce the S-polynomials of the
    template over T and evaluate every coefficient of their normal forms at
    G's point.  G must be a valid marked set over T."""
    tpl = marked._template_over(T)
    values = assignment_from_marked_set(G, tpl)
    normal_forms = (reduce(marked._spair_terms(pair, tpl), tpl).poly
                    for pair in ek_spairs(T))
    return not any(c.evaluate(values) for h in normal_forms for c in h._terms.values())


def _specialized_is_marked_basis(G, T):
    """The criterion through the generic template at G's point: specialize
    each template S-polynomial at G's parameter values, reduce it over the
    template and specialize its normal form again.  G must be a valid
    marked set over T."""
    tpl = marked._template_over(T)
    values = assignment_from_marked_set(G, tpl)
    return not any(specialize(reduce(form_terms(specialize(reference_spair_polynomial(pair, tpl), values)),
                                     tpl).poly, values)
                   for pair in ek_spairs(T))


def _template_of_marked_set(G, T):
    """The template over T whose factors are G's values of the parameters,
    read off with assignment_from_marked_set."""
    tpl = marked._template_over(T)
    values = assignment_from_marked_set(G, tpl)
    return replace(tpl, factors=tuple(tuple(values[key] for key in keys)
                                      for keys in tpl.factors))


def _four_t_chart_at_6(k):
    """T = Jsat_{>=6} for the k-th chart of the (3, 4t) classification: 60
    heads of degree 6, 1440 template parameters."""
    sat = classify_grassmannian_borel(chart_constants("4*t", 3)).charts[k].saturation
    return truncate(sat, 6)


def _zero_moved_perturbed(T):
    """The monomial set over T, the marked set of T moved by a coordinate
    change, and that set with its last form bumped by its first tail monomial."""
    zero = [XPoly.from_monomial(h) for h in T.gens]
    g = random_coordinate_change(T.n, 7, bound=3)
    moved = marked_set_from_ideal([apply_change_of_coords(f, g) for f in zero], T)
    last = moved[-1]
    bump = XPoly.from_monomial(T.sous_escalier_at(last.degree)[0])
    return zero, moved, moved[:-1] + [last + bump]


class TestIsMarkedBasisOnSpecializedSPairs:
    @settings(max_examples=60)
    @given(marked_sets())
    def test_specialized_spair_is_the_spair_of_g(self, T_and_G):
        # the template's S-polynomial at G's point is x_j*G_a - x^eta*G_b
        T, G = T_and_G
        tpl = marked._template_over(T)
        values = assignment_from_marked_set(G, tpl)
        for pair in ek_spairs(T):
            g_a = G[tpl.head_index[pair.alpha]]
            g_b = G[tpl.head_index[pair.beta]]
            want = (XPoly.from_monomial(Monomial.variable(T.n, pair.var)) * g_a
                    - XPoly.from_monomial(pair.eta) * g_b)
            got = specialize(reference_spair_polynomial(pair, tpl), values)
            assert got == want
            assert (got.degree, str(got)) == (want.degree, str(want))

    @settings(max_examples=100)
    @given(marked_sets())
    def test_same_verdicts_as_the_generic_template(self, T_and_G):
        T, G = T_and_G
        assert is_marked_basis(G, T) == _generic_is_marked_basis(G, T)

    def test_same_verdicts_on_a_four_t_chart(self):
        T = _four_t_chart_at_6(0)
        sets = _zero_moved_perturbed(T)
        verdicts = [is_marked_basis(G, T) for G in sets]
        assert verdicts == [True, True, False]
        assert verdicts == [_generic_is_marked_basis(G, T) for G in sets]
        assert verdicts == [_specialized_is_marked_basis(G, T) for G in sets]

    @settings(max_examples=60)
    @given(marked_sets())
    def test_spair_terms_over_g_are_the_spair_of_g(self, T_and_G):
        # over G's own factors the one builder gives x_j*G_a - x^eta*G_b,
        # numbers on the empty multi-index, zeros dropped
        T, G = T_and_G
        tpl = _template_of_marked_set(G, T)
        for pair in ek_spairs(T):
            g_a = G[tpl.head_index[pair.alpha]]
            g_b = G[tpl.head_index[pair.beta]]
            want = (XPoly.from_monomial(Monomial.variable(T.n, pair.var)) * g_a
                    - XPoly.from_monomial(pair.eta) * g_b)
            got = marked._spair_terms(pair, tpl)
            assert all(list(d) == [()] for d in got.values())
            assert {e: d[()] for e, d in got.items()} == want._terms

    @settings(max_examples=100)
    @given(marked_sets())
    def test_normal_forms_as_the_specialized_reduction(self, T_and_G):
        # reducing G's S-polynomial over G's factors gives the specialized
        # normal form of the template's S-polynomial, pair by pair
        T, G = T_and_G
        tpl = marked._template_over(T)
        values = assignment_from_marked_set(G, tpl)
        gtpl = _template_of_marked_set(G, T)
        for pair in ek_spairs(T):
            want = specialize(reduce(form_terms(specialize(reference_spair_polynomial(pair, tpl), values)),
                                     tpl).poly, values)
            got = specialize(reduce(marked._spair_terms(pair, gtpl), gtpl).poly, {})
            assert got == want
        assert is_marked_basis(G, T) == _specialized_is_marked_basis(G, T)

    def test_step_cap_margin_on_single_coefficient_sets(self):
        # reduce's default cap scales with the term count of its input, and a
        # specialized S-polynomial has few terms: a set with one nonzero tail
        # coefficient must still reduce far below that cap
        T = _four_t_chart_at_6(0)
        tpl = marked._template_over(T)
        # C[i,j] occurs only in the S-polynomials of pairs that hold head i
        spolys_of_head = {}
        for pair in ek_spairs(T):
            h = reference_spair_polynomial(pair, tpl)
            for head in {pair.alpha, pair.beta}:
                spolys_of_head.setdefault(tpl.head_index[head] + 1, []).append(h)
        rng = random.Random(6)
        values = dict.fromkeys(tpl.variables(), Fraction(0))
        worst = 0
        for v in rng.sample(tpl.variables(), 300):
            values[v] = Fraction(rng.choice([-3, -1, 1, 2]))
            for h in spolys_of_head.get(v[0], ()):
                h = specialize(h, values)
                cap = 10 * (tpl.hp_degree + 2) * max(len(h.terms), 1)
                worst = max(worst, Fraction(reduce(form_terms(h), tpl).steps, cap))
            values[v] = Fraction(0)
        assert 0 < worst <= Fraction(1, 4)


# (n, degrees) of the `perfbench` `locate` families
LOCATE_FAMILIES = [(2, (2, 2)), (2, (2, 3)), (3, (1, 1)), (3, (1, 2)), (3, (1, 3))]


def _searched(n, degrees, seed):
    """Random integer forms of the given degrees and the chart search result
    that `locate` gets for them."""
    rng = random.Random(seed)
    forms = [XPoly(n, [(m, rng.randint(-5, 5)) for m in monomials_of_degree(n, d)])
             for d in degrees]
    return forms, borel_open_set(forms, seed=rng.randrange(1 << 30))


def _moved_basis(forms, res):
    """The forms' degree-r basis moved by the change of coordinates found."""
    return [apply_change_of_coords(f, res.g) for f in degree_basis(forms, res.constants.r)]


def _located(n, degrees, seed):
    """Forms placed in a Borel chart as `locate` does: random integer forms
    of the given degrees, moved by the change of coordinates that
    borel_open_set finds, as their degree-r basis; returns them with the
    chart J and the chart constants."""
    forms, res = _searched(n, degrees, seed)
    return _moved_basis(forms, res), res.chart.chart, res.constants


class TestOpenSetResultBasis:
    @pytest.mark.parametrize("n, degrees", LOCATE_FAMILIES)
    def test_basis_is_the_reduced_transformed_span(self, n, degrees):
        for seed in (1, 2, 3):
            forms, res = _searched(n, degrees, seed)
            moved, J, r = _moved_basis(forms, res), res.chart.chart, res.constants.r
            _degree_basis.cache_clear()  # recompute, not read the search's memo
            assert list(res.basis) == degree_basis(moved, r)
            assert chart_form(list(res.basis), J) == chart_form(moved, J)


class TestMarkedSchemeIsHilbertSchemeOnTheChart:
    @pytest.mark.parametrize("n, degrees", LOCATE_FAMILIES)
    def test_in_hilb_iff_marked_basis(self, n, degrees):
        # Hilb^p meets the chart of J in its marked scheme: the forms lie in
        # the Hilbert scheme exactly when their marked set over J is a basis
        verdicts = []
        for seed in (1, 2, 3):
            forms, J, constants = _located(n, degrees, seed)
            rng = random.Random(seed)
            outside = J.sous_escalier_at(constants.r)
            copies = [forms]
            for _ in range(2):
                k = rng.randrange(len(forms))
                bump = XPoly.from_monomial(rng.choice(outside), rng.randint(1, 3))
                copies.append(forms[:k] + [forms[k] + bump] + forms[k + 1:])
            for fs in copies:
                verdict = in_hilb(fs, constants)
                assert verdict == is_marked_basis(chart_form(fs, J).marked_set, J)
                verdicts.append(verdict)
        # two independent linear forms always cut out a line
        assert verdicts[0::3] == [True] * 3
        assert (False in verdicts) == (degrees != (1, 1))


class TestDimensionsAndBounds:
    def test_embedding_dimensions(self, j1sat):
        assert embedding_dimension(j1sat, 2) == 12
        assert embedding_dimension(j1sat, 3) == 24

    def test_points_on_a_line(self):
        L = MonomialIdeal.parse("x2, x1^3", 2)
        c = chart_constants(3, 2)
        assert embedding_dimension(L, 3) == c.q(3) * c.p.evaluate(3) == 21

    def test_bounds_values(self, j1sat):
        assert bounds(j1sat, 3) == (28, 2)
        with pytest.raises(MathDomainError):
            bounds(j1sat, 2)

    @pytest.mark.parametrize("n, hp", [(2, "4"), (2, "7"), (3, "3*t"), (3, "2*t+2")])
    def test_embedding_dimension_counts_template_parameters(self, n, hp):
        c = chart_constants(hp, n)
        for sat in enumerate_borel_saturated(n, c.p):
            for m in {max(rho(sat) - 1, 0), regularity(sat), c.r}:
                assert embedding_dimension(sat, m) == template(sat, m).num_vars

    @pytest.mark.parametrize("build", [template, embedding_dimension])
    @pytest.mark.parametrize("sat, m", [
        (truncate(MonomialIdeal.parse("x2^2, x2*x1, x1^3", 2), 4), 4),  # not saturated
        (MonomialIdeal.parse("x1", 2), 1),                               # not Borel
        (MonomialIdeal.parse("x3, x2^2, x2*x1^3, x1^4", 3), 2),          # below rho-1
        (MonomialIdeal.parse("x2^2, x2*x1, x1^3", 2), -1),               # negative level
        (MonomialIdeal(2, [Monomial((0, 0, 0))]), 1),                    # unit ideal
    ])
    def test_embedding_dimension_rejects_what_template_rejects(self, build, sat, m):
        with pytest.raises(MathDomainError):
            build(sat, m)

    @settings(max_examples=60)
    @given(monomial_ideals().map(borel_closure))
    def test_saturated_exactly_without_x0_generators(self, J):
        saturated = saturate(J) == J
        assert saturated == (not any(g.exps[0] for g in J.gens))
        if saturated:
            marked._validate_saturated_borel(J)
        else:
            with pytest.raises(MathDomainError, match="is not saturated"):
                marked._validate_saturated_borel(J)

    def test_x0_generator_is_not_saturated(self):
        J = MonomialIdeal.parse("x2^2, x2*x1, x2*x0", 2)
        assert saturate(J) == MonomialIdeal.parse("x2", 2)
        message = r"^\(x2\^2, x2\*x1, x2\*x0\) is not saturated$"
        with pytest.raises(MathDomainError, match=message):
            marked._validate_saturated_borel(J)

    def test_naive_minor_count(self):
        assert naive_minor_count(chart_constants(4, 2)) == 1_379_420_565_600


def _random_assignment(tpl, draw):
    return {v: draw() for v in tpl.variables()}


def _positive_samples(sat, m, count, seed):
    """Assignments lying on the marked scheme, lifted from a free level."""
    draw = rational_sampler(seed)
    tpl = template(sat, m)
    free_m = max(min(g.degree() for g in sat.gens) - 1, 0)
    base = template(sat, free_m)
    from borelcover.oracle import greedy_linear_eliminate
    base_eqs = scheme_equations(sat, free_m)
    out = []
    if not base_eqs.generators:
        for _ in range(count):
            assignment = _random_assignment(base, draw)
            G0 = [specialize(f, assignment) for f in template_polys(base)]
            G = marked_set_from_ideal(G0, tpl.ideal)
            out.append(assignment_from_marked_set(G, tpl))
        return out
    elim = greedy_linear_eliminate(list(base_eqs.generators))
    assert not elim.residual
    free_vars = [v for v in base.variables()
                 if v not in set(elim.eliminated_variables())]
    for _ in range(count):
        point = elim.lift_point({v: draw() for v in free_vars})
        G0 = [specialize(f, point) for f in template_polys(base)]
        G = marked_set_from_ideal(G0, tpl.ideal)
        out.append(assignment_from_marked_set(G, tpl))
    return out


SOUNDNESS_FIXTURES = [
    ("x2^2, x2*x1, x1^3", 2, (2, 3)),
    ("x3, x2^3", 3, (1, 3)),
    ("x2, x1^2", 2, (1, 2)),
]


class TestSoundnessCompleteness:
    @pytest.mark.parametrize("sat_text,n,levels", SOUNDNESS_FIXTURES)
    def test_equations_vanish_iff_marked_basis(self, sat_text, n, levels):
        sat = MonomialIdeal.parse(sat_text, n)
        for m in levels:
            tpl = template(sat, m)
            S = scheme_equations(sat, m)
            # a stable digest: hash() of a str changes with PYTHONHASHSEED
            draw = rational_sampler(seed=zlib.crc32(f"{sat_text}|{m}".encode()) % 10_000)
            samples = [_random_assignment(tpl, draw) for _ in range(8)]
            samples += _positive_samples(sat, m, 4, seed=m + 1)
            samples.append({v: Fraction(0) for v in tpl.variables()})
            for c in samples:
                vanishes = all(g.evaluate(c) == 0 for g in S.generators)
                G = [specialize(f, c) for f in template_polys(tpl)]
                basis = _rank_is_marked_basis(G, tpl.ideal)
                assert vanishes == basis


class TestChartCoordinates:
    def test_round_trip_through_marked_set(self, j1sat):
        tpl = template(j1sat, 2)
        assign = _positive_samples(j1sat, 2, 1, seed=2)[0]
        G = [specialize(f, assign) for f in template_polys(tpl)]
        back = assignment_from_marked_set(G, tpl)
        assert back == assign

    def test_lift_to_higher_level(self, lex_cubic):
        tpl1 = template(lex_cubic, 1)
        tpl3 = template(lex_cubic, 3)
        draw = rational_sampler(13)
        a1 = _random_assignment(tpl1, draw)
        G1 = [specialize(f, a1) for f in template_polys(tpl1)]
        G3 = marked_set_from_ideal(G1, tpl3.ideal)
        assert is_marked_basis(G3, tpl3.ideal)
