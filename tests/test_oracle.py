import functools
from fractions import Fraction
from math import gcd
from operator import sub

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from borelcover import linalg
from borelcover.borel import MonomialIdeal, enumerate_borel_saturated
from borelcover.cover import atlas
from borelcover.errors import MathDomainError, ScaleCapError
from borelcover.fixtures import (A8_CHART, POINTS_ON_LINE_CHARTS,
                                 reference_equations, saturation_ideal)
from borelcover.hilbert import parse_hilbert_poly
from borelcover.marked import scheme_equations
from borelcover.oracle import (EliminationResult, _divides, _exponent_order,
                               _reduce, _Ring, _sub_multiple,
                               greedy_linear_eliminate, groebner_basis,
                               ideal_equal, make_order, normal_form)
from borelcover.ring import ParamPoly, _cmon_mul, parse_parampoly

from conftest import rational_sampler

C11 = ParamPoly.var((1, 1))
C12 = ParamPoly.var((1, 2))
C21 = ParamPoly.var((2, 1))


class TestGroebner:
    def test_single_generator(self):
        assert groebner_basis([C11]) == [C11]

    def test_unit_ideal(self):
        gb = groebner_basis([C11 * C12 - ParamPoly.const(1), C11])
        assert gb == [ParamPoly.const(1)]

    def test_membership_via_normal_form(self):
        # x^2 - y and x*y - 1 force y^3 = x^2 * y^2 * ... closure checks
        gens = [C11 * C11 - C12, C11 * C12 - ParamPoly.const(1)]
        gb = groebner_basis(gens)
        variables = sorted({v for g in gens for v in g.variables()})
        key = make_order(variables)
        member = C11 * (C11 * C11 - C12) + C12 * (C11 * C12 - ParamPoly.const(1))
        assert not normal_form(member, gb, key)
        assert normal_form(C11, gb, key)

    def test_lex_block_eliminates(self):
        # eliminating C11 from (C11 - C12^2, C11 - C21) exposes C12^2 - C21
        gens = [C11 - C12 * C12, C11 - C21]
        gb = groebner_basis(gens, order="lex-block", block=[(1, 1)])
        no_c11 = [g for g in gb if (1, 1) not in g.variables()]
        assert any(g == C12 * C12 - C21 or g == C21 - C12 * C12 for g in no_c11)

    def test_scale_cap(self):
        gens = [ParamPoly.var((1, j)) for j in range(20)]
        with pytest.raises(ScaleCapError):
            groebner_basis(gens)


class TestIdealEqual:
    def test_reflexive_and_symmetric(self):
        A = [C11 * C12 - ParamPoly.const(2), C21]
        B = [C21, C11 * C12 - ParamPoly.const(2)]
        assert ideal_equal(A, A)
        assert ideal_equal(A, B) and ideal_equal(B, A)

    def test_strict_containment(self):
        assert not ideal_equal([C11], [C11 * C11])
        assert not ideal_equal([C11 * C11], [C11])

    def test_zero_ideals(self):
        assert ideal_equal([], [])
        assert not ideal_equal([], [C11])

    def test_agrees_with_sampling(self):
        # equal ideals have equal vanishing behaviour at sample points
        draw = rational_sampler(21)
        A = [C11 + C12, C12 * C12]
        B = [C11 + C12, C12 * C12, (C11 + C12) + C12 * C12]
        assert ideal_equal(A, B)
        for _ in range(10):
            point = {(1, 1): draw(), (1, 2): draw()}
            va = all(g.evaluate(point) == 0 for g in A)
            vb = all(g.evaluate(point) == 0 for g in B)
            assert va == vb


class TestGreedyElimination:
    def test_empty(self):
        res = greedy_linear_eliminate([])
        assert res.residual == () and res.eliminated_count == 0

    def test_single_substitution(self):
        res = greedy_linear_eliminate([C11 * C11 - C12])
        assert res.eliminated_variables() == [(1, 2)]
        assert res.residual == ()

    def test_nothing_linear(self):
        gens = [C11 * C11 - C12 * C12]
        res = greedy_linear_eliminate(gens)
        assert res.eliminated_count == 0
        assert res.residual == tuple(gens)

    def test_reference_chart_eliminates_to_zero(self):
        from borelcover.fixtures import A8_CHART, reference_equations
        res = greedy_linear_eliminate(reference_equations(A8_CHART))
        assert sorted(res.eliminated_variables()) == A8_CHART["eliminated"]
        assert res.residual == ()

    def test_lift_point_kills_original_generators(self):
        from borelcover.fixtures import A8_CHART, reference_equations
        gens = reference_equations(A8_CHART)
        res = greedy_linear_eliminate(gens)
        draw = rational_sampler(31)
        all_vars = sorted({v for g in gens for v in g.variables()})
        free = [v for v in all_vars if v not in set(res.eliminated_variables())]
        for _ in range(5):
            point = res.lift_point({v: draw() for v in free})
            assert all(g.evaluate(point) == 0 for g in gens)


# ---------------------------------------------------------------------------
# Independent oracles for the oracle itself
# ---------------------------------------------------------------------------

def _variables(polys):
    return sorted({v for p in polys for v in p.variables()})


@functools.lru_cache(maxsize=None)
def sympy_reduced_basis(polys):
    """Reduced grevlex basis over QQ from sympy, monic, as a set of ParamPolys.

    Cached on the tuple of generators: the chart family repeats its charts.
    """
    sympy = pytest.importorskip("sympy")
    variables = _variables(polys)
    symbols = {v: sympy.Symbol(f"C_{v[0]}_{v[1]}") for v in variables}
    gens = [symbols[v] for v in reversed(variables)]  # later key = larger
    exprs = [sum((sympy.Rational(c.numerator, c.denominator)
                  * sympy.Mul(*(symbols[v] ** e for v, e in cm))
                  for cm, c in p.terms), sympy.Integer(0)) for p in polys]
    gb = sympy.groebner(exprs, *gens, order="grevlex", domain="QQ")
    monic = [g.quo_ground(g.LC(order="grevlex")) for g in gb.polys]
    return {ParamPoly([(tuple(zip(reversed(variables), exps)),
                        Fraction(int(c.p), int(c.q))) for exps, c in g.terms()])
            for g in monic}


def _assert_matches_sympy(gens):
    gb = groebner_basis(gens)
    key = make_order(_variables(gens))
    leads = [key(max(g.terms, key=lambda t: key(t[0]))[0]) for g in gb]
    assert leads == sorted(leads)
    assert set(gb) == sympy_reduced_basis(tuple(gens)) and len(set(gb)) == len(gb)


class TestAgainstSympy:
    def test_x2_x1_cubed_chart(self):
        _assert_matches_sympy(list(scheme_equations(
            MonomialIdeal.parse("x2, x1^3", 2), 2).generators))

    def test_a8_computed_presentation(self):
        _assert_matches_sympy(list(scheme_equations(
            saturation_ideal(A8_CHART), A8_CHART["m"]).generators))

    def test_a8_reference_presentation(self):
        _assert_matches_sympy(reference_equations(A8_CHART))


@functools.lru_cache(maxsize=None)
def _plane_saturations(points):
    return enumerate_borel_saturated(2, parse_hilbert_poly(str(points)))


@settings(max_examples=15)
@given(points=st.integers(1, 5), pick=st.integers(0, 3), m=st.integers(0, 3))
def test_small_plane_charts_match_sympy(points, pick, m):
    sats = _plane_saturations(points)
    try:
        S = scheme_equations(sats[pick % len(sats)], m)
    except MathDomainError:
        assume(False)  # m is below the truncation bound of this saturation
    assume(S.generators and S.num_vars <= 12)
    _assert_matches_sympy(list(S.generators))


# The plain Buchberger that the engine replaced (normal strategy, coprime
# criterion only, membership loops for ideal equality), kept as a test oracle.
# Like the engine, it ranks pairs by their lcm in the term order; ranked by
# total degree, some drawn lex-block systems ran for minutes.

def _old_leading_term(p, key):
    return max(p.terms, key=lambda t: key(t[0]))


def _old_divides(a, b):
    db = dict(b)
    return all(db.get(v, 0) >= e for v, e in a)


def _old_div(a, b):
    db = dict(b)
    return tuple(sorted((v, e - db.get(v, 0)) for v, e in a if e - db.get(v, 0)))


def _old_lcm(a, b):
    acc = dict(a)
    for v, e in b:
        acc[v] = max(acc.get(v, 0), e)
    return tuple(sorted(acc.items()))


def _old_normal_form(p, basis, key):
    lts = [(_old_leading_term(b, key), b) for b in basis if b]
    remainder = ParamPoly.zero()
    work = p
    while work:
        cm, c = _old_leading_term(work, key)
        hit = next(((lm, lc, b) for (lm, lc), b in lts if _old_divides(lm, cm)), None)
        if hit is None:
            remainder = remainder + ParamPoly([(cm, c)])
            work = work - ParamPoly([(cm, c)])
        else:
            lt_mon, lt_coeff, b = hit
            work = work - ParamPoly([(_old_div(cm, lt_mon), c / lt_coeff)]) * b
    return remainder


def _old_s_polynomial(f, g, key):
    (mf, cf), (mg, cg) = _old_leading_term(f, key), _old_leading_term(g, key)
    l = _old_lcm(mf, mg)
    return (ParamPoly([(_old_div(l, mf), 1 / cf)]) * f
            - ParamPoly([(_old_div(l, mg), 1 / cg)]) * g)


def _old_groebner_basis(gens, order="degrevlex", block=()):
    gens = [g for g in gens if g]
    if not gens:
        return []
    key = make_order(_variables(gens), order, block)

    def lt(b):
        return _old_leading_term(b, key)[0]

    basis, lts = [], []  # lts[i] is the leading monomial of basis[i]

    def append(nf):
        lm, lc = _old_leading_term(nf, key)
        basis.append(nf * (1 / lc))
        lts.append(lm)

    for g in gens:
        nf = _old_normal_form(g, basis, key)
        if nf:
            append(nf)
    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    while pairs:
        best = min(range(len(pairs)),
                   key=lambda k: key(_old_lcm(lts[pairs[k][0]], lts[pairs[k][1]])))
        i, j = pairs.pop(best)
        if _cmon_mul(lts[i], lts[j]) == _old_lcm(lts[i], lts[j]):
            continue
        nf = _old_normal_form(_old_s_polynomial(basis[i], basis[j], key), basis, key)
        if nf:
            append(nf)
            pairs.extend((k, len(basis) - 1) for k in range(len(basis) - 1))
    basis.sort(key=lambda b: key(lt(b)))
    minimal = []
    for b in basis:
        if not any(_old_divides(lt(m), lt(b)) for m in minimal):
            minimal.append(b)
    reduced = []
    for i, b in enumerate(minimal):
        nf = _old_normal_form(b, minimal[:i] + minimal[i + 1:], key)
        reduced.append(nf * (1 / _old_leading_term(nf, key)[1]))
    return reduced


def _old_ideal_equal(A, B):
    A, B = [a for a in A if a], [b for b in B if b]
    if not A or not B:
        return not A and not B
    key = make_order(_variables(A + B))
    gb_a, gb_b = _old_groebner_basis(A), _old_groebner_basis(B)
    return (all(not _old_normal_form(a, gb_b, key) for a in A)
            and all(not _old_normal_form(b, gb_a, key) for b in B))


VARS = [(1, 1), (1, 2), (2, 1)]


@st.composite
def param_polys(draw, variables):
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        cm = tuple((v, draw(st.integers(0, 2))) for v in variables)
        c = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 2)))
        terms.append((cm, c))
    return ParamPoly(terms)


@st.composite
def wide_param_polys(draw, variables):
    """Like param_polys, with numerators up to 10^6 in size, denominators
    1-97 and no coefficient 0 or +-1, so leading coefficients are not units."""
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        cm = tuple((v, draw(st.integers(0, 2))) for v in variables)
        c = draw(st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 97))
                 .filter(lambda c: c not in (0, 1, -1)))
        terms.append((cm, c))
    return ParamPoly(terms)


@st.composite
def small_systems(draw, polys=param_polys):
    variables = VARS[:draw(st.integers(1, len(VARS)))]
    gens = draw(st.lists(polys(variables), min_size=1, max_size=3))
    return variables, gens, draw(polys(variables))


def _system(variables, gens, p):
    return variables, [parse_parampoly(g) for g in gens], parse_parampoly(p)


# Two systems on which dropping a pending pair whose lcm equals that of a
# new pair (the exceptions in the Gebauer-Moeller update) gives a wrong basis.
LCM_CASE_DEGREVLEX = _system(
    [(1, 1), (1, 2)],
    ["-2*C[1,1]^2*C[1,2]^2 + 2*C[1,1]^2*C[1,2] + 1/2",
     "2*C[1,2]^2 - 2*C[1,1] - 1", "-3/2*C[1,2]^2"],
    "-3/2*C[1,1]^2*C[1,2]")
LCM_CASE_LEX_BLOCK = _system(
    [(1, 1), (1, 2), (1, 3)],
    ["-C[1,1]^2*C[1,2]^2*C[1,3] + 3*C[1,1]^2*C[1,3]^2",
     "2*C[1,1]*C[1,3] + 2*C[1,3]^2",
     "-3/2*C[1,1]^2*C[1,2]^2*C[1,3] - C[1,2]^2*C[1,3] - C[1,1]*C[1,2]"],
    "-3*C[1,1]*C[1,2]*C[1,3]^2 + 3/2*C[1,2]^2*C[1,3]^2")
# p - 2*g is the remainder in both orders: 3/2 times the primitive
# C[1,1] + 2*C[1,2], a scale the fraction-free reduction must restore.
NON_PRIMITIVE_REMAINDER = _system(
    VARS, ["97*C[2,1]^2 - 1000/3*C[1,1]*C[2,1]"],
    "3/2*C[1,1] + 3*C[1,2] + 194*C[2,1]^2 - 2000/3*C[1,1]*C[2,1]")


def _order_of(variables, order):
    block = variables[:1] if order == "lex-block" else ()
    return block, make_order(variables, order, block)


class TestAgainstPlainBuchberger:
    @settings(max_examples=150)
    @example(system=LCM_CASE_DEGREVLEX, order="degrevlex")
    @example(system=LCM_CASE_LEX_BLOCK, order="lex-block")
    @given(system=small_systems(), order=st.sampled_from(["degrevlex", "lex-block"]))
    def test_same_reduced_basis_and_normal_form(self, system, order):
        variables, gens, p = system
        block, key = _order_of(variables, order)
        assert groebner_basis(gens, order, block) == \
            _old_groebner_basis(gens, order, block)
        assert normal_form(p, gens, key) == _old_normal_form(p, gens, key)

    @settings(max_examples=60)
    @example(system=NON_PRIMITIVE_REMAINDER, order="degrevlex")
    @example(system=NON_PRIMITIVE_REMAINDER, order="lex-block")
    @given(system=small_systems(wide_param_polys),
           order=st.sampled_from(["degrevlex", "lex-block"]))
    def test_wide_coefficients(self, system, order):
        variables, gens, p = system
        block, key = _order_of(variables, order)
        gb = groebner_basis(gens, order, block)
        assert gb == _old_groebner_basis(gens, order, block)
        assert normal_form(p, gens, key) == _old_normal_form(p, gens, key)
        assert normal_form(p, gb, key) == _old_normal_form(p, gb, key)

    @pytest.mark.parametrize("order", ["degrevlex", "lex-block"])
    def test_remainder_that_is_not_primitive(self, order):
        variables, gens, p = NON_PRIMITIVE_REMAINDER
        nf = normal_form(p, gens, _order_of(variables, order)[1])
        assert nf == parse_parampoly("3/2*C[1,1] + 3*C[1,2]")

    @settings(max_examples=40)
    @given(system=small_systems(), scale=st.integers(-2, 2))
    def test_same_ideal_equality(self, system, scale):
        _, gens, p = system
        other = gens[::-1] + [p * gens[0] + gens[-1] * scale]
        assert ideal_equal(gens, other) == _old_ideal_equal(gens, other)
        assert ideal_equal(gens + [p], gens) == _old_ideal_equal(gens + [p], gens)


# The reduction loop that the pending list and the support masks replaced: a
# max over the whole work dict per step and a divisibility test of every
# reducer in turn.  Its keys come from the order as make_order once defined
# it on C-multi-indices, so the comparison checks the exponent-tuple keys too.

def _cm_order(variables, kind, block):
    pos = {v: i for i, v in enumerate(variables)}
    if kind == "degrevlex":
        def key(cm):
            exps = [0] * len(variables)
            for v, e in cm:
                exps[pos[v]] = e
            return (sum(exps), tuple(-e for e in exps))
        return key
    block = [tuple(v) for v in block]
    rest = [v for v in variables if v not in set(block)]
    rest_pos = {v: i for i, v in enumerate(rest)}

    def key(cm):
        head = [0] * len(block)
        tail = [0] * len(rest)
        for v, e in cm:
            if v in rest_pos:
                tail[rest_pos[v]] = e
            else:
                head[block.index(v)] = e
        return (tuple(head), sum(tail), tuple(-e for e in tail))
    return key


def _max_scan_reduce(f, reducers, key):
    """(rem, n, d) as oracle._reduce computed them by scanning: key is on
    exponent tuples."""
    work = dict(f)
    rem = {}
    n = 1
    while work:
        m = max(work, key=key)
        for lead, g in reducers:
            if _divides(lead, m):
                a, b = work[m], g[lead]
                k = gcd(a, b)
                a, b = a // k, b // k
                if b != 1:
                    work = {e: b * c for e, c in work.items()}
                    rem = {e: b * c for e, c in rem.items()}
                    n *= b
                _sub_multiple(work, a, tuple(map(sub, m, lead)), g)
                break
        else:
            rem[m] = work.pop(m)
    d = gcd(*rem.values()) or 1
    if rem and next(iter(rem.values())) < 0:
        d = -d
    return {e: c // d for e, c in rem.items()}, n, d


# A block variable, (9, 9), that occurs in no drawn system.
ABSENT = (9, 9)

# The leads C[1,2]^2 and C[1,1] (in every order tested) have supports strictly
# inside those of C[1,1]*C[1,2]^2 and C[1,1]*C[1,2]: the mask lets C[1,2]^2
# through on both, and only the full test rejects it on the second.
STRICT_SUBSET_SUPPORT = _system(
    VARS[:2], ["3*C[1,2]^2 + C[1,1]", "2*C[1,1] + 1"],
    "7*C[1,1]*C[1,2]^2 + 4*C[1,1]*C[1,2]")


class TestReduceAgainstMaxScan:
    @settings(max_examples=150)
    @example(system=STRICT_SUBSET_SUPPORT, order="degrevlex", block=[])
    @example(system=STRICT_SUBSET_SUPPORT, order="lex-block", block=[ABSENT])
    @example(system=STRICT_SUBSET_SUPPORT, order="lex-block", block=[(1, 2), ABSENT])
    @given(system=st.one_of(small_systems(), small_systems(wide_param_polys)),
           order=st.sampled_from(["degrevlex", "lex-block"]),
           block=st.lists(st.sampled_from(VARS + [ABSENT]), max_size=3, unique=True))
    def test_same_remainders_and_scales(self, system, order, block):
        variables, gens, p = system
        variables = _variables(gens + [p])
        if order == "degrevlex":
            block = []
        ring = _Ring(variables, _exponent_order(variables, order, block))
        cm_key = _cm_order(variables, order, block)

        def ref_key(e):
            return cm_key(tuple((v, x) for v, x in zip(variables, e) if x))

        reducers = [(max(g, key=ref_key), g)
                    for g in (ring.primitive(b)[1] for b in gens if b)]
        for f in [ring.primitive(q)[1] for q in gens + [p] if q]:
            assert _reduce(f, reducers, ring) == _max_scan_reduce(f, reducers, ref_key)
        public_key = make_order(variables, order, block)
        for e in ring:
            assert ring[e] == ref_key(e)
            assert public_key(tuple((v, x) for v, x in zip(variables, e) if x)) \
                == ref_key(e)


def _assert_fraction_coefficients(polys):
    # 3 == Fraction(3), so equality with a reference misses an int coefficient
    assert all(type(c) is Fraction for q in polys for _, c in q.terms)


class TestCoefficientType:
    @settings(max_examples=40)
    @given(system=small_systems(wide_param_polys),
           order=st.sampled_from(["degrevlex", "lex-block"]))
    def test_fractions_out_and_monic_bases(self, system, order):
        variables, gens, p = system
        block, key = _order_of(variables, order)
        gb = groebner_basis(gens, order, block)
        _assert_fraction_coefficients(gb)
        assert all(_old_leading_term(g, key)[1] == 1 for g in gb)
        _assert_fraction_coefficients([normal_form(p, gens, key)])
        res = greedy_linear_eliminate(gens + [p + ParamPoly.var(variables[0])])
        _assert_fraction_coefficients(res.residual)
        _assert_fraction_coefficients(expr for _, expr in res.eliminated)

    def test_certify_charts(self):
        gens = list(scheme_equations(MonomialIdeal.parse("x2, x1^2", 2), 2).generators)
        key = make_order(_variables(gens))
        gb = groebner_basis(gens)
        _assert_fraction_coefficients(gb)
        assert all(_old_leading_term(g, key)[1] == 1 for g in gb)
        res = greedy_linear_eliminate(reference_equations(A8_CHART))
        assert res.eliminated
        _assert_fraction_coefficients(expr for _, expr in res.eliminated)

    def test_int_values_in_fractions_out(self):
        # scheme_equations' generators have int values; elimination divides
        # them as Fractions, and an untouched generator comes back in Fractions
        gens = [{(((1, 1), 1),): 3, (((1, 2), 2),): 1},
                {(((1, 2), 2),): 2, (((2, 1), 2),): -1}]
        res = greedy_linear_eliminate([ParamPoly._from_dict(g) for g in gens])
        _assert_fraction_coefficients(res.residual)
        _assert_fraction_coefficients(expr for _, expr in res.eliminated)
        assert res == greedy_linear_eliminate([ParamPoly(g.items()) for g in gens])
        assert str(res.eliminated[0][1]) == "-1/3*C[1,2]^2"
        a8 = scheme_equations(saturation_ideal(A8_CHART), A8_CHART["m"]).generators
        assert all(type(c) is int for g in a8 for _, c in g.terms)
        res = greedy_linear_eliminate(list(a8))
        _assert_fraction_coefficients(expr for _, expr in res.eliminated)
        assert res == greedy_linear_eliminate([ParamPoly(g.terms) for g in a8])


class TestPairCap:
    GENS = [C11 * C11 - C12, C11 * C12 - ParamPoly.const(1)]

    def test_system_needs_several_pairs(self):
        assert len(groebner_basis(self.GENS, max_pairs=50)) > len(self.GENS)

    def test_one_pair_is_not_enough(self):
        with pytest.raises(ScaleCapError, match="exceeded 1 S-pairs"):
            groebner_basis(self.GENS, max_pairs=1)

    def test_certify_chart_takes_exactly_102_pairs(self):
        # the (x2, x1^3) chart at m = 2 that perfbench's certify workload
        # solves; the count pins the pair selection and the update criteria
        gens = list(scheme_equations(MonomialIdeal.parse("x2, x1^3", 2), 2).generators)
        assert len(groebner_basis(gens, max_pairs=102)) == 27
        with pytest.raises(ScaleCapError, match="exceeded 101 S-pairs"):
            groebner_basis(gens, max_pairs=101)


# ---------------------------------------------------------------------------
# Greedy elimination against the ParamPoly substitution it replaced
# ---------------------------------------------------------------------------

def _old_substitute(p, key, value):
    out = ParamPoly.zero()
    for cm, c in p.terms:
        e_key = 0
        rest = []
        for v, e in cm:
            if v == key:
                e_key = e
            else:
                rest.append((v, e))
        term = ParamPoly([(tuple(rest), c)])
        for _ in range(e_key):
            term = term * value
        out = out + term
    return out


def _old_linear_candidate(g):
    info = {}
    for cm, c in g.terms:
        for v, e in cm:
            entry = info.setdefault(v, {"count": 0, "clean": True, "coeff": None})
            entry["count"] += 1
            if e == 1 and len(cm) == 1:
                entry["coeff"] = c
            else:
                entry["clean"] = False
    for v in sorted(info):
        entry = info[v]
        if entry["clean"] and entry["count"] == 1 and entry["coeff"]:
            return v, entry["coeff"]
    return None


def _old_greedy_linear_eliminate(gens):
    work = [g for g in gens if g]
    eliminated = []
    while True:
        pick = None
        for idx, g in enumerate(work):
            found = _old_linear_candidate(g)
            if found:
                pick = (idx, *found)
                break
        if pick is None:
            break
        idx, var, coeff = pick
        g = work.pop(idx)
        expr = ParamPoly(
            [(cm, -c / coeff) for cm, c in g.terms if not any(v == var for v, _ in cm)])
        eliminated.append((var, expr))
        work = [_old_substitute(w, var, expr) for w in work]
        work = [w for w in work if w]
    return EliminationResult(residual=tuple(work), eliminated=tuple(eliminated))


@functools.lru_cache(maxsize=None)
def _plane_charts(points):
    """(level, scheme equations) of every chart of `points` points in P^2.

    One entry per distinct truncation level among rho, reg and gotzmann.
    """
    out = []
    for entry in atlas(2, points).charts:
        levels = {}
        for label, (m, _) in sorted(entry.dims.items()):
            levels.setdefault(m, label)
        out += [(label, scheme_equations(entry.chart.saturation, m))
                for m, label in levels.items()]
    return out


def _assert_same_elimination(gens):
    assert greedy_linear_eliminate(gens) == _old_greedy_linear_eliminate(gens)


class TestEliminationAgainstSubstitution:
    @settings(max_examples=100)
    @given(system=small_systems())
    def test_small_systems(self, system):
        variables, gens, p = system
        _assert_same_elimination(gens + [p])
        # adding the first variable to every generator makes it a frequent
        # candidate, so most examples substitute at least once
        _assert_same_elimination([g + ParamPoly.var(variables[0]) for g in gens] + [p])

    def test_a8_presentations(self):
        _assert_same_elimination(reference_equations(A8_CHART))
        _assert_same_elimination(list(scheme_equations(
            saturation_ideal(A8_CHART), A8_CHART["m"]).generators))

    def test_points_on_line(self):
        for record in POINTS_ON_LINE_CHARTS:
            sat = MonomialIdeal.parse(record["saturation"], record["n"])
            _assert_same_elimination(
                list(scheme_equations(sat, record["mu"]).generators))

    @pytest.mark.parametrize("points", range(2, 7))
    def test_plane_charts(self, points):
        for _, S in _plane_charts(points):
            if S.num_vars <= 30:
                _assert_same_elimination(list(S.generators))


def _linear_rank(gens):
    """Rank of the degree-1 parts of gens: their Jacobian at the origin."""
    cols = {}
    rows = []
    for g in gens:
        assert not dict(g.terms).get((), 0)  # the monomial ideal lies on the chart
        rows.append({cols.setdefault(cm[0][0], len(cols)): c
                     for cm, c in g.terms if len(cm) == 1 and cm[0][1] == 1})
    return linalg.rank(rows)


@pytest.mark.parametrize("points", [3, 4])
def test_elimination_leaves_the_dimension_of_hilb(points):
    # Hilb^d(P^2) is smooth of dimension 2d (Fogarty), so on every chart, at
    # every truncation level, the tangent space at the origin has dimension
    # 2d and the linear elimination solves the equations completely
    for label, S in _plane_charts(points):
        res = greedy_linear_eliminate(list(S.generators))
        assert res.residual == (), label
        assert (S.num_vars - res.eliminated_count == 2 * points
                == S.num_vars - _linear_rank(S.generators)), label
