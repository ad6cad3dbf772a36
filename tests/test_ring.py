import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borelcover import linalg
from borelcover.errors import MathDomainError, ParseError
from borelcover.ring import (Monomial, ParamPoly, XPoly, apply_change_of_coords,
                             degrevlex_cmp, degrevlex_key, monomials_of_degree,
                             parse_parampoly, parse_xpoly, specialize)

from conftest import mono, rational_sampler


class TestMonomial:
    def test_degree_and_one(self):
        assert Monomial.one(2).degree() == 0
        assert mono("x2^2*x0", 2).degree() == 3

    def test_min_max(self):
        m = mono("x2*x1^3", 3)
        assert m.min_var() == 1
        assert m.max_var() == 2
        with pytest.raises(MathDomainError):
            Monomial.one(2).min_var()

    def test_division(self):
        m = mono("x2*x1^2", 2)
        assert m / mono("x1", 2) == mono("x2*x1", 2)
        with pytest.raises(MathDomainError):
            m / mono("x0", 2)

    def test_str_round_trip(self):
        for text in ["x2^2*x1", "x0^3", "1"]:
            assert str(mono(text, 2)) == text


class TestDegrevlex:
    def test_spec_examples(self):
        # x1^2 vs x2*x0 is the order pinned down by the chart tail indexing
        assert degrevlex_cmp(mono("x1^2", 2), mono("x2*x0", 2)) == 1
        m = mono("x2*x1", 2)
        assert degrevlex_cmp(m, m) == 0
        assert degrevlex_cmp(mono("x2^2", 2), mono("x1^2", 2)) == 1

    def test_ambient_mismatch(self):
        with pytest.raises(MathDomainError):
            degrevlex_cmp(mono("x1", 1), mono("x1", 2))

    def test_degree_two_listing(self):
        got = [str(m) for m in monomials_of_degree(2, 2)]
        assert got == ["x2^2", "x2*x1", "x1^2", "x2*x0", "x1*x0", "x0^2"]

    def test_total_order(self):
        mons = monomials_of_degree(2, 3)
        keys = [degrevlex_key(m) for m in mons]
        assert sorted(keys, reverse=True) == keys
        assert len(set(keys)) == len(keys)

    def test_refines_borel_moves(self):
        # every single increasing move raises the degrevlex position
        from borelcover.borel import up_moves
        for n in (2, 3):
            for d in (1, 2, 3):
                for m in monomials_of_degree(n, d):
                    for u in up_moves(m):
                        assert degrevlex_cmp(u, m) == 1


class TestChangeOfCoords:
    def test_shear_on_square(self, g_shear):
        f = parse_xpoly("x1^2", 2)
        assert str(apply_change_of_coords(f, g_shear)) == "x2^2 + 2*x2*x1 + x1^2"

    def test_identity(self):
        f = parse_xpoly("x2^2 + 3*x1*x0", 2)
        ident = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert apply_change_of_coords(f, ident) == f

    def test_swap_symmetric(self):
        f = parse_xpoly("x1*x0", 2)
        swap = ((0, 1, 0), (1, 0, 0), (0, 0, 1))
        assert apply_change_of_coords(f, swap) == f

    def test_singular_rejected(self):
        f = parse_xpoly("x1", 1)
        with pytest.raises(MathDomainError):
            apply_change_of_coords(f, ((1, 1), (1, 1)))

    def test_ring_homomorphism_randomized(self):
        rng = random.Random(11)
        n = 2
        mons2 = monomials_of_degree(n, 2)
        mons3 = monomials_of_degree(n, 3)

        def rand_poly(mons):
            return XPoly(n, [(m, Fraction(rng.randint(-3, 3))) for m in mons])

        for _ in range(6):
            g = None
            while g is None:
                cand = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
                from borelcover import linalg
                if linalg.det(cand) != 0:
                    g = [tuple(r) for r in cand]
            f, h = rand_poly(mons2), rand_poly(mons2)
            k = rand_poly(mons3)
            assert apply_change_of_coords(f + h, g) == \
                apply_change_of_coords(f, g) + apply_change_of_coords(h, g)
            assert apply_change_of_coords(f * k, g) == \
                apply_change_of_coords(f, g) * apply_change_of_coords(k, g)
            from borelcover import linalg
            det = linalg.det(g)
            inv = [[linalg.det(_minor(g, j, i)) * (-1) ** (i + j) / det
                    for j in range(3)] for i in range(3)]
            assert apply_change_of_coords(apply_change_of_coords(f, g), inv) == f


def naive_change_of_coords(f, g):
    """Substitution by one XPoly product per variable power, as a test oracle."""
    n = f.n
    images = [XPoly(n, [(Monomial.variable(n, j), Fraction(g[i][j]))
                        for j in range(n + 1) if g[i][j]], 1)
              for i in range(n + 1)]
    out = XPoly.zero(n, f.degree)
    for mon, c in f.terms:
        prod = XPoly(n, [(Monomial.one(n), Fraction(1))], 0)
        for i, e in enumerate(mon.exps):
            for _ in range(e):
                prod = prod * images[i]
        out = out + prod.scale(c)
    return out


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@st.composite
def rational_forms(draw, params=False):
    """(f, g): a form of degree <= 4 in P^n, n <= 3, and an invertible rational g."""
    n = draw(st.integers(1, 3))
    d = draw(st.integers(0, 4))
    mons = draw(st.lists(st.sampled_from(monomials_of_degree(n, d)),
                         max_size=6, unique=True))
    if params:
        coeff = st.builds(lambda q, i, j: q * ParamPoly.var((i, j)) + 1,
                          rationals, st.integers(1, 3), st.integers(1, 3))
    else:
        coeff = rationals
    f = XPoly(n, [(m, draw(coeff)) for m in mons], d)
    g = draw(st.lists(st.lists(rationals, min_size=n + 1, max_size=n + 1),
                      min_size=n + 1, max_size=n + 1)
             .filter(lambda rows: linalg.det(rows) != 0))
    return f, g


class TestChangeOfCoordsAgainstNaive:
    @settings(deadline=None, max_examples=60)
    @given(rational_forms())
    def test_rational_forms(self, fg):
        f, g = fg
        assert apply_change_of_coords(f, g) == naive_change_of_coords(f, g)

    @settings(deadline=None, max_examples=40)
    @given(rational_forms(params=True))
    def test_parametric_forms(self, fg):
        f, g = fg
        assert apply_change_of_coords(f, g) == naive_change_of_coords(f, g)


def _minor(g, i, j):
    return [[g[r][c] for c in range(len(g)) if c != j]
            for r in range(len(g)) if r != i]


class TestParamPoly:
    def test_canonical_equality(self):
        a = ParamPoly.var((1, 2))
        b = ParamPoly.var((2, 1))
        p = a * b + ParamPoly.const(2) * a - b * a + a
        q = ParamPoly.const(3) * a
        assert p == q
        assert hash(p) == hash(q)

    def test_zero_terms_never_stored(self):
        a = ParamPoly.var((1, 1))
        assert not (a - a)
        assert (a - a).terms == ()

    def test_structural_vs_evaluation(self):
        draw = rational_sampler(3)
        a, b = ParamPoly.var((1, 1)), ParamPoly.var((1, 2))
        p = (a + b) * (a - b)
        q = a * a - b * b
        assert p == q
        r = a * a - b * b - ParamPoly.const(1)
        found_difference = False
        for _ in range(20):
            point = {(1, 1): draw(), (1, 2): draw()}
            assert p.evaluate(point) == q.evaluate(point)
            if p.evaluate(point) != r.evaluate(point):
                found_difference = True
        assert found_difference

    def test_substitute(self):
        a, b = ParamPoly.var((1, 1)), ParamPoly.var((1, 2))
        p = a * a + b
        assert p.substitute((1, 1), b) == b * b + b

    def test_str_parse_round_trip(self):
        p = parse_parampoly("-C[2,1]^2*C[3,4] + C[1,2] - 2")
        assert parse_parampoly(str(p)) == p

    def test_missing_assignment(self):
        p = ParamPoly.var((1, 1))
        with pytest.raises(MathDomainError):
            p.evaluate({})


class TestXPoly:
    def test_homogeneity_enforced(self):
        with pytest.raises(MathDomainError):
            XPoly(2, [(mono("x1", 2), 1), (mono("x1^2", 2), 1)])

    def test_support_deduplicated(self):
        f = XPoly(2, [(mono("x1^2", 2), 1), (mono("x1^2", 2), 2)])
        assert len(f.terms) == 1
        assert f.coefficient(mono("x1^2", 2)) == 3

    def test_terms_sorted_descending(self):
        f = parse_xpoly("x0^2 + x2*x0 + x1^2", 2)
        assert [str(m) for m in f.support()] == ["x1^2", "x2*x0", "x0^2"]

    def test_parse_round_trip(self):
        for text in ["x2*x1 + 1/2*x1^2", "x2^4", "2*x1^3 - x0^3"]:
            f = parse_xpoly(text, 2)
            assert parse_xpoly(str(f), 2) == f

    def test_parse_rejects_garbage(self):
        with pytest.raises(ParseError):
            parse_xpoly("x1 + $", 2)
        with pytest.raises(ParseError):
            parse_xpoly("x9", 2)


class TestSpecialize:
    def test_template_tails_vanish(self, j1sat):
        from borelcover.marked import template
        tpl = template(j1sat, 2)
        zeros = {v: Fraction(0) for v in tpl.variables()}
        for head, poly in zip(tpl.heads, tpl.polys):
            assert specialize(poly, zeros) == XPoly.from_monomial(head)

    def test_single_parameter(self, j1sat):
        from borelcover.marked import template
        tpl = template(j1sat, 2)
        assign = {v: Fraction(0) for v in tpl.variables()}
        assign[(1, 2)] = Fraction(-1)
        assert specialize(tpl.polys[0], assign) == parse_xpoly("x2^2 + x2*x0", 2)

    def test_zero_poly(self):
        z = XPoly.zero(2, 3)
        assert specialize(z, {}) == z

    def test_missing_assignment(self, j1sat):
        from borelcover.marked import template
        tpl = template(j1sat, 2)
        with pytest.raises(MathDomainError):
            specialize(tpl.polys[0], {})
