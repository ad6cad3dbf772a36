import itertools
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from borelcover import linalg, ring
from borelcover.errors import MathDomainError, ParseError, ScaleCapError
from borelcover.ring import (Monomial, ParamPoly, XPoly, apply_change_of_coords,
                             monomials_of_degree, parse_parampoly, parse_xpoly)

from conftest import dict_rows, mono, rational_sampler, up_moves


class TestMonomial:
    def test_degree_and_one(self):
        assert Monomial.one(2).degree() == 0
        assert mono("x2^2*x0", 2).degree() == 3

    def test_min_max(self):
        m = mono("x2*x1^3", 3)
        assert m.min_var() == 1
        assert max(m.support()) == 2
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

    @pytest.mark.parametrize("exps", [(1.5, 0), (Fraction(1, 2), 1), (0, 2.25)])
    def test_non_integral_exponents_refused(self, exps):
        # int() used to truncate them: Monomial((1.5, 0)).exps == (1, 0)
        with pytest.raises(ValueError, match="non-integral"):
            Monomial(exps)

    def test_integral_fractions_become_ints(self):
        m = Monomial((Fraction(2), Fraction(0), 1))
        assert m.exps == (2, 0, 1) and all(type(e) is int for e in m.exps)


def degrevlex_key(m):
    """Sort key for degrevlex: larger key means larger monomial."""
    return (m.degree(), tuple(-e for e in m.exps))


class TestDegrevlex:
    def test_degree_two_listing(self):
        got = [str(m) for m in monomials_of_degree(2, 2)]
        assert got == ["x2^2", "x2*x1", "x1^2", "x2*x0", "x1*x0", "x0^2"]

    def test_listing_against_brute_force(self):
        # every exponent tuple of the degree, ascending: degrevlex descending
        for n in range(5):
            for d in range(-1, 6):
                want = sorted(e for e in itertools.product(range(d + 1),
                                                           repeat=n + 1)
                              if sum(e) == d)
                assert [m.exps for m in monomials_of_degree(n, d)] == want

    def test_listing_cap_counts_exponent_entries(self, monkeypatch):
        # the 10 cubics of P^2 hold 30 exponent entries
        monkeypatch.setattr(ring, "_MAX_LISTED_ENTRIES", 30)
        assert len(monomials_of_degree(2, 3)) == 10
        monkeypatch.setattr(ring, "_MAX_LISTED_ENTRIES", 29)
        with pytest.raises(ScaleCapError, match="degree-3 monomials of P\\^2 exceed"):
            monomials_of_degree(2, 3)

    def test_listing_cap_checked_before_listing(self):
        # 100001 linear forms of length 100001 would be 10^10 entries
        with pytest.raises(ScaleCapError, match="listing cap of 10000000"):
            monomials_of_degree(100_000, 1)

    def test_total_order(self):
        mons = monomials_of_degree(2, 3)
        keys = [degrevlex_key(m) for m in mons]
        assert sorted(keys, reverse=True) == keys
        assert len(set(keys)) == len(keys)

    def test_refines_borel_moves(self):
        # every single increasing move raises the degrevlex position
        for n in (2, 3):
            for d in (1, 2, 3):
                for m in monomials_of_degree(n, d):
                    for u in up_moves(m):
                        assert degrevlex_key(u) > degrevlex_key(m)


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

    def test_singular_rejected_on_every_call(self):
        g = ((2, 4), (Fraction(1, 3), Fraction(2, 3)))
        for f in [parse_xpoly("x1", 1), parse_xpoly("x0", 1), parse_xpoly("x1", 1)]:
            with pytest.raises(MathDomainError, match="singular"):
                apply_change_of_coords(f, g)

    def test_one_determinant_per_change_of_coords(self, monkeypatch):
        calls = []
        det = linalg.det
        monkeypatch.setattr(linalg, "det", lambda rows: calls.append(rows) or det(rows))
        g = ((5, 0, 1), (0, Fraction(7, 5), 0), (1, 0, 3))
        forms = [parse_xpoly(s, 2) for s in ["x2^2", "x2*x1 - x0^2", "x1^3 + x0^3"]]
        images = [apply_change_of_coords(f, g) for f in forms]
        assert len(calls) <= 1
        assert images == [naive_change_of_coords(f, g) for f in forms]

    def test_ints_fractions_and_lists_give_the_same_images(self):
        forms = [parse_xpoly(s, 2) for s in
                 ["x2^2 - 3*x1*x0", "1/2*x2*x1 + x0^2", "x1^3 - 2/3*x2*x0^2"]]
        g = ((2, -1, 0), (0, 3, 1), (1, 0, -2))
        as_fractions = tuple(tuple(map(Fraction, row)) for row in g)
        as_lists = [list(row) for row in g]
        halves = ((1, Fraction(-1, 2), 0), (0, Fraction(3, 2), Fraction(1, 2)),
                  (Fraction(1, 2), 0, -1))
        for f in forms:
            want = naive_change_of_coords(f, g)
            images = [apply_change_of_coords(f, h) for h in (g, as_fractions, as_lists)]
            assert images == [want] * 3
            assert apply_change_of_coords(f, halves) == naive_change_of_coords(f, halves)
            assert apply_change_of_coords(f, [list(row) for row in halves]) == \
                naive_change_of_coords(f, halves)

    def test_malformed_changes_raise_in_order_on_every_call(self):
        f2, f1 = parse_xpoly("x2*x1", 2), parse_xpoly("x1", 1)
        good = ((1, 0, 0), (0, 1, 1), (0, 0, 1))
        cases = [
            (5, TypeError, "not iterable"),                      # not a list of rows
            ((1, 2, 3), TypeError, "not iterable"),              # rows not lists
            (((1, 0), (0, "x")), ValueError, "Invalid literal"),  # entry before shape
            (((1, 0, None), (0, 1)), TypeError, "Rational"),     # entry before shape
            (((1, 1), (1, 1)), MathDomainError, "must be 3x3"),  # shape before det
            ([[1, 1, 0], [1, 1, 0], [0, 0, 1]], MathDomainError, "singular"),
        ]
        for _ in range(2):
            assert apply_change_of_coords(f2, good) == naive_change_of_coords(f2, good)
            for g, error, match in cases:
                with pytest.raises(error, match=match):
                    apply_change_of_coords(f2, g)
            # the memo of a 3x3 g is no licence for a form of P^1
            apply_change_of_coords(f2, good)
            with pytest.raises(MathDomainError, match="must be 2x2"):
                apply_change_of_coords(f1, good)

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
                if linalg.det(dict_rows(cand)) != 0:
                    g = [tuple(r) for r in cand]
            f, h = rand_poly(mons2), rand_poly(mons2)
            k = rand_poly(mons3)
            assert apply_change_of_coords(f + h, g) == \
                apply_change_of_coords(f, g) + apply_change_of_coords(h, g)
            assert apply_change_of_coords(f * k, g) == \
                apply_change_of_coords(f, g) * apply_change_of_coords(k, g)
            det = linalg.det(dict_rows(g))
            inv = [[linalg.det(dict_rows(_minor(g, j, i))) * (-1) ** (i + j) / det
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
parametric = st.builds(lambda q, i, j: q * ParamPoly.var((i, j)) + 1,
                       rationals, st.integers(1, 3), st.integers(1, 3))


def invertible(n):
    """An invertible (n+1) x (n+1) matrix of small rationals."""
    return (st.lists(st.lists(rationals, min_size=n + 1, max_size=n + 1),
                     min_size=n + 1, max_size=n + 1)
            .filter(lambda rows: linalg.det(dict_rows(rows)) != 0))


def form_of_degree(draw, n, d, coeff):
    """A degree-d form on at most six monomials, coefficients drawn from coeff."""
    mons = draw(st.lists(st.sampled_from(monomials_of_degree(n, d)),
                         max_size=6, unique=True))
    return XPoly(n, [(m, draw(coeff)) for m in mons], d)


@st.composite
def rational_forms(draw, params=False):
    """(f, g): a form of degree <= 4 in P^n, n <= 3, and an invertible rational g."""
    n = draw(st.integers(1, 3))
    f = form_of_degree(draw, n, draw(st.integers(0, 4)),
                       parametric if params else rationals)
    return f, draw(invertible(n))


@st.composite
def memo_sequences(draw):
    """(forms, g1, g2): forms in P^n, n <= 3, of rising then falling degree.

    Each form has rational or C[i,j] coefficients; g1 and g2 are invertible.
    """
    n = draw(st.integers(1, 3))
    degrees = sorted(draw(st.lists(st.integers(0, 4), min_size=1, max_size=3,
                                   unique=True)))
    forms = [form_of_degree(draw, n, d,
                            draw(st.sampled_from([rationals, parametric])))
             for d in degrees + degrees[::-1]]
    return forms, draw(invertible(n)), draw(invertible(n))


class TestChangeOfCoordsAgainstNaive:
    @settings(max_examples=60)
    @given(rational_forms())
    def test_rational_forms(self, fg):
        f, g = fg
        assert apply_change_of_coords(f, g) == naive_change_of_coords(f, g)

    @settings(max_examples=40)
    @given(rational_forms(params=True))
    def test_parametric_forms(self, fg):
        f, g = fg
        assert apply_change_of_coords(f, g) == naive_change_of_coords(f, g)

    @settings(max_examples=25)
    @given(memo_sequences())
    def test_interleaved_coordinate_changes_share_one_memo(self, sequence):
        # g1, g2, g1 over forms of rising then falling degree: the forms
        # under one g fill and read one memo of images, g2 replaces it and
        # the return of g1 rebuilds it
        forms, g1, g2 = sequence
        n = forms[0].n
        singular = [[1] * (n + 1)] * (n + 1)
        for g in (g1, g2, g1):
            for f in forms:
                image = apply_change_of_coords(f, g)
                assert image == naive_change_of_coords(f, g)
                assert image.is_scalar() == f.is_scalar()
                with pytest.raises(MathDomainError, match="singular"):
                    apply_change_of_coords(f, singular)


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

    def test_str_parse_round_trip(self):
        p = parse_parampoly("-C[2,1]^2*C[3,4] + C[1,2] - 2")
        assert parse_parampoly(str(p)) == p

    def test_missing_assignment(self):
        p = ParamPoly.var((1, 1))
        with pytest.raises(MathDomainError):
            p.evaluate({})

    def test_repeated_variable_merged(self):
        # used to keep both factors: printed C[1,1]*C[1,1] and != C[1,1]^2
        p = ParamPoly([((((1, 1), 1), ((1, 1), 1)), 1)])
        square = parse_parampoly("C[1,1]^2")
        assert p == square and hash(p) == hash(square) and str(p) == "C[1,1]^2"
        q = ParamPoly([((((2, 1), 1), ((1, 1), 2), ((2, 1), 0), ((2, 1), 3)), 3)])
        assert q == parse_parampoly("3*C[1,1]^2*C[2,1]^4")

    @pytest.mark.parametrize("e, match", [(-1, "negative exponent"),
                                          (Fraction(1, 2), "non-integral"),
                                          (1.5, "non-integral")])
    def test_bad_exponents_refused(self, e, match):
        # a negative exponent used to print as C[1,1]^-1
        with pytest.raises(ValueError, match=match):
            ParamPoly([((((1, 1), e),), 1)])


small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def param_polys(draw):
    """A ParamPoly built by __init__ from a raw term list, zeros and repeats
    (of terms and of variables within a multi-index) included."""
    variable = st.tuples(st.integers(1, 2), st.integers(1, 2))
    multi_index = st.lists(st.tuples(variable, st.integers(0, 2)), max_size=3)
    return ParamPoly(draw(st.lists(st.tuples(multi_index, small_rationals), max_size=5)))


def _naive_product(a, b):
    terms = []
    for cm1, c1 in a.terms:
        for cm2, c2 in b.terms:
            exps = Counter(dict(cm1))
            exps.update(dict(cm2))
            terms.append((exps.items(), c1 * c2))
    return ParamPoly(terms)


def _assert_canonical(p):
    for cm, c in p.terms:
        assert type(c) is Fraction and c != 0
        assert list(cm) == sorted(cm)
        assert all(e > 0 for _, e in cm)
        assert len({v for v, _ in cm}) == len(cm)
    keys = [(-sum(e for _, e in cm), cm) for cm, _ in p.terms]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)


class TestParamPolyHashAndDegree:
    @given(param_polys())
    def test_equal_polynomials_hash_equal(self, p):
        # integral coefficients as ints, the others as Fractions: still equal
        q = ParamPoly._from_dict(
            {cm: c.numerator if c.denominator == 1 else c for cm, c in p.terms})
        rebuilt = ParamPoly(reversed(p.terms))
        assert p == q == rebuilt
        assert hash(p) == hash(q) == hash(rebuilt)

    @given(param_polys(), small_rationals.filter(lambda q: q not in (0, 1)))
    def test_same_support_other_coefficients_unequal(self, p, q):
        # the hash reads only the support, so equality must tell these apart
        assume(p)
        scaled = p * q
        assert set(scaled._terms) == set(p._terms) and hash(scaled) == hash(p)
        assert scaled != p
        assert list(dict.fromkeys([p, scaled, p, scaled])) == [p, scaled]

    def test_ints_and_fractions_hash_equal(self):
        cm = (((1, 2), 1), ((2, 1), 2))
        from_ints = [ParamPoly([(cm, 2), ((), -3)]), ParamPoly._from_dict({cm: 2, (): -3})]
        from_fractions = [ParamPoly([(cm, Fraction(4, 2)), ((), Fraction(-3))]),
                          ParamPoly._from_dict({cm: Fraction(2), (): Fraction(-3)})]
        for p in from_ints:
            for q in from_fractions:
                assert p == q and hash(p) == hash(q)

    @given(param_polys())
    def test_degree_is_the_largest_term_degree(self, p):
        assert p.degree() == max((sum(e for _, e in cm) for cm, _ in p.terms), default=-1)

    @given(st.tuples(st.integers(1, 5), st.integers(1, 5)))
    def test_var_is_canonical(self, key):
        v = ParamPoly.var(list(key))
        want = ParamPoly([(((key, 1),), 1)])
        assert v == want and hash(v) == hash(want)
        _assert_canonical(v)


def _dict_and_sort_product(a, b):
    """Multi-index product by merging the pairs in a dict and sorting them."""
    acc = dict(a)
    for v, e in b:
        acc[v] = acc.get(v, 0) + e
    return tuple(sorted(acc.items()))


param_variables = st.tuples(st.integers(1, 4), st.integers(1, 4))
multi_indices = st.dictionaries(param_variables, st.integers(1, 3), max_size=4).map(
    lambda d: tuple(sorted(d.items())))


class TestMultiIndexProduct:
    @pytest.mark.parametrize("cm, v, e, want", [
        ((), (2, 2), 1, (((2, 2), 1),)),
        ((((2, 2), 1), ((3, 1), 2)), (1, 4), 1,
         (((1, 4), 1), ((2, 2), 1), ((3, 1), 2))),        # below every key
        ((((2, 2), 1), ((3, 1), 2)), (3, 1), 3,
         (((2, 2), 1), ((3, 1), 5))),                      # equal to a key
        ((((2, 2), 1), ((3, 1), 2)), (2, 3), 2,
         (((2, 2), 1), ((2, 3), 2), ((3, 1), 2))),        # between two keys
        ((((2, 2), 1), ((3, 1), 2)), (3, 2), 1,
         (((2, 2), 1), ((3, 1), 2), ((3, 2), 1))),        # above every key
    ])
    def test_one_variable_step(self, cm, v, e, want):
        assert ring._cmon_times(cm, v, e) == want == _dict_and_sort_product(cm, [(v, e)])

    @given(multi_indices, param_variables, st.integers(1, 3))
    def test_step_matches_dict_and_sort(self, cm, v, e):
        assert ring._cmon_times(cm, v, e) == _dict_and_sort_product(cm, [(v, e)])
        assert ring._cmon_times(cm, v) == _dict_and_sort_product(cm, [(v, 1)])

    @given(multi_indices, multi_indices)
    def test_product_of_sorted_multi_indices(self, a, b):
        assert ring._cmon_mul(a, b) == _dict_and_sort_product(a, b)

    @given(multi_indices, st.lists(st.tuples(param_variables, st.integers(1, 3)), max_size=6))
    def test_fold_over_unsorted_pairs_with_repeats(self, a, pairs):
        # ParamPoly.__init__ passes its raw pairs this way, starting from ()
        assert ring._cmon_mul((), pairs) == _dict_and_sort_product((), pairs)
        assert ring._cmon_mul(a, pairs) == _dict_and_sort_product(a, pairs)


class TestParamPolyArithmeticIsCanonical:
    @settings(max_examples=100)
    @given(param_polys(), param_polys(),
           st.one_of(small_rationals, st.integers(-3, 3)))
    def test_matches_init_on_naive_term_lists(self, a, b, q):
        neg_b = [(cm, -c) for cm, c in b.terms]
        expected = [
            (a + b, ParamPoly(a.terms + b.terms)),
            (a - b, ParamPoly(list(a.terms) + neg_b)),
            (-a, ParamPoly([(cm, -c) for cm, c in a.terms])),
            (a * b, _naive_product(a, b)),
            (q * a, ParamPoly([(cm, c * q) for cm, c in a.terms])),
            (a * q, ParamPoly([(cm, c * q) for cm, c in a.terms])),
            (a + q, ParamPoly(a.terms + (((), Fraction(q)),))),
        ]
        for got, want in expected:
            assert got.terms == want.terms
            assert got == want and hash(got) == hash(want)
            _assert_canonical(got)
        assert a + b == b + a and hash(a + b) == hash(b + a)
        assert a * b == b * a and hash(a * b) == hash(b * a)
        assert not (a + (-a)) and (a + (-a)) == ParamPoly.zero()
        assert (a - a).terms == ()


def _assert_same(p, q):
    assert p == q and hash(p) == hash(q) and str(p) == str(q)
    assert p.terms == q.terms
    _assert_canonical(p)


class TestParamPolyTermOrderIsInvisible:
    @settings(max_examples=60)
    @given(param_polys(), param_polys(), st.data())
    def test_same_terms_in_any_order(self, a, b, data):
        # each way of building a polynomial fills its dict in another order
        def shuffled(p):
            order = data.draw(st.permutations(range(len(p.terms))))
            return [p.terms[k] for k in order]

        def summed(terms):
            return sum((ParamPoly([t]) for t in terms), ParamPoly.zero())

        _assert_same(ParamPoly(shuffled(a)), a)
        _assert_same(summed(shuffled(a)), a)
        _assert_same(-summed((cm, -c) for cm, c in shuffled(a)), a)
        _assert_same(ParamPoly.zero() - summed((cm, -c) for cm, c in shuffled(a)), a)
        _assert_same(ParamPoly(shuffled(a)) * ParamPoly(shuffled(b)), a * b)
        _assert_same(b * a, a * b)
        _assert_same(summed(shuffled(b)) + ParamPoly(shuffled(a)), a + b)


def _assert_same_form(f, g):
    assert f == g and hash(f) == hash(g) and str(f) == str(g)
    assert f.terms == g.terms and f.degree == g.degree
    exps = [m.exps for m, _ in f.terms]
    assert exps == sorted(exps) and len(set(exps)) == len(exps)
    assert all(type(c) in (Fraction, ParamPoly) and c for _, c in f.terms)


@st.composite
def forms_and_orders(draw):
    """(f, shuffled): a form in P^n, n <= 3, of degree <= 3, with rational or
    C[i,j] coefficients, and a function drawing its terms in another order."""
    n = draw(st.integers(0, 3))
    f = form_of_degree(draw, n, draw(st.integers(0, 3)),
                       draw(st.sampled_from([rationals, parametric])))

    def shuffled(g):
        return [g.terms[k] for k in draw(st.permutations(range(len(g.terms))))]

    return f, shuffled


class TestXPolyTermOrderIsInvisible:
    @settings(max_examples=60)
    @given(forms_and_orders(), forms_and_orders())
    def test_same_terms_in_any_order(self, fs, gs):
        (f, shuffled), (g, _) = fs, gs
        n, d = f.n, f.degree

        def summed(terms):
            return sum((XPoly(n, [t], d) for t in terms), XPoly.zero(n, d))

        halves = [(m, c * Fraction(1, 2)) for m, c in shuffled(f) for _ in range(2)]
        _assert_same_form(XPoly(n, shuffled(f), d), f)
        _assert_same_form(XPoly(n, halves, d), f)
        _assert_same_form(summed(shuffled(f)), f)
        _assert_same_form(-summed((m, -c) for m, c in shuffled(f)), f)
        _assert_same_form(XPoly.zero(n, d) - summed((m, -c) for m, c in shuffled(f)), f)
        _assert_same_form(f - XPoly(n, shuffled(f), d), XPoly.zero(n, d))
        if g.n == n:
            _assert_same_form(XPoly(n, shuffled(f), d) * g, g * f)

    @settings(max_examples=40)
    @given(forms_and_orders(), st.integers(0, 2 ** 32))
    def test_coordinate_change_of_a_shuffled_form(self, fs, seed):
        from borelcover.chart import random_coordinate_change
        f, shuffled = fs
        g = random_coordinate_change(f.n, seed, bound=3)
        _assert_same_form(apply_change_of_coords(XPoly(f.n, shuffled(f), f.degree), g),
                          apply_change_of_coords(f, g))


@st.composite
def form_dicts(draw):
    """(n, d, terms): a dict of a form's terms in P^n, n <= 3, of degree <= 3,
    each coefficient a nonzero int, Fraction or ParamPoly."""
    n, d = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    exps = draw(st.lists(st.sampled_from([m.exps for m in monomials_of_degree(n, d)]),
                         max_size=6, unique=True))
    coeff = st.one_of(st.integers(-4, 4), rationals, param_polys()).filter(bool)
    return n, d, {e: draw(coeff) for e in exps}


class TestXPolyHash:
    @settings(max_examples=100)
    @given(form_dicts(), st.data())
    def test_equal_forms_hash_equal(self, form, data):
        # __init__ turns ints into Fractions; _from_dict keeps what it is given,
        # and an int or an integral Fraction must hash as the other does
        n, d, terms = form

        def integral_as_int(c):
            return c.numerator if isinstance(c, Fraction) and c.denominator == 1 else c

        def rebuilt(c):
            return ParamPoly(reversed(c.terms)) if isinstance(c, ParamPoly) else c

        order = data.draw(st.permutations(list(terms)))
        f = XPoly(n, list(terms.items()), d)
        for g in (XPoly._from_dict(n, dict(terms), d),
                  XPoly._from_dict(n, {e: integral_as_int(c) for e, c in terms.items()}, d),
                  XPoly._from_dict(n, {e: rebuilt(terms[e]) for e in order}, d),
                  XPoly(n, [(e, rebuilt(terms[e])) for e in order], d)):
            assert g == f and hash(g) == hash(f)

    def test_int_against_fraction(self):
        f = XPoly._from_dict(2, {(0, 0, 2): 3, (0, 1, 1): Fraction(1, 2)}, 2)
        g = XPoly(2, [((0, 0, 2), Fraction(3)), ((0, 1, 1), Fraction(1, 2))])
        assert type(f.coefficient(mono("x2^2", 2))) is int
        assert f == g and hash(f) == hash(g)
        assert f.is_scalar() and g.is_scalar()

    def test_hash_ignores_the_string_hash_seed(self):
        code = ("from borelcover.ring import parse_xpoly; "
                "f = parse_xpoly('(C[1,2] - 1/2)*x2*x1 + 3*x0^2', 2); "
                "print(hash(f), hash(f.coefficient(f.terms[0][0])))")
        src = Path(ring.__file__).resolve().parents[1]
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        out = {subprocess.run([sys.executable, "-c", code], capture_output=True, check=True,
                              env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path},
                              timeout=60).stdout
               for seed in ("0", "2718281")}
        assert len(out) == 1 and out.pop().strip()


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


# ---------------------------------------------------------------------------
# The printers that the shared text helpers replaced, kept as references
# (the HilbertPoly one is in test_hilbert.py)
# ---------------------------------------------------------------------------

def reference_monomial_str(m):
    if m.is_one():
        return "1"
    parts = []
    for i in range(len(m.exps) - 1, -1, -1):
        e = m.exps[i]
        if e == 1:
            parts.append(f"x{i}")
        elif e > 1:
            parts.append(f"x{i}^{e}")
    return "*".join(parts)


def _reference_cmon(cm):
    parts = []
    for (i, j), e in cm:
        v = f"C[{i},{j}]"
        parts.append(v if e == 1 else f"{v}^{e}")
    return "*".join(parts)


def _reference_cterm(coeff, cm):
    if not cm:
        return str(coeff)
    if coeff == 1:
        return _reference_cmon(cm)
    return f"{coeff}*{_reference_cmon(cm)}"


def _reference_join(signed_bodies):
    if not signed_bodies:
        return "0"
    chunks = []
    for k, (sign, body) in enumerate(signed_bodies):
        if k == 0:
            chunks.append(body if sign == "+" else "-" + body)
        else:
            chunks.append(f" {sign} {body}")
    return "".join(chunks)


def reference_parampoly_str(p):
    return _reference_join([("-" if c < 0 else "+", _reference_cterm(abs(c), cm))
                            for cm, c in p.terms])


def _reference_xterm(mon, coeff):
    mon_str = reference_monomial_str(mon)
    if isinstance(coeff, ParamPoly):
        if len(coeff.terms) == 1:
            cm, q = coeff.terms[0]
            sign = "-" if q < 0 else "+"
            body = _reference_cterm(abs(q), cm)
            if mon.is_one():
                return sign, body
            if body == "1":
                return sign, mon_str
            return sign, f"{body}*{mon_str}"
        inner = reference_parampoly_str(coeff)
        return "+", f"({inner})*{mon_str}" if not mon.is_one() else f"({inner})"
    sign = "-" if coeff < 0 else "+"
    q = abs(coeff)
    if mon.is_one():
        return sign, str(q)
    if q == 1:
        return sign, mon_str
    return sign, f"{q}*{mon_str}"


def reference_xpoly_str(f):
    return _reference_join([_reference_xterm(mon, c) for mon, c in f.terms])


# numerators and denominators of more than one digit, and 1 and -1 often
printed_rationals = st.one_of(st.sampled_from([Fraction(1), Fraction(-1)]),
                              st.fractions(min_value=-200, max_value=200,
                                           max_denominator=30))


@st.composite
def printed_monomials(draw, n=None, degree=None):
    """A monomial of P^n, n <= 12; of the given degree when one is given."""
    if n is None:
        n = draw(st.integers(0, 12))
    if degree is None:
        return Monomial(draw(st.lists(st.integers(0, 12), min_size=n + 1,
                                      max_size=n + 1)))
    return draw(st.sampled_from(monomials_of_degree(n, degree)))


@st.composite
def printed_param_polys(draw, min_terms=0):
    """A ParamPoly over C[i,j], i, j <= 12, with exponents up to 11."""
    variable = st.tuples(st.integers(1, 12), st.integers(1, 12))
    multi_index = st.dictionaries(variable, st.integers(1, 11), max_size=3)
    terms = draw(st.dictionaries(multi_index.map(lambda d: tuple(d.items())),
                                 printed_rationals.filter(bool),
                                 min_size=min_terms, max_size=5))
    return ParamPoly(terms.items())


@st.composite
def printed_xpolys(draw, params):
    """A form in P^n, n <= 3, of degree <= 3, on at most five monomials.

    With params, every coefficient is a ParamPoly: a sum of several terms,
    a constant, or +-1 times one parameter monomial.
    """
    n = draw(st.integers(0, 3))
    d = draw(st.integers(0, 3))
    mons = draw(st.lists(printed_monomials(n, d), max_size=5, unique=True))
    if not params:
        coeff = printed_rationals
    else:
        coeff = st.one_of(
            printed_param_polys(min_terms=2),
            printed_rationals.map(ParamPoly.const),
            st.builds(lambda q, p: q * ParamPoly(p.terms[:1]),
                      st.sampled_from([1, -1]), printed_param_polys(min_terms=1)))
    terms = [(m, draw(coeff)) for m in mons]
    return XPoly(n, [(m, c) for m, c in terms if c], d)


class TestPrintersAgainstReference:
    @settings(max_examples=200)
    @given(printed_monomials())
    def test_monomial(self, m):
        assert str(m) == reference_monomial_str(m)
        assert parse_xpoly(str(m), m.n) == XPoly.from_monomial(m)

    @settings(max_examples=100)
    @given(printed_param_polys())
    def test_param_poly(self, p):
        assert str(p) == reference_parampoly_str(p)
        assert parse_parampoly(str(p)) == p

    @settings(max_examples=200)
    @given(printed_xpolys(params=False))
    def test_rational_form(self, f):
        assert str(f) == reference_xpoly_str(f)
        assert parse_xpoly(str(f), f.n) == f

    @settings(max_examples=100)
    @given(printed_xpolys(params=True))
    def test_parametric_form(self, f):
        assert str(f) == reference_xpoly_str(f)
        # the parser gives Fraction coefficients to a form without parameters
        assume(any(c.variables() for _, c in f.terms))
        assert parse_xpoly(str(f), f.n) == f


class TestNumberText:
    def test_at_the_digit_limit(self):
        # CPython prints an int of up to 4300 digits
        q = Fraction(-(10 ** 4300 - 1), 10 ** 4299 + 1)
        assert ring._number(q) == str(q)

    @pytest.mark.parametrize("q", [10 ** 4300, Fraction(1, 10 ** 4300),
                                   -(10 ** 5000)],
                             ids=["int", "denominator", "negative"])
    def test_past_the_digit_limit(self, q):
        with pytest.raises(ScaleCapError,
                           match="cannot print a number of more than 4300 digits"):
            ring._number(q)

    def test_printers_raise_past_the_limit(self):
        big = 10 ** 4300
        for value in (XPoly(1, [(Monomial((0, 1)), big)], 1),
                      ParamPoly.const(Fraction(1, big))):
            with pytest.raises(ScaleCapError):
                str(value)


# ---------------------------------------------------------------------------
# The parser on its former private polynomial type, kept as a reference
# ---------------------------------------------------------------------------

class _RawTerms:
    """{(x-exps, c-mon): Fraction}, the parser's work representation before
    it computed on ParamPoly."""

    def __init__(self, items=()):
        self.d = {}
        for k, v in items:
            v = self.d.get(k, 0) + v
            if v:
                self.d[k] = v
            else:
                self.d.pop(k, None)

    @classmethod
    def const(cls, q):
        return cls([((tuple(), tuple()), Fraction(q))])

    def add(self, other):
        return _RawTerms(list(self.d.items()) + list(other.d.items()))

    def mul(self, other):
        out = {}
        for (xa, ca), qa in self.d.items():
            for (xb, cb), qb in other.d.items():
                xs = dict(xa)
                for i, e in xb:
                    xs[i] = xs.get(i, 0) + e
                key = (tuple(sorted(xs.items())), ring._cmon_mul(ca, cb))
                out[key] = out.get(key, 0) + qa * qb
        return _RawTerms(out.items())

    def neg(self):
        return _RawTerms([(k, -v) for k, v in self.d.items()])


class _ReferenceParser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.products = 0

    def mul(self, a, b):
        self.products += len(a.d) * len(b.d)
        if self.products > ring._MAX_PARSE_PRODUCTS:
            raise ScaleCapError("term products")
        return a.mul(b)

    def peek(self):
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse_sum(self):
        if self.peek() in ("+", "-"):
            kind, _ = self.next()
            total = self.parse_product()
            if kind == "-":
                total = total.neg()
        else:
            total = self.parse_product()
        while self.peek() in ("+", "-"):
            kind, _ = self.next()
            term = self.parse_product()
            total = total.add(term.neg() if kind == "-" else term)
        return total

    def parse_product(self):
        total = self.parse_power()
        while True:
            nxt = self.peek()
            if nxt == "*":
                self.next()
            elif nxt not in ("num", "x", "C", "("):
                return total
            total = self.mul(total, self.parse_power())

    def parse_power(self):
        base = self.parse_atom()
        if self.peek() == "^":
            self.next()
            if self.peek() != "num":
                raise ParseError("expected integer exponent after '^'")
            _, e = self.next()
            if e > ring._MAX_PARSE_EXPONENT:
                raise ScaleCapError("exponent cap")
            power = _RawTerms.const(1)
            for _ in range(e):
                power = self.mul(power, base)
            return power
        return base

    def parse_atom(self):
        kind = self.peek()
        if kind is None:
            raise ParseError("unexpected end of expression")
        if kind == "num":
            _, val = self.next()
            q = Fraction(val)
            if self.peek() == "/":
                self.next()
                if self.peek() != "num":
                    raise ParseError("expected integer denominator")
                _, den = self.next()
                if den == 0:
                    raise ParseError("zero denominator")
                q = Fraction(val, den)
            return _RawTerms.const(q)
        if kind == "x":
            _, i = self.next()
            return _RawTerms([((((i, 1),), tuple()), Fraction(1))])
        if kind == "C":
            _, key = self.next()
            return _RawTerms([((tuple(), ((key, 1),)), Fraction(1))])
        if kind == "(":
            self.next()
            inner = self.parse_sum()
            if self.peek() != ")":
                raise ParseError("unbalanced parenthesis")
            self.next()
            return inner
        raise ParseError(f"unexpected token {kind!r}")


def _reference_raw(text):
    try:
        parser = _ReferenceParser(ring._tokenize(text))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    raw = parser.parse_sum()
    if parser.pos != len(parser.tokens):
        raise ParseError("trailing input")
    return raw


def reference_parse_xpoly(text, n):
    raw = _reference_raw(text)
    acc = {}
    has_params = any(cm for (_, cm) in raw.d)
    for (xexps, cm), q in raw.d.items():
        exps = [0] * (n + 1)
        for i, e in xexps:
            if i > n:
                raise ParseError(f"variable x{i} out of range for n={n}")
            exps[i] = e
        mon = Monomial(exps)
        coeff = ParamPoly([(cm, q)]) if has_params else q
        acc[mon] = acc.get(mon, (ParamPoly.zero() if has_params else Fraction(0))) + coeff
    try:
        return XPoly(n, acc.items())
    except MathDomainError as exc:
        raise ParseError(str(exc)) from exc


def reference_parse_parampoly(text):
    raw = _reference_raw(text)
    terms = []
    for (xexps, cm), q in raw.d.items():
        if xexps:
            raise ParseError("x-variables not allowed in a parameter polynomial")
        terms.append((cm, q))
    return ParamPoly(terms)


def _outcome(parse, *args):
    """(value, None) or (None, error class) of a parse."""
    try:
        return parse(*args), None
    except (ParseError, MathDomainError, ScaleCapError) as exc:
        return None, type(exc)


def _expressions(atoms):
    return st.recursive(atoms, lambda inner: st.one_of(
        inner.map(lambda s: f"({s})"),
        inner.map(lambda s: f"-{s}"),
        st.tuples(inner, st.integers(0, 3)).map(lambda t: f"{t[0]}^{t[1]}"),
        st.tuples(inner, st.sampled_from([" + ", " - ", "-", "*", " ", "", "**"]),
                  inner).map("".join)), max_leaves=8)


parsed_texts = st.tuples(
    _expressions(st.one_of(
        st.integers(0, 12).map(str),
        st.tuples(st.integers(0, 9), st.integers(0, 3)).map(lambda t: "%d/%d" % t),
        st.integers(0, 3).map(lambda i: f"x{i}"),
        st.tuples(st.integers(1, 2), st.integers(1, 3)).map(lambda t: "C[%d,%d]" % t))),
    st.integers(0, 200),
    st.sampled_from(["", "", "", "(", ")", "+", "-", "^", "/", "*", "$", "x", "C[1,"]),
).map(lambda t: t[0][:t[1] % (len(t[0]) + 1)] + t[2] + t[0][t[1] % (len(t[0]) + 1):])


class TestParserAgainstRawTerms:
    @settings(max_examples=300)
    @given(parsed_texts)
    def test_forms(self, text):
        got, err = _outcome(parse_xpoly, text, 2)
        want, want_err = _outcome(reference_parse_xpoly, text, 2)
        assert err is want_err
        if err is None:
            assert got == want and got.degree == want.degree and str(got) == str(want)
            assert [type(c) for _, c in got.terms] == [type(c) for _, c in want.terms]

    @settings(max_examples=300)
    @given(parsed_texts)
    def test_parameter_polynomials(self, text):
        got, err = _outcome(parse_parampoly, text)
        want, want_err = _outcome(reference_parse_parampoly, text)
        assert err is want_err
        if err is None:
            assert got == want and got.terms == want.terms and str(got) == str(want)

    @settings(max_examples=200)
    @given(parsed_texts)
    def test_same_term_products(self, text):
        # the product cap counts len(a) * len(b) per product, on both types
        try:
            tokens = ring._tokenize(text)
        except (ParseError, ValueError):
            return
        counts = []
        for parser in (ring._Parser(tokens), _ReferenceParser(tokens)):
            try:
                parser.parse_sum()
            except (ParseError, ScaleCapError):
                pass
            counts.append(parser.products)
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("text", ["(x2+x1+x0+C[1,1])^40", "(x1+x0)^400*(x2+x1)^400"])
    def test_product_cap(self, text):
        assert _outcome(parse_xpoly, text, 2) == (None, ScaleCapError)
        assert _outcome(reference_parse_xpoly, text, 2) == (None, ScaleCapError)

    @pytest.mark.parametrize("text", [
        "x1^40*x0^0", "x1^41", "x1^1000", "(2/3*x1*C[1,2]^2)^7", "(x1+x0)^5*x1^3",
        # (x1+x0)^5 makes 30 products: the cap of 40 is passed inside
        # C[1,2]^e, at its last product, and by the product after it
        "(x1+x0)^5*C[1,2]^20", "(x1+x0)^5*C[1,2]^11", "(x1+x0)^5*C[1,2]^10"])
    def test_one_term_powers_count_like_the_loop(self, text, monkeypatch):
        # a one-term base is raised in one step but counted as e products
        monkeypatch.setattr(ring, "_MAX_PARSE_PRODUCTS", 40)
        tokens = ring._tokenize(text)
        counts = []
        for parser in (ring._Parser(tokens), _ReferenceParser(tokens)):
            try:
                parser.parse_sum()
            except ScaleCapError:
                pass
            counts.append(parser.products)
        assert counts[0] == counts[1]
        got, err = _outcome(parse_xpoly, text, 2)
        want, want_err = _outcome(reference_parse_xpoly, text, 2)
        assert err is want_err and got == want


class TestParseNesting:
    def test_at_the_cap(self):
        depth = ring._MAX_PARSE_DEPTH
        text = "(" * depth + "x1 + C[1,1]*x0" + ")" * depth
        assert parse_xpoly(text, 2) == parse_xpoly("x1 + C[1,1]*x0", 2)

    @pytest.mark.parametrize("depth", [101, 3000, 100_000])
    def test_past_the_cap(self, depth):
        # the recursion used to end in RecursionError
        for parse in (lambda s: parse_xpoly(s, 2), parse_parampoly):
            with pytest.raises(ScaleCapError,
                               match="parentheses nest deeper than the cap 100"):
                parse("(" * depth + "1" + ")" * depth)
