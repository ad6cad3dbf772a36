import functools
import math
import random
from fractions import Fraction
from operator import add, sub

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from borelcover.borel import (BorelChartIdeal, MonomialIdeal, enumerate_borel_in_g,
                              is_borel_chart, is_strongly_stable, regularity, rho,
                              saturate, truncate)
from borelcover.chart import dimension_in_degree, marked_slice
from borelcover.errors import MathDomainError, NotInChartError, ScaleCapError
from borelcover.hilbert import (HilbertPoly, borel_dim_at, chart_constants,
                                hilbert_polynomial)
from borelcover.marked import _heads_of_marked_set
from borelcover.ring import Monomial, ParamPoly, XPoly, canonical_key, parse_xpoly

# Exact arithmetic makes example run times uneven, so no test has a deadline;
# each property bounds its work through max_examples and its strategies.
settings.register_profile("borelcover", deadline=None)
settings.load_profile("borelcover")


@pytest.fixture
def j1sat():
    """Saturation of the first Borel chart of 4 points in the plane."""
    return MonomialIdeal.parse("x2^2, x2*x1, x1^3", 2)


@pytest.fixture
def j2sat():
    return MonomialIdeal.parse("x2, x1^4", 2)


@pytest.fixture
def lex_cubic():
    """The only Borel chart of the cubic curves in P^3."""
    return MonomialIdeal.parse("x3, x2^3", 3)


@pytest.fixture
def two_quadrics():
    return [parse_xpoly("x2^2", 2), parse_xpoly("x1^2", 2)]


@pytest.fixture
def g_shear():
    """x2 -> x2, x1 -> x2 + x1, x0 -> x0."""
    return ((1, 0, 0), (0, 1, 1), (0, 0, 1))


def mono(text, n):
    poly = parse_xpoly(text, n)
    assert len(poly.terms) == 1
    return poly.terms[0][0]


def dict_rows(matrix):
    """The rows of a dense matrix as linalg takes them: dicts of nonzero entries."""
    return [{j: x for j, x in enumerate(row) if x} for row in matrix]


def rational_sampler(seed, num_bound=4, den_bound=3):
    rng = random.Random(seed)

    def draw():
        return Fraction(rng.randint(-num_bound, num_bound), rng.randint(1, den_bound))

    return draw


def up_moves(mon):
    """Reference increasing elementary moves x_i -> x_j, j > i, on Monomials."""
    n = mon.n
    return [Monomial(tuple(e - (k == i) + (k == j) for k, e in enumerate(mon.exps)))
            for i in mon.support() for j in range(i + 1, n + 1)]


@st.composite
def monomial_ideals(draw, max_n=3, max_gens=3, max_degree=4):
    """A monomial ideal of P^n, n <= max_n, on a few monomials of positive degree."""
    n = draw(st.integers(1, max_n))
    gens = []
    for _ in range(draw(st.integers(1, max_gens))):
        d = draw(st.integers(1, max_degree))
        variables = draw(st.lists(st.integers(0, n), min_size=d, max_size=d))
        gens.append(Monomial([variables.count(i) for i in range(n + 1)]))
    return MonomialIdeal(n, gens)


def scan_contains(J, mon):
    """Reference membership: a scan of Monomial.divides over the generators."""
    return any(g.divides(mon) for g in J.gens)


def scan_star_decompose(gamma, J):
    """Reference star decomposition on Monomial arithmetic and scan_contains."""
    if not scan_contains(J, gamma):
        raise MathDomainError(f"{gamma} is not a member of {J}")
    n = J.n
    eta = Monomial((0,) * (n + 1))
    cur = gamma
    while cur not in J.gens:
        v = Monomial.variable(n, cur.min_var())
        eta = eta * v
        cur = Monomial(tuple(map(sub, cur.exps, v.exps)))
        if not scan_contains(J, cur):
            raise MathDomainError(
                f"star decomposition escaped {J}; ideal is not strongly stable")
    return eta, cur


def borel_closure(J):
    """The ideal on every monomial that increasing moves reach from a generator."""
    seen = set(J.gens)
    frontier = list(J.gens)
    while frontier:
        nxt = []
        for m in frontier:
            for u in up_moves(m):
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    return MonomialIdeal(J.n, seen)


def _rank_is_marked_basis(G, T):
    """Reference marked-basis certificate by ranks of Macaulay matrices.

    Checks dim (G)_t = dim T_t for every t from the least head degree up to
    max(largest head degree, r) + 1, with r the Gotzmann number of the
    Hilbert polynomial of S/T; Gotzmann persistence makes this range a
    finite certificate for a strongly stable T.  It shares no code with the
    Eliahou-Kervaire reduction that is_marked_basis runs.
    """
    if not is_strongly_stable(T):
        raise MathDomainError(f"{T} is not strongly stable")
    G = list(G)
    heads = _heads_of_marked_set(G, T)
    if sorted(heads, key=lambda m: m.exps) != sorted(T.gens, key=lambda m: m.exps):
        raise MathDomainError("heads of the marked set do not form the basis of T")
    r = chart_constants(hilbert_polynomial(T), T.n).r
    return all(dimension_in_degree(G, t) == borel_dim_at(T, t)
               for t in range(T.min_gen_degree(), max(T.max_gen_degree(), r) + 2))


def macaulay_representation(c, t):
    """The k_i of c = C(k_t, t) + C(k_{t-1}, t-1) + ... + C(k_j, j).

    The unique representation with k_t > k_{t-1} > ... > k_j >= j >= 1,
    built greedily; returned as (i, k_i) pairs from i = t down.  Requires
    c >= 0 and t >= 1; c = 0 has the empty representation.
    """
    out = []
    i = t
    while c > 0:
        k = i
        while math.comb(k + 1, i) <= c:
            k += 1
        out.append((i, k))
        c -= math.comb(k, i)
        i -= 1
    return out


def certified_hilbert_polynomial(hf, t0, max_shift):
    """Reference Hilbert polynomial of S/I from its Hilbert function hf.

    I must be generated in degrees <= t0.  For t = t0, t0+1, ... the growth
    HF(t+1) is compared with Macaulay's bound HF(t)^<t> = sum C(k_i+1, i+1),
    where HF(t) = sum C(k_i, i) in degree t.  At the first t where the bound
    is reached, Gotzmann's persistence theorem gives HF(t+s) =
    sum C(k_i + s, i + s) for every s >= 0, so the Hilbert polynomial is
    sum_i C(u + k_i - t, k_i - i).  Each value of hf is computed once; at
    most max_shift degrees are tried before ScaleCapError.  It shares no
    code with the Hilbert series recursion of the package.
    """
    t = max(t0, 1)
    cur = hf(t)
    for _ in range(max_shift):
        nxt = hf(t + 1)
        rep = macaulay_representation(cur, t)
        if nxt == sum(math.comb(k + 1, i + 1) for i, k in rep):
            return sum((HilbertPoly.binomial_shift(k - i, k - t) for i, k in rep),
                       HilbertPoly())
        t, cur = t + 1, nxt
    raise ScaleCapError(
        f"Hilbert function reached no maximal growth within {max_shift} degrees")


def marked_set_from_ideal(gens, T):
    """Marked-set coordinates of an explicit ideal over the truncation T.

    Takes the marked slice of the ideal in each head degree t and keeps the
    marked polynomials of the generators of T.  Raises NotInChartError when
    some pivot falls outside T_t (the ideal is not in this chart) and
    MathDomainError when a slice's dimension differs from dim T_t.
    """
    out = {}
    for t in sorted({g.degree() for g in T.gens}):
        if gens and not any(f and f.degree <= t for f in gens):
            raise NotInChartError(f"ideal has no elements in degree {t}")
        out.update(marked_slice(gens, T, t))
    return [out[h] for h in T.gens]


@functools.lru_cache(maxsize=4)
def template_polys(tpl):
    """The forms F_a = x^a - sum f * x^g of a marked template, one XPoly per
    head in the template's order: -C[i,j] on each tail of the generic
    template, minus the number for an explicit marked set's factors.  The
    last few templates asked keep their forms, as the references ask again
    for every S-pair and every rewrite."""
    out = []
    for head, tail, factors in zip(tpl.heads, tpl.tails, tpl.factors):
        terms = [(g, -(ParamPoly.var(f) if type(f) is tuple else f))
                 for g, f in zip(tail, factors)]
        out.append(XPoly(tpl.ideal.n, [(head, 1)] + terms, head.degree()))
    return tuple(out)


def form_sum(*forms):
    """The sum of forms of one ambient and degree, through XPoly, which
    merges the terms it is given."""
    return XPoly(forms[0].n, [t for f in forms for t in f._terms.items()],
                 forms[0].degree)


def form_multiple(f, mon=None, c=1):
    """c * mon * f for a Monomial mon (None for 1) and a number or ParamPoly c,
    through XPoly."""
    shift = (0,) * (f.n + 1) if mon is None else mon.exps
    return XPoly(f.n, [(tuple(map(add, e, shift)), k * c) for e, k in f._terms.items()],
                 f.degree + sum(shift))


def specialize(f, assignment):
    """Evaluate every ParamPoly coefficient of the form f at the given
    C-assignment, dropping the coefficients that vanish."""
    out = {}
    for e, c in f._terms.items():
        if isinstance(c, ParamPoly):
            c = c.evaluate(assignment)
        if c:
            out[e] = c
    return XPoly._from_dict(f.n, out, f.degree)


def form_terms(h):
    """The terms of the form h as marked.reduce takes them: {exponents:
    {multi-index: number}}, a number on the empty multi-index."""
    return {e: dict(c._terms) if isinstance(c, ParamPoly) else {(): c}
            for e, c in h._terms.items()}


def reference_chart_records(c):
    """Chart records built the old way: saturate each chart, truncate it back.

    Each record's chart is truncate(sat, r) and its regularity comes from
    borel.regularity; the records are sorted on the saturations.
    """
    sats = sorted((saturate(J) for J in enumerate_borel_in_g(c.n, c.r, c.s)
                   if is_borel_chart(J, c)),
                  key=lambda sat: (sat.max_gen_degree(),
                                   tuple(canonical_key(g) for g in sat.gens)))
    return [BorelChartIdeal(chart=truncate(sat, c.r), saturation=sat,
                            regularity_sat=regularity(sat), rho=rho(sat))
            for sat in sats]


def record_fields(records):
    """The four fields of each chart record, in order, for field-by-field checks."""
    return [(ch.chart, ch.saturation, ch.regularity_sat, ch.rho) for ch in records]


# (n, Hilbert polynomial) families whose chart records are checked against
# reference_chart_records
CHART_FAMILIES = [(2, "4"), (2, "7"), (3, "3*t"), (3, "3*t+1"), (3, "2*t+2"),
                  (3, "4*t")]
