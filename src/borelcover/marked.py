"""Marked templates over Borel truncations and their defining equations.

A template over a truncation T = Jsat_{>=m} consists of the polynomials

    F_a = x^a - sum_g C[i,j] * x^g,     x^a in B_T,  x^g in N(T)_{|a|},

with heads in the canonical order (degree ascending, degrevlex descending)
and tails in degrevlex-descending order, fixing the parameter indexing
(i = head position, j = tail position, both 1-based).

The defining ideal of the chart is produced without any term order: each
Eliahou-Kervaire S-polynomial x_j*F_a - x^e*F_b (where x_j*x^a = x^e*x^b via
the star decomposition) is rewritten by repeatedly replacing its largest
monomial of T using star decompositions, until the support lies outside T;
the surviving coefficients in the parameters generate the ideal.  Each
rewriting step strictly decreases the minimal variable along a chain, which
bounds both the chain length and the coefficient degrees at single-degree
truncation levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb

from .borel import (MonomialIdeal, is_strongly_stable, regularity, rho,
                    saturate, star_decompose, truncate)
from .chart import dimension_in_degree, marked_slice, span_in_degree
from .errors import MathDomainError, NotInChartError, ReductionCapError
from .hilbert import (ChartConstants, ambient_dimension, borel_dim_at,
                      chart_constants, hilbert_polynomial)
from .ring import Monomial, ParamPoly, XPoly, specialize


@dataclass(frozen=True)
class MarkedTemplate:
    """The generic marked set over a Borel truncation."""

    ideal: MonomialIdeal          # the truncation T = Jsat_{>=m}
    saturation: MonomialIdeal
    m: int
    hp_degree: int                # degree of the Hilbert polynomial of S/Jsat
    heads: tuple
    tails: tuple                  # tails[i] lists N(T)_{deg head_i}, descending
    polys: tuple                  # polys[i] = F_{heads[i]}

    @property
    def num_vars(self):
        return sum(len(t) for t in self.tails)

    def variables(self):
        """Parameter keys (i, j) in canonical order."""
        out = []
        for i, tail in enumerate(self.tails, start=1):
            out.extend((i, j) for j in range(1, len(tail) + 1))
        return out

    @cached_property
    def head_index(self):
        """Position of each head in `heads`."""
        return {h: i for i, h in enumerate(self.heads)}

    def poly_for(self, head):
        i = self.head_index.get(head)
        if i is None:
            raise MathDomainError(f"{head} is not a head of this template")
        return self.polys[i]


def _validate_saturated_borel(Jsat):
    if not is_strongly_stable(Jsat):
        raise MathDomainError(f"{Jsat} is not strongly stable")
    if saturate(Jsat) != Jsat:
        raise MathDomainError(f"{Jsat} is not saturated")
    if Jsat.contains_one():
        raise MathDomainError("the unit ideal has no Hilbert polynomial")


def _validate_level(Jsat, m):
    """Preconditions shared by template and embedding_dimension.

    Jsat is saturated and Borel, and m >= rho - 1 unless the truncation at m
    leaves Jsat unchanged, which happens exactly when no generator has degree
    below m.
    """
    _validate_saturated_borel(Jsat)
    if m < 0:
        raise MathDomainError("truncation level must be non-negative")
    if m < rho(Jsat) - 1 and m > Jsat.min_gen_degree():
        raise MathDomainError(
            f"truncation level {m} is below rho-1 = {rho(Jsat) - 1} and changes the ideal")


def template(Jsat: MonomialIdeal, m: int) -> MarkedTemplate:
    """Generic marked set over Jsat_{>=m}.

    Valid for m >= rho - 1, and also below that when the truncation does not
    differ from the saturation (the template is then the same object).
    """
    _validate_level(Jsat, m)
    T = truncate(Jsat, m)
    heads = T.gens
    outside = {d: T.sous_escalier_at(d) for d in {h.degree() for h in heads}}
    tails = []
    polys = []
    for i, head in enumerate(heads, start=1):
        tail = outside[head.degree()]
        terms = [(head, Fraction(1))]
        terms.extend((g, -ParamPoly.var((i, j)))
                     for j, g in enumerate(tail, start=1))
        tails.append(tuple(tail))
        polys.append(XPoly(Jsat.n, terms, head.degree()))
    d = hilbert_polynomial(Jsat).degree()
    return MarkedTemplate(ideal=T, saturation=Jsat, m=m, hp_degree=max(d, 0),
                          heads=tuple(heads), tails=tuple(tails),
                          polys=tuple(polys))


def specialize_template(tpl: MarkedTemplate, assignment):
    """Marked set over Q obtained by evaluating every parameter."""
    return [specialize(f, assignment) for f in tpl.polys]


def zero_assignment(tpl: MarkedTemplate):
    return {v: Fraction(0) for v in tpl.variables()}


@dataclass(frozen=True)
class SPair:
    """Eliahou-Kervaire syzygy datum: x_j * x^alpha = x^eta * x^beta."""

    alpha: Monomial
    var: int
    beta: Monomial
    eta: Monomial


def ek_spairs(T: MonomialIdeal):
    """One S-pair per (generator, variable above its minimum).

    For a truncation generated in a single degree m this produces exactly
    q(m)*(n+1) - q(m+1) pairs, the count of the Eliahou-Kervaire syzygies.
    """
    if not is_strongly_stable(T):
        raise MathDomainError(f"{T} is not strongly stable")
    n = T.n
    pairs = []
    for alpha in T.gens:
        for j in range(alpha.min_var() + 1, n + 1):
            gamma = alpha * Monomial.variable(n, j)
            eta, beta = star_decompose(gamma, T)
            pairs.append(SPair(alpha=alpha, var=j, beta=beta, eta=eta))
    if T.generated_in_single_degree() and not T.is_zero():
        m = T.gens[0].degree()
        expected = len(T.gens) * (n + 1) - T.dim_at(m + 1)
        if len(pairs) != expected:
            raise MathDomainError(
                f"S-pair count {len(pairs)} disagrees with syzygy count {expected}")
    return pairs


def spair_polynomial(pair: SPair, tpl: MarkedTemplate) -> XPoly:
    n = tpl.ideal.n
    f_a = tpl.poly_for(pair.alpha).times_monomial(Monomial.variable(n, pair.var))
    f_b = tpl.poly_for(pair.beta).times_monomial(pair.eta)
    return f_a - f_b


@dataclass(frozen=True)
class ReductionResult:
    poly: XPoly
    steps: int
    max_chain: int


def reduce(h: XPoly, tpl: MarkedTemplate, strategy="largest",
           step_cap=None) -> ReductionResult:
    """Normal form of h against the template: support ends up outside T.

    Repeatedly picks the degrevlex-largest (or smallest) monomial of T in the
    support, star-decomposes it as x^e * x^b, and subtracts coeff * x^e * F_b.
    The step cap guards the Noetherianity argument; hitting it is an error,
    never a silent truncation.  max_chain records the longest cascade of
    rewrites in which each reduced monomial was introduced by the previous
    step.
    """
    if strategy not in ("largest", "smallest"):
        raise MathDomainError(f"unknown reduction strategy {strategy!r}")
    T = tpl.ideal
    if step_cap is None:
        step_cap = 10 * (tpl.hp_degree + 2) * max(len(h.terms), 1)
    depth = {}
    for mon, _ in h.terms:
        if T.contains(mon):
            depth[mon] = 1
    steps = 0
    max_chain = 0
    while True:
        target = None
        terms = h.terms if strategy == "largest" else tuple(reversed(h.terms))
        for mon, coeff in terms:
            if T.contains(mon):
                target, c = mon, coeff
                break
        if target is None:
            return ReductionResult(poly=h, steps=steps, max_chain=max_chain)
        steps += 1
        if steps > step_cap:
            raise ReductionCapError(
                f"reduction exceeded {step_cap} steps; precondition violated")
        level = depth.get(target, 1)
        max_chain = max(max_chain, level)
        eta, beta = star_decompose(target, T)
        i = tpl.head_index[beta]
        h = h - tpl.polys[i].times_monomial(eta).scale(c)
        for tail in tpl.tails[i]:
            new_mon = tail * eta
            if T.contains(new_mon):
                depth[new_mon] = max(depth.get(new_mon, 0), level + 1)


@dataclass(frozen=True)
class SchemeIdeal:
    """Generators of the chart's defining ideal in the parameter ring."""

    ideal: MonomialIdeal          # the truncation the template was built on
    saturation: MonomialIdeal
    m: int
    num_vars: int
    generators: tuple             # ParamPoly, canonical S-pair order
    max_degree: int
    bound_count: int | None       # only when m >= reg(saturation)
    bound_degree: int | None
    spair_count: int
    max_chain: int


def scheme_equations(Jsat: MonomialIdeal, m: int, strategy="largest",
                     step_cap=None) -> SchemeIdeal:
    """Defining ideal of the marked scheme of Jsat_{>=m}.

    Reduces every Eliahou-Kervaire S-polynomial to its normal form and
    collects the parameter coefficients of the residual monomials (all of
    which lie outside the truncation); zero and repeated coefficients are
    dropped.  For m >= reg(Jsat) the output satisfies the advertised bounds:
    at most (q(m)(n+1) - q(m+1)) * p(m+1) generators of degree <= d + 2.
    """
    tpl = template(Jsat, m)
    pairs = ek_spairs(tpl.ideal)
    results = [reduce(spair_polynomial(pair, tpl), tpl, strategy, step_cap)
               for pair in pairs]

    gens = []
    seen = set()
    max_chain = 0
    for res in results:
        max_chain = max(max_chain, res.max_chain)
        for _, coeff in res.poly.terms:
            if isinstance(coeff, Fraction):
                coeff = ParamPoly.const(coeff)
            if coeff and coeff not in seen:
                seen.add(coeff)
                gens.append(coeff)

    bound_count = bound_degree = None
    if m >= regularity(Jsat):
        bound_count, bound_degree = bounds(Jsat, m)
    return SchemeIdeal(
        ideal=tpl.ideal, saturation=Jsat, m=m, num_vars=tpl.num_vars,
        generators=tuple(gens),
        max_degree=max((g.degree() for g in gens), default=0),
        bound_count=bound_count, bound_degree=bound_degree,
        spair_count=len(pairs), max_chain=max_chain)


def embedding_dimension(Jsat: MonomialIdeal, m: int) -> int:
    """Number of parameters of the template over Jsat_{>=m}, without building it.

    A head h carries one parameter per degree-|h| monomial outside the
    truncation, N(|h|) - dim Jsat_{|h|} of them.  The heads are the
    dim Jsat_m monomials of degree m and the generators of Jsat above
    degree m; every dimension comes from the Eliahou-Kervaire count.
    """
    _validate_level(Jsat, m)
    n = Jsat.n

    def outside(d):
        return ambient_dimension(n, d) - borel_dim_at(Jsat, d)

    return (borel_dim_at(Jsat, m) * outside(m)
            + sum(outside(g.degree()) for g in Jsat.gens if g.degree() > m))


def bounds(Jsat: MonomialIdeal, m: int):
    """(max generator count, max degree) of the defining ideal, for m >= reg."""
    _validate_saturated_borel(Jsat)
    r_prime = regularity(Jsat)
    if m < r_prime:
        raise MathDomainError(
            f"no degree bound below the saturated regularity {r_prime}")
    p = hilbert_polynomial(Jsat)
    n = Jsat.n
    d = max(p.degree(), 0)

    def q(t):
        return ambient_dimension(n, t) - p.evaluate(t)

    return (q(m) * (n + 1) - q(m + 1)) * p.evaluate(m + 1), d + 2


def naive_minor_count(constants: ChartConstants) -> int:
    """Number of maximal minors the rank condition at degree r+1 would need.

    This is the cost the marked reduction avoids: all (s'+1)-minors of the
    ((n+1)s) x N(r+1) coefficient matrix.
    """
    rows = (constants.n + 1) * constants.s
    cols = ambient_dimension(constants.n, constants.r + 1)
    k = constants.s_prime + 1
    return comb(rows, k) * comb(cols, k)


# ---------------------------------------------------------------------------
# Marked-basis certificate and chart coordinates of explicit ideals
# ---------------------------------------------------------------------------

def _heads_of_marked_set(G, T):
    heads = []
    for f in G:
        inside = [(mon, c) for mon, c in f.terms if T.contains(mon)]
        if len(inside) != 1:
            raise MathDomainError(
                f"not a marked set: {f} meets the ideal in {len(inside)} monomials")
        mon, c = inside[0]
        if c != 1:
            raise MathDomainError(f"head of {f} is not monic")
        heads.append(mon)
    return heads


def is_marked_basis(G, T: MonomialIdeal, constants: ChartConstants | None = None) -> bool:
    """Linear-algebra certificate that the quotient by (G) is free on N(T).

    Checks dim (G)_t = dim T_t for every t from the least head degree up to
    r + 1, with r the Gotzmann number of the chart's Hilbert polynomial;
    Gotzmann persistence makes this range a finite certificate.
    """
    G = list(G)
    heads = _heads_of_marked_set(G, T)
    if sorted(heads, key=lambda m: m.exps) != sorted(T.gens, key=lambda m: m.exps):
        raise MathDomainError("heads of the marked set do not form the basis of T")
    if constants is None:
        constants = chart_constants(hilbert_polynomial(T), T.n)
    lo = T.min_gen_degree()
    return all(dimension_in_degree(G, t) == T.dim_at(t)
               for t in range(lo, constants.r + 2))


def marked_set_from_ideal(gens, T: MonomialIdeal):
    """Marked-set coordinates of an explicit ideal over the truncation T.

    Takes the marked slice of the ideal in each head degree t and keeps the
    marked polynomials of the generators of T.  Raises NotInChartError when
    some pivot falls outside T_t (the ideal is not in this chart) and
    MathDomainError when a slice's dimension differs from dim T_t.
    """
    out = {}
    for t in sorted({g.degree() for g in T.gens}):
        forms = span_in_degree(gens, t)
        if not forms:
            raise NotInChartError(f"ideal has no elements in degree {t}")
        out.update(marked_slice(forms, T, t))
    return [out[h] for h in T.gens]


def assignment_from_marked_set(G, tpl: MarkedTemplate):
    """Read template-parameter values off a specialized marked set."""
    values = {}
    by_head = dict(zip(_heads_of_marked_set(G, tpl.ideal), G))
    for i, (head, tail) in enumerate(zip(tpl.heads, tpl.tails), start=1):
        f = by_head[head]
        lookup = dict(f.terms)
        for j, mon in enumerate(tail, start=1):
            values[(i, j)] = -lookup.get(mon, Fraction(0))
    return values
