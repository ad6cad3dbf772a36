"""Marked templates over Borel ideals, their defining equations and the
marked-basis criterion.

A template over a strongly stable ideal T, for a chart the truncation
T = Jsat_{>=m}, consists of the polynomials

    F_a = x^a - sum_g C[i,j] * x^g,     x^a in B_T,  x^g in N(T)_{|a|},

with heads in the canonical order (degree ascending, degrevlex descending)
and tails in degrevlex-descending order, fixing the parameter indexing
(i = head position, j = tail position, both 1-based).  The number or
parameter by which a tail x^g enters is its factor: C[i,j] in the generic
template, and for an explicit marked set G over T, whose G_a has the same
heads and tails, minus G_a's coefficient of x^g.

The defining ideal of the chart is produced without any term order: each
Eliahou-Kervaire S-polynomial x_j*F_a - x^e*F_b (where x_j*x^a = x^e*x^b via
the star decomposition) is rewritten by repeatedly replacing its largest
monomial of T using star decompositions, until the support lies outside T;
the surviving coefficients in the parameters generate the ideal.  Each
rewriting step strictly decreases the minimal variable along a chain, which
bounds both the chain length and the coefficient degrees at single-degree
truncation levels.  The order of the rewrites does not change the normal
form: each monomial of T has one star decomposition, hence one rewrite, and
rewriting terminates, so the normal form of a sum is the sum of the normal
forms of its monomials.  The reduction runs on exponent tuples, with each
coefficient a plain dict from parameter multi-index to number; `reduce`
takes a form only in this shape, and caps its steps by a bound read off
its input.  A step multiplies the coefficient it rewrites by the factor of
each tail: a parameter C[i,j] enters each multi-index, a number multiplies
each value.
The S-polynomials start from the ints -1 and 1 times the factors, so the
equations keep int coefficients, wrapped as ParamPolys once, at the end.

A template is built from T alone and computes no Hilbert polynomial.  The
same reduction decides whether an explicit marked set G over T is a marked
basis (the Eliahou-Kervaire criterion): over G's own factors it rewrites
G's own S-polynomials x_j*G_a - x^e*G_b, with number coefficients, and G is
a basis exactly when each normal form is zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from math import comb
from operator import add

from .borel import (MonomialIdeal, is_strongly_stable, regularity, rho,
                    star_decompose, truncate)
from .errors import MathDomainError, ReductionCapError
from .hilbert import (ChartConstants, ambient_dimension, borel_dim_at,
                      borel_hp_degree, hilbert_polynomial,
                      require_admissible_degree)
from .ring import Monomial, ParamPoly, XPoly, _cmon_degree, _cmon_times


@dataclass(frozen=True)
class MarkedTemplate:
    """A marked set over a strongly stable ideal, by the factors of its tails:
    the generic template, or an explicit marked set G."""

    ideal: MonomialIdeal          # T, for a chart the truncation Jsat_{>=m}
    hp_degree: int                # degree of the Hilbert polynomial of S/T
    heads: tuple
    tails: tuple                  # tails[i] lists N(T)_{deg head_i}, descending
    factors: tuple                # factors[i][j]: the key (i+1, j+1) of C[i+1,j+1],
                                  # or for G minus its coefficient of tails[i][j]
    _members: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)
    _rewrites: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)

    @property
    def num_vars(self):
        return sum(len(t) for t in self.tails)

    @cached_property
    def head_index(self):
        """Position of each head in `heads`."""
        return {h: i for i, h in enumerate(self.heads)}

    @cached_property
    def _tail_factors(self):
        """Per head, (exponents of x^g, factor) for each tail x^g whose factor
        is not 0."""
        return tuple(tuple((g.exps, f) for g, f in zip(tail, factors) if f)
                     for tail, factors in zip(self.tails, self.factors))

    def members_at(self, d):
        """Exponent tuples of the degree-d monomials of T, the ideal's own set."""
        out = self._members.get(d)
        if out is None:
            out = self._members[d] = self.ideal._members_at(d)
        return out

    def _shifted_tails(self, head, shift):
        """(exponents of x^shift * x^g, factor) for each tail x^g of F_head
        whose factor is not 0."""
        return [(tuple(map(add, g, shift)), f)
                for g, f in self._tail_factors[self.head_index[head]]]

    def rewrite(self, exps):
        """(tails, inner) for the star decomposition x^eta * x^b of x^exps:
        tails the `_shifted_tails` of b by eta, inner the monomials among
        them that lie in T; memoized per exps."""
        out = self._rewrites.get(exps)
        if out is None:
            eta, beta = star_decompose(Monomial._from_exps(exps), self.ideal)
            tails = self._shifted_tails(beta, eta.exps)
            members = self.members_at(sum(exps))
            out = self._rewrites[exps] = (tails, [mon for mon, _ in tails
                                                  if mon in members])
        return out


@lru_cache(maxsize=1)
def _validate_saturated_borel(Jsat):
    """Jsat is Borel, not the unit ideal, and saturated: no generator has x_0.

    The last ideal that passed is remembered, so the levels asked of one
    saturation (an atlas asks three embedding dimensions per chart, then
    its equations) check it once; a failing ideal raises on every call,
    since exceptions are not cached.
    """
    if not is_strongly_stable(Jsat):
        raise MathDomainError(f"{Jsat} is not strongly stable")
    if any(g.exps[0] for g in Jsat.gens):
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
    return _template_over(truncate(Jsat, m))


def _template_over(T: MonomialIdeal) -> MarkedTemplate:
    """Generic marked set over any strongly stable T: one head per generator,
    whatever its degree, with the tail N(T) in that degree.

    The Hilbert polynomial's degree is read off T's pure powers
    (hilbert.borel_hp_degree) after the tails are listed.
    """
    heads = tuple(T.gens)
    outside = {d: tuple(T.sous_escalier_at(d)) for d in {h.degree() for h in heads}}
    tails = tuple(outside[h.degree()] for h in heads)
    return MarkedTemplate(
        ideal=T, hp_degree=max(borel_hp_degree(T), 0), heads=heads, tails=tails,
        factors=tuple(tuple((i, j) for j in range(1, len(tail) + 1))
                      for i, tail in enumerate(tails, start=1)))


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
    decompositions = {}       # x_j * x^alpha repeats across generators
    for alpha in T.gens:
        for j in range(alpha.min_var() + 1, n + 1):
            gamma = alpha * Monomial.variable(n, j)
            found = decompositions.get(gamma)
            if found is None:
                found = decompositions[gamma] = star_decompose(gamma, T)
            eta, beta = found
            pairs.append(SPair(alpha=alpha, var=j, beta=beta, eta=eta))
    if T.generated_in_single_degree() and not T.is_zero():
        m = T.gens[0].degree()
        expected = len(T.gens) * (n + 1) - borel_dim_at(T, m + 1)
        if len(pairs) != expected:
            raise MathDomainError(
                f"S-pair count {len(pairs)} disagrees with syzygy count {expected}")
    return pairs


def _spair_terms(pair: SPair, tpl: MarkedTemplate):
    """x_j * F_a - x^eta * F_b as {exponents: {multi-index: number}}: the heads
    cancel, leaving -f[a,k] * x_j * x^g_k + f[b,l] * x^eta * x^g_l for the
    factors f.  For the generic template each coefficient holds -1 or 1 on
    one multi-index per tail; a != b (j > min(a)), so none repeats."""
    x_j = tuple(int(k == pair.var) for k in range(tpl.ideal.n + 1))
    acc = {}
    _add_times(acc, (((), -1),), tpl._shifted_tails(pair.alpha, x_j))
    _add_times(acc, (((), 1),), tpl._shifted_tails(pair.beta, pair.eta.exps))
    return acc


@dataclass(frozen=True)
class ReductionResult:
    poly: XPoly
    steps: int
    max_chain: int


def reduce(h, tpl: MarkedTemplate) -> ReductionResult:
    """Normal form of h against the template: support ends up outside T.

    h is a form's terms as plain dicts {exponents: {multi-index: number}},
    as `_spair_terms` builds an S-polynomial.  `_rewrite` rewrites h in
    place; its degree is read off its monomials (0 when it is empty).  The
    step cap that `_rewrite` derives from h guards the Noetherianity
    argument, and hitting it is an error, never a silent truncation.
    max_chain records the longest cascade of rewrites in which each reduced
    monomial was introduced by the previous step.

    Each coefficient dict is wrapped as a ParamPoly, and the whole as an
    XPoly, as they stand, unsorted.
    """
    degree = sum(next(iter(h), ()))
    steps, max_chain = _rewrite(h, tpl, degree)
    poly = XPoly._from_dict(tpl.ideal.n, {e: ParamPoly._from_dict(c) for e, c in h.items()},
                            degree)
    return ReductionResult(poly=poly, steps=steps, max_chain=max_chain)


def _rewrite(acc, tpl: MarkedTemplate, degree):
    """Rewrite the form acc {exponents: {multi-index: number}} of the given
    degree in place until its support lies outside T; returns (steps, max_chain).

    Repeatedly takes the degrevlex-largest monomial of T in the support,
    star-decomposes it as x^e * x^b, and subtracts c * x^e * F_b; any other
    order gives the same normal form (see the module docstring).  The head
    cancels, so the step adds c times the factor of each tail to the
    coefficient of the shifted tail (`_add_times`).  Membership in T and
    star decompositions are looked up on the template.  The cap is
    10 * (hp_degree + 2) steps per term of acc.
    """
    if not acc:  # nothing to rewrite, and no members of T to list
        return 0, 0
    cap = 10 * (tpl.hp_degree + 2) * len(acc)
    members = tpl.members_at(degree)
    inside = {e for e in acc if e in members}
    depth = dict.fromkeys(inside, 1)
    steps = 0
    max_chain = 0
    while inside:
        target = min(inside)
        steps += 1
        if steps > cap:
            raise ReductionCapError(
                f"reduction exceeded {cap} steps; precondition violated")
        level = depth[target]
        max_chain = max(max_chain, level)
        inside.discard(target)
        tails, inner = tpl.rewrite(target)
        _add_times(acc, acc.pop(target).items(), tails)
        for mon in inner:
            if depth.get(mon, 0) <= level:
                depth[mon] = level + 1
            if mon in acc:
                inside.add(mon)
            else:
                inside.discard(mon)
    return steps, max_chain


def _add_times(acc, c, tails):
    """acc += c * f * x^mon for each (mon, f) of tails, in place.

    c holds a coefficient's (multi-index, value) pairs.  acc maps exponent
    tuples to coefficient dicts {multi-index: nonzero value}; a missing one
    starts empty.  A parameter factor, a key (i, j), enters each multi-index
    of c through `ring._cmon_times`; a number multiplies each value.  Zero
    values and empty coefficients are dropped.
    """
    for mon, f in tails:
        d = acc.get(mon)
        if d is None:
            d = acc[mon] = {}
        param = type(f) is tuple
        for cm, v in c:
            if param:
                cm = _cmon_times(cm, f)
            else:
                v = f * v
            prev = d.get(cm)
            if prev is not None:
                v += prev
            if v:
                d[cm] = v
            else:
                del d[cm]
        if not d:
            del acc[mon]


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


def scheme_equations(Jsat: MonomialIdeal, m: int) -> SchemeIdeal:
    """Defining ideal of the marked scheme of Jsat_{>=m}.

    Reduces every Eliahou-Kervaire S-polynomial to its normal form and
    collects the parameter coefficients of the residual monomials (all of
    which lie outside the truncation); zero and repeated coefficients are
    dropped.  For m >= reg(Jsat) the output satisfies the advertised bounds:
    at most (q(m)(n+1) - q(m+1)) * p(m+1) generators of degree <= d + 2.
    """
    tpl = template(Jsat, m)
    pairs = ek_spairs(tpl.ideal)
    results = [reduce(_spair_terms(pair, tpl), tpl) for pair in pairs]

    # first occurrences in S-pair order, each normal form walked in ascending
    # exponent order (the order of `.terms`); each coefficient is hashed once.
    # reduce wraps each coefficient of an S-pair's normal form as a ParamPoly
    # with int values, and drops zeros.
    gens = list(dict.fromkeys(c for res in results
                              for _, c in sorted(res.poly._terms.items())))
    max_chain = max((res.max_chain for res in results), default=0)

    bound_count = bound_degree = None
    if m >= regularity(Jsat):
        bound_count, bound_degree = bounds(Jsat, m)
    return SchemeIdeal(
        ideal=tpl.ideal, saturation=Jsat, m=m, num_vars=tpl.num_vars,
        generators=tuple(gens),
        max_degree=max(map(_cmon_degree, (cm for g in gens for cm in g._terms)),
                       default=0),
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
# Marked-basis criterion and chart coordinates of explicit ideals
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


def is_marked_basis(G, T: MonomialIdeal) -> bool:
    """Whether the quotient by (G) is free on N(T): G is a marked basis.

    T must be strongly stable, of any head degrees, not necessarily
    saturated or a truncation, and its Hilbert polynomial admissible; G must
    have scalar coefficients.  By the Eliahou-Kervaire criterion G is a
    marked basis exactly when every S-polynomial x_j*G_a - x^e*G_b of G
    reduces to 0.  The template over T with G's own numbers as its factors
    builds each of them and rewrites it (`_spair_terms`, `_rewrite`); a
    tail whose factor is 0 is never visited.  The first S-pair whose normal
    form is nonzero ends the check.  The admissibility check computes the
    one Hilbert polynomial; the template needs none.
    """
    if not is_strongly_stable(T):
        raise MathDomainError(f"{T} is not strongly stable")
    G = list(G)
    heads = _heads_of_marked_set(G, T)
    if sorted(heads, key=lambda m: m.exps) != sorted(T.gens, key=lambda m: m.exps):
        raise MathDomainError("heads of the marked set do not form the basis of T")
    require_admissible_degree(hilbert_polynomial(T), T.n)
    if not all(f.is_scalar() for f in G):
        raise MathDomainError("coefficient matrix needs scalar coefficients")
    tpl = _template_over(T)
    by_head = dict(zip(heads, G))
    tpl = replace(tpl, factors=tuple(tuple(-by_head[h].coefficient(g) for g in tail)
                                     for h, tail in zip(tpl.heads, tpl.tails)))
    for pair in ek_spairs(T):
        acc = _spair_terms(pair, tpl)
        _rewrite(acc, tpl, pair.alpha.degree() + 1)
        if acc:
            return False
    return True


def assignment_from_marked_set(G, tpl: MarkedTemplate):
    """Read template-parameter values off a specialized marked set."""
    values = {}
    by_head = dict(zip(_heads_of_marked_set(G, tpl.ideal), G))
    for i, (head, tail) in enumerate(zip(tpl.heads, tpl.tails), start=1):
        f = by_head[head]
        for j, mon in enumerate(tail, start=1):
            values[(i, j)] = -f.coefficient(mon)
    return values
