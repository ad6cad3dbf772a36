"""Correctness checks that do not reuse the program's algorithms.

Every function here returns a list of problems (empty when the output is
right).  The checks recompute what they need from first principles: monomial
counts by the Eliahou-Kervaire formula, Borel closure by partial sums, ranks
and determinants modulo a large prime, and reduced Groebner bases with sympy.
They read the program's output objects but call none of its algorithms,
except where a check needs the equations of a chart to evaluate them.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

PRIME = (1 << 61) - 1


# ---------------------------------------------------------------------------
# Monomials as exponent tuples (e_0, ..., e_n), x_n the largest variable
# ---------------------------------------------------------------------------

def exponents_of_degree(n, d):
    """All exponent tuples of total degree d in n + 1 variables."""
    if n == 0:
        return [(d,)]
    return [(e,) + rest for e in range(d + 1)
            for rest in exponents_of_degree(n - 1, d - e)]


def ambient(n, t):
    return comb(t + n, n) if t >= 0 else 0


def min_var(exps):
    return next(i for i, e in enumerate(exps) if e)


def divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def ek_dim(gens, t):
    """dim J_t of a strongly stable ideal from its minimal generators.

    Eliahou-Kervaire: every monomial of J is uniquely x^eta * g with g a
    generator and eta in the variables x_0 .. x_min(g).
    """
    total = 0
    for g in gens:
        d = sum(g)
        if d <= t:
            k = min_var(g)
            total += comb(t - d + k, k)
    return total


def top_partial_sums(exps):
    out, acc = [], 0
    for e in reversed(exps):
        acc += e
        out.append(acc)
    return tuple(out)


def is_borel_up_set(gens, n, r):
    """Partial-sum test: the degree-r generators are closed under Borel moves.

    b lies above a in the Borel order when every top partial sum of b is at
    least that of a; a Borel ideal generated in degree r has no monomial
    outside it lying above one of its generators.
    """
    inside = set(gens)
    outside = [top_partial_sums(m) for m in exponents_of_degree(n, r)
               if m not in inside]
    for g in gens:
        pg = top_partial_sums(g)
        for pm in outside:
            if all(x >= y for x, y in zip(pm, pg)):
                return False
    return True


def borel_down_sets(n, r, size):
    """Every set of `size` degree-r monomials closed under going down in the
    partial-sum order; their complements are the Borel generator sets."""
    mons = exponents_of_degree(n, r)
    sums = {m: top_partial_sums(m) for m in mons}
    below = {m: frozenset(a for a in mons if a != m and
                          all(x <= y for x, y in zip(sums[a], sums[m])))
             for m in mons}
    level = {frozenset()}
    for _ in range(size):
        level = {D | {m} for D in level for m in mons
                 if m not in D and below[m] <= D}
    return level


def exps_of_ideal(J):
    return [g.exps for g in J.gens]


# ---------------------------------------------------------------------------
# Linear algebra modulo PRIME
# ---------------------------------------------------------------------------

def mod_p(x):
    x = Fraction(x)
    return x.numerator * pow(x.denominator, -1, PRIME) % PRIME


def sparse_rank_mod_p(rows):
    """Rank over F_p of rows given as {column: value} dicts.

    A rank modulo p never exceeds the rank over Q, so a check that needs a
    lower bound on the rational rank may use it.
    """
    pivots = {}
    rank = 0
    for row in rows:
        row = {c: v % PRIME for c, v in row.items() if v % PRIME}
        while row:
            c = min(row)
            if c not in pivots:
                inv = pow(row[c], -1, PRIME)
                pivots[c] = {k: v * inv % PRIME for k, v in row.items()}
                rank += 1
                break
            f = row[c]
            for k, v in pivots[c].items():
                nv = (row.get(k, 0) - f * v) % PRIME
                if nv:
                    row[k] = nv
                else:
                    row.pop(k, None)
    return rank


def det_nonzero_mod_p(matrix):
    """True when the determinant is nonzero modulo p (hence nonzero over Q)."""
    M = [[mod_p(x) for x in row] for row in matrix]
    size = len(M)
    for c in range(size):
        piv = next((i for i in range(c, size) if M[i][c]), None)
        if piv is None:
            return False
        M[c], M[piv] = M[piv], M[c]
        inv = pow(M[c][c], -1, PRIME)
        for i in range(c + 1, size):
            f = M[i][c] * inv % PRIME
            if f:
                M[i] = [(a - f * b) % PRIME for a, b in zip(M[i], M[c])]
    return True


# ---------------------------------------------------------------------------
# cover: Borel ideals of the Grassmannian split by Hilbert polynomial
# ---------------------------------------------------------------------------

def check_atlas(atlas, n, hp):
    """hp is (a, b) for the Hilbert polynomial a*t + b."""
    problems = []
    c = atlas.constants
    r, s = c.r, c.s

    def p(t):
        return hp[0] * t + hp[1]

    if s != ambient(n, r) - p(r):
        problems.append(f"s = {s} but N({r}) - p({r}) = {ambient(n, r) - p(r)}")
    ideals = [(entry.chart.chart, None) for entry in atlas.charts]
    ideals += list(atlas.empty_charts)
    everything = frozenset(exponents_of_degree(n, r))
    borel = sorted(tuple(sorted(everything - D))
                   for D in borel_down_sets(n, r, len(everything) - s))
    listed = sorted(tuple(sorted(exps_of_ideal(J))) for J, _ in ideals)
    if listed != borel:
        problems.append(f"{len(listed)} ideals listed, but G(s, S_r) has "
                        f"{len(borel)} Borel points")
    persistent = set()
    for J, quotient in ideals:
        gens = exps_of_ideal(J)
        key = tuple(sorted(gens))
        if len(gens) != s or any(sum(g) != r for g in gens):
            problems.append(f"{J} is not {s} generators of degree {r}")
            continue
        if not is_borel_up_set(gens, n, r):
            problems.append(f"{J} fails the partial-sum Borel test")
            continue
        for t in range(r, r + n + 2):
            want = ambient(n, t) - ek_dim(gens, t)
            got = p(t) if quotient is None else quotient.evaluate(t)
            if got != want:
                problems.append(f"{J}: quotient polynomial {got} at t={t}, "
                                f"Eliahou-Kervaire count {want}")
                break
        products = {tuple(e + (k == i) for k, e in enumerate(g))
                    for g in gens for i in range(n + 1)}
        if len(products) == ambient(n, r + 1) - p(r + 1):
            persistent.add(key)
    charts = {tuple(sorted(exps_of_ideal(e.chart.chart))) for e in atlas.charts}
    if charts != persistent:
        problems.append(f"{len(charts)} charts but {len(persistent)} Borel ideals "
                        "pass Gotzmann persistence")
    return problems


# ---------------------------------------------------------------------------
# equations: marked-scheme equations of a chart
# ---------------------------------------------------------------------------

def check_scheme_ideal(S, hilb_dim):
    """Counts, origin and tangent space of scheme_equations(Jsat, m), m >= reg.

    hilb_dim is the dimension of the Hilbert scheme at the chart's origin.
    """
    problems = []
    sat = exps_of_ideal(S.saturation)
    n = S.saturation.n
    m = S.m
    if m < max(sum(g) for g in sat):
        return [f"truncation level {m} is below the regularity"]

    def q(t):  # dim of the truncation in degree t >= m
        return ek_dim(sat, t)

    def p(t):
        return ambient(n, t) - q(t)

    spairs = q(m) * (n + 1) - q(m + 1)
    if S.spair_count != spairs:
        problems.append(f"{S.spair_count} S-pairs, syzygy count {spairs}")
    if S.num_vars != q(m) * p(m):
        problems.append(f"{S.num_vars} parameters, expected q(m)p(m) = {q(m) * p(m)}")
    bound = spairs * p(m + 1)
    if len(S.generators) != bound:
        problems.append(f"{len(S.generators)} generators, expected {bound}")
    degrees = [max(sum(e for _, e in cm) for cm, _ in g.terms) for g in S.generators]
    if degrees and max(degrees) > hp_degree(n, sat, m) + 2:
        problems.append(f"generator of degree {max(degrees)} exceeds deg p + 2")
    return problems + check_origin(S.generators, S.num_vars, hilb_dim)


def check_origin(generators, num_vars, hilb_dim):
    """No constant terms, and a tangent space at the origin of dimension hilb_dim.

    A rank modulo p is at most the rational rank, and the rational rank is at
    most num_vars - hilb_dim because the tangent space is at least as large
    as the scheme; so equality modulo p proves the rational rank.
    """
    problems = []
    index = {}
    rows = []
    for g in generators:
        row = {}
        for cm, coeff in g.terms:
            if not cm:
                problems.append(f"generator {g} has a constant term")
                break
            if len(cm) == 1 and cm[0][1] == 1:
                col = index.setdefault(cm[0][0], len(index))
                row[col] = mod_p(coeff)
        rows.append(row)
    rank = sparse_rank_mod_p(rows)
    if rank != num_vars - hilb_dim:
        problems.append(f"linear parts have rank {rank}, expected "
                        f"{num_vars} - {hilb_dim}")
    return problems


def hp_degree(n, sat, m):
    """Degree of the Hilbert polynomial of S/Jsat, by finite differences."""
    values = [ambient(n, t) - ek_dim(sat, t) for t in range(m, m + n + 3)]
    degree = 0
    while len(set(values)) > 1:
        values = [b - a for a, b in zip(values, values[1:])]
        degree += 1
    return degree


# ---------------------------------------------------------------------------
# locate: an ideal placed in a Borel chart
# ---------------------------------------------------------------------------

def evaluate_param(poly, values):
    total = Fraction(0)
    for cm, coeff in poly.terms:
        term = Fraction(coeff)
        for var, e in cm:
            term *= values[var] ** e
        total += term
    return total


def check_located(found, expected_hp, equations_of):
    """found: dict with 'result', 'transformed', 'point', 'in_hilb'.

    expected_hp(t) gives the Bezout value; equations_of(sat, r) returns the
    chart's SchemeIdeal and MarkedTemplate.
    """
    problems = []
    res = found["result"]
    c = res.constants
    n = c.n
    for t in range(0, n + 2):
        if c.p.evaluate(t) != expected_hp(t):
            problems.append(f"Hilbert polynomial {c.p} at t={t} is not the "
                            f"Bezout value {expected_hp(t)}")
            break
    chart = exps_of_ideal(res.chart.chart)
    position = {g: i for i, g in enumerate(chart)}
    sub = []
    for f in found["transformed"]:
        row = [0] * len(chart)
        for mon, coeff in f.terms:
            if mon.exps in position:
                row[position[mon.exps]] = coeff
        sub.append(row)
    if len(sub) != len(chart) or not det_nonzero_mod_p(sub):
        problems.append("Pluecker coordinate of the chart vanishes")
    if found["in_hilb"] is not True:
        problems.append("in_hilb is not true")
    point = found["point"]
    values = {}
    equations, tpl = equations_of(res.chart.saturation, c.r)
    heads = [h.exps for h in tpl.heads]
    if len(point.marked_set) != len(chart):
        problems.append("marked set has the wrong size")
        return problems
    for i, (head, f) in enumerate(zip(chart, point.marked_set)):
        inside = [(mon.exps, coeff) for mon, coeff in f.terms
                  if any(divides(g, mon.exps) for g in chart)]
        if inside != [(head, 1)]:
            problems.append(f"marked polynomial {f} is not headed by its generator")
            return problems
        if heads[i] != head:
            problems.append("template heads differ from the chart generators")
            return problems
        lookup = {mon.exps: coeff for mon, coeff in f.terms}
        for j, mon in enumerate(tpl.tails[i], start=1):
            values[(i + 1, j)] = -lookup.get(mon.exps, Fraction(0))
    for g in equations.generators:
        if evaluate_param(g, values) != 0:
            problems.append("marked set does not satisfy the chart equations")
            break
    return problems


def complete_intersection_dim(n, degrees, t):
    """dim (f1, f2)_t for a complete intersection of two forms."""
    d1, d2 = degrees
    return ambient(n, t - d1) + ambient(n, t - d2) - ambient(n, t - d1 - d2)


def is_complete_intersection(forms, n):
    """Two forms meet properly: their degree-(d1+d2) span has full dimension.

    The Koszul relation bounds the rational dimension from above by the
    complete-intersection value, and a rank modulo p bounds it from below,
    so equality modulo p proves it.
    """
    degrees = [f.degree for f in forms]
    t = sum(degrees)
    columns = {e: i for i, e in enumerate(exponents_of_degree(n, t))}
    rows = []
    for f in forms:
        for mult in exponents_of_degree(n, t - f.degree):
            rows.append({columns[tuple(a + b for a, b in zip(mon.exps, mult))]:
                         mod_p(coeff) for mon, coeff in f.terms})
    return sparse_rank_mod_p(rows) == complete_intersection_dim(n, degrees, t)


# ---------------------------------------------------------------------------
# certify: the oracle against sympy
# ---------------------------------------------------------------------------

def _sympy_polys(polys, variables):
    """polys as sympy expressions, with generators ordered like the oracle's."""
    import sympy
    symbols = {v: sympy.Symbol(f"C_{v[0]}_{v[1]}") for v in variables}
    gens = [symbols[v] for v in reversed(variables)]  # later key = larger
    exprs = []
    for poly in polys:
        expr = sympy.Integer(0)
        for cm, coeff in poly.terms:
            term = sympy.Rational(coeff.numerator, coeff.denominator)
            for v, e in cm:
                term *= symbols[v] ** e
            expr += term
        exprs.append(expr)
    return exprs, gens


def sympy_reduced_basis(polys, variables):
    """Reduced grevlex Groebner basis, monic, as a set of sympy expressions."""
    import sympy
    exprs, gens = _sympy_polys(polys, variables)
    gb = sympy.groebner(exprs, *gens, order="grevlex", domain="QQ")
    return {sympy.Poly(g, *gens, domain="QQ").monic().as_expr() for g in gb.exprs}


def variables_of(*poly_lists):
    return sorted({v for polys in poly_lists for p in polys
                   for cm, _ in p.terms for v, _ in cm})


def check_ideal_equal(equal, computed, reference):
    problems = [] if equal is True else ["ideal_equal did not return true"]
    variables = variables_of(computed, reference)
    if sympy_reduced_basis(computed, variables) != \
            sympy_reduced_basis(reference, variables):
        problems.append("sympy finds different reduced bases for the two "
                        "presentations")
    return problems


def check_elimination(elim, eliminated):
    removed = elim.eliminated_variables()
    if set(removed) != {tuple(v) for v in eliminated} or elim.residual:
        return [f"elimination removed {removed} leaving "
                f"{len(elim.residual)} generators"]
    return []


def check_groebner(basis, gens):
    """basis must be the reduced degrevlex basis of the ideal of gens."""
    import sympy
    variables = variables_of(gens)
    want = sympy_reduced_basis(gens, variables)
    exprs, sgens = _sympy_polys(basis, variables)
    got = {sympy.Poly(e, *sgens, domain="QQ").monic().as_expr() for e in exprs}
    if got != want:
        return [f"groebner_basis has {len(got)} polynomials, sympy "
                f"{len(want)}, and they differ"]
    return []
