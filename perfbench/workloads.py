"""The four workloads: inputs, operations, canonical outputs and checks.

A workload is a fixed list of operations.  `build(name, seed)` makes the
inputs (only `locate` uses the seed) and returns the list of `Op`.  Each
operation calls the package's public functions through their modules at call
time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable

import borelcover as bc
from borelcover import chart, fixtures, marked, oracle, ring

import checks

# (n, (a, b)) for the Hilbert polynomial a*t + b
COVER_FAMILIES = [(3, (3, 2)), (3, (2, 4)), (4, (3, 0))]

# (n, p, m_choice): atlas(n, p, with_equations=True) for p points in the plane
EQUATION_ATLASES = [(2, 7, "reg")]
# (n, saturation, m, dimension of the Hilbert scheme at the origin)
EQUATION_CHARTS = [(2, "x2, x1^10", 10, 20), (3, "x3, x2^3", 3, 12)]

# (n, (d1, d2), count): complete intersections of two forms
LOCATE_FAMILIES = [(2, (2, 2), 2), (2, (2, 3), 2),
                   (3, (1, 1), 2), (3, (1, 2), 2), (3, (1, 3), 1)]
COEFFICIENT_BOUND = 5

# certify: Groebner basis of one chart, ideal equality on another
GROEBNER_CHART = ("x2, x1^3", 2)
EQUALITY_CHART = ("x2, x1^2", 2)


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    canon: Callable[[object], str]
    check: Callable[[object], list]


def hp_text(a, b):
    if a == 0:
        return str(b)
    lead = "t" if a == 1 else f"{a}*t"
    if b == 0:
        return lead
    return f"{lead}{'+' if b > 0 else '-'}{abs(b)}"


def _atlas_canon(a):
    return json.dumps(a.to_json_dict(), sort_keys=True)


def _scheme_canon(S):
    return json.dumps({"m": S.m, "num_vars": S.num_vars,
                       "spairs": S.spair_count,
                       "generators": [str(g) for g in S.generators]})


# ---------------------------------------------------------------------------
# cover
# ---------------------------------------------------------------------------

def _cover_ops():
    ops = []
    for n, hp in COVER_FAMILIES:
        text = hp_text(*hp)
        ops.append(Op(
            label=f"atlas({n}, {text})",
            run=lambda n=n, text=text: bc.atlas(n, text),
            canon=_atlas_canon,
            check=lambda a, n=n, hp=hp: checks.check_atlas(a, n, hp)))
    return ops


# ---------------------------------------------------------------------------
# equations
# ---------------------------------------------------------------------------

def _check_atlas_equations(a, points):
    problems = []
    for entry in a.charts:
        problems += checks.check_scheme_ideal(entry.equations, 2 * points)
    return problems


def _equations_ops():
    ops = []
    for n, points, choice in EQUATION_ATLASES:
        ops.append(Op(
            label=f"atlas({n}, {points}, with_equations, {choice})",
            run=lambda n=n, p=points, c=choice: bc.atlas(
                n, str(p), with_equations=True, m_choice=c),
            canon=_atlas_canon,
            check=lambda a, p=points: _check_atlas_equations(a, p)))
    for n, sat, m, dim in EQUATION_CHARTS:
        J = bc.MonomialIdeal.parse(sat, n)
        ops.append(Op(
            label=f"scheme_equations(({sat}), {m})",
            run=lambda J=J, m=m: marked.scheme_equations(J, m),
            canon=_scheme_canon,
            check=lambda S, dim=dim: checks.check_scheme_ideal(S, dim)))
    return ops


# ---------------------------------------------------------------------------
# locate
# ---------------------------------------------------------------------------

def random_form(rng, n, d):
    """Integer coefficients in [-B, B] on every degree-d monomial."""
    mons = checks.exponents_of_degree(n, d)
    while True:
        terms = [(bc.Monomial(e), rng.randint(-COEFFICIENT_BOUND, COEFFICIENT_BOUND))
                 for e in mons]
        if any(c for _, c in terms):
            return bc.XPoly(n, terms, d)


def complete_intersection(rng, n, degrees):
    while True:
        forms = [random_form(rng, n, d) for d in degrees]
        if checks.is_complete_intersection(forms, n):
            return forms


def bezout_hp(n, degrees):
    d1, d2 = degrees
    if n == 2:
        return lambda t: d1 * d2
    genus = (d2 - 1) * (d2 - 2) // 2  # a plane curve of degree d2 in P^3
    return lambda t: d2 * t + 1 - genus


def locate(forms, seed):
    res = chart.borel_open_set(forms, seed=seed)
    basis = chart.degree_basis(forms, res.constants.r)
    transformed = [ring.apply_change_of_coords(f, res.g) for f in basis]
    point = chart.chart_form(transformed, res.chart.chart)
    member = chart.in_hilb(transformed, res.constants)
    return {"result": res, "transformed": transformed, "point": point,
            "in_hilb": member}


def _locate_canon(found):
    res = found["result"]
    return json.dumps({"g": res.g, "tried": res.tried,
                       "chart": str(res.chart.chart),
                       "marked": [str(f) for f in found["point"].marked_set],
                       "in_hilb": found["in_hilb"]})


class ChartEquations:
    """Equations and template of each chart met, computed once per process."""

    def __init__(self):
        self.cache = {}

    def __call__(self, sat, r):
        key = (sat, r)
        if key not in self.cache:
            self.cache[key] = (marked.scheme_equations(sat, r),
                               marked.template(sat, r))
        return self.cache[key]


def _locate_ops(seed):
    rng = random.Random(seed)
    equations_of = ChartEquations()
    ops = []
    for n, degrees, count in LOCATE_FAMILIES:
        hp = bezout_hp(n, degrees)
        for k in range(count):
            forms = complete_intersection(rng, n, degrees)
            op_seed = rng.randrange(1 << 30)
            ops.append(Op(
                label=f"locate P^{n} {degrees} #{k}",
                run=lambda f=forms, s=op_seed: locate(f, s),
                canon=_locate_canon,
                check=lambda found, hp=hp: checks.check_located(
                    found, hp, equations_of)))
    return ops


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def recombined(gens):
    """A second presentation of the same ideal: g_i + g_(i+1), last kept.

    The map is unitriangular, so the new list generates the same ideal.
    """
    return [g + h for g, h in zip(gens, gens[1:])] + gens[-1:]


def _certify_ops():
    record = fixtures.A8_CHART
    a8 = fixtures.saturation_ideal(record)
    a8_dim = 8  # the chart is an open set of the Hilbert scheme of 4 plane points
    gb_sat, gb_m = GROEBNER_CHART
    gb_gens = list(marked.scheme_equations(
        bc.MonomialIdeal.parse(gb_sat, 2), gb_m).generators)
    eq_sat, eq_m = EQUALITY_CHART
    eq_gens = list(marked.scheme_equations(
        bc.MonomialIdeal.parse(eq_sat, 2), eq_m).generators)
    eq_other = recombined(eq_gens)
    state = {}

    def equations():
        state["a8"] = list(marked.scheme_equations(a8, record["m"]).generators)
        return state["a8"]

    def polys_canon(polys):
        return json.dumps([str(g) for g in polys])

    return [
        Op(f"scheme_equations(({record['saturation']}), {record['m']})",
           equations, polys_canon,
           lambda gens: checks.check_origin(gens, record["num_vars"], a8_dim)),
        Op("greedy_linear_eliminate(A^8 chart)",
           lambda: oracle.greedy_linear_eliminate(state["a8"]),
           lambda e: str(sorted(e.eliminated_variables())) + str(e.residual),
           lambda e: checks.check_elimination(e, record["eliminated"])),
        Op(f"groebner_basis(({gb_sat}) chart, {gb_m})",
           lambda: oracle.groebner_basis(gb_gens), polys_canon,
           lambda gb: checks.check_groebner(gb, gb_gens)),
        Op(f"ideal_equal(({eq_sat}) chart, {eq_m}; two presentations)",
           lambda: oracle.ideal_equal(eq_gens, eq_other), str,
           lambda eq: checks.check_ideal_equal(eq, eq_gens, eq_other)),
    ]


def build(name, seed):
    builders = {"cover": _cover_ops, "equations": _equations_ops,
                "locate": lambda: _locate_ops(seed), "certify": _certify_ops}
    if name not in builders:
        raise ValueError(f"unknown workload {name!r}")
    return builders[name]()
