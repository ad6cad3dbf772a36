"""Assembling the Borel open cover.

Classifies the Borel ideals of the ambient Grassmannian family by the Hilbert
polynomial of their quotient (charts of the Hilbert scheme versus provably
empty loci), computes the chart-overlap gluing degrees, and packages the
whole thing as a machine-readable atlas.
"""

from __future__ import annotations

from dataclasses import dataclass

from .borel import (MAX_AMBIENT, MAX_NODES, BorelChartIdeal, MonomialIdeal, chart_order,
                    ek_histogram, enumerate_borel_in_g, is_borel_chart)
from .errors import MathDomainError
from .hilbert import ChartConstants, chart_constants, coerce_hilbert_poly, \
    hilbert_polynomial
from .marked import embedding_dimension, naive_minor_count, scheme_equations


@dataclass(frozen=True)
class Classification:
    """Borel family of the Grassmannian split by Hilbert polynomial."""

    constants: ChartConstants
    charts: tuple                 # BorelChartIdeal, increasing reg of saturation
    empty_charts: tuple           # (chart MonomialIdeal, quotient HilbertPoly)


def classify_grassmannian_borel(constants: ChartConstants,
                                max_ambient=MAX_AMBIENT,
                                max_nodes=MAX_NODES) -> Classification:
    """Split the Borel ideals of G(s, S_r) into charts and empty loci.

    A Borel ideal generated by s monomials of degree r is a nonempty chart
    exactly when it passes borel.is_borel_chart; charts come in chart order.
    The others carry the vanishing-hypersurface datum recorded alongside
    their quotient polynomial, in enumeration order.  Both the chart test
    and the quotient polynomial depend on the ideal only through its
    Eliahou-Kervaire histogram, so each is computed once per histogram.
    """
    charts = []
    empty = []
    verdicts = {}  # histogram -> None for a chart, else the quotient polynomial
    for J in enumerate_borel_in_g(constants.n, constants.r, constants.s,
                                  max_ambient, max_nodes):
        key = ek_histogram(J)
        if key not in verdicts:
            verdicts[key] = (None if is_borel_chart(J, constants)
                             else hilbert_polynomial(J))
        hp = verdicts[key]
        if hp is None:
            charts.append(BorelChartIdeal.from_chart(J))
        else:
            empty.append((J, hp))
    charts.sort(key=chart_order)
    return Classification(constants=constants, charts=tuple(charts),
                          empty_charts=tuple(empty))


def gluing_degree(J1: MonomialIdeal, J2: MonomialIdeal) -> int:
    """Degree |B_J1 \\ B_J2| of the overlap hypersurface in the J1 chart."""
    return _gluing_matrix([J1, J2])[0][1]


def _gluing_matrix(charts):
    """The matrix of gluing degrees |B_i \\ B_j| of the chart ideals: each is
    checked and its generator set built once, and every pair must agree on
    the ambient ring, the level and the generator count."""
    if any(J.n != charts[0].n for J in charts):
        raise MathDomainError("gluing of charts in different ambient rings")
    for J in charts:
        if J.is_zero() or not J.generated_in_single_degree():
            raise MathDomainError(f"gluing needs single-degree chart ideals, got {J}")
    for J in charts:
        if J.gens[0].degree() != charts[0].gens[0].degree():
            raise MathDomainError("gluing degree of charts at different levels")
        if len(J.gens) != len(charts[0].gens):
            raise MathDomainError("charts have different generator counts")
    sets = [set(J.gens) for J in charts]
    return tuple(tuple(len(a - b) for b in sets) for a in sets)


_M_CHOICES = ("rho", "reg", "gotzmann")


def _m_values(chart: BorelChartIdeal, constants: ChartConstants):
    """The truncation level of each choice in _M_CHOICES, in that order."""
    return {"rho": max(chart.rho - 1, 0), "reg": chart.regularity_sat,
            "gotzmann": constants.r}


@dataclass(frozen=True)
class AtlasChart:
    chart: BorelChartIdeal
    dims: dict                    # m-choice label -> (m, embedding dimension)
    equations: object             # SchemeIdeal or None


@dataclass(frozen=True)
class Atlas:
    constants: ChartConstants
    charts: tuple
    empty_charts: tuple
    gluing: tuple                 # symmetric matrix of |B_i \ B_j| at level r

    def to_json_dict(self):
        c = self.constants
        out = {
            "n": c.n,
            "hilbert_polynomial": str(c.p),
            "degree": c.d,
            "gotzmann": c.r,
            "N_r": c.N_r,
            "s": c.s,
            "s_prime": c.s_prime,
            "D": c.D,
            "naive_minor_count": naive_minor_count(c),
            "charts": [],
            "empty_charts": [
                {"chart": J.to_json_dict(), "quotient_hilbert_polynomial": str(hp)}
                for J, hp in self.empty_charts
            ],
            "gluing_degrees": [list(row) for row in self.gluing],
        }
        for entry in self.charts:
            ch = entry.chart
            item = {
                "saturation": ch.saturation.to_json_dict(),
                "chart": ch.chart.to_json_dict(),
                "regularity_sat": ch.regularity_sat,
                "rho": ch.rho,
                "embedding_dimensions": {
                    label: {"m": m, "dim": dim}
                    for label, (m, dim) in sorted(entry.dims.items())
                },
            }
            if entry.equations is not None:
                eq = entry.equations
                item["equations"] = {
                    "m": eq.m,
                    "num_vars": eq.num_vars,
                    "num_generators": len(eq.generators),
                    "max_degree": eq.max_degree,
                    "bound_count": eq.bound_count,
                    "bound_degree": eq.bound_degree,
                    "generators": [str(g) for g in eq.generators],
                }
            out["charts"].append(item)
        return out


def atlas(n, p, with_equations=False, m_choice="reg",
          max_ambient=MAX_AMBIENT, max_nodes=MAX_NODES) -> Atlas:
    """Full Borel atlas of the Hilbert scheme for (n, p)."""
    if m_choice not in _M_CHOICES:
        raise MathDomainError(f"unknown truncation choice {m_choice!r}; "
                              f"expected one of {_M_CHOICES}")
    p = coerce_hilbert_poly(p)
    constants = chart_constants(p, n)
    cls = classify_grassmannian_borel(constants, max_ambient, max_nodes)
    charts = []
    for chart in cls.charts:
        ms = _m_values(chart, constants)
        dims = {label: (m, embedding_dimension(chart.saturation, m))
                for label, m in ms.items()}
        equations = None
        if with_equations:
            equations = scheme_equations(chart.saturation, ms[m_choice])
        charts.append(AtlasChart(chart=chart, dims=dims, equations=equations))
    gluing = _gluing_matrix([entry.chart.chart for entry in charts])
    return Atlas(constants=constants, charts=tuple(charts),
                 empty_charts=cls.empty_charts, gluing=gluing)
