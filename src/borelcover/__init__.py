"""Borel charts of Hilbert schemes over exact rationals.

Computes the Borel open cover of a Hilbert scheme: enumerates the Borel-fixed
charts, locates arbitrary ideals in a chart after a random coordinate change,
and produces explicit defining equations for each chart by a term-order-free
marked-basis reduction, with all arithmetic over Q.
"""

from .borel import (BorelChartIdeal, MonomialIdeal, enumerate_borel_in_g,
                    enumerate_borel_saturated, is_strongly_stable, regularity,
                    rho, saturate, star_decompose, truncate)
from .chart import (ChartPoint, all_charts, borel_open_set, chart_form,
                    in_hilb, pluecker_coordinate, random_coordinate_change)
from .cover import atlas, classify_grassmannian_borel, gluing_degree
from .errors import (BorelCoverError, InadmissiblePolynomialError,
                     IterationCapError, MathDomainError, NotInChartError,
                     ParseError, ReductionCapError, ScaleCapError)
from .hilbert import (ChartConstants, HilbertPoly, chart_constants,
                      gotzmann_number, hilbert_function, hilbert_polynomial,
                      parse_hilbert_poly)
from .marked import (MarkedTemplate, SchemeIdeal, SPair, bounds, ek_spairs,
                     embedding_dimension, is_marked_basis, naive_minor_count,
                     reduce, scheme_equations, template)
from .oracle import greedy_linear_eliminate, groebner_basis, ideal_equal
from .ring import (Monomial, ParamPoly, XPoly, apply_change_of_coords,
                   monomials_of_degree, parse_parampoly, parse_xpoly)

__version__ = "0.1.0"
