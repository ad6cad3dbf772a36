"""Acceptance suite.

One test per criterion; each prints a single PASS line on success (run with
-s or -rA to see them).  All arithmetic is exact, so every assertion is
bit-equality unless a bound is explicitly stated.
"""

import hashlib
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from borelcover.borel import (MonomialIdeal, enumerate_borel_saturated,
                              is_strongly_stable, regularity)
from borelcover.chart import (borel_open_set, chart_form, degree_basis, in_hilb,
                              pluecker_coordinate)
from borelcover.cover import classify_grassmannian_borel
from borelcover.errors import ScaleCapError
from borelcover.fixtures import (A8_CHART, QUARTIC_POINTS,
                                 reference_equations, reference_marked_basis)
from borelcover.hilbert import chart_constants, gotzmann_number
from borelcover.marked import (assignment_from_marked_set, naive_minor_count,
                               scheme_equations, template)
from borelcover.oracle import greedy_linear_eliminate, ideal_equal
from borelcover.ring import apply_change_of_coords, parse_xpoly

from conftest import (_rank_is_marked_basis, marked_set_from_ideal, rational_sampler,
                      specialize, template_polys)


def report(num, text):
    print(f"[PASS] criterion {num}: {text}")


def test_criterion_01_gotzmann_numbers():
    assert gotzmann_number(4, 2) == 4
    assert gotzmann_number("4*t", 3) == 6
    assert gotzmann_number("3*t", 3) == 3
    assert gotzmann_number(2, 2) == 2
    assert gotzmann_number(7, 2) == 7
    report(1, "Gotzmann numbers (2,4)->4 (3,4t)->6 (3,3t)->3 (2,2)->2 (2,7)->7")


def test_criterion_02_chart_constants():
    assert chart_constants(4, 2).D == 44
    assert chart_constants("3*t", 3).s == 11
    c7 = chart_constants(7, 2)
    assert (c7.s, c7.N_r) == (29, 36)
    report(2, "chart constants D=44, s=11, s=29/N(7)=36")


def test_criterion_03_borel_enumeration():
    got4 = [str(J) for J in enumerate_borel_saturated(2, 4)]
    assert got4 == ["(x2^2, x2*x1, x1^3)", "(x2, x1^4)"]
    got3t = [str(J) for J in enumerate_borel_saturated(3, "3*t")]
    assert got3t == ["(x3, x2^3)"]
    got7 = enumerate_borel_saturated(2, 7)
    assert [str(J) for J in got7] == [
        "(x2^2, x2*x1^3, x1^4)",
        "(x2^3, x2^2*x1, x2*x1^2, x1^4)",
        "(x2^2, x2*x1^2, x1^5)",
        "(x2^2, x2*x1, x1^6)",
        "(x2, x1^7)",
    ]
    regs = [regularity(J) for J in got7]
    assert regs == sorted(regs)
    report(3, "Borel enumeration for (2,4), (3,3t), (2,7), sorted by regularity")


def test_criterion_04_classification():
    c = chart_constants("3*t", 3)
    cls = classify_grassmannian_borel(c)
    assert len(cls.charts) == 1
    assert len(cls.empty_charts) == 4
    hps = sorted(str(hp) for _, hp in cls.empty_charts)
    assert hps == ["2*t+3", "2*t+3", "9", "t+6"]
    assert all(hp.degree() <= 1 for _, hp in cls.empty_charts)
    report(4, "1 chart + 4 empty charts with quotients {2t+3, 2t+3, t+6, 9}")


def test_criterion_05_open_set_algorithm():
    two_quadrics = [parse_xpoly("x2^2", 2), parse_xpoly("x1^2", 2)]
    j1sat = MonomialIdeal.parse("x2^2, x2*x1, x1^3", 2)
    hits = 0
    for seed in range(20):
        res = borel_open_set(two_quadrics, seed=seed)
        basis = degree_basis(two_quadrics, res.constants.r)
        transformed = [apply_change_of_coords(f, res.g) for f in basis]
        assert pluecker_coordinate(transformed, res.chart.chart) != 0
        if res.chart.saturation == j1sat:
            hits += 1
    assert hits >= 19

    g = QUARTIC_POINTS["g"]
    res = borel_open_set(two_quadrics, g=g)
    assert res.chart.saturation == j1sat
    basis = degree_basis(two_quadrics, 4)
    transformed = [apply_change_of_coords(f, g) for f in basis]
    point = chart_form(transformed, res.chart.chart)
    assert list(point.marked_set) == reference_marked_basis(QUARTIC_POINTS)
    report(5, f"random search hit the minimal chart {hits}/20 times; "
              "explicit change of coordinates reproduces the marked basis")


def test_criterion_06_flagship_equations():
    j1sat = MonomialIdeal.parse("x2^2, x2*x1, x1^3", 2)
    S = scheme_equations(j1sat, 2)
    assert len(S.generators) <= 14
    assert S.max_degree <= 3
    assert S.num_vars == 12
    ref = reference_equations(A8_CHART)
    assert ideal_equal(list(S.generators), ref)
    elim = greedy_linear_eliminate(ref)
    assert sorted(elim.eliminated_variables()) == [(1, 3), (1, 4), (2, 4), (3, 4)]
    assert elim.residual == ()
    report(6, f"{len(S.generators)} generators, degree <= 3, 12 parameters; "
              "oracle-equal to the reference ideal; elimination certifies A^8")


def test_criterion_07_regularity_level_bounds():
    j1sat = MonomialIdeal.parse("x2^2, x2*x1, x1^3", 2)
    S = scheme_equations(j1sat, 3)
    assert S.num_vars == 24
    assert len(S.generators) <= 28
    assert S.max_degree <= 2
    assert S.max_chain <= 1
    report(7, f"m=3: 24 parameters, {len(S.generators)} <= 28 generators, "
              f"degree <= 2, longest chain {S.max_chain} <= 1")


def test_criterion_08_zero_ideal_charts():
    lex_cubic = MonomialIdeal.parse("x3, x2^3", 3)
    for m in (0, 1):
        S = scheme_equations(lex_cubic, m)
        assert S.generators == ()
        assert S.num_vars == 12
    two_points = MonomialIdeal.parse("x2, x1^2", 2)
    S = scheme_equations(two_points, 2)
    elim = greedy_linear_eliminate(list(S.generators))
    assert elim.residual == ()
    assert S.num_vars - elim.eliminated_count == 4
    report(8, "zero ideal in 12 parameters for the linear chart; "
              "two-point chart eliminates to a free A^4")


SOUNDNESS_FIXTURES = [
    ("x2^2, x2*x1, x1^3", 2, (2, 3)),
    ("x3, x2^3", 3, (1, 3)),
    ("x2, x1^2", 2, (1, 2)),
]


def _positive_assignments(sat, m, count, seed):
    draw = rational_sampler(seed)
    tpl = template(sat, m)
    free_m = max(min(g.degree() for g in sat.gens) - 1, 0)
    base = template(sat, free_m)
    base_eqs = scheme_equations(sat, free_m)
    out = []
    if base_eqs.generators:
        elim = greedy_linear_eliminate(list(base_eqs.generators))
        assert not elim.residual
        free = [v for v in base.variables()
                if v not in set(elim.eliminated_variables())]
        points = [elim.lift_point({v: draw() for v in free}) for _ in range(count)]
    else:
        points = [{v: draw() for v in base.variables()} for _ in range(count)]
    for point in points:
        G0 = [specialize(f, point) for f in template_polys(base)]
        G = marked_set_from_ideal(G0, tpl.ideal)
        out.append(assignment_from_marked_set(G, tpl))
    return out


@pytest.mark.parametrize("sat_text,n,levels", SOUNDNESS_FIXTURES)
def test_criterion_09_soundness_completeness(sat_text, n, levels):
    sat = MonomialIdeal.parse(sat_text, n)
    for m in levels:
        tpl = template(sat, m)
        S = scheme_equations(sat, m)
        draw = rational_sampler(seed=1000 + 31 * m + len(sat_text))
        samples = [{v: draw() for v in tpl.variables()} for _ in range(37)]
        samples += _positive_assignments(sat, m, 12, seed=m + 2)
        samples.append({v: Fraction(0) for v in tpl.variables()})
        assert len(samples) >= 50
        for c in samples:
            vanishes = all(g.evaluate(c) == 0 for g in S.generators)
            G = [specialize(f, c) for f in template_polys(tpl)]
            basis = _rank_is_marked_basis(G, tpl.ideal)
            assert vanishes == basis
    report(9, f"equations vanish iff marked basis over {sat} at m in {levels} "
              "(50 exact specializations each)")


def test_criterion_10_counting_sanity():
    c = chart_constants(4, 2)
    assert naive_minor_count(c) == 1_379_420_565_600
    report(10, "avoided naive minor count 1379420565600 = C(33,18)*C(21,18)")


def test_criterion_11_non_borel_chart_regression():
    J = MonomialIdeal.parse("x0^2, x1^2, x2^2, x0*x1", 2)
    assert not is_strongly_stable(J)
    two_points = [parse_xpoly(s, 2) for s in (
        "x0^2 - x0*x2", "x1^2 - x1*x2", "x2^2 - x0*x2 - x1*x2", "x0*x1")]
    c = chart_constants(2, 2)
    basis = degree_basis(two_points, c.r)
    assert pluecker_coordinate(basis, J) != 0
    assert in_hilb(basis, c)
    report(11, "non-Borel chart holds a 2-point ideal: emptiness criterion "
               "must never be applied outside the Borel family")


def test_criterion_12_large_cover_stays_behind_flag():
    # the 112-chart cover of the twisted septic-like family in P^3 is a
    # stretch target only: the default caps refuse it, and only explicit
    # cap flags would let it run
    with pytest.raises(ScaleCapError):
        enumerate_borel_saturated(3, "7*t-5")
    r = gotzmann_number("7*t-5", 3)
    from borelcover.hilbert import ambient_dimension
    assert ambient_dimension(3, r) > 120
    report(12, "Hilb of 7t-5 in P^3 is gated behind the enumeration caps")


# sha256 over the per-operation sha256 digests of each seed-1 perfbench
# workload, as perfbench/run.py prints it: the outputs every change must keep
PERFBENCH_SEED1_DIGESTS = {
    "cover": "94a6d30093bf103e46f18208d2a7441d8a0461d79d5378e961e6a6a2e22d6a87",
    "equations": "4a72ba70858722a9a7cacb2a74eecee20906f05ea2caa1a6d98f0e7da52bb799",
    "locate": "0a02faca4746ae38f6982966c39d814292e03e9c26ea583a0b0796b93e40d94f",
    "certify": "ef85fda05c77cfd33b2a4b2ee6ba1f41c7d116b13033621fbaf9e0607ab7dca0",
}


@pytest.mark.parametrize("name", sorted(PERFBENCH_SEED1_DIGESTS))
def test_criterion_13_perfbench_outputs_unchanged(name):
    # perfbench/ is only read: its workloads module is imported, as its own
    # tests import it, and nothing under it is written
    bench = str(Path(__file__).resolve().parents[1] / "perfbench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    import workloads

    per_op = "".join(hashlib.sha256(op.canon(op.run()).encode()).hexdigest()
                     for op in workloads.build(name, 1))
    assert hashlib.sha256(per_op.encode()).hexdigest() == PERFBENCH_SEED1_DIGESTS[name]
    report(13, f"perfbench {name} seed-1 outputs byte-identical")


def test_traced_equations_counts_of_seed_1():
    # the marked reduction's work in one seed-1 `equations` pass, as the
    # perfbench tracer counts it: the counts a faster reduction must keep
    bench = str(Path(__file__).resolve().parents[1] / "perfbench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    import tracer
    import workloads

    ops = workloads.build("equations", 1)
    t = tracer.Tracer()
    with t:
        for op in ops:
            op.run()
    metrics = t.metrics()
    assert {k: metrics[f"marked.{k}"] for k in ("reduce_calls", "reduce_steps", "spairs",
                                                 "coefficients", "generators")} == {
        "reduce_calls": 245, "reduce_steps": 1258, "spairs": 245,
        "coefficients": 2120, "generators": 2120}
