import json
from fractions import Fraction

import pytest

from borelcover import borel
from borelcover.borel import MonomialIdeal, truncate
from borelcover.chart import in_hilb
from borelcover.cli import main
from borelcover.cover import (atlas, classify_grassmannian_borel,
                              gluing_degree)
from borelcover.errors import MathDomainError
from borelcover.hilbert import chart_constants, parse_hilbert_poly
from borelcover.ring import XPoly

from conftest import (CHART_FAMILIES, rational_sampler, record_fields,
                      reference_chart_records)


class TestClassification:
    def test_cubic_curves(self, lex_cubic):
        c = chart_constants("3*t", 3)
        cls = classify_grassmannian_borel(c)
        assert [ch.saturation for ch in cls.charts] == [lex_cubic]
        hps = sorted(str(hp) for _, hp in cls.empty_charts)
        assert hps == ["2*t+3", "2*t+3", "9", "t+6"]
        # the listed outsiders are exactly the computed ones
        listed = [
            "x2^3, x3^2, x2^2*x1, x3*x1, x3*x2",
            "x2^2, x3^2, x3*x1^2, x3*x2",
            "x2^3, x3^2, x2*x1^2, x2^2*x1, x3*x1^2, x3*x2",
            "x1^3, x2^3, x3^2, x2*x1^2, x2^2*x1, x3*x1^2, x3*x2^2, x3*x2*x1",
        ]
        want = {truncate(MonomialIdeal.parse(t, 3), 3) for t in listed}
        assert {J for J, _ in cls.empty_charts} == want

    def test_constant_polynomials_have_no_empty_charts(self):
        for n, p in [(2, "4"), (2, "7")]:
            c = chart_constants(parse_hilbert_poly(p), n)
            cls = classify_grassmannian_borel(c)
            assert cls.empty_charts == ()
        assert len(classify_grassmannian_borel(chart_constants(4, 2)).charts) == 2
        assert len(classify_grassmannian_borel(chart_constants(7, 2)).charts) == 5

    def test_empty_chart_quotients_have_lower_degree(self):
        c = chart_constants("3*t", 3)
        cls = classify_grassmannian_borel(c)
        for _, hp in cls.empty_charts:
            assert hp.degree() <= c.d

    def test_empty_charts_reject_random_points(self):
        # no specialized marked set over an empty chart passes membership
        c = chart_constants("3*t", 3)
        cls = classify_grassmannian_borel(c)
        draw = rational_sampler(17)
        for J, _ in cls.empty_charts[:2]:
            tails = {g: J.sous_escalier_at(3) for g in J.gens}
            for _ in range(3):
                forms = []
                for g in J.gens:
                    terms = [(g, Fraction(1))]
                    terms += [(t, draw()) for t in tails[g]]
                    forms.append(XPoly(3, terms))
                assert not in_hilb(forms, c)

    def test_charts_contain_their_monomial_point(self):
        c = chart_constants("3*t", 3)
        cls = classify_grassmannian_borel(c)
        for ch in cls.charts:
            forms = [XPoly.from_monomial(g) for g in ch.chart.gens]
            assert in_hilb(forms, c)


class TestChartRecordsFromTheWalk:
    @pytest.mark.parametrize("n, p", CHART_FAMILIES)
    def test_classify_records_equal_the_saturate_then_truncate_path(self, n, p):
        c = chart_constants(p, n)
        got = classify_grassmannian_borel(c).charts
        want = reference_chart_records(c)
        assert record_fields(got) == record_fields(want)

    def test_no_record_is_built_through_truncate_or_regularity(self, monkeypatch,
                                                                capsys):
        def refuse(*args):
            raise AssertionError("chart records must not truncate or take regularity")

        monkeypatch.setattr(borel, "truncate", refuse)
        monkeypatch.setattr(borel, "regularity", refuse)
        got = atlas(3, "3*t+2")
        assert got.charts and all(e.equations is None for e in got.charts)
        ideal = '{"n":2,"gens":["x2^2","x1^2"]}'
        assert main(["open-set", "--ideal", ideal, "--json"]) == 0
        assert main(["open-set", "--ideal", ideal, "--all-charts"]) == 0
        err = capsys.readouterr().err
        assert not err


class TestGluingDegree:
    def test_same_chart(self, j1sat):
        T = truncate(j1sat, 4)
        assert gluing_degree(T, T) == 0

    def test_four_points_overlap(self, j1sat, j2sat):
        T1, T2 = truncate(j1sat, 4), truncate(j2sat, 4)
        d12 = gluing_degree(T1, T2)
        d21 = gluing_degree(T2, T1)
        assert d12 == d21 == 1
        # derived by set difference on the expanded bases
        assert d12 == len(set(T1.gens) - set(T2.gens))

    def test_mixed_degrees_rejected(self, j1sat):
        with pytest.raises(MathDomainError):
            gluing_degree(truncate(j1sat, 4), truncate(j1sat, 5))
        with pytest.raises(MathDomainError):
            gluing_degree(j1sat, truncate(j1sat, 4))

    def test_different_ambient_rings_rejected(self):
        # same degree and generator count, so only the ambient tells them apart
        plane, space = MonomialIdeal.parse("x2^2", 2), MonomialIdeal.parse("x3^2", 3)
        for a, b in ((plane, space), (space, plane)):
            with pytest.raises(MathDomainError, match="different ambient rings"):
                gluing_degree(a, b)


class TestAtlas:
    @pytest.mark.parametrize("with_equations", [False, True])
    def test_unknown_truncation_choice_rejected(self, with_equations):
        with pytest.raises(MathDomainError, match="unknown truncation choice 'bogus'"):
            atlas(2, "4", with_equations=with_equations, m_choice="bogus")

    def test_cubic_curves(self, lex_cubic):
        A = atlas(3, "3*t", with_equations=True, m_choice="rho")
        assert len(A.charts) == 1
        entry = A.charts[0]
        assert entry.chart.saturation == lex_cubic
        assert entry.dims["rho"] == (0, 12)
        assert entry.dims["reg"] == (3, 99)
        assert entry.equations.generators == ()

    def test_four_points(self, j1sat):
        A = atlas(2, 4, with_equations=True, m_choice="rho")
        assert len(A.charts) == 2
        first = A.charts[0]
        assert first.chart.saturation == j1sat
        eq = first.equations
        assert (eq.num_vars, len(eq.generators), eq.max_degree) == (12, 8, 3)

    def test_seven_points(self):
        A = atlas(2, 7)
        sats = [str(c.chart.saturation) for c in A.charts]
        assert "(x2^2, x2*x1^3, x1^4)" in sats
        assert len(A.charts) == 5
        assert A.empty_charts == ()

    def test_seven_points_equations_at_minimal_levels(self):
        # multi-degree truncations: no degree bound is claimed below the
        # saturated regularity, but the reductions stay well-behaved
        A = atlas(2, 7, with_equations=True, m_choice="rho")
        for entry in A.charts:
            eq = entry.equations
            assert eq.m == max(entry.chart.rho - 1, 0)
            assert eq.bound_count is None
            assert all(dict(g.terms).get((), 0) == 0 for g in eq.generators)
            assert eq.max_degree == 3 and eq.max_chain == 2

    def test_gluing_matrix_symmetric_zero_diagonal(self):
        A = atlas(2, 7)
        G = A.gluing
        assert all(G[i][i] == 0 for i in range(len(G)))
        assert all(G[i][j] == G[j][i] for i in range(len(G)) for j in range(len(G)))

    def test_json_serializable_and_deterministic(self):
        d1 = atlas(2, 4, with_equations=True).to_json_dict()
        d2 = atlas(2, 4, with_equations=True).to_json_dict()
        assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)
        for entry in d1["charts"]:
            J = MonomialIdeal.from_json_dict(entry["saturation"])
            assert isinstance(J, MonomialIdeal)


class TestAtlasValidation:
    @pytest.mark.parametrize("n, p", [(3, "3*t+2"), (3, "2*t+4"), (4, "3*t")])
    def test_each_saturation_checked_once(self, monkeypatch, n, p):
        from borelcover import marked
        seen = []
        real = marked.is_strongly_stable
        monkeypatch.setattr(marked, "is_strongly_stable",
                            lambda J: seen.append(J) or real(J))
        marked._validate_saturated_borel.cache_clear()
        a = atlas(n, p)
        assert seen == [entry.chart.saturation for entry in a.charts]
        assert all(len(entry.dims) == 3 for entry in a.charts)

    def test_a_failing_saturation_raises_on_every_call(self, j1sat):
        from borelcover.marked import embedding_dimension
        not_borel = MonomialIdeal.parse("x1", 2)
        for _ in range(2):
            assert embedding_dimension(j1sat, 2) == 12
            with pytest.raises(MathDomainError, match=r"^\(x1\) is not strongly stable$"):
                embedding_dimension(not_borel, 1)
            # the level is checked on every call, the saturation once
            with pytest.raises(MathDomainError, match="must be non-negative"):
                embedding_dimension(j1sat, -1)
