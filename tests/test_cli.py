import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import borelcover
from borelcover import linalg
from borelcover.borel import MonomialIdeal, truncate
from borelcover.cli import main
from borelcover.ring import monomials_of_degree, parse_xpoly

from conftest import dict_rows


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGotzmann:
    def test_reference_value(self, capsys):
        code, out, _ = run(capsys, "gotzmann", "--n", "3", "--hp", "4*t")
        assert code == 0
        assert out.startswith("r=6")

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "gotzmann", "--n", "2", "--hp", "4", "--json")
        data = json.loads(out)
        assert (data["r"], data["s"], data["D"]) == (4, 11, 44)


class TestBorelList:
    def test_seven_points(self, capsys):
        code, out, _ = run(capsys, "borel-list", "--n", "2", "--hp", "7", "--json")
        assert code == 0
        data = json.loads(out)
        sats = [MonomialIdeal.from_json_dict(d) for d in data["saturations"]]
        assert [str(s) for s in sats] == [
            "(x2^2, x2*x1^3, x1^4)",
            "(x2^3, x2^2*x1, x2*x1^2, x1^4)",
            "(x2^2, x2*x1^2, x1^5)",
            "(x2^2, x2*x1, x1^6)",
            "(x2, x1^7)",
        ]

    def test_round_trip_bit_exact(self, capsys):
        _, out, _ = run(capsys, "borel-list", "--n", "2", "--hp", "4", "--json")
        data = json.loads(out)
        for d in data["saturations"]:
            J = MonomialIdeal.from_json_dict(d)
            assert J.to_json_dict() == d


class TestOpenSet:
    def test_deterministic_output(self, capsys):
        ideal = json.dumps({"n": 2, "gens": ["x2^2", "x1^2"]})
        code, out1, _ = run(capsys, "open-set", "--ideal", ideal, "--seed", "5",
                            "--json")
        assert code == 0
        _, out2, _ = run(capsys, "open-set", "--ideal", ideal, "--seed", "5",
                         "--json")
        assert out1 == out2
        data = json.loads(out1)
        sat = MonomialIdeal.from_json_dict(data["J_sat"])
        assert sat == MonomialIdeal.parse("x2^2, x2*x1, x1^3", 2)
        assert data["tried"] >= 1

    def test_ideal_from_file(self, capsys, tmp_path):
        path = tmp_path / "ideal.json"
        path.write_text(json.dumps({"n": 2, "gens": [[0, 0, 2], [0, 2, 0]]}))
        code, out, _ = run(capsys, "open-set", "--ideal", f"@{path}", "--json")
        assert code == 0
        assert "J_sat" in json.loads(out)

    def test_all_charts(self, capsys):
        ideal = json.dumps({"n": 2, "gens": ["x2^2", "x1^2"]})
        g = json.dumps([[1, 0, 0], [0, 1, 1], [0, 0, 1]])
        code, out, _ = run(capsys, "open-set", "--ideal", ideal, "--g", g,
                           "--all-charts", "--json")
        data = json.loads(out)
        assert len(data["saturations"]) >= 1


# sha256 of stdout of `open-set`: every chart containing a plane and a
# twisted-cubic ideal under the seed-0 change of coordinates, and the chart
# found for the twisted cubic with seed 1
P2_IDEAL = '{"n":2,"gens":["x2^2+x1*x0-x0^2","x1^2-x2*x0+3*x1*x0"]}'
TWISTED_CUBIC = '{"n":3,"gens":["x2^2-x3*x1","x2*x1-x3*x0","x1^2-x2*x0"]}'
OPEN_SET_GOLDEN = [
    ((P2_IDEAL, "--all-charts"),
     "68f7801ba1503d4e4c6dfe1d82e796cbfda06e1cc4cd41481c4bf4d81ef1eb98"),
    ((P2_IDEAL, "--all-charts", "--json"),
     "7f91f7849922411faa01a31033528b29e5b56c81f3c545aa766b0cf103f1bc1d"),
    ((TWISTED_CUBIC, "--all-charts"),
     "cb8af04b3c85f2b11ec4f174e0f0d8bcf1fa1e133ec3dedd05545e5725225843"),
    ((TWISTED_CUBIC, "--all-charts", "--json"),
     "dc01201557e70c381854b17df4c96f6f91bc5d27b377ce384ac3cc0cf427d7c7"),
    ((TWISTED_CUBIC, "--seed", "1"),
     "4ca8d0ab35d1872a9f019c1e32805fe0aa10f095955a95a16f9625848859bc25"),
]


class TestOpenSetGolden:
    @pytest.mark.parametrize(
        "argv, digest", OPEN_SET_GOLDEN,
        ids=["p2-all", "p2-all-json", "p3-all", "p3-all-json", "p3-seed1"])
    def test_stdout_bytes(self, capsys, argv, digest):
        code, out, err = run(capsys, "open-set", "--ideal", *argv)
        assert code == 0 and not err
        assert _sha256(out.encode()) == digest


class TestChartPipeline:
    def test_chart_form(self, capsys):
        ideal = json.dumps({"n": 2,
                            "gens": ["x2^2", "x2^2 + 2*x2*x1 + x1^2"]})
        chart = json.dumps({"n": 2, "gens": [[0, 0, 2], [0, 1, 1]]})
        code, out, _ = run(capsys, "chart-form", "--ideal", ideal,
                           "--chart", chart)
        assert code == 0
        assert out.splitlines() == ["x2^2", "x2*x1 + 1/2*x1^2"]

    def test_chart_form_ambient_mismatch(self, capsys):
        # forms in P^2 against a chart in P^3 of the same degree
        ideal = json.dumps({"n": 2, "gens": ["x2^2", "x2*x1"]})
        chart = json.dumps({"n": 3, "gens": [[0, 0, 0, 2], [0, 0, 1, 1]]})
        code, out, err = run(capsys, "chart-form", "--ideal", ideal,
                             "--chart", chart)
        assert code == 3 and not out
        assert "ambient mismatch between forms and chart" in err
        assert "Traceback" not in err

    def test_pluecker(self, capsys):
        ideal = json.dumps({"n": 2, "gens": ["x2^2", "x2*x1"]})
        chart = json.dumps({"n": 2, "gens": [[0, 0, 2], [0, 1, 1]]})
        code, out, _ = run(capsys, "pluecker", "--ideal", ideal,
                           "--chart", chart)
        assert code == 0 and out.strip() == "1"

    def test_marked_scheme_fields(self, capsys):
        sat = json.dumps({"n": 2, "gens": [[0, 0, 2], [0, 1, 1], [0, 3, 0]]})
        code, out, _ = run(capsys, "marked-scheme", "--sat", sat, "--m", "2",
                           "--format", "json")
        data = json.loads(out)
        assert data["num_vars"] == 12
        assert len(data["generators"]) == 8
        assert data["max_degree"] == 3
        assert data["m"] == 2

    def test_check_basis(self, capsys):
        sat = json.dumps({"n": 2, "gens": [[0, 0, 2], [0, 1, 1], [0, 3, 0]]})
        from borelcover.fixtures import QUARTIC_POINTS
        polys = json.dumps(QUARTIC_POINTS["marked_basis"])
        code, out, _ = run(capsys, "check-basis", "--sat", sat, "--m", "4",
                           "--set", polys)
        assert code == 0 and out.strip() == "true"

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_check_basis_above_the_gotzmann_number(self, capsys, m):
        # T = (x2, x1^2)_{>=m} has Gotzmann number 2 and heads of degree m,
        # so a check up to degree r + 1 = 3 missed the failure in degree m + 1
        sat = MonomialIdeal.parse("x2, x1^2", 2)
        T = truncate(sat, m)
        head = f"x2*x0^{m - 1}"
        G = [parse_xpoly(str(g), 2) for g in T.gens if str(g) != head]
        G.append(parse_xpoly(f"{head} + x1*x0^{m - 1} + x0^{m}", 2))
        code, out, _ = run(capsys, "check-basis", "--sat", '{"n":2,"gens":["x2","x1^2"]}',
                           "--m", str(m), "--set", json.dumps([str(f) for f in G]))
        assert code == 0 and out == "false\n"
        assert _span_dimension(G, m + 1) > len(T.monomials_at(m + 1))

    def test_check_basis_needs_an_admissible_hilbert_polynomial(self, capsys):
        # S/(0) has Hilbert polynomial C(t+2, 2), of degree n = 2
        code, out, err = run(capsys, "check-basis", "--sat", '{"n":2,"gens":[]}',
                             "--m", "1", "--set", "[]")
        assert code == 3 and not out
        assert err == "error: degree 2 polynomial is not admissible in P^2\n"

    def test_check_basis_needs_a_strongly_stable_truncation(self, capsys):
        # x1*f - x0*f lies in (f) and outside (x1*x0), yet dimensions matched
        code, out, err = run(capsys, "check-basis", "--sat", '{"n":2,"gens":[[1,1,0]]}',
                             "--m", "2", "--set", '["2*x2^2 + x1^2 + x1*x0 + x0^2"]')
        assert code == 3 and not out and "(x1*x0) is not strongly stable" in err


def _span_dimension(forms, t):
    """dim of the degree-t part of (forms): rank of all monomial multiples."""
    n = forms[0].n
    cols = {m: i for i, m in enumerate(monomials_of_degree(n, t))}
    rows = []
    for f in forms:
        for u in monomials_of_degree(n, t - f.degree):
            row = [Fraction(0)] * len(cols)
            for mon, c in f.terms:
                row[cols[mon * u]] = c
            rows.append(row)
    return linalg.rank(dict_rows(rows))


class TestClassifyAndAtlas:
    def test_classify(self, capsys):
        code, out, _ = run(capsys, "borel-classify", "--n", "3", "--hp", "3*t",
                           "--json")
        data = json.loads(out)
        assert len(data["charts"]) == 1
        assert len(data["empty_charts"]) == 4

    def test_atlas_to_file(self, capsys, tmp_path):
        path = tmp_path / "atlas.json"
        code, out, _ = run(capsys, "atlas", "--n", "2", "--hp", "4",
                           "--out", str(path))
        assert code == 0
        data = json.loads(path.read_text())
        assert data["D"] == 44 and len(data["charts"]) == 2


# sha256 of `borel-classify --json` stdout, pinned byte for byte
CLASSIFY_GOLDENS = {
    ("4*t",): "68bbe8d66cb3ec0d31461e577a6997f953e88ce0710ec0c13c81dd8a36a2a776",
    ("4*t+1",): "56b6de6fcfb6fbaff8cc445b07208ffd8738013c44eb6dff556fed38ca6eedcb",
    ("5*t-2", "--max-ambient", "200"):
        "104a414b00bc9d3e23b87b2a73f52982fd599f250196060050dc633bbac5d7e8",
}


class TestClassifyGolden:
    @pytest.mark.parametrize("args", list(CLASSIFY_GOLDENS))
    def test_json_bytes(self, capsys, args):
        code, out, err = run(capsys, "borel-classify", "--n", "3", "--hp",
                             *args, "--json")
        assert code == 0 and not err
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == CLASSIFY_GOLDENS[args]

    @pytest.mark.parametrize("command", ["borel-classify", "atlas", "borel-list"])
    def test_ambient_cap_before_listing(self, capsys, command):
        # listing the 100001 linear forms before the cap check ran for minutes
        start = time.perf_counter()
        code, out, err = run(capsys, command, "--n", "100000", "--hp", "1")
        assert code == 4 and not out
        assert "dim S_1 = 100001 exceeds the enumeration cap 120" in err
        assert "Traceback" not in err
        assert time.perf_counter() - start < 10


P100000_X1 = '{"n":100000,"gens":["x1"]}'
LISTING_CAP = ("the degree-{} monomials of P^{} exceed the listing cap of 10000000 "
               "exponent entries")


class TestListingCap:
    @pytest.mark.parametrize("argv, message", [
        # open-set reads the Hilbert polynomial first, and its degree n - 1
        # meets the --hp cap before any slice is listed
        (("open-set", "--ideal", P100000_X1),
         "Hilbert polynomial degree 99999 exceeds the cap 100"),
        (("open-set", "--ideal", '{"n":3000,"gens":["x1"]}'),
         "Hilbert polynomial degree 2999 exceeds the cap 100"),
        (("chart-form", "--ideal", P100000_X1, "--chart", P100000_X1),
         LISTING_CAP.format(1, 100000)),
        (("pluecker", "--ideal", P100000_X1, "--chart", P100000_X1),
         LISTING_CAP.format(1, 100000)),
        (("marked-scheme", "--sat", '{"n":100000,"gens":["x100000"]}', "--m", "1"),
         LISTING_CAP.format(1, 100000)),
    ], ids=["open-set", "open-set-quadrics", "chart-form", "pluecker",
            "marked-scheme"])
    def test_cap_before_listing(self, capsys, argv, message):
        # each of these listed a slice of millions of monomials, or tuples of
        # length 100001, before any cap was checked
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert code == 4 and not out
        assert message in err
        assert "Traceback" not in err
        assert time.perf_counter() - start < 10

    @pytest.mark.parametrize("sat, head, exit_code, message", [
        (P100000_X1, "x1", 3, "(x1) is not strongly stable"),
        ('{"n":100000,"gens":["x100000"]}', "x100000", 4,
         "Hilbert polynomial degree 99999 exceeds the cap 100"),
        ('{"n":3000,"gens":["x3000"]}', "x3000", 4,
         "Hilbert polynomial degree 2999 exceeds the cap 100"),
    ], ids=["not-borel", "degree-cap", "degree-cap-P3000"])
    def test_check_basis_refused_before_listing(self, capsys, sat, head,
                                                exit_code, message):
        # (x3000) passed the listing cap and then interpolated a polynomial
        # of degree 3000
        start = time.perf_counter()
        code, out, err = run(capsys, "check-basis", "--sat", sat, "--m", "1",
                             "--set", json.dumps([head]))
        assert code == exit_code and not out and message in err
        assert "Traceback" not in err
        assert time.perf_counter() - start < 10

    def test_check_basis_answers_where_the_rank_walk_met_the_matrix_cap(self, capsys):
        # the Gotzmann number 120 would call for Macaulay ranks up to degree
        # 121, past the matrix cap at degree 79; the reduction forms none
        start = time.perf_counter()
        code, out, err = run(capsys, "check-basis", "--sat",
                             '{"n":2,"gens":[[0,0,1],[0,120,0]]}', "--m", "1",
                             "--set", '["x2","x1^120"]')
        assert code == 0 and out == "true\n" and not err
        assert time.perf_counter() - start < 10

    def test_macaulay_matrix_cap(self, capsys):
        # the Hilbert walk of the sextics ranked ever larger degree slices,
        # past 1.1 GiB, until a cap on the size of one matrix stopped it at
        # degree 24; their Hilbert polynomial 216 now comes from the initial
        # ideal, and the ambient cap stops the chart search.  The matrix cap
        # keeps its test in test_chart.py
        start = time.perf_counter()
        code, out, err = run(capsys, "open-set", "--ideal",
                             '{"n":3,"gens":["x3^6","x2^6","x1^6"]}')
        assert code == 4 and not out
        assert "dim S_216 = 1726669 exceeds the enumeration cap 120" in err
        assert "Traceback" not in err
        assert time.perf_counter() - start < 30

    def test_largest_listing_under_the_cap(self, capsys):
        # the 3001 linear forms of P^3000 hold 9 006 001 exponent entries
        ideal = '{"n":3000,"gens":["x1"]}'
        code, out, err = run(capsys, "chart-form", "--ideal", ideal, "--chart", ideal)
        assert code == 0 and out == "x1\n" and not err


class TestCertify:
    def test_fast_fixture(self, capsys):
        code, out, _ = run(capsys, "certify", "a12-chart")
        assert code == 0
        assert "[ok]" in out and "FAIL" not in out

    def test_unknown_name(self, capsys):
        code, _, err = run(capsys, "certify", "no-such-fixture")
        assert code == 2

    # sha256 of stdout of every certificate, as text and as JSON
    @pytest.mark.parametrize("argv, digest", [
        ((), "dac0af8f525fa040d55dd20b2f9ccf32cbe1d55e739aec6124f4e8d8a779af91"),
        (("--json",),
         "d20df1cdab525f4ed4efb46cad93a95a542f160f492fc2ec08813e1205ba4d5f"),
    ], ids=["text", "json"])
    def test_all_stdout_bytes(self, capsys, argv, digest):
        code, out, err = run(capsys, "certify", "all", *argv)
        assert code == 0 and not err
        assert _sha256(out.encode()) == digest


LONG_LITERAL = "1" * 5000
NINES = "9" * 3000


class TestExitCodes:
    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "open-set", "--ideal", "{not json")
        assert code == 2 and err

    def test_math_domain_error(self, capsys):
        code, _, err = run(capsys, "gotzmann", "--n", "2", "--hp", "t^2")
        assert code == 3 and err

    def test_zero_hilbert_polynomial(self, capsys):
        code, out, err = run(capsys, "open-set", "--ideal",
                             '{"n":2,"gens":[[3,0,0],[0,3,0],[0,0,3]]}')
        assert code == 3 and not out and "zero Hilbert polynomial" in err

    @pytest.mark.parametrize("bound", ["0", "-2"])
    def test_open_set_rejects_bound_below_one(self, capsys, bound):
        code, out, err = run(capsys, "open-set", "--ideal",
                             '{"n":2,"gens":["x2^2","x1^2"]}', "--bound", bound)
        assert code == 3 and not out and "bound must be at least 1" in err

    @pytest.mark.parametrize("argv", [
        ("marked-scheme", "--sat", '{"n":2,"gens":[[0,-1,1]]}', "--m", "2"),
        ("open-set", "--ideal", '{"n":2,"gens":[[0,-1,2],[0,2,0]]}'),
    ])
    def test_negative_exponent_is_a_parse_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out and "negative exponent" in err

    @pytest.mark.parametrize("items", ["[1]", '["x2*x1", null]', '[["x2"]]'])
    def test_check_basis_set_entries_must_be_strings(self, capsys, items):
        code, out, err = run(capsys, "check-basis", "--sat",
                             '{"n":2,"gens":[[0,0,1],[0,3,0]]}', "--m", "3",
                             "--set", items)
        assert code == 2 and not out and "polynomial strings" in err

    @pytest.mark.parametrize("n", ["-1", "1.5", "true", '"2"'])
    @pytest.mark.parametrize("command, flag, extra", [
        ("marked-scheme", "--sat", ("--m", "1")),
        ("check-basis", "--sat", ("--m", "1", "--set", "[]")),
        ("open-set", "--ideal", ()),
    ])
    def test_ambient_index_must_be_a_natural_number(self, capsys, n, command,
                                                     flag, extra):
        ideal = '{"n":%s,"gens":[[0,1],[1,0]]}' % n
        code, out, err = run(capsys, command, flag, ideal, *extra)
        assert code == 2 and not out and "'n' must be a non-negative integer" in err

    @pytest.mark.parametrize("exps", ["[0,1.5,0]", "[0,true,0]"])
    def test_exponents_must_be_integers(self, capsys, exps):
        code, out, err = run(capsys, "marked-scheme", "--sat",
                             '{"n":2,"gens":[%s,[0,0,1]]}' % exps, "--m", "1")
        assert code == 2 and not out and "is not an integer" in err

    def test_scale_cap(self, capsys):
        # the large stretch family stays behind the cap flags
        code, _, err = run(capsys, "borel-list", "--n", "3", "--hp", "7*t-5")
        assert code == 4 and err

    @pytest.mark.parametrize("gens, message", [
        ('["x2^100000000","x1"]', "exponent 100000000 exceeds the cap"),
        ('["(x2+x1+x0)^200"]', "term products"),
    ])
    def test_parse_work_is_capped(self, capsys, gens, message):
        # parsing alone used to run for minutes on these
        start = time.perf_counter()
        code, out, err = run(capsys, "open-set", "--ideal",
                             '{"n":2,"gens":%s}' % gens)
        assert code == 4 and not out and message in err
        assert time.perf_counter() - start < 10

    DEEP = "(" * 3000 + "x1" + ")" * 3000

    @pytest.mark.parametrize("argv", [
        ("chart-form", "--ideal", '{"n":2,"gens":["%s"]}' % DEEP,
         "--chart", '{"n":2,"gens":[[0,1,0]]}'),
        ("chart-form", "--ideal", '{"n":2,"gens":["x1"]}',
         "--chart", '{"n":2,"gens":["%s"]}' % DEEP),
        ("marked-scheme", "--sat", '{"n":2,"gens":["%s"]}' % DEEP, "--m", "1"),
        ("check-basis", "--sat", '{"n":2,"gens":[[0,1,0]]}', "--m", "1",
         "--set", '["%s"]' % DEEP),
    ], ids=["ideal", "chart", "sat", "set"])
    def test_deep_parentheses_are_capped(self, capsys, argv):
        # 3000 nested parentheses used to end in a RecursionError traceback
        code, out, err = run(capsys, *argv)
        assert code == 4 and not out
        assert err == "error: parentheses nest deeper than the cap 100\n"

    @pytest.mark.parametrize("hp", [LONG_LITERAL, LONG_LITERAL + "*t",
                                    "t^" + LONG_LITERAL],
                             ids=["constant", "coefficient", "exponent"])
    def test_long_literal_in_hilbert_polynomial(self, capsys, hp):
        # int() refuses more than 4300 digits by default
        code, out, err = run(capsys, "gotzmann", "--n", "2", "--hp", hp)
        assert code == 2 and not out and "digits" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("hp", [
        "5--3", "2*t--1", "7+", "+", "-", "t2", "2t3", "3*t^", "t**", "3*", "*t"])
    def test_malformed_hilbert_polynomial(self, capsys, hp):
        # these read as other polynomials, or ended in a traceback
        code, out, err = run(capsys, "gotzmann", "--n", "3", "--hp", hp)
        assert code == 2 and not out and err.startswith("error: ")
        assert "Traceback" not in err

    def test_long_literal_in_polynomial(self, capsys):
        code, out, err = run(capsys, "open-set", "--ideal",
                             '{"n":2,"gens":["%s*x2","x1"]}' % LONG_LITERAL)
        assert code == 2 and not out and "digits" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("hp, degree", [
        ("t^101", 101), ("t^1000", 1000), ("2*t^100000000+1", 100000000)])
    def test_hilbert_polynomial_degree_is_capped(self, capsys, hp, degree):
        # converting to the binomial basis costs about the cube of the degree
        start = time.perf_counter()
        code, out, err = run(capsys, "gotzmann", "--n", "2", "--hp", hp)
        assert code == 4 and not out
        assert f"degree {degree} exceeds the cap 100" in err
        assert time.perf_counter() - start < 10

    def test_hilbert_polynomial_at_the_degree_cap_parses(self, capsys):
        # it parses, then is inadmissible in P^2
        code, out, err = run(capsys, "gotzmann", "--n", "2", "--hp", "t^100")
        assert code == 3 and not out
        assert "degree 100 polynomial is not admissible in P^2" in err

    @pytest.mark.parametrize("as_json", [(), ("--json",)], ids=["text", "json"])
    @pytest.mark.parametrize("command, gens, chart", [
        # the square of a 3000-digit coefficient lands in the marked set
        ("chart-form", ["x2^2", f"x2*x1 + {NINES}^2*x1^2"], [[0, 0, 2], [0, 1, 1]]),
        # ... and in the minor on the chart's columns, x2*x0 not a pivot
        ("pluecker", ["x2^2", "x2*x1", f"x1^2 + {NINES}^2*x2*x0"],
         [[0, 0, 2], [0, 1, 1], [1, 0, 1]]),
    ], ids=["chart-form", "pluecker"])
    def test_number_too_long_to_print(self, capsys, command, gens, chart, as_json):
        code, out, err = run(capsys, command,
                             "--ideal", json.dumps({"n": 2, "gens": gens}),
                             "--chart", json.dumps({"n": 2, "gens": chart}),
                             *as_json)
        assert code == 4 and not out
        assert "cannot print a number of more than 4300 digits" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("as_json", [(), ("--json",)], ids=["text", "json"])
    def test_chart_constants_too_long_to_print(self, capsys, as_json):
        # D = 512 * (C(10^12 + 512, 512) - 512) has about 4980 digits
        code, out, err = run(capsys, "gotzmann", "--n", str(10 ** 12), "--hp", "512",
                             *as_json)
        assert code == 4 and not out
        assert "cannot print a number of more than 4300 digits" in err

    def test_atlas_to_unwritable_path(self, capsys, tmp_path):
        path = tmp_path / "missing" / "atlas.json"
        code, out, err = run(capsys, "atlas", "--n", "2", "--hp", "3",
                             "--out", str(path))
        assert code == 2 and not out and "error: cannot write atlas:" in err
        assert not path.exists()

    @pytest.mark.parametrize("command, extra", [
        ("marked-scheme", ()),
        ("check-basis", ("--set", "[]")),
    ])
    def test_truncation_is_capped(self, capsys, command, extra):
        # truncating (x2, x1^2) at degree 1000 would form 10^6 monomials
        start = time.perf_counter()
        code, out, err = run(capsys, command, "--sat",
                             '{"n":2,"gens":[[0,0,1],[0,2,0]]}', "--m", "1000",
                             *extra)
        assert code == 4 and not out
        assert "would form 1000000 monomials, over the cap 10000" in err
        assert time.perf_counter() - start < 10

    @pytest.mark.parametrize("g", [
        "5", "[1,2,3]", '[["a",0,0],[0,1,0],[0,0,1]]', '{"a":1}', "1e400",
        "[[1.5,0,0],[0,1,0],[0,0,1]]", "[[true,0,0],[0,1,0],[0,0,1]]",
        '[["1/0",0,0],[0,1,0],[0,0,1]]',
    ])
    def test_open_set_g_must_be_a_rational_matrix(self, capsys, g):
        code, out, err = run(capsys, "open-set", "--ideal",
                             '{"n":2,"gens":["x2^2","x1^2"]}', "--g", g)
        assert code == 2 and not out
        assert err.startswith("error: --g") and "Traceback" not in err

    def test_open_set_g_entries_kept_as_given(self, capsys):
        g = [["1", 0, 0], [0, "2/2", "1"], [0, 0, 1]]
        code, out, err = run(capsys, "open-set", "--ideal",
                             '{"n":2,"gens":["x2^2","x1^2"]}', "--g",
                             json.dumps(g), "--all-charts", "--json")
        assert code == 0 and not err
        assert json.loads(out)["g"] == g

    @pytest.mark.parametrize("gens, message", [
        ("[3]", "bad generator 3"),
        ('["C[1,1]*x1"]', "ideal generators must not contain parameters"),
        ('["0"]', "ideal has no nonzero generators"),
        ("[]", "ideal has no nonzero generators"),
    ], ids=["bad-generator", "parameters", "zero", "empty"])
    def test_open_set_generators_are_nonzero_forms(self, capsys, gens, message):
        code, out, err = run(capsys, "open-set", "--ideal", '{"n":2,"gens":%s}' % gens)
        assert code == 2 and not out
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("gotzmann", "--n", "2", "--hp=--"),
        ("borel-list", "--n=--", "--hp", "4"),
        ("open-set", "--ideal=--"),
        ("open-set", "--ideal", '{"n":2,"gens":["x2"]}', "--seed=--"),
        ("marked-scheme", "--sat", '{"n":2,"gens":["x2"]}', "--m", "1", "--format=--"),
        ("check-basis", "--sat", '{"n":2,"gens":["x2"]}', "--m=--", "--set", "[]"),
    ], ids=["hp", "n", "ideal", "seed", "format", "m"])
    def test_double_dash_as_an_option_value(self, capsys, argv):
        # argparse gives each of these options the value []
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert "an option was given '--' as its value" in err and "Traceback" not in err

    def test_open_set_ambient_cap_within_budget(self, capsys):
        # the Hilbert polynomial 25 is read before the ambient cap is checked,
        # so finding it must stay within budget
        start = time.perf_counter()
        code, out, err = run(capsys, "open-set", "--ideal",
                             '{"n":2,"gens":["x2^5","x1^5"]}')
        assert code == 4 and not out
        assert "dim S_25 = 351 exceeds the enumeration cap 120" in err
        assert time.perf_counter() - start < 10

    def test_small_ambient_cap_bounds_the_hilbert_polynomial(self, capsys):
        # a quadric and a quartic in P^3: the certified walk ranked 18 whole
        # degree slices, about 8 s, before this cap could fire
        ideal = json.dumps({"n": 3, "gens": [
            "7/2*x2^1*x0^1 + 7/2*x1^2 + 1/3*x3^1*x0^1 + 2*x2^2",
            "(1/3*x3^2+1/3*x3^1*x0^1+2*x1^1*x0^1)^2"]})
        start = time.perf_counter()
        code, out, err = run(capsys, "open-set", "--ideal", ideal,
                             "--max-ambient=12", "--all-charts")
        assert code == 4 and not out
        assert "dim S_20 = 1771 exceeds the enumeration cap 12" in err
        assert "Traceback" not in err
        assert time.perf_counter() - start < 0.5


# stdout of `marked-scheme --format json` on two charts, pinned byte for byte;
# both strategies print the same generators here
MARKED_SCHEME_GOLDEN = {
    ('{"n":2,"gens":["x2^2","x2*x1","x1^3"]}', "2"): (
        '{"bound_count": null, "bound_degree": null, "generators":'
        ' ["-C[2,1]^2*C[2,2] - C[2,1]^2*C[3,1] - C[1,1]*C[2,2] + C[1,1]*C[3,1]'
        ' + C[1,2]*C[2,1] - 2*C[2,1]*C[2,3] + C[1,3]",'
        ' "-C[2,1]*C[2,2]^2 - C[2,1]^2*C[3,2] + C[1,1]*C[3,2] - C[2,2]*C[2,3]'
        ' - C[2,4]",'
        ' "-C[2,1]*C[2,2]*C[2,3] - C[2,1]^2*C[3,3] + C[1,1]*C[3,3] +'
        ' C[1,2]*C[2,3] - C[1,3]*C[2,2] - C[2,1]*C[2,4] - C[2,3]^2 + C[1,4]",'
        ' "-C[2,1]*C[2,2]*C[2,4] - C[2,1]^2*C[3,4] + C[1,1]*C[3,4] +'
        ' C[1,2]*C[2,4] - C[1,4]*C[2,2] - C[2,3]*C[2,4]",'
        ' "C[2,1]*C[2,2]^2 + C[2,1]^2*C[3,2] - C[1,1]*C[3,2] + C[2,2]*C[2,3] +'
        ' C[2,4]",'
        ' "2*C[2,1]*C[2,2]*C[3,2] - C[2,2]^2*C[3,1] + C[2,2]^3 - C[1,2]*C[3,2]'
        ' - C[2,2]*C[3,3] + C[2,3]*C[3,2] - C[3,4]",'
        ' "C[2,1]*C[2,2]*C[3,3] + C[2,1]*C[2,3]*C[3,2] - C[2,2]*C[2,3]*C[3,1]'
        ' + C[2,2]^2*C[2,3] - C[1,3]*C[3,2] + C[2,1]*C[3,4] + C[2,2]*C[2,4] -'
        ' C[2,4]*C[3,1]",'
        ' "C[2,1]*C[2,2]*C[3,4] + C[2,1]*C[2,4]*C[3,2] - C[2,2]*C[2,4]*C[3,1]'
        ' + C[2,2]^2*C[2,4] - C[1,4]*C[3,2] + C[2,3]*C[3,4] - C[2,4]*C[3,3]"],'
        ' "m": 2, "max_chain": 2, "max_degree": 3, "num_vars": 12,'
        ' "spair_count": 2}'
        '\n'),
    ('{"n":2,"gens":["x2","x1^3"]}', "3"): (
        '{"bound_count": 27, "bound_degree": 2, "generators": ["C[1,1]*C[4,1]'
        ' - C[2,1]*C[3,1] - C[2,2]*C[6,1] - C[2,3]*C[7,1] + C[1,2]",'
        ' "C[1,1]*C[4,2] - C[2,1]*C[3,2] - C[2,2]*C[6,2] - C[2,3]*C[7,2] +'
        ' C[1,3]",'
        ' "C[1,1]*C[4,3] - C[2,1]*C[3,3] - C[2,2]*C[6,3] - C[2,3]*C[7,3]",'
        ' "C[2,1]*C[4,1] - C[3,1]^2 - C[3,2]*C[6,1] - C[3,3]*C[7,1] + C[2,2]",'
        ' "C[2,1]*C[4,2] - C[3,1]*C[3,2] - C[3,2]*C[6,2] - C[3,3]*C[7,2] +'
        ' C[2,3]",'
        ' "C[2,1]*C[4,3] - C[3,1]*C[3,3] - C[3,2]*C[6,3] - C[3,3]*C[7,3]",'
        ' "-C[4,2]*C[6,1] - C[4,3]*C[7,1] + C[3,2]",'
        ' "C[3,1]*C[4,2] - C[3,2]*C[4,1] - C[4,2]*C[6,2] - C[4,3]*C[7,2] +'
        ' C[3,3]",'
        ' "C[3,1]*C[4,3] - C[3,3]*C[4,1] - C[4,2]*C[6,3] - C[4,3]*C[7,3]",'
        ' "-C[4,1]*C[5,1] + C[2,1] - C[5,2]",'
        ' "-C[4,2]*C[5,1] + C[2,2] - C[5,3]",'
        ' "-C[4,3]*C[5,1] + C[2,3]",'
        ' "-C[3,1]*C[5,1] - C[5,2]*C[6,1] - C[5,3]*C[7,1] + C[1,1]",'
        ' "-C[3,2]*C[5,1] - C[5,2]*C[6,2] - C[5,3]*C[7,2] + C[1,2]",'
        ' "-C[3,3]*C[5,1] - C[5,2]*C[6,3] - C[5,3]*C[7,3] + C[1,3]",'
        ' "-C[4,1]*C[6,1] + C[3,1] - C[6,2]",'
        ' "-C[4,2]*C[6,1] + C[3,2] - C[6,3]",'
        ' "-C[4,3]*C[6,1] + C[3,3]",'
        ' "-C[3,1]*C[6,1] - C[6,1]*C[6,2] - C[6,3]*C[7,1] + C[2,1]",'
        ' "-C[3,2]*C[6,1] - C[6,2]^2 - C[6,3]*C[7,2] + C[2,2]",'
        ' "-C[3,3]*C[6,1] - C[6,2]*C[6,3] - C[6,3]*C[7,3] + C[2,3]",'
        ' "-C[4,1]*C[7,1] + C[6,1] - C[7,2]",'
        ' "-C[4,2]*C[7,1] + C[6,2] - C[7,3]",'
        ' "-C[4,3]*C[7,1] + C[6,3]",'
        ' "-C[3,1]*C[7,1] - C[6,1]*C[7,2] - C[7,1]*C[7,3] + C[5,1]",'
        ' "-C[3,2]*C[7,1] - C[6,2]*C[7,2] - C[7,2]*C[7,3] + C[5,2]",'
        ' "-C[3,3]*C[7,1] - C[6,3]*C[7,2] - C[7,3]^2 + C[5,3]"], "m": 3,'
        ' "max_chain": 1, "max_degree": 2, "num_vars": 21, "spair_count": 9}'
        '\n'),
}


class TestMarkedSchemeGolden:
    @pytest.mark.parametrize("sat, m", list(MARKED_SCHEME_GOLDEN))
    def test_json_bytes(self, capsys, sat, m):
        code, out, err = run(capsys, "marked-scheme", "--sat", sat, "--m", m,
                             "--format", "json")
        assert code == 0 and not err
        assert out == MARKED_SCHEME_GOLDEN[(sat, m)]

    def test_reduction_order_is_not_an_option(self, capsys):
        sat, m = next(iter(MARKED_SCHEME_GOLDEN))
        with pytest.raises(SystemExit) as exc:
            main(["marked-scheme", "--sat", sat, "--m", m, "--strategy", "smallest"])
        out = capsys.readouterr()
        assert exc.value.code == 2 and not out.out
        assert "unrecognized arguments: --strategy smallest" in out.err
        assert "Traceback" not in out.err


# sha256 of the marked-scheme JSON of the large charts and of the 7-point
# atlas with equations
LARGE_CHART_GOLDEN = {
    '{"n":2,"gens":["x2","x1^10"]}':
        ("10", "6ba3da5d5a0d831ebd02f1ca00b3ff41f09ebeff57c59d215cc7418e4fedcb2a"),
    '{"n":3,"gens":["x3","x2^3"]}':
        ("3", "7486c0b1ffe24f1baac9827e61f46a96b0b80755b9ad34214f9a698aa15bea6f"),
}
ATLAS_7_POINTS_GOLDEN = \
    "12311c174d2aaa237870737aec68d2c4745ba804d4a786bc0fa92662d733cbcb"


class TestLargeChartGolden:
    @pytest.mark.parametrize("sat", list(LARGE_CHART_GOLDEN))
    def test_marked_scheme_json(self, capsys, sat):
        m, digest = LARGE_CHART_GOLDEN[sat]
        code, out, err = run(capsys, "marked-scheme", "--sat", sat, "--m", m,
                             "--format", "json")
        assert code == 0 and not err
        assert _sha256(out.encode()) == digest

    def test_atlas_with_equations(self, capsys):
        code, out, err = run(capsys, "atlas", "--n", "2", "--hp", "7",
                             "--with-equations", "--m", "reg")
        assert code == 0 and not err
        assert _sha256(out.encode()) == ATLAS_7_POINTS_GOLDEN


# sha256 of stdout of each README command-line example (and of the full
# classification of 4t in P^3, which prints every empty locus's quotient
# polynomial), pinned so that refactors keep every output byte for byte
README_GOLDEN = [
    (("gotzmann", "--n", "3", "--hp", "4*t"),
     "22daf259873f59bad8a12f72080446f81ff528f4a9a6c7bfd8dd30be167a3dae"),
    (("borel-list", "--n", "2", "--hp", "7"),
     "73faadf0ce107ffd58513a206436efb9ca1b61fba1355754b963a2f103e47668"),
    (("borel-classify", "--n", "3", "--hp", "3*t"),
     "0f252e032ba34449003659108d2858a0053f659f2863b6bb73f72051a26c1ab2"),
    (("open-set", "--ideal", '{"n":2,"gens":["x2^2","x1^2"]}', "--seed", "1",
      "--json"),
     "6c026b6b2b3204a2a167933885cf6fd01abcee71cbbc3e653d3f81e4d0ca2b56"),
    (("chart-form", "--ideal", '{"n":2,"gens":["x2^2","x2^2+2*x2*x1+x1^2"]}',
      "--chart", '{"n":2,"gens":[[0,0,2],[0,1,1]]}'),
     "a988eb9e0e320b08ee303cc512c869bb59c8fa9867818086ce0d982716cab7c1"),
    (("pluecker", "--ideal", '{"n":2,"gens":["x2^2","x2*x1"]}',
      "--chart", '{"n":2,"gens":[[0,0,2],[0,1,1]]}'),
     "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865"),
    (("marked-scheme", "--sat", '{"n":2,"gens":[[0,0,2],[0,1,1],[0,3,0]]}',
      "--m", "2"),
     "5c5ece7cd0f6479ac1f8bcbbfcf982e10c8f528334f377199780c46d2007c56a"),
    (("check-basis", "--sat", '{"n":2,"gens":[[0,0,1],[0,2,0]]}', "--m", "1",
      "--set", '["x2 + 2*x1 - x0", "x1^2 - x1*x0"]'),
     "a17fcf0a2f50e2d495e4f90ce263410edc183add6c62699a2facbccf60410f74"),
    (("borel-classify", "--n", "3", "--hp", "4*t", "--json"),
     "68bbe8d66cb3ec0d31461e577a6997f953e88ce0710ec0c13c81dd8a36a2a776"),
]


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


class TestReadmeExamples:
    @pytest.mark.parametrize("argv, digest", README_GOLDEN,
                             ids=[argv[0] for argv, _ in README_GOLDEN])
    def test_stdout_bytes(self, capsys, argv, digest):
        code, out, err = run(capsys, *argv)
        assert code == 0 and not err
        assert _sha256(out.encode()) == digest

    def test_atlas_file_bytes(self, capsys, tmp_path):
        path = tmp_path / "atlas.json"
        code, _, err = run(capsys, "atlas", "--n", "2", "--hp", "4",
                           "--with-equations", "--m", "rho", "--out", str(path))
        assert code == 0 and not err
        assert _sha256(path.read_bytes()) == \
            "e75fb631584f408011ecd77a3c6240ac5676f3bd58103d38296e6aa4a56b2a82"


# the README examples whose output a string-hash order could reach, and the
# certification run
HASH_SEED_ARGV = [argv for argv, _ in README_GOLDEN
                  if argv[0] in ("open-set", "marked-scheme")
                  or argv[:5] == ("borel-classify", "--n", "3", "--hp", "3*t")]
HASH_SEED_ARGV.append(("certify", "all"))


class TestOutputIgnoresStringHashing:
    def test_stdout_bytes_under_two_hash_seeds(self):
        src = Path(borelcover.__file__).resolve().parents[1]
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        outputs = {}
        for hash_seed in ("0", "2718281"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": path}
            outputs[hash_seed] = [
                subprocess.run([sys.executable, "-m", "borelcover.cli", *argv], env=env,
                               capture_output=True, check=True, timeout=120).stdout
                for argv in HASH_SEED_ARGV]
        assert len(HASH_SEED_ARGV) == 4 and all(outputs["0"])
        assert outputs["0"] == outputs["2718281"]
