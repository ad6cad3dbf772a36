import json

import pytest

from borelcover.borel import MonomialIdeal
from borelcover.cli import main


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


class TestChartPipeline:
    def test_chart_form(self, capsys):
        ideal = json.dumps({"n": 2,
                            "gens": ["x2^2", "x2^2 + 2*x2*x1 + x1^2"]})
        chart = json.dumps({"n": 2, "gens": [[0, 0, 2], [0, 1, 1]]})
        code, out, _ = run(capsys, "chart-form", "--ideal", ideal,
                           "--chart", chart)
        assert code == 0
        assert out.splitlines() == ["x2^2", "x2*x1 + 1/2*x1^2"]

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


class TestCertify:
    def test_fast_fixture(self, capsys):
        code, out, _ = run(capsys, "certify", "a12-chart")
        assert code == 0
        assert "[ok]" in out and "FAIL" not in out

    def test_unknown_name(self, capsys):
        code, _, err = run(capsys, "certify", "no-such-fixture")
        assert code == 2


class TestExitCodes:
    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "open-set", "--ideal", "{not json")
        assert code == 2 and err

    def test_math_domain_error(self, capsys):
        code, _, err = run(capsys, "gotzmann", "--n", "2", "--hp", "t^2")
        assert code == 3 and err

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

    def test_scale_cap(self, capsys):
        # the large stretch family stays behind the cap flags
        code, _, err = run(capsys, "borel-list", "--n", "3", "--hp", "7*t-5")
        assert code == 4 and err
