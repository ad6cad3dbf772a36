import hashlib
import json
import time

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
    @pytest.mark.parametrize("strategy", ["largest", "smallest"])
    @pytest.mark.parametrize("sat, m", list(MARKED_SCHEME_GOLDEN))
    def test_json_bytes(self, capsys, sat, m, strategy):
        code, out, err = run(capsys, "marked-scheme", "--sat", sat, "--m", m,
                             "--format", "json", "--strategy", strategy)
        assert code == 0 and not err
        assert out == MARKED_SCHEME_GOLDEN[(sat, m)]


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
