"""Command-line fuzz: arbitrary argument text through every subcommand.

Each run goes through `cli.main` in process and must end in a documented
exit code (0, 2, 3 or 4; 1 only from `certify`, for a failed certification),
print no traceback and finish within BUDGET_S seconds.  The strings come
both from small grammars, so that many of them parse and reach the
mathematics, and as free text and arbitrary JSON.  The structured ideals
live in P^n with n <= 3 and exponents <= 4, and the enumeration subcommands
get --max-ambient <= 40 and --max-nodes <= 5000, so a valid input stays
desk-scale; the default caps are exercised by the cap tests in test_cli.py.
The suite runs 300 derandomized examples, the same ones on every run.
"""

import json
import time

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from borelcover.cli import CERTIFICATIONS, main

# seconds per example; an example over it is a finding, not a reason to raise it
BUDGET_S = 5.0

free_text = st.text(max_size=24)


def mostly(good, bad):
    """good about three times in four, bad otherwise."""
    return st.sampled_from([good, good, good, bad]).flatmap(lambda strategy: strategy)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(["n", "gens"]) | st.text(max_size=4),
                                     inner, max_size=3)),
    max_leaves=10)

json_texts = json_values.map(json.dumps)

# saturated Borel ideals of P^2 and P^3, so that marked-scheme and
# check-basis often get past their input checks
BOREL = [(2, ["x2", "x1^3"]), (2, ["x2^2", "x2*x1", "x1^3"]), (2, ["x2", "x1"]),
         (3, ["x3", "x2^3"]), (3, ["x3^2", "x3*x2", "x3*x1", "x2^3"]), (3, ["x3", "x2"])]


@st.composite
def poly_texts(draw, n):
    """A form in x_0..x_n, now and then with a variable past P^n, a
    parameter, a division by zero, a large exponent or mixed degrees; or
    free text."""
    odd = draw(st.sampled_from([False] * 7 + [True]))
    if odd and draw(st.booleans()):
        return draw(st.text(alphabet="x0123^*+-/()C[], ", max_size=20))
    top = max(n, 0) + (1 if odd else 0)
    coeffs = ["", "2*", "1/3*", "7/2*"] + (["0*", "C[1,1]*", "1/0*"] if odd else [])
    degree = draw(st.integers(1, 3))
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        variables = draw(st.lists(st.integers(0, top), min_size=degree, max_size=degree))
        if odd:
            variables.append(draw(st.sampled_from([0, top])))
        mons = [f"x{i}^{variables.count(i)}" for i in sorted(set(variables), reverse=True)]
        terms.append(draw(st.sampled_from(coeffs)) + "*".join(mons))
    if odd and draw(st.booleans()):
        terms.append(draw(st.sampled_from(["x1^1001", "x1^-1", "x0 + 1"])))
    text = draw(st.sampled_from([" + ", " - ", "+"])).join(terms)
    return f"({text})^2" if draw(st.sampled_from([False] * 5 + [True])) else text


@st.composite
def structured_ideals(draw, n=None, degree=None):
    """{"n": n, "gens": [...]}: exponent vectors (of one degree when given)
    and polynomial strings, now and then with a malformed entry."""
    if n is None:
        n = draw(mostly(st.integers(1, 3), st.integers(-1, 0)))
    size = max(n + 1, 0)
    vectors = st.lists(st.integers(0, 4), min_size=size, max_size=size)
    if degree is not None:
        vectors = vectors.filter(lambda e: sum(e) == degree)
    gens = draw(st.lists(vectors | poly_texts(n), min_size=1, max_size=4))
    if draw(st.sampled_from([False, False, False, True])):
        gens.append(draw(st.lists(st.integers(-1, 4), max_size=5) | json_values))
    return json.dumps({"n": n, "gens": gens})


def ideal_texts(n=None, degree=None):
    return mostly(structured_ideals(n, degree), json_texts | free_text)


@st.composite
def hp_texts(draw):
    """Sums of terms such as 3*t, 1/2*t^2 or 7, or free text over their alphabet."""
    if draw(st.sampled_from([False, False, False, True])):
        return draw(st.text(alphabet="t0123456789+-*/^ −", max_size=16))
    terms = [draw(st.sampled_from(["+", "-"] if k else ["", "-", "+"]))
             + draw(st.sampled_from(["", "1", "2", "3", "4", "7", "1/2", "0"]))
             + draw(st.sampled_from(["", "*t", "*t", "t", "*t^2", "*t**2", "*t^3"]))
             for k in range(draw(st.integers(1, 3)))]
    return "".join(terms)


matrix_texts = st.one_of(
    st.lists(st.lists(mostly(st.integers(-3, 3), st.sampled_from(["1/2", "1/0", "x"])
                             | st.floats() | st.booleans()),
                      min_size=3, max_size=4), min_size=3, max_size=4).map(json.dumps),
    json_texts)

small_ints = mostly(st.integers(-1, 5).map(str), free_text)
flag = st.booleans()


def _opt(name, value):
    # "--name=value" keeps a value that starts with "-" from reading as a flag
    return [f"--{name}={value}"]


@st.composite
def caps(draw):
    return (_opt("max-ambient", draw(st.integers(-1, 40)))
            + _opt("max-nodes", draw(st.integers(-1, 5000))))


@st.composite
def hp_args(draw):
    n = mostly(st.integers(1, 4).map(str), st.integers().map(str) | free_text)
    return _opt("n", draw(n)) + _opt("hp", draw(hp_texts()))


def _json_flag(draw):
    return ["--json"] if draw(flag) else []


@st.composite
def sat_texts(draw):
    """A saturated Borel ideal of BOREL, or any ideal text."""
    if draw(st.booleans()):
        n, gens = draw(st.sampled_from(BOREL))
        return n, json.dumps({"n": n, "gens": gens})
    return 2, draw(ideal_texts())


@st.composite
def argv(draw):
    command = draw(st.sampled_from(["gotzmann", "borel-list", "borel-classify", "open-set",
                                    "chart-form", "pluecker", "marked-scheme",
                                    "check-basis", "atlas", "certify"]))
    args = [command]
    if command == "gotzmann":
        args += draw(hp_args()) + _json_flag(draw)
    elif command in ("borel-list", "borel-classify"):
        args += draw(hp_args()) + draw(caps()) + _json_flag(draw)
    elif command == "atlas":
        args += draw(hp_args()) + draw(caps())
        args += ["--with-equations"] if draw(flag) else []
        args += _opt("m", draw(st.sampled_from(["rho", "reg", "gotzmann"])))
    elif command == "open-set":
        args += _opt("ideal", draw(ideal_texts())) + draw(caps()) + _json_flag(draw)
        args += _opt("seed", draw(st.integers(-3, 3))) + _opt("bound", draw(st.integers(-1, 3)))
        args += _opt("max-tries", draw(st.integers(-1, 4)))
        args += _opt("g", draw(matrix_texts)) if draw(flag) else []
        args += ["--all-charts"] if draw(flag) else []
    elif command in ("chart-form", "pluecker"):
        n, degree = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        args += _opt("ideal", draw(ideal_texts(n)))
        args += _opt("chart", draw(ideal_texts(n, degree))) + _json_flag(draw)
    elif command == "marked-scheme":
        args += _opt("sat", draw(sat_texts())[1]) + _opt("m", draw(small_ints))
        args += _opt("format", draw(st.sampled_from(["text", "json"])))
    elif command == "check-basis":
        n, sat = draw(sat_texts())
        sets = mostly(st.lists(poly_texts(n), min_size=1, max_size=4).map(json.dumps),
                      json_texts | free_text)
        args += _opt("sat", sat) + _opt("m", draw(small_ints))
        args += _opt("set", draw(sets)) + _json_flag(draw)
    else:
        args += [draw(mostly(st.sampled_from(sorted(CERTIFICATIONS) + ["all"]), free_text))]
        args += _json_flag(draw)
    return args


def run_in_process(capsys, args):
    """Exit code, stderr and wall time of one CLI run; argparse exits too."""
    start = time.perf_counter()
    try:
        code = main(args)
    except SystemExit as exc:
        code = exc.code
    elapsed = time.perf_counter() - start
    return code, capsys.readouterr().err, elapsed


class TestCommandLineFuzz:
    @settings(max_examples=300, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture,
                                     HealthCheck.too_slow])
    @given(argv())
    def test_documented_exit_code_no_traceback_within_budget(self, capsys, args):
        code, err, elapsed = run_in_process(capsys, args)
        allowed = {0, 1, 2, 3, 4} if args[0] == "certify" else {0, 2, 3, 4}
        assert code in allowed, (code, err)
        assert "Traceback" not in err
        assert elapsed < BUDGET_S, elapsed
