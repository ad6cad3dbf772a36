"""Every function of `src/borelcover` runs on some program path, or is kept
for a stated reason.

A fresh interpreter records `sys.settrace` call events over the README
command-line examples, the option paths of `open-set` that they miss, the
README library sketch, and `chart_form` plus `in_hilb` on the located point
as the `locate` workload of `perfbench` runs them.  A fresh interpreter, so
that no `lru_cache` memo that earlier tests filled can hide a call.  The
functions it never enters must be exactly the names of KEEP.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import borelcover

from test_cli import README_GOLDEN

# unreached on the traced paths, each kept for the reason given
KEEP = {
    "ring.Monomial.divides": "perfbench/tracer.py wraps it by name",
    "oracle.normal_form": "perfbench/tracer.py wraps it by name",
    "cover.gluing_degree": "perfbench/tracer.py wraps it by name; exported",
    "hilbert.hilbert_function": "perfbench/tracer.py wraps it by name; exported",
    "ring.ParamPoly.evaluate": "the tangent space at a point (ROADMAP item 11) evaluates",
    "oracle.EliminationResult.lift_point": "waits on graded elimination (ROADMAP item 2)",
    "marked.assignment_from_marked_set": "waits on the tangent space (ROADMAP item 11)",
    "hilbert.HilbertPoly.__eq__": "value semantics: ChartConstants compares through it",
    "hilbert.HilbertPoly.__hash__": "value semantics: ChartConstants hashes through it",
    "chart.marked_slice": "chart_form's fallback when the rows are not already marked",
    "borel.MonomialIdeal.monomials_at": "marked_slice lists the chart's monomials with it",
    "borel.MonomialIdeal.min_gen_degree": "_validate_level, when m < rho - 1",
    "oracle._past_cap": "the error path of a Groebner basis past its caps",
}

# open-set with an exponent-vector generator and --g, and with --all-charts
OPTION_PATHS = [
    ["open-set", "--ideal", '{"n":2,"gens":[[0,0,2],"x1^2"]}',
     "--g", '[[1,0,0],[0,1,"1/2"],[0,0,1]]'],
    ["open-set", "--ideal", '{"n":2,"gens":["x2^2","x1^2"]}', "--all-charts"],
]

CHILD = r'''
import contextlib
import importlib.util
import inspect
import io
import json
import sys
from pathlib import Path

SRC = importlib.util.find_spec("borelcover").submodule_search_locations[0]
called = set()


def record(frame, event, arg):
    code = frame.f_code
    if code.co_filename.startswith(SRC):
        called.add(f"{Path(code.co_filename).stem}.{code.co_qualname}")


def functions(code, module):
    """Qualified names of the functions and methods compiled in code."""
    for const in code.co_consts:
        if inspect.iscode(const):
            if const.co_flags & inspect.CO_OPTIMIZED and not const.co_name.startswith("<"):
                yield f"{module}.{const.co_qualname}"
            yield from functions(const, module)


sys.settrace(record)
from borelcover import cli

for argv in json.load(sys.stdin):
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(argv) != 0:
            raise SystemExit(f"nonzero exit status: {argv}")

# the README library sketch, then the locate workload's last two calls
from borelcover import (MonomialIdeal, borel_open_set, chart_constants,
                        enumerate_borel_saturated, parse_xpoly,
                        scheme_equations)
from borelcover.chart import chart_form, degree_basis, in_hilb
from borelcover.ring import apply_change_of_coords

sats = enumerate_borel_saturated(2, 4)
S = scheme_equations(sats[0], 2)
forms = [parse_xpoly("x2^2", 2), parse_xpoly("x1^2", 2)]
res = borel_open_set(forms, seed=0)
str(res.chart.saturation)
basis = degree_basis(forms, res.constants.r)
transformed = [apply_change_of_coords(f, res.g) for f in basis]
chart_form(transformed, res.chart.chart)
in_hilb(transformed, res.constants)
sys.settrace(None)

defined = set()
for path in Path(SRC).glob("*.py"):
    defined.update(functions(compile(path.read_text(), str(path), "exec"), path.stem))
print(json.dumps(sorted(defined - called)))
'''


def test_unreached_functions_are_the_kept_ones():
    readme = [list(argv) for argv, _ in README_GOLDEN]
    readme += [["atlas", "--n", "2", "--hp", "4", "--with-equations", "--m", "rho",
                "--out", os.devnull],
               ["certify", "all"]]
    src = Path(borelcover.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", CHILD], input=json.dumps(readme + OPTION_PATHS),
                         capture_output=True, text=True, check=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": path}).stdout
    unreached = set(json.loads(out))
    # (newly unreached functions, kept functions that a path now reaches)
    assert (sorted(unreached - KEEP.keys()), sorted(KEEP.keys() - unreached)) == ([], [])
