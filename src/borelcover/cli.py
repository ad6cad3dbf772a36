"""Command-line interface.

Subcommands: gotzmann, borel-list, borel-classify, open-set, chart-form,
pluecker, marked-scheme, check-basis, atlas, certify.  Ideals are passed as
inline JSON or @file.json; all randomness is controlled by --seed, so fixed
inputs give byte-identical output.  Exit codes: 2 parse error, 3 mathematical
domain error, 4 scale cap, 1 failed certification.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from . import cover, fixtures, oracle
from .borel import (MAX_AMBIENT, MAX_NODES, MonomialIdeal, enumerate_borel_saturated,
                    ideal_json_fields, monomial_from_exponents, truncate)
from .chart import (all_charts, borel_open_set, chart_form, degree_basis,
                    pluecker_coordinate, random_coordinate_change)
from .errors import MathDomainError, ParseError, ScaleCapError
from .hilbert import chart_constants, parse_hilbert_poly
from .marked import is_marked_basis, scheme_equations
from .ring import XPoly, _number, parse_xpoly


def _load_json_arg(text):
    try:
        if text.startswith("@"):
            with open(text[1:], "r", encoding="utf-8") as fh:
                return json.load(fh)
        return json.loads(text)
    except (OSError, ValueError, RecursionError) as exc:
        raise ParseError(f"cannot read JSON argument: {exc}") from exc


def _monomial_ideal_arg(text) -> MonomialIdeal:
    return MonomialIdeal.from_json_dict(_load_json_arg(text))


_RATIONAL_RE = re.compile(r"[+-]?\d+(/\d+)?")


def _is_rational_entry(x):
    """Is x a JSON integer (not a bool) or a string such as "-3/4"?"""
    if not isinstance(x, str) or not _RATIONAL_RE.fullmatch(x):
        return type(x) is int
    try:
        Fraction(x)  # rejects "1/0" and more digits than int() accepts
    except (ValueError, ZeroDivisionError):
        return False
    return True


def _matrix_arg(text):
    """--g: a JSON list of rows of rational entries, kept exactly as given."""
    data = _load_json_arg(text)
    if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
        raise ParseError("--g expects a JSON list of lists")
    for x in (x for row in data for x in row):
        if not _is_rational_entry(x):
            raise ParseError(
                f"--g entry {json.dumps(x)} is not an integer or a rational string")
    return tuple(tuple(row) for row in data)


def _forms_arg(text):
    """Polynomial ideal: {"n": N, "gens": [<exponent vector> | "<poly>", ...]}."""
    n, raw = ideal_json_fields(_load_json_arg(text))
    forms = []
    for item in raw:
        if isinstance(item, str):
            f = parse_xpoly(item, n)
        elif isinstance(item, list):
            f = XPoly.from_monomial(monomial_from_exponents(item, n))
        else:
            raise ParseError(f"bad generator {item!r}")
        if not f.is_scalar():
            raise ParseError("ideal generators must not contain parameters")
        if f:
            forms.append(f)
    if not forms:
        raise ParseError("ideal has no nonzero generators")
    return n, forms


def _emit(payload, as_json, human):
    if as_json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(human)


def _fmt_matrix(g):
    return "[" + ", ".join("[" + ", ".join(str(x) for x in row) + "]" for row in g) + "]"


def cmd_gotzmann(args):
    p = parse_hilbert_poly(args.hp)
    c = chart_constants(p, args.n)
    values = {"r": c.r, "N_r": c.N_r, "s": c.s, "s_prime": c.s_prime, "D": c.D}
    r, N_r, s, s_prime, D = map(_number, values.values())
    _emit({"n": args.n, "hp": str(p), **values}, args.json,
          f"r={r} N(r)={N_r} s={s} s'={s_prime} D={D}")
    return 0


def cmd_borel_list(args):
    p = parse_hilbert_poly(args.hp)
    sats = enumerate_borel_saturated(args.n, p, args.max_ambient, args.max_nodes)
    payload = {"n": args.n, "hp": str(p),
               "saturations": [s.to_json_dict() for s in sats]}
    _emit(payload, args.json, "\n".join(str(s) for s in sats) or "(none)")
    return 0


def cmd_borel_classify(args):
    p = parse_hilbert_poly(args.hp)
    c = chart_constants(p, args.n)
    cls = cover.classify_grassmannian_borel(c, args.max_ambient, args.max_nodes)
    # only the requested format is built: each lists every empty locus
    if args.json:
        _emit({
            "n": args.n, "hp": str(p),
            "charts": [ch.saturation.to_json_dict() for ch in cls.charts],
            "empty_charts": [
                {"chart": J.to_json_dict(), "quotient_hilbert_polynomial": str(hp)}
                for J, hp in cls.empty_charts],
        }, True, None)
        return 0
    lines = [f"charts ({len(cls.charts)}):"]
    lines += [f"  {ch.saturation}  (reg {ch.regularity_sat})" for ch in cls.charts]
    lines.append(f"empty charts ({len(cls.empty_charts)}):")
    lines += [f"  {J}  quotient HP {hp}" for J, hp in cls.empty_charts]
    _emit(None, False, "\n".join(lines))
    return 0


def cmd_open_set(args):
    n, forms = _forms_arg(args.ideal)
    g = _matrix_arg(args.g) if args.g else None
    if args.all_charts:
        if g is None:
            g = random_coordinate_change(n, args.seed, args.bound)
        charts = all_charts(forms, g, args.max_ambient, args.max_nodes)
        payload = {"g": [list(r) for r in g],
                   "charts": [c.chart.to_json_dict() for c in charts],
                   "saturations": [c.saturation.to_json_dict() for c in charts]}
        _emit(payload, args.json,
              f"g = {_fmt_matrix(g)}\n"
              + ("\n".join(str(c.saturation) for c in charts) or "(none)"))
        return 0
    res = borel_open_set(forms, seed=args.seed, bound=args.bound, g=g,
                         max_tries=args.max_tries,
                         max_ambient=args.max_ambient, max_nodes=args.max_nodes)
    payload = {"g": [list(r) for r in res.g],
               "J": res.chart.chart.to_json_dict(),
               "J_sat": res.chart.saturation.to_json_dict(),
               "tried": res.tried}
    _emit(payload, args.json,
          f"g = {_fmt_matrix(res.g)}\nJ_sat = {res.chart.saturation}"
          f"\ntried = {res.tried}")
    return 0


def _chart_args(args):
    """The chart J and a basis of the ideal's degree-r slice, r the degree of J."""
    _, forms = _forms_arg(args.ideal)
    J = _monomial_ideal_arg(args.chart)
    return J, degree_basis(forms, J.max_gen_degree())


def cmd_chart_form(args):
    J, basis = _chart_args(args)
    point = chart_form(basis, J)
    payload = {"chart": J.to_json_dict(),
               "marked_set": [str(f) for f in point.marked_set]}
    _emit(payload, args.json, "\n".join(str(f) for f in point.marked_set))
    return 0


def cmd_pluecker(args):
    J, basis = _chart_args(args)
    value = _number(pluecker_coordinate(basis, J))
    _emit({"chart": J.to_json_dict(), "pluecker": value}, args.json, value)
    return 0


def cmd_marked_scheme(args):
    sat = _monomial_ideal_arg(args.sat)
    S = scheme_equations(sat, args.m)
    payload = {
        "m": S.m,
        "num_vars": S.num_vars,
        "generators": [str(g) for g in S.generators],
        "max_degree": S.max_degree,
        "bound_count": S.bound_count,
        "bound_degree": S.bound_degree,
        "spair_count": S.spair_count,
        "max_chain": S.max_chain,
    }
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"m = {S.m}, {S.num_vars} parameters, {len(S.generators)} generators, "
              f"max degree {S.max_degree}")
        if S.bound_count is not None:
            print(f"bounds: at most {S.bound_count} generators of degree "
                  f"<= {S.bound_degree}")
        for g in S.generators:
            print(f"  {g}")
    return 0


def cmd_check_basis(args):
    sat = _monomial_ideal_arg(args.sat)
    T = truncate(sat, args.m)
    data = _load_json_arg(args.set)
    if not isinstance(data, list) or not all(isinstance(s, str) for s in data):
        raise ParseError("--set expects a JSON list of polynomial strings")
    G = [parse_xpoly(s, sat.n) for s in data]
    ok = is_marked_basis(G, T)
    _emit({"marked_basis": ok}, args.json, "true" if ok else "false")
    return 0


def cmd_atlas(args):
    p = parse_hilbert_poly(args.hp)
    A = cover.atlas(args.n, p, with_equations=args.with_equations,
                    m_choice=args.m, max_ambient=args.max_ambient,
                    max_nodes=args.max_nodes)
    text = json.dumps(A.to_json_dict(), sort_keys=True, indent=2)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise ParseError(f"cannot write atlas: {exc}") from exc
        print(f"atlas written to {args.out}")
    else:
        print(text)
    return 0


def _certify_a8():
    record = fixtures.A8_CHART
    sat = fixtures.saturation_ideal(record)
    S = scheme_equations(sat, record["m"])
    ref = fixtures.reference_equations(record)
    checks = [
        ("parameter count", S.num_vars == record["num_vars"]),
        ("ideal equality", oracle.ideal_equal(list(S.generators), ref)),
    ]
    res = oracle.greedy_linear_eliminate(ref)
    checks.append(("elimination set",
                   sorted(res.eliminated_variables()) == record["eliminated"]))
    checks.append(("residual zero", not res.residual))
    return checks


def _certify_a12():
    record = fixtures.A12_CHART
    sat = fixtures.saturation_ideal(record)
    S = scheme_equations(sat, record["m"])
    return [
        ("parameter count", S.num_vars == record["num_vars"]),
        ("zero ideal", not S.generators),
    ]


def _certify_points_on_line():
    checks = []
    for record in fixtures.POINTS_ON_LINE_CHARTS:
        sat = MonomialIdeal.parse(record["saturation"], record["n"])
        mu = record["mu"]
        S = scheme_equations(sat, mu)
        res = oracle.greedy_linear_eliminate(list(S.generators))
        label = f"mu={mu}"
        checks.append((f"{label} residual zero", not res.residual))
        checks.append((f"{label} free dimension",
                       S.num_vars - res.eliminated_count == record["free_dim"]))
    return checks


def _certify_quartic():
    record = fixtures.QUARTIC_POINTS
    n = record["n"]
    forms = [parse_xpoly(s, n) for s in record["ideal"]]
    res = borel_open_set(forms, g=record["g"])
    sat_ok = res.chart.saturation == MonomialIdeal.parse(
        record["chart_saturation"], n)
    point = chart_form(res.basis, res.chart.chart)
    expected = fixtures.reference_marked_basis(record)
    return [
        ("chart saturation", sat_ok),
        ("marked basis", list(point.marked_set) == expected),
    ]


def _certify_cubic_curves():
    record = fixtures.CUBIC_CURVES_COVER
    c = chart_constants(parse_hilbert_poly(record["hp"]), record["n"])
    cls = cover.classify_grassmannian_borel(c)
    sats = [str(ch.saturation) for ch in cls.charts]
    want = [str(MonomialIdeal.parse(s, record["n"]))
            for s in record["chart_saturations"]]
    got_hps = sorted(str(hp) for _, hp in cls.empty_charts)
    return [
        ("charts", sats == want),
        ("empty quotients", got_hps == sorted(record["empty_quotients"])),
    ]


def _certify_seven_points():
    record = fixtures.SEVEN_POINTS_COVER
    p = parse_hilbert_poly(record["hp"])
    sats = enumerate_borel_saturated(record["n"], p)
    want = [MonomialIdeal.parse(s, record["n"])
            for s in record["chart_saturations"]]
    return [("chart saturations", sats == want)]


CERTIFICATIONS = {
    "a8-chart": _certify_a8,
    "a12-chart": _certify_a12,
    "points-on-line": _certify_points_on_line,
    "quartic-points": _certify_quartic,
    "cubic-curves-cover": _certify_cubic_curves,
    "seven-points-cover": _certify_seven_points,
}


def cmd_certify(args):
    names = sorted(CERTIFICATIONS) if args.name == "all" else [args.name]
    failed = 0
    results = {}
    for name in names:
        if name not in CERTIFICATIONS:
            raise ParseError(f"unknown certification {name!r}; "
                             f"choose from {sorted(CERTIFICATIONS)} or 'all'")
        checks = CERTIFICATIONS[name]()
        results[name] = {label: bool(ok) for label, ok in checks}
        for label, ok in checks:
            status = "ok" if ok else "FAIL"
            if not ok:
                failed += 1
            if not args.json:
                print(f"[{status}] {name}: {label}")
    if args.json:
        print(json.dumps(results, sort_keys=True))
    return 1 if failed else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="borelcover",
        description="Borel charts of Hilbert schemes over exact rationals.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, hp=False, caps=True, as_json=True):
        if hp:
            p.add_argument("--n", type=int, required=True, help="ambient P^n")
            p.add_argument("--hp", required=True,
                           help="Hilbert polynomial, e.g. '4*t' or '7'")
        if caps:
            p.add_argument("--max-ambient", type=int, default=MAX_AMBIENT,
                           help="cap on dim S_r for enumeration")
            p.add_argument("--max-nodes", type=int, default=MAX_NODES,
                           help="cap on enumeration search nodes")
        if as_json:
            p.add_argument("--json", action="store_true",
                           help="machine-readable output")

    p = sub.add_parser("gotzmann", help="Gotzmann number and chart constants")
    add_common(p, hp=True, caps=False)
    p.set_defaults(func=cmd_gotzmann)

    p = sub.add_parser("borel-list",
                       help="saturated Borel ideals with the given Hilbert polynomial")
    add_common(p, hp=True)
    p.set_defaults(func=cmd_borel_list)

    p = sub.add_parser("borel-classify",
                       help="charts versus empty Borel loci of the Grassmannian family")
    add_common(p, hp=True)
    p.set_defaults(func=cmd_borel_classify)

    p = sub.add_parser("open-set",
                       help="find a coordinate change and Borel chart containing the ideal")
    p.add_argument("--ideal", required=True, help="inline JSON or @file.json")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bound", type=int, default=10)
    p.add_argument("--g", help="override coordinate change (JSON matrix)")
    p.add_argument("--all-charts", action="store_true",
                   help="list every chart containing the transformed ideal")
    p.add_argument("--max-tries", type=int, default=64)
    add_common(p)
    p.set_defaults(func=cmd_open_set)

    p = sub.add_parser("chart-form", help="marked-set presentation in a chart")
    p.add_argument("--ideal", required=True)
    p.add_argument("--chart", required=True, help="monomial chart ideal (JSON)")
    add_common(p, caps=False)
    p.set_defaults(func=cmd_chart_form)

    p = sub.add_parser("pluecker", help="Plucker coordinate of an ideal in a chart")
    p.add_argument("--ideal", required=True)
    p.add_argument("--chart", required=True)
    add_common(p, caps=False)
    p.set_defaults(func=cmd_pluecker)

    p = sub.add_parser("marked-scheme",
                       help="defining equations of the marked scheme of a truncation")
    p.add_argument("--sat", required=True, help="saturated Borel ideal (JSON)")
    p.add_argument("--m", type=int, required=True, help="truncation level")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_marked_scheme)

    p = sub.add_parser("check-basis",
                       help="is the given marked set a marked basis?")
    p.add_argument("--sat", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--set", required=True,
                   help="JSON list of polynomials, inline or @file")
    add_common(p, caps=False)
    p.set_defaults(func=cmd_check_basis)

    p = sub.add_parser("atlas", help="full Borel atlas as JSON")
    add_common(p, hp=True, as_json=False)
    p.add_argument("--with-equations", action="store_true")
    p.add_argument("--m", choices=cover._M_CHOICES, default="reg")
    p.add_argument("--out", help="write the atlas to this file")
    p.set_defaults(func=cmd_atlas)

    p = sub.add_parser("certify", help="recompute and check golden fixtures")
    p.add_argument("name", help=f"one of {sorted(CERTIFICATIONS)} or 'all'")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_certify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if any(isinstance(v, list) for v in vars(args).values()):  # "--n=--" parses as []
        parser.error("an option was given '--' as its value")
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MathDomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ScaleCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
