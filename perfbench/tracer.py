"""Per-layer tracing of borelcover from outside the package.

`Tracer.install()` replaces the public functions of each layer, in every
module namespace that holds them, with wrappers; `Tracer.remove()` puts the
originals back.  Functions that run a bounded number of times record a span
(name, parent span, operation, start, end); functions called millions of
times (membership, divisibility, constructors) only count calls, because a
span per call would cost more than the call.  Spans stay in memory until
`write_spans` is called at the end of the run.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from fractions import Fraction

LAYERS = ("ring", "linalg", "hilbert", "borel", "chart", "marked", "cover",
          "oracle")

# (module, attribute) pairs that record a span.  A dotted attribute is a
# method of a class defined in that module.
SPANNED = [
    ("ring", "apply_change_of_coords"),
    ("linalg", "rank"), ("linalg", "det"), ("linalg", "rref"),
    ("hilbert", "hilbert_polynomial"),
    ("borel", "enumerate_borel_in_g"), ("borel", "enumerate_borel_saturated"),
    ("borel", "MonomialIdeal.sous_escalier_at"),
    ("chart", "borel_open_set"), ("chart", "pluecker_coordinate"),
    ("chart", "chart_form"), ("chart", "in_hilb"),
    ("chart", "hilbert_polynomial_of_forms"), ("chart", "degree_basis"),
    ("marked", "template"), ("marked", "embedding_dimension"),
    ("marked", "ek_spairs"), ("marked", "reduce"), ("marked", "scheme_equations"),
    ("cover", "classify_grassmannian_borel"), ("cover", "atlas"),
    ("cover", "gluing_degree"),
    ("oracle", "groebner_basis"), ("oracle", "normal_form"),
    ("oracle", "ideal_equal"), ("oracle", "greedy_linear_eliminate"),
]

# (module, attribute, counter name) for call counts without spans.
COUNTED = [
    ("ring", "Monomial.divides", "ring.monomial_divides_calls"),
    ("ring", "ParamPoly.__init__", "ring.parampoly_constructions"),
    ("ring", "XPoly.__init__", "ring.xpoly_constructions"),
    ("hilbert", "hilbert_function", "hilbert.hilbert_function_calls"),
    ("borel", "MonomialIdeal.contains", "borel.contains_calls"),
    ("borel", "star_decompose", "borel.star_decompose_calls"),
]

# Per-layer metrics: name -> unit.  `_s` metrics of a function are the
# inclusive time of its spans; `<layer>.self_s` is the layer's self time.
METRICS = {
    "hilbert.hilbert_polynomial_s": "s",
    "hilbert.hilbert_polynomial_calls": "count",
    "hilbert.hilbert_function_calls": "count",
    "borel.enumerate_s": "s",
    "borel.ideals_enumerated": "count",
    "borel.contains_calls": "count",
    "borel.sous_escalier_s": "s",
    "borel.star_decompose_calls": "count",
    "marked.template_s": "s",
    "marked.template_calls": "count",
    "marked.embedding_dimension_s": "s",
    "marked.reduce_s": "s",
    "marked.reduce_calls": "count",
    "marked.reduce_steps": "count",
    "marked.spairs": "count",
    "marked.coefficients": "count",
    "marked.generators": "count",
    "marked.dedup_yield": "ratio",
    "ring.apply_change_of_coords_s": "s",
    "ring.monomial_divides_calls": "count",
    "ring.parampoly_constructions": "count",
    "ring.xpoly_constructions": "count",
    "linalg.rank_s": "s",
    "linalg.rank_calls": "count",
    "linalg.det_s": "s",
    "linalg.det_calls": "count",
    "linalg.rref_s": "s",
    "linalg.rref_calls": "count",
    "linalg.entries": "count",
    "linalg.max_entry_bits": "bits",
    "chart.borel_open_set_s": "s",
    "chart.tries": "count",
    "chart.pluecker_calls": "count",
    "chart.locate_yield": "ratio",
    "chart.chart_form_s": "s",
    "chart.in_hilb_s": "s",
    "chart.hilbert_polynomial_of_forms_s": "s",
    "chart.degree_basis_s": "s",
    "cover.classify_self_s": "s",
    "cover.atlas_self_s": "s",
    "cover.gluing_s": "s",
    "cover.chart_yield": "ratio",
    "oracle.groebner_basis_s": "s",
    "oracle.normal_form_calls": "count",
    "oracle.normal_form_s": "s",
    "oracle.order_key_calls": "count",
    "oracle.basis_size": "count",
}
METRICS.update({f"{layer}.self_s": "s" for layer in LAYERS})

# metric -> span name whose inclusive time or call count it reports
INCLUSIVE = {
    "hilbert.hilbert_polynomial_s": "hilbert.hilbert_polynomial",
    "borel.enumerate_s": "borel.enumerate_borel_in_g",
    "borel.sous_escalier_s": "borel.MonomialIdeal.sous_escalier_at",
    "marked.template_s": "marked.template",
    "marked.embedding_dimension_s": "marked.embedding_dimension",
    "marked.reduce_s": "marked.reduce",
    "ring.apply_change_of_coords_s": "ring.apply_change_of_coords",
    "linalg.rank_s": "linalg.rank",
    "linalg.det_s": "linalg.det",
    "linalg.rref_s": "linalg.rref",
    "chart.borel_open_set_s": "chart.borel_open_set",
    "chart.chart_form_s": "chart.chart_form",
    "chart.in_hilb_s": "chart.in_hilb",
    "chart.hilbert_polynomial_of_forms_s": "chart.hilbert_polynomial_of_forms",
    "chart.degree_basis_s": "chart.degree_basis",
    "cover.gluing_s": "cover.gluing_degree",
    "oracle.groebner_basis_s": "oracle.groebner_basis",
    "oracle.normal_form_s": "oracle.normal_form",
}
SELF = {
    "cover.classify_self_s": "cover.classify_grassmannian_borel",
    "cover.atlas_self_s": "cover.atlas",
}
CALLS = {
    "hilbert.hilbert_polynomial_calls": "hilbert.hilbert_polynomial",
    "marked.template_calls": "marked.template",
    "marked.reduce_calls": "marked.reduce",
    "linalg.rank_calls": "linalg.rank",
    "linalg.det_calls": "linalg.det",
    "linalg.rref_calls": "linalg.rref",
    "chart.pluecker_calls": "chart.pluecker_coordinate",
    "oracle.normal_form_calls": "oracle.normal_form",
}

WRAPPED = "__perfbench_wrapped__"


def _entry_bits(x):
    if isinstance(x, Fraction):
        return max(abs(x.numerator).bit_length(), x.denominator.bit_length())
    return abs(int(x)).bit_length()


class Tracer:
    """Wraps the layers of one imported borelcover package."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.request = None
        self._stack = []
        self._patches = []
        self._modules = {}

    # -- hooks that read work counts off arguments and results --------------

    def _linalg_args(self, args, kwargs):
        rows = args[0] if args else kwargs.get("rows")
        if not isinstance(rows, list):
            return
        self.counts["linalg.entries"] += len(rows) * (len(rows[0]) if rows else 0)
        bits = max((_entry_bits(x) for row in rows for x in row), default=0)
        if bits > self.counts["linalg.max_entry_bits"]:
            self.counts["linalg.max_entry_bits"] = bits

    def _post_hooks(self):
        c = self.counts

        def enumerated(result):
            c["borel.ideals_enumerated"] += len(result)

        def reduced(res):
            c["marked.reduce_steps"] += res.steps
            c["marked.coefficients"] += sum(1 for _, coeff in res.poly.terms
                                            if coeff)

        def equations(S):
            c["marked.spairs"] += S.spair_count
            c["marked.generators"] += len(S.generators)

        def located(res):
            c["chart.tries"] += res.tried
            c["chart.located"] += 1

        def classified(cls):
            c["cover.charts"] += len(cls.charts)
            c["cover.classified"] += len(cls.charts) + len(cls.empty_charts)

        def basis(gb):
            c["oracle.basis_size"] += len(gb)

        return {
            "borel.enumerate_borel_in_g": enumerated,
            "marked.reduce": reduced,
            "marked.scheme_equations": equations,
            "chart.borel_open_set": located,
            "cover.classify_grassmannian_borel": classified,
            "oracle.groebner_basis": basis,
        }

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, fn, pre, post):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(args, kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (sid, parent, name, self.request, t0, t1)
            if post is not None:
                post(result)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _order_counter(self, make_order):
        counts = self.counts

        def wrapper(*args, **kwargs):
            key = make_order(*args, **kwargs)

            def counted(cm):
                counts["oracle.order_key_calls"] += 1
                return key(cm)

            return counted

        return wrapper

    # -- install / remove -----------------------------------------------------

    def _wrap(self, module, attr, make):
        """Replace a function, or a method `Class.name`, by make(original).

        A function is replaced in every borelcover namespace that holds it.
        """
        owner = self._modules[module]
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = owner.__dict__[name] if path else getattr(owner, name)
        wrapper = make(original)
        setattr(wrapper, WRAPPED, original)
        for holder in [owner] if path else self._modules.values():
            for key, value in list(vars(holder).items()):
                if value is original:
                    self._patches.append((holder, key, original))
                    setattr(holder, key, wrapper)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        import borelcover
        self._modules = {"": borelcover}
        for name, module in list(sys.modules.items()):
            if name.startswith("borelcover."):
                self._modules[name.split(".", 1)[1]] = module
        post = self._post_hooks()
        try:
            for module, attr in SPANNED:
                name = f"{module}.{attr}"
                pre = self._linalg_args if module == "linalg" else None
                self._wrap(module, attr, lambda fn, name=name, pre=pre:
                           self._span(name, fn, pre, post.get(name)))
            for module, attr, counter in COUNTED:
                self._wrap(module, attr,
                           lambda fn, counter=counter: self._counter(counter, fn))
            self._wrap("oracle", "make_order", self._order_counter)
        except BaseException:
            self.remove()
            raise

    def remove(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    # -- results --------------------------------------------------------------

    def metrics(self):
        inclusive = Counter()
        self_time = Counter()
        calls = Counter()
        for _, parent, name, _, t0, t1 in self.spans:
            inclusive[name] += t1 - t0
            self_time[name] += t1 - t0
            calls[name] += 1
            if parent >= 0:
                self_time[self.spans[parent][2]] -= t1 - t0
        c = self.counts
        out = {}
        for metric in METRICS:
            if metric in INCLUSIVE:
                value = inclusive[INCLUSIVE[metric]]
            elif metric in SELF:
                value = self_time[SELF[metric]]
            elif metric in CALLS:
                value = calls[CALLS[metric]]
            elif metric.endswith(".self_s"):
                layer = metric.split(".")[0]
                value = sum(t for name, t in self_time.items()
                            if name.split(".")[0] == layer)
            else:
                value = c[metric]
            out[metric] = value
        out["marked.dedup_yield"] = _ratio(c["marked.generators"],
                                           c["marked.coefficients"])
        out["chart.locate_yield"] = _ratio(c["chart.located"],
                                           calls["chart.pluecker_coordinate"])
        out["cover.chart_yield"] = _ratio(c["cover.charts"], c["cover.classified"])
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _ratio(num, den):
    return num / den if den else 0.0


def installed_wrappers():
    """(namespace, attribute) pairs of borelcover that still hold a wrapper."""
    found = []
    for name, module in list(sys.modules.items()):
        if name != "borelcover" and not name.startswith("borelcover."):
            continue
        for key, value in vars(module).items():
            if hasattr(value, WRAPPED):
                found.append((name, key))
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    if hasattr(member, WRAPPED):
                        found.append((f"{name}.{key}", attr))
    return found
