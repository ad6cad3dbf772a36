"""Strongly stable (Borel-fixed) monomial ideals.

Covers the combinatorial layer: the Borel partial order by increasing
elementary moves, the stability test, saturation and regularity of Borel
ideals, truncations, the invariant rho, the star decomposition of a monomial
of the ideal, brute-force enumeration of Borel ideals, both the degree-r
families inside the Grassmannian and the saturated ones with a prescribed
Hilbert polynomial, and the one test and order for the charts among them.

Enumeration walks the up-sets of the Borel poset on degree-r monomials, so it
is intentionally desk-scale; the ambient size and the search tree are capped.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import accumulate

from .errors import MathDomainError, ParseError, ScaleCapError
from .hilbert import ChartConstants, borel_dim_at, chart_constants
from .ring import Monomial, canonical_key, monomials_of_degree, parse_xpoly


class MonomialIdeal:
    """Monomial ideal given by its minimal basis.

    Generators are minimalized and kept in the canonical order (degree
    ascending, degrevlex descending), so equal ideals compare equal.
    """

    __slots__ = ("n", "gens")

    def __init__(self, n, gens):
        mons = []
        for g in gens:
            if not isinstance(g, Monomial):
                g = Monomial(g)
            if g.n != n:
                raise MathDomainError(f"generator {g} does not live in {n + 1} variables")
            mons.append(g)
        mons = sorted(set(mons), key=canonical_key)
        minimal = []
        for g in mons:
            if not any(h.divides(g) for h in minimal):
                minimal.append(g)
        self.n = n
        self.gens = tuple(minimal)

    @classmethod
    def zero(cls, n):
        return cls(n, ())

    def is_zero(self):
        return not self.gens

    def contains_one(self):
        return bool(self.gens) and self.gens[0].is_one()

    def contains(self, mon):
        return any(g.divides(mon) for g in self.gens)

    def monomials_at(self, t):
        """Degree-t monomials of the ideal, degrevlex descending."""
        return [m for m in monomials_of_degree(self.n, t) if self.contains(m)]

    def sous_escalier_at(self, t):
        """Degree-t monomials outside the ideal, degrevlex descending."""
        return [m for m in monomials_of_degree(self.n, t) if not self.contains(m)]

    def dim_at(self, t):
        return len(self.monomials_at(t))

    def max_gen_degree(self):
        return max((g.degree() for g in self.gens), default=0)

    def min_gen_degree(self):
        return min((g.degree() for g in self.gens), default=0)

    def generated_in_single_degree(self):
        return len({g.degree() for g in self.gens}) <= 1

    def __eq__(self, other):
        return (isinstance(other, MonomialIdeal) and self.n == other.n
                and self.gens == other.gens)

    def __hash__(self):
        return hash((self.n, self.gens))

    def __str__(self):
        if not self.gens:
            return "(0)"
        return "(" + ", ".join(str(g) for g in self.gens) + ")"

    __repr__ = __str__

    def to_json_dict(self):
        return {"n": self.n, "gens": [list(g.exps) for g in self.gens]}

    def to_json(self):
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, data):
        n, gens = ideal_json_fields(data)
        out = []
        for g in gens:
            if isinstance(g, str):
                out.append(_monomial_from_text(g, n))
            else:
                out.append(monomial_from_exponents(g, n))
        return cls(n, out)

    @classmethod
    def parse(cls, text, n):
        """Parse a comma-separated list of monomials like 'x2^2, x2*x1, x1^3'."""
        text = text.strip()
        if text.startswith("(") and text.endswith(")"):
            text = text[1:-1]
        gens = []
        for chunk in text.split(","):
            chunk = chunk.strip()
            if chunk in ("", "0"):
                continue
            gens.append(_monomial_from_text(chunk, n))
        return cls(n, gens)


def ideal_json_fields(data):
    """(n, gens) of ideal JSON {"n": N, "gens": [...]}; ParseError if malformed.

    n must be a non-negative JSON integer: bools, floats and strings are
    refused rather than coerced.
    """
    try:
        n, gens = data["n"], data["gens"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed ideal JSON: {exc}") from exc
    if type(n) is not int or n < 0:
        raise ParseError(f"ideal JSON field 'n' must be a non-negative integer, got {n!r}")
    if not isinstance(gens, list):
        raise ParseError("ideal JSON field 'gens' must be a list")
    return n, gens


def monomial_from_exponents(exps, n):
    """Monomial from a JSON exponent vector [e0, ..., en]; ParseError if malformed."""
    if not isinstance(exps, list) or len(exps) != n + 1:
        raise ParseError(f"exponent vector {exps!r} must have length n+1")
    for e in exps:
        if type(e) is not int:
            raise ParseError(f"bad exponent vector {exps!r}: {e!r} is not an integer")
        if e < 0:
            raise ParseError(f"bad exponent vector {exps!r}: negative exponent {e}")
    return Monomial(exps)


def _monomial_from_text(text, n):
    poly = parse_xpoly(text, n)
    if len(poly.terms) != 1 or poly.terms[0][1] != 1:
        raise ParseError(f"{text!r} is not a monomial")
    return poly.terms[0][0]


def up_moves(mon):
    """Results of increasing elementary moves x_i -> x_j, j > i."""
    out = []
    n = mon.n
    for i in mon.support():
        for j in range(i + 1, n + 1):
            out.append(mon / Monomial.variable(n, i) * Monomial.variable(n, j))
    return out


def down_moves(mon):
    """Results of decreasing elementary moves x_j -> x_i, i < j."""
    out = []
    n = mon.n
    for j in mon.support():
        for i in range(j):
            out.append(mon / Monomial.variable(n, j) * Monomial.variable(n, i))
    return out


def borel_leq(a: Monomial, b: Monomial) -> bool:
    """Is b >= a in the Borel partial order (b reachable by increasing moves)?

    Exactly when every top partial sum of b's exponents is at least a's.
    """
    a._check_ambient(b)
    if a.degree() != b.degree():
        raise MathDomainError("Borel order compares only monomials of equal degree")
    return all(sb >= sa for sa, sb in zip(accumulate(reversed(a.exps)),
                                          accumulate(reversed(b.exps))))


def is_strongly_stable(J: MonomialIdeal) -> bool:
    """Check closure of the basis under increasing moves (suffices by transitivity).

    A moved generator is most often another generator, so it is looked up
    in the set of generator exponents before the membership test.
    """
    n = J.n
    gens = {g.exps for g in J.gens}
    for g in J.gens:
        exps = g.exps
        for i in range(n):
            if not exps[i]:
                continue
            for j in range(i + 1, n + 1):
                moved = list(exps)
                moved[i] -= 1
                moved[j] += 1
                moved = tuple(moved)
                if moved not in gens and not J.contains(Monomial(moved)):
                    return False
    return True


def _require_borel(J, what):
    if not is_strongly_stable(J):
        raise MathDomainError(f"{what} requires a strongly stable ideal, got {J}")


def saturate(J: MonomialIdeal) -> MonomialIdeal:
    """Saturation of a strongly stable ideal: delete x_0 from each generator."""
    _require_borel(J, "saturate")
    n = J.n
    return MonomialIdeal(n, [Monomial((0,) + g.exps[1:]) for g in J.gens])


def regularity(J: MonomialIdeal) -> int:
    """Castelnuovo-Mumford regularity of a strongly stable ideal."""
    _require_borel(J, "regularity")
    if J.is_zero():
        raise MathDomainError("regularity of the zero ideal")
    return J.max_gen_degree()


def truncate(J: MonomialIdeal, m: int) -> MonomialIdeal:
    """Minimal basis of the degree->=m part of J."""
    if m < 0:
        raise MathDomainError("truncation degree must be non-negative")
    gens = []
    for g in J.gens:
        d = g.degree()
        if d >= m:
            gens.append(g)
        else:
            gens.extend(g * u for u in monomials_of_degree(J.n, m - d))
    return MonomialIdeal(J.n, gens)


def _colon_variable_power(J, i):
    """J : x_i^infinity for a monomial ideal: delete x_i from each generator."""
    return MonomialIdeal(
        J.n, [Monomial(tuple(0 if k == i else e for k, e in enumerate(g.exps)))
              for g in J.gens])


def _intersect(A, B):
    if A.is_zero() or B.is_zero():
        return MonomialIdeal.zero(A.n)
    gens = []
    for a in A.gens:
        for b in B.gens:
            gens.append(Monomial(max(x, y) for x, y in zip(a.exps, b.exps)))
    return MonomialIdeal(A.n, gens)


def saturate_any(J: MonomialIdeal) -> MonomialIdeal:
    """Saturation of an arbitrary monomial ideal w.r.t. (x_0, ..., x_n)."""
    out = _colon_variable_power(J, 0)
    for i in range(1, J.n + 1):
        out = _intersect(out, _colon_variable_power(J, i))
    return out


def is_m_truncation(I: MonomialIdeal, m=None) -> bool:
    """Does I equal the degree->=m part of its saturation?

    When m is omitted it defaults to the largest generator degree.
    """
    if m is None:
        m = I.max_gen_degree()
    return I == truncate(saturate_any(I), m)


def rho(Jsat: MonomialIdeal) -> int:
    """Largest degree of a basis monomial divisible by x_1; 0 if none exists."""
    degs = [g.degree() for g in Jsat.gens if Jsat.n >= 1 and g.exps[1] > 0]
    return max(degs, default=0)


def star_decompose(gamma: Monomial, J: MonomialIdeal):
    """Factor a monomial of J as (cofactor, basis element).

    Strips the minimal variable until a basis element is reached; for a
    strongly stable ideal this is the unique decomposition with
    max(cofactor) <= min(basis element).
    """
    if not J.contains(gamma):
        raise MathDomainError(f"{gamma} is not a member of {J}")
    n = J.n
    eta = Monomial.one(n)
    cur = gamma
    while cur not in J.gens:
        v = Monomial.variable(n, cur.min_var())
        eta = eta * v
        cur = cur / v
        if not J.contains(cur):
            raise MathDomainError(
                f"star decomposition escaped {J}; ideal is not strongly stable")
    return eta, cur


@dataclass(frozen=True)
class BorelChartIdeal:
    """A Borel ideal generated in one degree, with its cached saturation data."""

    chart: MonomialIdeal
    saturation: MonomialIdeal
    regularity_sat: int
    rho: int

    @classmethod
    def from_saturation(cls, sat, r):
        return cls(chart=truncate(sat, r), saturation=sat,
                   regularity_sat=regularity(sat), rho=rho(sat))


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def enumerate_borel_in_g(n, r, s, max_ambient=120, max_nodes=2_000_000):
    """All Borel ideals generated by s monomials of degree r.

    Enumerates the size-(N(r)-s) down-sets of the Borel poset on degree-r
    monomials by depth-first insertion along a linear extension; the
    complements are exactly the Borel-closed generator sets.  Exponential in
    the worst case, hence the ambient and node caps.
    """
    mons = monomials_of_degree(n, r)
    N = len(mons)
    if s > N:
        raise MathDomainError(f"requested {s} generators but dim S_{r} = {N}")
    if s < 0:
        raise MathDomainError("negative generator count")
    if N > max_ambient:
        raise ScaleCapError(
            f"dim S_{r} = {N} exceeds the enumeration cap {max_ambient}")
    asc = list(reversed(mons))  # ascending degrevlex = linear extension
    index = {m: i for i, m in enumerate(asc)}
    lower = [sorted({index[d] for d in down_moves(m)}) for m in asc]
    target = N - s

    results = []
    nodes = 0
    chosen = [False] * N

    def emit():
        results.append(MonomialIdeal(n, [asc[i] for i in range(N) if not chosen[i]]))

    def rec(start, count):
        nonlocal nodes
        nodes += 1
        if nodes > max_nodes:
            raise ScaleCapError(f"enumeration exceeded {max_nodes} search nodes")
        if count == target:
            emit()
            return
        for i in range(start, N):
            if N - i < target - count:
                break
            if all(chosen[k] for k in lower[i]):
                chosen[i] = True
                rec(i + 1, count + 1)
                chosen[i] = False

    rec(0, 0)
    results.sort(key=lambda J: tuple(canonical_key(g) for g in J.gens))
    return results


def is_borel_chart(J: MonomialIdeal, constants: ChartConstants) -> bool:
    """Is J, Borel and generated by q(r) monomials of degree r, a chart of Hilb_p?

    By Gotzmann persistence it is exactly when dim J_{r+1} = q(r+1), and the
    Eliahou-Kervaire count gives dim J_{r+1} without listing monomials.
    """
    return borel_dim_at(J, constants.r + 1) == constants.s_prime


def chart_order(sat: MonomialIdeal):
    """Chart sort key of a Borel saturation: regularity (top degree), then generators."""
    return (sat.max_gen_degree(), tuple(canonical_key(g) for g in sat.gens))


def enumerate_borel_saturated(n, p, max_ambient=120, max_nodes=2_000_000):
    """Saturations of the Borel ideals with Hilbert polynomial p, in chart order.

    Keeps the degree-r Borel ideals that pass is_borel_chart and saturates
    them.  A chart J is the degree->=r part of its saturation, so distinct
    charts have distinct saturations.
    """
    c = chart_constants(p, n)
    charts = [J for J in enumerate_borel_in_g(n, c.r, c.s, max_ambient, max_nodes)
              if is_borel_chart(J, c)]
    return sorted((saturate(J) for J in charts), key=chart_order)
