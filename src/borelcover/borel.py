"""Strongly stable (Borel-fixed) monomial ideals.

Covers the combinatorial layer: the stability test under adjacent
elementary moves, saturation and regularity of Borel ideals, truncations,
the invariant rho, the star decomposition of a monomial of the ideal,
brute-force enumeration of Borel ideals, both the degree-r families inside
the Grassmannian and the saturated ones with a prescribed Hilbert
polynomial, and the one test and order for the charts among them.

Membership works on exponent tuples: a monomial lies in a monomial ideal when
some generator's tuple is entrywise at most its own.  Only the generators of
lower degree are scanned; one of the monomial's own degree divides it only
by being it, which a set lookup answers.  The degree-t listings build the
set of member tuples from the multiples g * u, |u| = t - |g|, of the
generators and filter the degrevlex listing through it.  Minimal bases come
from hilbert._minimal on exponent tuples; a truncation needs none.

The stability test and the enumeration try the adjacent moves x_i -> x_{i+1}
alone, which generate the Borel order: generators closed under them give an
ideal closed under every increasing move (induction on j - i), and a down-set
holding a monomial's adjacent-lower neighbours holds its one-move lower set.

Enumeration walks the up-sets of the Borel poset on degree-r monomials, so it
is intentionally desk-scale; the ambient size and the search tree are capped.
Each search node is one int bitmask, and each candidate one bit test.  A
degree-r Borel ideal is a chart when hilbert.borel_dim_at counts dim J_{r+1} =
q(r+1); that count and the quotient's Hilbert polynomial depend only on its
Eliahou-Kervaire histogram, the count a_k of generators with min variable k.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice
from operator import add, le

from .errors import MathDomainError, ParseError, ScaleCapError
from .hilbert import (ChartConstants, _minimal, ambient_dimension, borel_dim_at,
                      chart_constants)
from .ring import Monomial, canonical_key, monomials_of_degree, parse_xpoly

MAX_AMBIENT = 120  # default enumeration caps: dim S_r and search nodes
MAX_NODES = 2_000_000


class MonomialIdeal:
    """Monomial ideal given by its minimal basis.

    Generators are minimalized by hilbert._minimal into the canonical order
    (degree ascending, degrevlex descending), so equal ideals compare equal.
    Membership compares exponent tuples with the generators'; the degree-t
    listings keep the degrevlex listing's monomials whose tuples are among
    the multiples g * u of the generators.
    """

    __slots__ = ("n", "gens", "_basis", "_degrees")

    def __init__(self, n, gens):
        exps = []
        for g in gens:
            if not isinstance(g, Monomial):
                g = Monomial(g)
            if g.n != n:
                raise MathDomainError(f"generator {g} does not live in {n + 1} variables")
            exps.append(g.exps)
        self.n = n
        self.gens = tuple(map(Monomial._from_exps, _minimal(exps)))

    @classmethod
    def _from_sorted(cls, n, gens):
        """Wrap a minimal basis of monomials of P^n already in canonical order."""
        out = cls.__new__(cls)
        out.n = n
        out.gens = tuple(gens)
        return out

    def is_zero(self):
        return not self.gens

    def contains_one(self):
        return bool(self.gens) and self.gens[0].is_one()

    def contains(self, mon):
        """Is mon in the ideal?  Only generators of lower degree can divide
        it properly, and one of its own degree only by being it."""
        if not isinstance(mon, Monomial):
            raise TypeError(f"expected Monomial, got {type(mon).__name__}")
        exps = mon.exps
        if len(exps) != self.n + 1:
            raise MathDomainError("monomials live in different ambient rings")
        below = bisect_left(self._generator_degrees(), sum(exps))
        return (exps in self._generator_exponents()
                or _has_divisor(islice(self.gens, below), exps))

    def _generator_exponents(self):
        """The set of the generators' exponent tuples, built on first use."""
        try:
            return self._basis
        except AttributeError:
            self._basis = basis = frozenset(g.exps for g in self.gens)
            return basis

    def _generator_degrees(self):
        """The generators' degrees, ascending as gens are, built on first use."""
        try:
            return self._degrees
        except AttributeError:
            self._degrees = degrees = tuple(g.degree() for g in self.gens)
            return degrees

    def _members_at(self, t):
        """Exponent tuples of the degree-t monomials of the ideal, as a set."""
        members = set()
        for g in self.gens:
            exps = g.exps
            members.update(tuple(map(add, exps, u.exps))
                           for u in monomials_of_degree(self.n, t - g.degree()))
        return members

    def monomials_at(self, t):
        """Degree-t monomials of the ideal, degrevlex descending."""
        listing = monomials_of_degree(self.n, t)
        members = self._members_at(t)
        return [m for m in listing if m.exps in members]

    def sous_escalier_at(self, t):
        """Degree-t monomials outside the ideal, degrevlex descending."""
        listing = monomials_of_degree(self.n, t)
        members = self._members_at(t)
        return [m for m in listing if m.exps not in members]

    # the canonical order is degree ascending: read the ends of gens
    def max_gen_degree(self):
        return self.gens[-1].degree() if self.gens else 0

    def min_gen_degree(self):
        return self.gens[0].degree() if self.gens else 0

    def generated_in_single_degree(self):
        return not self.gens or self.gens[0].degree() == self.gens[-1].degree()

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


def _has_divisor(gens, exps):
    """Does the exponent tuple of some monomial in gens divide exps entrywise?"""
    return any(all(map(le, g.exps, exps)) for g in gens)


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


def is_strongly_stable(J: MonomialIdeal) -> bool:
    """Check closure of the basis under the adjacent moves x_i -> x_{i+1}.

    If the generators are closed under them, so is the ideal, and then under
    every increasing move x_i -> x_j (induction on j - i).  A moved generator
    is most often another generator, so the set of generator exponents is
    looked up before the membership test.
    """
    gens = {g.exps for g in J.gens}
    moved = (e[:i] + (e[i] - 1, e[i + 1] + 1) + e[i + 2:]
             for e in gens for i in range(J.n) if e[i])
    return all(m in gens or _has_divisor(J.gens, m) for m in moved)


def _require_borel(J, what):
    if not is_strongly_stable(J):
        raise MathDomainError(f"{what} requires a strongly stable ideal, got {J}")


def saturate(J: MonomialIdeal) -> MonomialIdeal:
    """Saturation of a strongly stable ideal: delete x_0 from each generator."""
    _require_borel(J, "saturate")
    return _colon_variable_power(J, 0)


def regularity(J: MonomialIdeal) -> int:
    """Castelnuovo-Mumford regularity of a strongly stable ideal."""
    _require_borel(J, "regularity")
    if J.is_zero():
        raise MathDomainError("regularity of the zero ideal")
    return J.max_gen_degree()


_MAX_TRUNCATION_MONOMIALS = 10_000


def truncate(J: MonomialIdeal, m: int) -> MonomialIdeal:
    """Minimal basis of the degree->=m part of J.

    Raises ScaleCapError, before forming any, when the N(m - |g|) products
    g * u of the generators g below degree m number more than the cap.
    """
    if m < 0:
        raise MathDomainError("truncation degree must be non-negative")
    formed = sum(ambient_dimension(J.n, m - g.degree()) for g in J.gens if g.degree() < m)
    if formed > _MAX_TRUNCATION_MONOMIALS:
        raise ScaleCapError(
            f"truncation at degree {m} would form {formed} monomials, over "
            f"the cap {_MAX_TRUNCATION_MONOMIALS}")
    # a degree-m member dividing a generator above m would make that
    # generator non-minimal, so the two lists together are a minimal basis
    return MonomialIdeal._from_sorted(
        J.n, [*map(Monomial._from_exps, sorted(J._members_at(m))),
              *(g for g in J.gens if g.degree() > m)])


def _colon_variable_power(J, i):
    """J : x_i^infinity for a monomial ideal: delete x_i from each generator."""
    return MonomialIdeal._from_sorted(J.n, map(Monomial._from_exps, _minimal(
        g.exps[:i] + (0,) + g.exps[i + 1:] for g in J.gens)))


def rho(Jsat: MonomialIdeal) -> int:
    """Largest degree of a basis monomial divisible by x_1; 0 if none exists."""
    degs = [g.degree() for g in Jsat.gens if Jsat.n >= 1 and g.exps[1] > 0]
    return max(degs, default=0)


def star_decompose(gamma: Monomial, J: MonomialIdeal):
    """Factor a monomial of J as (cofactor, basis element).

    Strips the minimal variable until a basis element is reached; for a
    strongly stable ideal this is the unique decomposition with
    max(cofactor) <= min(basis element).  Otherwise the strip may leave J,
    and then meets no generator again, since every divisor of a non-member
    is a non-member.  So J's membership is tested only when the strip
    reaches 1 without meeting a generator: gamma was not in J, or the strip
    escaped J.
    """
    if not isinstance(gamma, Monomial):
        raise TypeError(f"expected Monomial, got {type(gamma).__name__}")
    basis = J._generator_exponents()
    cur = list(gamma.exps)
    eta = [0] * len(cur)
    while tuple(cur) not in basis:
        i = next((k for k, e in enumerate(cur) if e), None)
        if i is None:
            if not J.contains(gamma):
                raise MathDomainError(f"{gamma} is not a member of {J}")
            raise MathDomainError(
                f"star decomposition escaped {J}; ideal is not strongly stable")
        cur[i] -= 1
        eta[i] += 1
    return Monomial._from_exps(tuple(eta)), Monomial._from_exps(tuple(cur))


@dataclass(frozen=True)
class BorelChartIdeal:
    """A Borel chart J with its saturation, the saturation's regularity and rho."""

    chart: MonomialIdeal
    saturation: MonomialIdeal
    regularity_sat: int
    rho: int

    @classmethod
    def from_chart(cls, J):
        sat = saturate(J)
        return cls(J, sat, sat.max_gen_degree(), rho(sat))


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def enumerate_borel_in_g(n, r, s, max_ambient=MAX_AMBIENT, max_nodes=MAX_NODES):
    """All Borel ideals generated by s monomials of degree r.

    Enumerates the size-(N(r)-s) down-sets of the Borel poset on degree-r
    monomials by depth-first insertion along a linear extension; the
    complements are exactly the Borel-closed generator sets.  A down-set is
    an int bitmask over the ascending index, and monomial i may join it when
    the mask holds its adjacent-lower neighbours x_j -> x_{j-1}.  A down-set
    holding those holds its whole one-move lower set (x_j -> x_i lies below
    x_j -> x_{j-1}), so the walk is that of all moves.  Exponential in the
    worst case, hence the ambient and node caps; the ambient cap is checked
    before listing.
    """
    N = ambient_dimension(n, r) if r >= 0 else 0  # C(n+r, n) need not vanish for r < 0
    if s > N:
        raise MathDomainError(f"requested {s} generators but dim S_{r} = {N}")
    if s < 0:
        raise MathDomainError("negative generator count")
    if N > max_ambient:
        raise ScaleCapError(
            f"dim S_{r} = {N} exceeds the enumeration cap {max_ambient}")
    mons = monomials_of_degree(n, r)  # canonical order = descending degrevlex
    index = {m.exps: N - 1 - k for k, m in enumerate(mons)}  # ascending index
    lower = [0] * N
    for m in mons:
        exps = m.exps
        mask = 0
        for j in range(1, n + 1):
            if exps[j]:
                moved = exps[:j - 1] + (exps[j - 1] + 1, exps[j] - 1) + exps[j + 1:]
                mask |= 1 << index[moved]
        lower[index[exps]] = mask
    target = N - s

    leaves = []
    nodes = 0
    stack = [(0, 0, 0)]  # (first candidate, size, down-set mask)
    while stack:
        start, count, chosen = stack.pop()
        nodes += 1
        if nodes > max_nodes:
            raise ScaleCapError(f"enumeration exceeded {max_nodes} search nodes")
        if count == target:
            leaves.append(chosen)
            continue
        # children pushed last-first, so they are visited in ascending order
        for i in range(N - target + count, start - 1, -1):
            if lower[i] & chosen == lower[i]:
                stack.append((i + 1, count + 1, chosen | 1 << i))
    # Bit N-1-k of a mask is canonical position k, so the first generator at
    # which two complements differ is the top bit at which the masks differ:
    # ascending masks list the ideals by their generators' exponent tuples.
    leaves.sort()
    width = f"0{N}b"
    return [MonomialIdeal._from_sorted(
                n, [m for m, bit in zip(mons, format(chosen, width)) if bit == "0"])
            for chosen in leaves]


def ek_histogram(J: MonomialIdeal):
    """(a_0, ..., a_n): a_k generators of J have min variable k.

    The generator 1 counts as k = n, as in borel_dim_at.  It keys classify's
    memo: for a strongly stable J generated in degree r it fixes the Hilbert
    polynomial, C(t+n, n) - sum_k a_k C(t - r + k, k), and dim J_{r+1}.
    """
    n = J.n
    counts = [0] * (n + 1)
    for g in J.gens:
        exps = g.exps
        k = 0
        while k < n and not exps[k]:
            k += 1
        counts[k] += 1
    return tuple(counts)


def is_borel_chart(J: MonomialIdeal, constants: ChartConstants) -> bool:
    """Is J, Borel and generated by q(r) monomials of degree r, a chart of Hilb_p?

    By Gotzmann persistence it is exactly when dim J_{r+1} = q(r+1), with
    dim J_{r+1} the Eliahou-Kervaire count of borel_dim_at.
    """
    return borel_dim_at(J, constants.r + 1) == constants.s_prime


def chart_order(chart: BorelChartIdeal):
    """Chart sort key: regularity of the saturation, then its generators."""
    return (chart.regularity_sat,
            tuple(canonical_key(g) for g in chart.saturation.gens))


def borel_charts(c: ChartConstants, max_ambient=MAX_AMBIENT, max_nodes=MAX_NODES):
    """Records of the degree-r Borel ideals that pass is_borel_chart, in chart order."""
    return sorted((BorelChartIdeal.from_chart(J)
                   for J in enumerate_borel_in_g(c.n, c.r, c.s, max_ambient, max_nodes)
                   if is_borel_chart(J, c)), key=chart_order)


def enumerate_borel_saturated(n, p, max_ambient=MAX_AMBIENT, max_nodes=MAX_NODES):
    """Saturations of the Borel ideals with Hilbert polynomial p, in chart order.

    Those of borel_charts.  A chart J is the degree->=r part of its
    saturation, so distinct charts have distinct saturations.
    """
    charts = borel_charts(chart_constants(p, n), max_ambient, max_nodes)
    return [c.saturation for c in charts]
