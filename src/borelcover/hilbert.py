"""Hilbert functions and polynomials of monomial quotients.

A ``HilbertPoly`` stores integer coordinates in the binomial basis
{C(t+k, k)}_{k>=0}; a polynomial is integer-valued exactly when its
coordinates in this basis are integers, which the constructors enforce.
The Gotzmann number is extracted from the unique representation

    p(t) = sum_{i=1..r} C(t + a_i - i + 1, a_i),   a_1 >= a_2 >= ... >= 0,

built greedily; r is the number of summands.

Hilbert polynomials come from the closed form of the Eliahou-Kervaire count
for strongly stable ideals, and otherwise from the Hilbert series numerator,
whose coefficients in powers of 1 - t are the coordinates.  Closed forms,
such as the first one and C(t + c, a), become coordinates through one helper
by binomial inversion; nothing here solves a linear system.

Two facts of monomial ideals live here once: _minimal, the minimal basis of
exponent tuples, and borel_dim_at, the Eliahou-Kervaire count of dim J_t.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, groupby
from operator import le

from .errors import (InadmissiblePolynomialError, MathDomainError, ParseError,
                     ScaleCapError)
from .ring import _integers, _power_product, _signed_sum

_MAX_GOTZMANN_TERMS = 512
# Cap on the exponent of t in a parsed Hilbert polynomial; converting to the
# binomial basis costs about the cube of the degree.
_MAX_HP_DEGREE = 100
_MAX_QUOTIENTS = 1_000_000  # colon quotients of the Hilbert series, about 2 s


def binom(m, k):
    """Binomial coefficient C(m, k) for any integer m and k >= 0."""
    if k < 0:
        raise ValueError("negative lower index")
    if m >= 0:
        return math.comb(m, k)
    # C(m, k) = (-1)^k C(k - m - 1, k) for m < 0
    return (-1) ** k * math.comb(k - m - 1, k)


def ambient_dimension(n, t):
    """N(t) = C(n+t, n), the number of degree-t monomials in n+1 variables."""
    return binom(n + t, n)


class HilbertPoly:
    """Integer-valued polynomial in t, stored in the basis {C(t+k, k)}."""

    __slots__ = ("coords",)

    def __init__(self, coords=()):
        coords = list(_integers(coords))
        while coords and coords[-1] == 0:
            coords.pop()
        self.coords = tuple(coords)

    def is_zero(self):
        return not self.coords

    def degree(self):
        """Degree in t; -1 for the zero polynomial."""
        return len(self.coords) - 1

    def leading_coord(self):
        if not self.coords:
            raise MathDomainError("zero polynomial has no leading coordinate")
        return self.coords[-1]

    def evaluate(self, t):
        return sum(c * binom(t + k, k) for k, c in enumerate(self.coords))

    def __add__(self, other):
        a, b = self.coords, other.coords
        size = max(len(a), len(b))
        return HilbertPoly(
            (a[k] if k < len(a) else 0) + (b[k] if k < len(b) else 0)
            for k in range(size)
        )

    def __neg__(self):
        return HilbertPoly(-c for c in self.coords)

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other):
        return isinstance(other, HilbertPoly) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    @classmethod
    def _from_function(cls, f, d):
        """The polynomial of degree <= d that agrees with f on the integers.

        C(t+k, k) takes the value 0 at t = -1-i for i < k and (-1)^k C(i, k)
        for i >= k, so binomial inversion gives the coordinates
        c_k = sum_{i<=k} (-1)^i C(k, i) f(-1-i) with no linear system.
        """
        values = [f(-1 - i) for i in range(d + 1)]
        coords = [sum((-1) ** i * math.comb(k, i) * values[i] for i in range(k + 1))
                  for k in range(d + 1)]
        if any(c.denominator != 1 for c in coords):
            raise MathDomainError("polynomial is not integer-valued")
        return cls(coords)

    @classmethod
    def from_power_coeffs(cls, coeffs):
        """Build from power-basis coefficients [c0, c1, ...] (rationals allowed)."""
        coeffs = [Fraction(c) for c in coeffs]
        return cls._from_function(
            lambda t: sum(c * t ** k for k, c in enumerate(coeffs)), len(coeffs) - 1)

    @classmethod
    def binomial_shift(cls, a, c):
        """The polynomial C(t + c, a)."""
        if a < 0:
            raise ValueError("negative binomial degree")
        return cls._from_function(lambda t: binom(t + c, a), a)

    def power_coeffs(self):
        """Coefficients in the power basis, as Fractions [c0, c1, ...]."""
        out = [Fraction(0)] * (len(self.coords) + 1)
        for k, c in enumerate(self.coords):
            # expand C(t+k, k) = prod_{i=1..k} (t+i) / k!
            poly = [Fraction(1)]
            for i in range(1, k + 1):
                poly = [Fraction(0)] + poly
                for idx in range(len(poly) - 1):
                    poly[idx] += poly[idx + 1] * i
            fact = Fraction(math.factorial(k))
            for idx, v in enumerate(poly):
                out[idx] += c * v / fact
        while out and out[-1] == 0:
            out.pop()
        return out

    def __str__(self):
        """Power-basis text from the top degree down, unspaced: "2*t+3"."""
        coeffs = self.power_coeffs()
        terms = [(coeffs[k], _power_product([("t", k)] if k else []))
                 for k in range(len(coeffs) - 1, -1, -1) if coeffs[k]]
        return _signed_sum(terms, space="")

    __repr__ = __str__


# One term: an optional sign, a coefficient a or a/b, then t with an optional
# exponent after "^" or "**".  A "*" may stand only between a coefficient and t.
_HP_TERM_RE = re.compile(r"(?P<sign>[+-]?)(?:(?P<coeff>\d+(?:/\d+)?)(?:\*(?=t))?)?"
                         r"(?:(?P<t>t)(?:(?:\^|\*\*)(?P<exp>\d+))?)?")


def parse_hilbert_poly(text) -> HilbertPoly:
    """Parse expressions like '3*t', '2*t+3', '7', 't^2-1/2*t'."""
    s = text.replace("−", "-").replace(" ", "")
    if not s:
        raise ParseError("empty Hilbert polynomial")
    chunks = re.findall(r"[+-]?[^+-]+", s)
    if "".join(chunks) != s:
        raise ParseError(f"a sign without a term in Hilbert polynomial {s[:40]!r}")
    coeffs = {}
    for chunk in chunks:
        m = _HP_TERM_RE.fullmatch(chunk)
        if not m or (m.group("coeff") is None and m.group("t") is None):
            raise ParseError(f"cannot parse Hilbert polynomial term {chunk!r}")
        try:
            coeff = Fraction(m.group("coeff") or 1)
            exp = int(m.group("exp") or 1) if m.group("t") else 0
        except (ValueError, ZeroDivisionError) as exc:  # too many digits, or 1/0
            raise ParseError(f"cannot read a number in {chunk[:40]!r}: {exc}") from exc
        _check_hp_degree(exp)
        if m.group("sign") == "-":
            coeff = -coeff
        coeffs[exp] = coeffs.get(exp, Fraction(0)) + coeff
    size = max(coeffs) + 1
    try:
        return HilbertPoly.from_power_coeffs([coeffs.get(k, 0) for k in range(size)])
    except MathDomainError as exc:
        raise ParseError(str(exc)) from exc


def coerce_hilbert_poly(p) -> HilbertPoly:
    if isinstance(p, HilbertPoly):
        return p
    if isinstance(p, int):
        return HilbertPoly((p,))
    if isinstance(p, str):
        return parse_hilbert_poly(p)
    raise TypeError(f"cannot interpret {p!r} as a Hilbert polynomial")


# ---------------------------------------------------------------------------
# Gotzmann number and chart constants
# ---------------------------------------------------------------------------

def require_admissible_degree(p, n):
    """p is nonzero and of degree below n, as an admissible polynomial in P^n is."""
    if p.is_zero():
        raise InadmissiblePolynomialError("zero Hilbert polynomial")
    if p.degree() >= n:
        raise InadmissiblePolynomialError(
            f"degree {p.degree()} polynomial is not admissible in P^{n}")


def gotzmann_representation(p, n):
    """The a_i sequence of the unique binomial representation of p."""
    p = coerce_hilbert_poly(p)
    require_admissible_degree(p, n)
    seq = []
    cur = p
    i = 1
    while not cur.is_zero():
        if i > _MAX_GOTZMANN_TERMS:
            raise ScaleCapError(
                f"Gotzmann representation exceeds {_MAX_GOTZMANN_TERMS} summands")
        a = cur.degree()
        if cur.leading_coord() < 0:
            raise InadmissiblePolynomialError(
                f"inadmissible Hilbert polynomial {p} (negative remainder)")
        if seq and a > seq[-1]:
            raise InadmissiblePolynomialError(
                f"inadmissible Hilbert polynomial {p} (increasing exponents)")
        seq.append(a)
        cur = cur - HilbertPoly.binomial_shift(a, a - i + 1)
        i += 1
    return seq


def gotzmann_number(p, n) -> int:
    """Number of summands in the binomial representation of p for P^n."""
    return len(gotzmann_representation(p, n))


@dataclass(frozen=True)
class ChartConstants:
    """Numbers attached to the embedding of the Hilbert scheme for (n, p)."""

    n: int
    p: HilbertPoly
    d: int          # degree of p
    r: int          # Gotzmann number
    N_r: int        # dim S_r
    s: int          # q(r) = N(r) - p(r)
    s_prime: int    # q(r+1)
    D: int          # p(r) * q(r)


def chart_constants(p, n) -> ChartConstants:
    p = coerce_hilbert_poly(p)
    r = gotzmann_number(p, n)
    N_r = ambient_dimension(n, r)
    s = N_r - p.evaluate(r)
    s_prime = ambient_dimension(n, r + 1) - p.evaluate(r + 1)
    if s <= 0:
        raise InadmissiblePolynomialError(f"volume q(r) = {s} is not positive")
    return ChartConstants(n=n, p=p, d=max(p.degree(), 0), r=r, N_r=N_r, s=s,
                          s_prime=s_prime, D=p.evaluate(r) * s)


# ---------------------------------------------------------------------------
# Hilbert function / polynomial of a monomial quotient
# ---------------------------------------------------------------------------

def hilbert_function(J, t) -> int:
    """Number of degree-t monomials outside the monomial ideal J."""
    if t < 0:
        raise MathDomainError("Hilbert function requested at negative degree")
    return len(J.sous_escalier_at(t))


def borel_dim_at(J, t) -> int:
    """dim J_t of a strongly stable J by the Eliahou-Kervaire count.

    Every degree-t monomial of J factors uniquely as u * g with g a minimal
    generator and max(u) <= min(g), so

        dim J_t = sum_{g in G(J), |g| <= t} C(t - |g| + min(g), min(g)).

    The generator 1 admits every cofactor; its min is taken to be n.  The
    caller guarantees strong stability: the count is wrong for other ideals.
    """
    n = J.n
    total = 0
    for g in J.gens:
        d = g.degree()
        if d <= t:
            k = g.min_var() if d else n
            total += math.comb(t - d + k, k)
    return total


def _check_hp_degree(d):
    if d > _MAX_HP_DEGREE:
        raise ScaleCapError(f"Hilbert polynomial degree {d} exceeds the cap "
                            f"{_MAX_HP_DEGREE}")


def borel_hp_degree(J) -> int:
    """Degree k - 1 of the Hilbert polynomial of S/J, J strongly stable.

    x_k is the least variable of which J holds a pure power (k = n + 1 for
    J = 0): strong stability moves that power to a power of each of
    x_k..x_n, and a generator in x_0..x_{k-1} alone would move to a power of
    x_{k-1}, so J lies in (x_k, ..., x_n) and S/J has dimension k.  A degree
    above the --hp cap raises ScaleCapError.
    """
    k = min((g.min_var() for g in J.gens if len(g.support()) == 1), default=J.n + 1)
    _check_hp_degree(k - 1)
    return k - 1


def _minimal(exps):
    """Minimal basis of the exponent tuples in canonical order (degree ascending,
    degrevlex descending); a degree is tested against those kept below it."""
    out = []
    for _, same in groupby(sorted(set(exps), key=lambda e: (sum(e), e)), sum):
        out += [e for e in same if not any(all(map(le, f, e)) for f in out)]
    return out


def series_numerator(exps):
    """Coefficients of K(t), with Hilbert series K(t) / (1-t)^(n+1), of S/(x^e).

    K(I' + (g)) = K(I') - t^|g| K(I' : g) (Bayer-Stillman, 1992), on an
    explicit stack of (minimal generators, multiplier) items, so no input meets
    the recursion limit; _MAX_QUOTIENTS colon quotients cap the work.
    """
    stack = [(_minimal(exps), Counter({0: 1}))]
    total, work = Counter(), 0
    while stack:
        gens, mult = stack.pop()
        work += len(gens)
        if work > _MAX_QUOTIENTS:
            raise ScaleCapError(f"Hilbert series exceeded {_MAX_QUOTIENTS} colon quotients")
        if not gens:
            total.update(mult)
            continue
        *rest, g = gens
        colon = [tuple(a - b if a > b else 0 for a, b in zip(h, g)) for h in rest]
        shifted = Counter({k + sum(g): -c for k, c in mult.items()})
        if colon == rest:  # g is coprime to I', so K = (1 - t^|g|) K(I')
            mult.update(shifted)
        else:
            stack.append((_minimal(colon), shifted))
        stack.append((rest, mult))
    return [total[k] for k in range(max(total, default=-1) + 1)]


def hilbert_polynomial_of_exponents(exps, n) -> HilbertPoly:
    """Hilbert polynomial of S/(x^e : e in exps) in P^n; unused variables may be absent.

    With K(t) = sum_j b_j (1 - t)^j, b_(n-k) is the coordinate of C(t + k, k),
    the Hilbert function of 1 / (1 - t)^(k+1).  Synthetic division gives the
    b_j in turn, and the first nonzero b_d meets the --hp cap at degree n - d.
    """
    h, b = series_numerator(exps), []
    while h and len(b) <= n:
        c = sum(h)
        if c and not any(b):
            _check_hp_degree(n - len(b))
        b.append(c)
        h = [s - c for s in accumulate(h[:-1])]  # (h - c) / (1 - t)
    return HilbertPoly([0] * (n + 1 - len(b)) + b[::-1])


def hilbert_polynomial(J) -> HilbertPoly:
    """Hilbert polynomial of S/J for a proper monomial ideal J.

    For a strongly stable J it is the Eliahou-Kervaire closed form
    C(t+n, n) - sum_{g in G(J)} C(t - |g| + min(g), min(g)), read off at its
    degree borel_hp_degree(J), whose cap fires first.
    """
    from .borel import is_strongly_stable  # borel imports this module

    n = J.n
    if J.contains_one():
        raise MathDomainError("Hilbert polynomial of the unit ideal")
    if is_strongly_stable(J):
        return HilbertPoly._from_function(
            lambda t: binom(t + n, n) - sum(
                binom(t - g.degree() + g.min_var(), g.min_var()) for g in J.gens),
            borel_hp_degree(J))
    return hilbert_polynomial_of_exponents([g.exps for g in J.gens], n)
