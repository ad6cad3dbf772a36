"""Hilbert functions and polynomials of monomial quotients.

A ``HilbertPoly`` stores integer coordinates in the binomial basis
{C(t+k, k)}_{k>=0}; a polynomial is integer-valued exactly when its
coordinates in this basis are integers, which the constructors enforce.
The Gotzmann number is extracted from the unique representation

    p(t) = sum_{i=1..r} C(t + a_i - i + 1, a_i),   a_1 >= a_2 >= ... >= 0,

built greedily; r is the number of summands.

Hilbert polynomials come from one of two exact sources: the
Eliahou-Kervaire count for strongly stable ideals, and otherwise a Hilbert
function certified by Gotzmann persistence (certified_hilbert_polynomial),
which stops at the first degree of maximal growth in Macaulay's sense.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import (InadmissiblePolynomialError, MathDomainError, ParseError,
                     ScaleCapError)


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
        coords = [int(c) for c in coords]
        while coords and coords[-1] == 0:
            coords.pop()
        self.coords = tuple(coords)

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def constant(cls, c):
        return cls((c,))

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

    def __call__(self, t):
        return self.evaluate(t)

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
    def from_values(cls, points):
        """Fit the unique polynomial of degree < len(points) through the points.

        Raises MathDomainError if the fit is not integer-valued.
        """
        k = len(points)
        if k == 0:
            return cls.zero()
        A = [[Fraction(binom(t + j, j)) for j in range(k)] for t, _ in points]
        b = [Fraction(v) for _, v in points]
        sol = linalg.solve(A, b)
        if any(c.denominator != 1 for c in sol):
            raise MathDomainError("values do not interpolate an integer-valued polynomial")
        return cls(int(c) for c in sol)

    @classmethod
    def from_power_coeffs(cls, coeffs):
        """Build from power-basis coefficients [c0, c1, ...] (rationals allowed)."""
        coeffs = [Fraction(c) for c in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        if not coeffs:
            return cls.zero()
        d = len(coeffs) - 1
        values = [(t, sum(c * t ** k for k, c in enumerate(coeffs))) for t in range(d + 1)]
        if any(v.denominator != 1 for _, v in values):
            raise MathDomainError("polynomial is not integer-valued")
        return cls.from_values([(t, int(v)) for t, v in values])

    @classmethod
    def binomial_shift(cls, a, c):
        """The polynomial C(t + c, a)."""
        if a < 0:
            raise ValueError("negative binomial degree")
        return cls.from_values([(t, binom(t + c, a)) for t in range(a + 1)])

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
        coeffs = self.power_coeffs()
        if not coeffs:
            return "0"
        chunks = []
        for k in range(len(coeffs) - 1, -1, -1):
            c = coeffs[k]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            q = abs(c)
            if k == 0:
                body = str(q)
            else:
                tpart = "t" if k == 1 else f"t^{k}"
                body = tpart if q == 1 else f"{q}*{tpart}"
            if not chunks:
                chunks.append(body if sign == "+" else "-" + body)
            else:
                chunks.append(f"{sign}{body}")
        return "".join(chunks)

    __repr__ = __str__


_HP_TERM_RE = re.compile(
    r"^(?:(?P<coeff>\d+(?:/\d+)?)\*?)?(?:(?P<t>t)(?:[\^]|\*\*)?(?P<exp>\d+)?)?$"
)


def parse_hilbert_poly(text) -> HilbertPoly:
    """Parse expressions like '3*t', '2*t+3', '7', 't^2-1/2*t'."""
    s = text.replace("−", "-").replace(" ", "")
    if not s:
        raise ParseError("empty Hilbert polynomial")
    chunks = re.findall(r"[+-]?[^+-]+", s)
    coeffs = {}
    for chunk in chunks:
        sign = 1
        body = chunk
        if body[0] in "+-":
            sign = -1 if body[0] == "-" else 1
            body = body[1:]
        m = _HP_TERM_RE.match(body)
        if not m or (m.group("coeff") is None and m.group("t") is None):
            raise ParseError(f"cannot parse Hilbert polynomial term {chunk!r}")
        coeff = Fraction(m.group("coeff")) if m.group("coeff") else Fraction(1)
        if m.group("t"):
            exp = int(m.group("exp")) if m.group("exp") else 1
        else:
            exp = 0
        coeffs[exp] = coeffs.get(exp, Fraction(0)) + sign * coeff
    size = max(coeffs) + 1
    try:
        return HilbertPoly.from_power_coeffs([coeffs.get(k, 0) for k in range(size)])
    except MathDomainError as exc:
        raise ParseError(str(exc)) from exc


def coerce_hilbert_poly(p) -> HilbertPoly:
    if isinstance(p, HilbertPoly):
        return p
    if isinstance(p, int):
        return HilbertPoly.constant(p)
    if isinstance(p, str):
        return parse_hilbert_poly(p)
    raise TypeError(f"cannot interpret {p!r} as a Hilbert polynomial")


# ---------------------------------------------------------------------------
# Gotzmann number and chart constants
# ---------------------------------------------------------------------------

def gotzmann_representation(p, n, max_terms=512):
    """The a_i sequence of the unique binomial representation of p."""
    p = coerce_hilbert_poly(p)
    if p.is_zero():
        raise InadmissiblePolynomialError("zero Hilbert polynomial")
    if p.degree() >= n:
        raise InadmissiblePolynomialError(
            f"degree {p.degree()} polynomial is not admissible in P^{n}")
    seq = []
    cur = p
    i = 1
    while not cur.is_zero():
        if i > max_terms:
            raise ScaleCapError(f"Gotzmann representation exceeds {max_terms} summands")
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


def gotzmann_number(p, n, max_terms=512) -> int:
    """Number of summands in the binomial representation of p for P^n."""
    return len(gotzmann_representation(p, n, max_terms))


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

    def N(self, t):
        return ambient_dimension(self.n, t)

    def q(self, t):
        return self.N(t) - self.p.evaluate(t)


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


def macaulay_representation(c, t):
    """The k_i of c = C(k_t, t) + C(k_{t-1}, t-1) + ... + C(k_j, j).

    The unique representation with k_t > k_{t-1} > ... > k_j >= j >= 1,
    built greedily; returned as (i, k_i) pairs from i = t down.  Requires
    c >= 0 and t >= 1; c = 0 has the empty representation.
    """
    out = []
    i = t
    while c > 0:
        k = i
        while math.comb(k + 1, i) <= c:
            k += 1
        out.append((i, k))
        c -= math.comb(k, i)
        i -= 1
    return out


def certified_hilbert_polynomial(hf, t0, max_shift) -> HilbertPoly:
    """Hilbert polynomial of S/I from its Hilbert function hf, with proof.

    I must be generated in degrees <= t0.  For t = t0, t0+1, ... the growth
    HF(t+1) is compared with Macaulay's bound HF(t)^<t> = sum C(k_i+1, i+1),
    where HF(t) = sum C(k_i, i) in degree t.  At the first t where the bound
    is reached, Gotzmann's persistence theorem gives HF(t+s) =
    sum C(k_i + s, i + s) for every s >= 0, so the Hilbert polynomial is
    sum_i C(u + k_i - t, k_i - i).  Each value of hf is computed once; at
    most max_shift degrees are tried before MathDomainError.
    """
    t = max(t0, 1)
    cur = hf(t)
    for _ in range(max_shift):
        nxt = hf(t + 1)
        rep = macaulay_representation(cur, t)
        if nxt == sum(math.comb(k + 1, i + 1) for i, k in rep):
            return sum((HilbertPoly.binomial_shift(k - i, k - t) for i, k in rep),
                       HilbertPoly.zero())
        t, cur = t + 1, nxt
    raise MathDomainError(
        f"Hilbert function reached no maximal growth within {max_shift} degrees")


def hilbert_polynomial(J, max_shift=80) -> HilbertPoly:
    """Hilbert polynomial of S/J for a proper monomial ideal J.

    For a strongly stable J the Eliahou-Kervaire count of dim J_t is a
    polynomial in t from the largest generator degree t0 on, so n+1 values
    from t0 determine it exactly.  Any other monomial ideal goes through
    certified_hilbert_polynomial on the brute-force Hilbert function.
    """
    from .borel import is_strongly_stable  # borel imports this module

    n = J.n
    if J.contains_one():
        raise MathDomainError("Hilbert polynomial of the unit ideal")
    t0 = max((g.degree() for g in J.gens), default=0)
    if is_strongly_stable(J):
        return HilbertPoly.from_values(
            [(t, ambient_dimension(n, t) - borel_dim_at(J, t))
             for t in range(t0, t0 + n + 1)])
    return certified_hilbert_polynomial(lambda t: hilbert_function(J, t),
                                        t0, max_shift)
