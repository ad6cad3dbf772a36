"""Exact arithmetic core.

Three layers, all immutable and hashable:

* ``Monomial`` -- an exponent tuple over the ambient variables x_0 < ... < x_n;
* ``ParamPoly`` -- a sparse polynomial with rational coefficients in the chart
  parameters ``C[i,j]``, kept in a canonical term order so ``==`` and ``hash``
  agree with mathematical equality.  Terms are made canonical once at the
  boundary: ``ParamPoly(...)`` normalises outside input, while ``+``, ``-``
  and ``*`` merge already canonical operands into a dict, drop zeros and
  sort once, without normalising every term again;
* ``XPoly`` -- a homogeneous form in the x-variables whose coefficients are
  either ``Fraction`` scalars or ``ParamPoly`` values.

The fixed term order on x-monomials is degree-reverse-lexicographic with
x_n > ... > x_0; it is the column order of every coefficient matrix in the
package and the order in which tail monomials are indexed.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from . import linalg
from .errors import MathDomainError, ParseError, ScaleCapError


class Monomial:
    """Monomial of K[x_0, ..., x_n], stored as the exponent tuple (e_0, ..., e_n)."""

    __slots__ = ("exps",)

    def __init__(self, exps):
        exps = tuple(int(e) for e in exps)
        if not exps:
            raise ValueError("empty exponent vector")
        if any(e < 0 for e in exps):
            raise ValueError(f"negative exponent in {exps}")
        self.exps = exps

    @classmethod
    def one(cls, n):
        return cls((0,) * (n + 1))

    @classmethod
    def variable(cls, n, i):
        if not 0 <= i <= n:
            raise ValueError(f"variable index {i} out of range for n={n}")
        return cls(tuple(1 if k == i else 0 for k in range(n + 1)))

    @property
    def n(self):
        return len(self.exps) - 1

    def degree(self):
        return sum(self.exps)

    def is_one(self):
        return all(e == 0 for e in self.exps)

    def min_var(self):
        """Index of the smallest variable dividing the monomial."""
        for i, e in enumerate(self.exps):
            if e:
                return i
        raise MathDomainError("min(x^a) is undefined for the monomial 1")

    def max_var(self):
        for i in range(len(self.exps) - 1, -1, -1):
            if self.exps[i]:
                return i
        raise MathDomainError("max(x^a) is undefined for the monomial 1")

    def support(self):
        """Indices of the variables dividing the monomial."""
        return [i for i, e in enumerate(self.exps) if e]

    def __mul__(self, other):
        self._check_ambient(other)
        return Monomial(a + b for a, b in zip(self.exps, other.exps))

    def divides(self, other):
        self._check_ambient(other)
        return all(a <= b for a, b in zip(self.exps, other.exps))

    def __truediv__(self, other):
        self._check_ambient(other)
        if not other.divides(self):
            raise MathDomainError(f"{other} does not divide {self}")
        return Monomial(a - b for a, b in zip(self.exps, other.exps))

    def _check_ambient(self, other):
        if not isinstance(other, Monomial):
            raise TypeError(f"expected Monomial, got {type(other).__name__}")
        if len(self.exps) != len(other.exps):
            raise MathDomainError("monomials live in different ambient rings")

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.exps == other.exps

    def __hash__(self):
        return hash(self.exps)

    def __str__(self):
        if self.is_one():
            return "1"
        parts = []
        for i in range(len(self.exps) - 1, -1, -1):
            e = self.exps[i]
            if e == 1:
                parts.append(f"x{i}")
            elif e > 1:
                parts.append(f"x{i}^{e}")
        return "*".join(parts)

    __repr__ = __str__


def degrevlex_key(m: Monomial):
    """Sort key for degrevlex: larger key means larger monomial."""
    return (m.degree(), tuple(-e for e in m.exps))


def degrevlex_cmp(a: Monomial, b: Monomial) -> int:
    """-1, 0 or +1 as a is below, equal to, or above b in degrevlex."""
    a._check_ambient(b)
    ka, kb = degrevlex_key(a), degrevlex_key(b)
    return (ka > kb) - (ka < kb)


def canonical_key(m: Monomial):
    """Key for the canonical listing: degree ascending, degrevlex descending."""
    return (m.degree(), m.exps)


def monomials_of_degree(n, d):
    """All degree-d monomials in x_0..x_n, in degrevlex-descending order."""
    if d < 0:
        return []
    out = []
    exps = [0] * (n + 1)

    def rec(i, rem):
        if i == n:
            exps[i] = rem
            out.append(Monomial(exps))
            return
        for e in range(rem + 1):
            exps[i] = e
            rec(i + 1, rem - e)
        exps[i] = 0

    rec(0, d)
    out.sort(key=lambda m: m.exps)
    return out


# ---------------------------------------------------------------------------
# Polynomials in the chart parameters C[i,j]
# ---------------------------------------------------------------------------

def _cmon_mul(a, b):
    acc = dict(a)
    for v, e in b:
        acc[v] = acc.get(v, 0) + e
    return tuple(sorted(acc.items()))


def _cmon_degree(cm):
    return sum(e for _, e in cm)


def _term_sort_key(item):
    cm, _ = item
    return (-_cmon_degree(cm), cm)


class ParamPoly:
    """Polynomial over Q in the chart parameters, keyed by pairs (i, j).

    A term's multi-index is a sorted tuple of ((i, j), exponent) pairs; terms
    are stored sorted (degree descending, then multi-index), with no zero
    coefficients, so structural equality is mathematical equality.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        acc = {}
        for cm, c in terms:
            c = Fraction(c)
            if c:
                cm = tuple(sorted((tuple(v), int(e)) for v, e in cm if e))
                prev = acc.get(cm, 0) + c
                if prev:
                    acc[cm] = prev
                elif cm in acc:
                    del acc[cm]
        self.terms = tuple(sorted(acc.items(), key=_term_sort_key))

    @classmethod
    def _from_canonical(cls, terms):
        """Wrap terms that are already canonical (merged, nonzero, sorted)."""
        out = cls.__new__(cls)
        out.terms = terms
        return out

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def const(cls, q):
        return cls([((), Fraction(q))])

    @classmethod
    def var(cls, key):
        return cls([(((tuple(key), 1),), Fraction(1))])

    def __bool__(self):
        return bool(self.terms)

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(_cmon_degree(cm) for cm, _ in self.terms)

    def constant_term(self):
        for cm, c in self.terms:
            if not cm:
                return c
        return Fraction(0)

    def variables(self):
        seen = set()
        for cm, _ in self.terms:
            for v, _ in cm:
                seen.add(v)
        return sorted(seen)

    def __add__(self, other):
        other = _coerce_param(other)
        if other is NotImplemented:
            return NotImplemented
        acc = dict(self.terms)
        for cm, c in other.terms:
            v = acc.pop(cm, 0) + c
            if v:
                acc[cm] = v
        return ParamPoly._from_canonical(tuple(sorted(acc.items(), key=_term_sort_key)))

    __radd__ = __add__

    def __neg__(self):
        return ParamPoly._from_canonical(tuple((cm, -c) for cm, c in self.terms))

    def __sub__(self, other):
        other = _coerce_param(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return ParamPoly.zero()
            return ParamPoly._from_canonical(
                tuple((cm, c * other) for cm, c in self.terms))
        if not isinstance(other, ParamPoly):
            return NotImplemented
        acc = {}
        for cm1, c1 in self.terms:
            for cm2, c2 in other.terms:
                cm = _cmon_mul(cm1, cm2)
                acc[cm] = acc.get(cm, 0) + c1 * c2
        return ParamPoly._from_canonical(
            tuple(sorted(((cm, c) for cm, c in acc.items() if c), key=_term_sort_key)))

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power of a ParamPoly")
        out = ParamPoly.const(1)
        for _ in range(k):
            out = out * self
        return out

    def evaluate(self, assignment):
        """Evaluate at a {(i, j): Fraction} map covering every variable."""
        total = Fraction(0)
        for cm, c in self.terms:
            val = c
            for v, e in cm:
                if v not in assignment:
                    raise MathDomainError(f"no assignment for parameter C[{v[0]},{v[1]}]")
                val *= Fraction(assignment[v]) ** e
            total += val
        return total

    def substitute(self, key, value):
        """Replace the variable `key` by `value` (ParamPoly or rational)."""
        key = tuple(key)
        if isinstance(value, (int, Fraction)):
            value = ParamPoly.const(value)
        out = ParamPoly.zero()
        for cm, c in self.terms:
            e_key = 0
            rest = []
            for v, e in cm:
                if v == key:
                    e_key = e
                else:
                    rest.append((v, e))
            term = ParamPoly([(tuple(rest), c)])
            if e_key:
                term = term * value ** e_key
            out = out + term
        return out

    def __eq__(self, other):
        return isinstance(other, ParamPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        chunks = []
        for k, (cm, c) in enumerate(self.terms):
            sign = "-" if c < 0 else "+"
            body = _format_cterm(abs(c), cm)
            if k == 0:
                chunks.append(body if sign == "+" else "-" + body)
            else:
                chunks.append(f" {sign} {body}")
        return "".join(chunks)

    __repr__ = __str__


def _coerce_param(x):
    if isinstance(x, ParamPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return ParamPoly.const(x)
    return NotImplemented


def _format_cmon(cm):
    parts = []
    for (i, j), e in cm:
        v = f"C[{i},{j}]"
        parts.append(v if e == 1 else f"{v}^{e}")
    return "*".join(parts)


def _format_cterm(coeff, cm):
    if not cm:
        return str(coeff)
    if coeff == 1:
        return _format_cmon(cm)
    return f"{coeff}*{_format_cmon(cm)}"


# ---------------------------------------------------------------------------
# Homogeneous forms in the x-variables
# ---------------------------------------------------------------------------

class XPoly:
    """Homogeneous form in x_0..x_n.

    Coefficients are Fractions or ParamPolys.  Terms are stored in
    degrevlex-descending order of their monomials; the zero form keeps an
    explicit degree tag.
    """

    __slots__ = ("n", "degree", "terms")

    def __init__(self, n, terms=(), degree=0):
        acc = {}
        for mon, c in terms:
            if not isinstance(mon, Monomial):
                mon = Monomial(mon)
            if mon.n != n:
                raise MathDomainError("monomial ambient mismatch")
            if isinstance(c, int):
                c = Fraction(c)
            prev = acc.get(mon)
            c = c if prev is None else prev + c
            if not c:
                acc.pop(mon, None)
            else:
                acc[mon] = c
        degs = {m.degree() for m in acc}
        if len(degs) > 1:
            raise MathDomainError(f"inhomogeneous support with degrees {sorted(degs)}")
        self.n = n
        self.degree = degs.pop() if degs else degree
        self.terms = tuple(sorted(acc.items(), key=lambda t: t[0].exps))

    @classmethod
    def zero(cls, n, degree=0):
        return cls(n, (), degree)

    @classmethod
    def from_monomial(cls, mon, coeff=1):
        return cls(mon.n, [(mon, coeff)], mon.degree())

    def __bool__(self):
        return bool(self.terms)

    def support(self):
        return [m for m, _ in self.terms]

    def coefficient(self, mon):
        for m, c in self.terms:
            if m == mon:
                return c
        return Fraction(0)

    def _check(self, other):
        if self.n != other.n:
            raise MathDomainError("forms live in different ambient rings")
        if self.terms and other.terms and self.degree != other.degree:
            raise MathDomainError("inhomogeneous sum of forms")

    def __add__(self, other):
        if not isinstance(other, XPoly):
            return NotImplemented
        self._check(other)
        deg = self.degree if self.terms else other.degree
        return XPoly(self.n, self.terms + other.terms, deg)

    def __neg__(self):
        return XPoly(self.n, [(m, -c) for m, c in self.terms], self.degree)

    def __sub__(self, other):
        if not isinstance(other, XPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, ParamPoly)):
            return self.scale(other)
        if not isinstance(other, XPoly):
            return NotImplemented
        if self.n != other.n:
            raise MathDomainError("forms live in different ambient rings")
        acc = []
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                acc.append((m1 * m2, c1 * c2))
        return XPoly(self.n, acc, self.degree + other.degree)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, ParamPoly)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c):
        if not c:
            return XPoly.zero(self.n, self.degree)
        return XPoly(self.n, [(m, k * c) for m, k in self.terms], self.degree)

    def times_monomial(self, mon):
        return XPoly(self.n, [(m * mon, c) for m, c in self.terms],
                     self.degree + mon.degree())

    def is_scalar(self):
        return all(isinstance(c, Fraction) for _, c in self.terms)

    def __eq__(self, other):
        return (isinstance(other, XPoly) and self.n == other.n
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.n, self.terms))

    def __str__(self):
        if not self.terms:
            return "0"
        chunks = []
        for k, (mon, c) in enumerate(self.terms):
            sign, body = _format_xterm(mon, c)
            if k == 0:
                chunks.append(body if sign == "+" else "-" + body)
            else:
                chunks.append(f" {sign} {body}")
        return "".join(chunks)

    __repr__ = __str__


def _format_xterm(mon, coeff):
    mon_str = str(mon)
    if isinstance(coeff, ParamPoly):
        if len(coeff.terms) == 1:
            cm, q = coeff.terms[0]
            sign = "-" if q < 0 else "+"
            body = _format_cterm(abs(q), cm)
            if mon.is_one():
                return sign, body
            if body == "1":
                return sign, mon_str
            return sign, f"{body}*{mon_str}"
        return "+", f"({coeff})*{mon_str}" if not mon.is_one() else f"({coeff})"
    sign = "-" if coeff < 0 else "+"
    q = abs(coeff)
    if mon.is_one():
        return sign, str(q)
    if q == 1:
        return sign, mon_str
    return sign, f"{q}*{mon_str}"


def apply_change_of_coords(f: XPoly, g) -> XPoly:
    """Image of f under the substitution x_i -> sum_j g[i][j] * x_j.

    g must be an invertible (n+1) x (n+1) rational matrix; the image of a
    homogeneous form is homogeneous of the same degree.  With g = G / D for
    an integer matrix G, the image of x^e under G is memoized as
    image(x^e / x_i) * (row i of G), i the least index with e_i > 0, in
    integer coefficients; the images are combined with the coefficients of f
    (Fractions or ParamPolys) per target monomial and scaled by D^-d once.
    """
    n = f.n
    rows = [list(map(Fraction, row)) for row in g]
    if len(rows) != n + 1 or any(len(r) != n + 1 for r in rows):
        raise MathDomainError(f"change of coordinates must be {n + 1}x{n + 1}")
    if linalg.det(rows) == 0:
        raise MathDomainError("singular change of coordinates")
    D = math.lcm(*(q.denominator for row in rows for q in row))
    G = [[(j, int(q * D)) for j, q in enumerate(row) if q] for row in rows]
    images = {(0,) * (n + 1): {(0,) * (n + 1): 1}}

    def image(e):
        img = images.get(e)
        if img is None:
            i = next(k for k, x in enumerate(e) if x)
            img = {}
            for m, a in image(e[:i] + (e[i] - 1,) + e[i + 1:]).items():
                for j, b in G[i]:
                    key = m[:j] + (m[j] + 1,) + m[j + 1:]
                    img[key] = img.get(key, 0) + a * b
            images[e] = img
        return img

    acc = {}
    for mon, c in f.terms:
        for m, a in image(mon.exps).items():
            if not a:
                continue
            prev = acc.get(m)
            v = c * a if prev is None else prev + c * a
            if v:
                acc[m] = v
            else:
                acc.pop(m, None)
    scale = Fraction(1, D ** f.degree)
    return XPoly(n, [(Monomial(m), v * scale) for m, v in acc.items()], f.degree)


def specialize(f: XPoly, assignment) -> XPoly:
    """Evaluate every ParamPoly coefficient of f at the given C-assignment."""
    terms = []
    for mon, c in f.terms:
        if isinstance(c, ParamPoly):
            c = c.evaluate(assignment)
        terms.append((mon, c))
    return XPoly(f.n, terms, f.degree)


# ---------------------------------------------------------------------------
# Text format
#
# Terms are joined by " + " / " - "; rational coefficients print as "a/b"
# (no "/1"); monomial factors print as "x2^2*x1", parameters as "C[i,j]".
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+)"
    r"|x(?P<xi>\d+)"
    r"|C\[\s*(?P<ci>\d+)\s*,\s*(?P<cj>\d+)\s*\]"
    r"|(?P<op>\*\*|[*^+\-()/]))"
)


def _tokenize(text):
    text = text.replace("−", "-").replace("·", "*")
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise ParseError(f"unexpected character at: {text[pos:pos + 12]!r}")
            break
        if m.group("num"):
            tokens.append(("num", int(m.group("num"))))
        elif m.group("xi") is not None:
            tokens.append(("x", int(m.group("xi"))))
        elif m.group("ci") is not None:
            tokens.append(("C", (int(m.group("ci")), int(m.group("cj")))))
        else:
            op = m.group("op")
            tokens.append(("^" if op == "**" else op, None))
        pos = m.end()
    return tokens


class _RawTerms:
    """Work representation during parsing: {(x-exps, c-mon): Fraction}."""

    def __init__(self, items=()):
        self.d = {}
        for k, v in items:
            v = self.d.get(k, 0) + v
            if v:
                self.d[k] = v
            else:
                self.d.pop(k, None)

    @classmethod
    def const(cls, q):
        return cls([((tuple(), tuple()), Fraction(q))])

    def add(self, other):
        return _RawTerms(list(self.d.items()) + list(other.d.items()))

    def mul(self, other):
        out = {}
        for (xa, ca), qa in self.d.items():
            for (xb, cb), qb in other.d.items():
                xs = dict(xa)
                for i, e in xb:
                    xs[i] = xs.get(i, 0) + e
                key = (tuple(sorted(xs.items())), _cmon_mul(ca, cb))
                out[key] = out.get(key, 0) + qa * qb
        return _RawTerms(out.items())

    def neg(self):
        return _RawTerms([(k, -v) for k, v in self.d.items()])


# Caps on the work of one parse: the exponent after '^', and the number of
# term products that expanding the expression forms.
_MAX_PARSE_EXPONENT = 1000
_MAX_PARSE_PRODUCTS = 100_000


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.products = 0

    def mul(self, a, b):
        self.products += len(a.d) * len(b.d)
        if self.products > _MAX_PARSE_PRODUCTS:
            raise ScaleCapError(f"expanding the expression needs more than "
                                f"{_MAX_PARSE_PRODUCTS} term products")
        return a.mul(b)

    def peek(self):
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse_sum(self):
        if self.peek() in ("+", "-"):
            kind, _ = self.next()
            total = self.parse_product()
            if kind == "-":
                total = total.neg()
        else:
            total = self.parse_product()
        while self.peek() in ("+", "-"):
            kind, _ = self.next()
            term = self.parse_product()
            total = total.add(term.neg() if kind == "-" else term)
        return total

    def parse_product(self):
        total = self.parse_power()
        while True:
            nxt = self.peek()
            if nxt == "*":
                self.next()
            elif nxt not in ("num", "x", "C", "("):
                return total
            total = self.mul(total, self.parse_power())

    def parse_power(self):
        base = self.parse_atom()
        if self.peek() == "^":
            self.next()
            if self.peek() != "num":
                raise ParseError("expected integer exponent after '^'")
            _, e = self.next()
            if e > _MAX_PARSE_EXPONENT:
                raise ScaleCapError(
                    f"exponent {e} exceeds the cap {_MAX_PARSE_EXPONENT}")
            power = _RawTerms.const(1)
            for _ in range(e):
                power = self.mul(power, base)
            return power
        return base

    def parse_atom(self):
        kind = self.peek()
        if kind is None:
            raise ParseError("unexpected end of expression")
        if kind == "num":
            _, val = self.next()
            q = Fraction(val)
            if self.peek() == "/":
                self.next()
                if self.peek() != "num":
                    raise ParseError("expected integer denominator")
                _, den = self.next()
                if den == 0:
                    raise ParseError("zero denominator")
                q = Fraction(val, den)
            return _RawTerms.const(q)
        if kind == "x":
            _, i = self.next()
            return _RawTerms([(((((i, 1),)), tuple()), Fraction(1))])
        if kind == "C":
            _, key = self.next()
            return _RawTerms([((tuple(), ((key, 1),)), Fraction(1))])
        if kind == "(":
            self.next()
            inner = self.parse_sum()
            if self.peek() != ")":
                raise ParseError("unbalanced parenthesis")
            self.next()
            return inner
        raise ParseError(f"unexpected token {kind!r}")


def _parse_raw(text):
    parser = _Parser(_tokenize(text))
    raw = parser.parse_sum()
    if parser.pos != len(parser.tokens):
        raise ParseError(f"trailing input in {text!r}")
    return raw


def parse_xpoly(text, n) -> XPoly:
    """Parse a homogeneous form; C[i,j] factors land in ParamPoly coefficients."""
    raw = _parse_raw(text)
    acc = {}
    has_params = any(cm for (_, cm) in raw.d)
    for (xexps, cm), q in raw.d.items():
        exps = [0] * (n + 1)
        for i, e in xexps:
            if i > n:
                raise ParseError(f"variable x{i} out of range for n={n}")
            exps[i] = e
        mon = Monomial(exps)
        coeff = ParamPoly([(cm, q)]) if has_params else q
        acc[mon] = acc.get(mon, (ParamPoly.zero() if has_params else Fraction(0))) + coeff
    try:
        return XPoly(n, acc.items())
    except MathDomainError as exc:
        raise ParseError(str(exc)) from exc


def parse_parampoly(text) -> ParamPoly:
    """Parse a polynomial in the chart parameters only."""
    raw = _parse_raw(text)
    terms = []
    for (xexps, cm), q in raw.d.items():
        if xexps:
            raise ParseError("x-variables not allowed in a parameter polynomial")
        terms.append((cm, q))
    return ParamPoly(terms)
