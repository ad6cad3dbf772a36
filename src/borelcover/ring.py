"""Exact arithmetic core.

Three layers, all immutable and hashable:

* ``Monomial`` -- an exponent tuple over the ambient variables x_0 < ... < x_n;
* ``ParamPoly`` -- a sparse polynomial with rational coefficients in the chart
  parameters ``C[i,j]``, kept as a dict from multi-index to nonzero
  ``int`` or ``Fraction``, so ``==`` agrees with mathematical equality and
  ``hash``, which reads the keys alone, with ``==``.
  ``ParamPoly(...)`` normalises outside input once; ``+``, ``-`` and ``*``
  merge the dicts of their operands and drop zeros.  The canonical term
  order is computed only where it can be seen: in ``.terms`` and in text;
* ``XPoly`` -- a homogeneous form in the x-variables whose coefficients are
  either ``int`` or ``Fraction`` scalars or ``ParamPoly`` values, kept in the
  same way as a dict from exponent tuple to nonzero coefficient.

The fixed term order on x-monomials is degree-reverse-lexicographic with
x_n > ... > x_0; it is the column order of every coefficient matrix in the
package and the order in which tail monomials are indexed.  Neither sparse
form stores it: ``.terms`` and the printers sort when they are asked.  The
parser computes on ``ParamPoly``, with x_i the parameter key (i,).

A linear change of coordinates g = G / D checks that g is invertible once
per distinct g, and keeps the integer images of x^e under G for the last g
only, shared by every form transformed under it in a row.  Each image of a
form is accumulated in integers and divided once at the end.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
import sys
from fractions import Fraction
from operator import add, sub

from . import linalg
from .errors import MathDomainError, ParseError, ScaleCapError


def _integers(values):
    """The values as a tuple of ints; ValueError if one is not integral (1.5, 1/2)."""
    values = tuple(values)
    ints = tuple(map(int, values))
    if ints != values:
        raise ValueError(f"non-integral entry in {values}")
    return ints


class Monomial:
    """Monomial of K[x_0, ..., x_n], stored as the exponent tuple (e_0, ..., e_n)."""

    __slots__ = ("exps",)

    def __init__(self, exps):
        exps = _integers(exps)
        if not exps:
            raise ValueError("empty exponent vector")
        if any(e < 0 for e in exps):
            raise ValueError(f"negative exponent in {exps}")
        self.exps = exps

    @classmethod
    def _from_exps(cls, exps):
        """Wrap an exponent tuple already known to be valid."""
        out = cls.__new__(cls)
        out.exps = exps
        return out

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

    def support(self):
        """Indices of the variables dividing the monomial."""
        return [i for i, e in enumerate(self.exps) if e]

    def __mul__(self, other):
        self._check_ambient(other)
        return Monomial._from_exps(tuple(map(add, self.exps, other.exps)))

    def divides(self, other):
        self._check_ambient(other)
        return all(a <= b for a, b in zip(self.exps, other.exps))

    def __truediv__(self, other):
        self._check_ambient(other)
        if not other.divides(self):
            raise MathDomainError(f"{other} does not divide {self}")
        return Monomial._from_exps(tuple(map(sub, self.exps, other.exps)))

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
        return _power_product(_x_factors(self)) or "1"

    __repr__ = __str__


def canonical_key(m: Monomial):
    """Key for the canonical listing: degree ascending, degrevlex descending."""
    return (m.degree(), m.exps)


_MAX_LISTED_ENTRIES = 10_000_000


def monomials_of_degree(n, d):
    """All degree-d monomials in x_0..x_n, in degrevlex-descending order.

    Stars and bars: the n bar positions among d + n slots, taken in
    lexicographic order, give the exponent tuples in ascending order, which
    is degrevlex descending.  Capped before listing on N(d) * (n + 1) entries.
    """
    if d < 0:
        return []
    if math.comb(d + n, n) * (n + 1) > _MAX_LISTED_ENTRIES:
        raise ScaleCapError(f"the degree-{d} monomials of P^{n} exceed the listing "
                            f"cap of {_MAX_LISTED_ENTRIES} exponent entries")
    ends = (d + n,)
    return [Monomial._from_exps(
                tuple([b - a - 1 for a, b in zip((-1,) + bars, bars + ends)]))
            for bars in itertools.combinations(range(d + n), n)]


# ---------------------------------------------------------------------------
# Polynomials in the chart parameters C[i,j]
# ---------------------------------------------------------------------------

def _cmon_times(cm, v, e=1):
    """The multi-index cm times C[v]^e: one walk over cm's sorted pairs, then
    v's exponent raised, or (v, e) inserted where it sorts."""
    k = 0
    for w, f in cm:
        if w >= v:
            if w == v:
                return cm[:k] + ((v, f + e),) + cm[k + 1:]
            return cm[:k] + ((v, e),) + cm[k:]
        k += 1
    return cm + ((v, e),)


def _cmon_mul(a, b):
    """The product of the multi-index a by the pairs b, one variable at a time,
    so b may be unsorted and repeat a variable."""
    for v, e in b:
        a = _cmon_times(a, v, e)
    return a


def _cmon_degree(cm):
    d = 0
    for _, e in cm:
        d += e
    return d


def _term_sort_key(item):
    cm, _ = item
    return (-_cmon_degree(cm), cm)


class ParamPoly:
    """Polynomial over Q in the chart parameters, keyed by pairs (i, j).

    A term's multi-index is a sorted tuple of ((i, j), exponent) pairs, one
    per variable, with positive exponents.  The terms live in a dict from
    multi-index to nonzero int or Fraction (``__init__`` stores Fractions;
    ``_from_dict`` keeps the ints it is given, so the equations of
    ``marked.scheme_equations`` have int values), so structural equality is
    mathematical equality, ints and Fractions alike; ``.terms`` lists them
    in the canonical order (degree descending, then multi-index).
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=()):
        acc = {}
        for cm, c in terms:
            c = Fraction(c)
            if c:
                cm = tuple(cm)
                exps = _integers(e for _, e in cm)
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {cm}")
                # as the product of its factors, a repeated variable is merged
                cm = _cmon_mul((), [(tuple(v), e) for (v, _), e in zip(cm, exps) if e])
                prev = acc.get(cm, 0) + c
                if prev:
                    acc[cm] = prev
                elif cm in acc:
                    del acc[cm]
        self._terms = acc

    @classmethod
    def _from_dict(cls, terms):
        """Wrap a canonical dict {multi-index: nonzero int or Fraction}, not copied."""
        out = cls.__new__(cls)
        out._terms = terms
        return out

    @property
    def terms(self):
        """The (multi-index, value) terms in the canonical order."""
        return tuple(sorted(self._terms.items(), key=_term_sort_key))

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def const(cls, q):
        return cls([((), Fraction(q))])

    @classmethod
    def var(cls, key):
        return cls._from_dict({((tuple(key), 1),): Fraction(1)})

    def __bool__(self):
        return bool(self._terms)

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        return max(map(_cmon_degree, self._terms), default=-1)

    def variables(self):
        return sorted({v for cm in self._terms for v, _ in cm})

    def __add__(self, other):
        other = _coerce_param(other)
        if other is NotImplemented:
            return NotImplemented
        acc = dict(self._terms)
        for cm, c in other._terms.items():
            v = acc.pop(cm, 0) + c
            if v:
                acc[cm] = v
        return ParamPoly._from_dict(acc)

    __radd__ = __add__

    def __neg__(self):
        return ParamPoly._from_dict({cm: -c for cm, c in self._terms.items()})

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
            return ParamPoly._from_dict({cm: c * other for cm, c in self._terms.items()})
        if not isinstance(other, ParamPoly):
            return NotImplemented
        acc = {}
        for cm1, c1 in self._terms.items():
            for cm2, c2 in other._terms.items():
                cm = _cmon_mul(cm1, cm2)
                acc[cm] = acc.get(cm, 0) + c1 * c2
        return ParamPoly._from_dict({cm: c for cm, c in acc.items() if c})

    __rmul__ = __mul__

    def evaluate(self, assignment):
        """Evaluate at a {(i, j): int or Fraction} map covering every variable."""
        total = 0
        for cm, c in self._terms.items():
            val = c
            for v, e in cm:
                x = assignment.get(v)
                if x is None:
                    raise MathDomainError(f"no assignment for parameter C[{v[0]},{v[1]}]")
                val *= x if e == 1 else x ** e
            total += val
        return Fraction(total)

    def __eq__(self, other):
        return isinstance(other, ParamPoly) and self._terms == other._terms

    def __hash__(self):
        # the support alone: equal polynomials have equal key sets, so this
        # agrees with __eq__, and hashing no coefficient spares the modular
        # inverse of Fraction.__hash__.  The keys are tuples of ints, so the
        # hash does not depend on PYTHONHASHSEED.
        return hash(frozenset(self._terms))

    def __str__(self):
        return _signed_sum((c, _power_product(_c_factors(cm))) for cm, c in self.terms)

    __repr__ = __str__


def _coerce_param(x):
    if isinstance(x, ParamPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return ParamPoly.const(x)
    return NotImplemented


# ---------------------------------------------------------------------------
# Homogeneous forms in the x-variables
# ---------------------------------------------------------------------------

class XPoly:
    """Homogeneous form in x_0..x_n.

    Coefficients are ints, Fractions or ParamPolys.  The terms live in a
    dict from exponent tuple to nonzero coefficient, like a ParamPoly's, so
    equality and hash do not depend on the order in which terms were added;
    ``.terms`` lists them in degrevlex-descending order of their monomials.
    The zero form keeps an explicit degree tag.
    """

    __slots__ = ("n", "degree", "_terms")

    def __init__(self, n, terms=(), degree=0):
        acc = {}
        for mon, c in terms:
            if not isinstance(mon, Monomial):
                mon = Monomial(mon)
            if mon.n != n:
                raise MathDomainError("monomial ambient mismatch")
            if isinstance(c, int):
                c = Fraction(c)
            prev = acc.pop(mon.exps, None)
            c = c if prev is None else prev + c
            if c:
                acc[mon.exps] = c
        degs = {sum(e) for e in acc}
        if len(degs) > 1:
            raise MathDomainError(f"inhomogeneous support with degrees {sorted(degs)}")
        self.n = n
        self.degree = degs.pop() if degs else degree
        self._terms = acc

    @classmethod
    def _from_dict(cls, n, terms, degree):
        """Wrap a dict {exponent tuple: nonzero coefficient} of the degree, not copied."""
        out = cls.__new__(cls)
        out.n = n
        out._terms = terms
        out.degree = degree
        return out

    @property
    def terms(self):
        """The (Monomial, coefficient) terms in degrevlex-descending order."""
        return tuple((Monomial._from_exps(e), self._terms[e]) for e in sorted(self._terms))

    @classmethod
    def zero(cls, n, degree=0):
        return cls(n, (), degree)

    @classmethod
    def from_monomial(cls, mon, coeff=1):
        return cls(mon.n, [(mon, coeff)], mon.degree())

    def __bool__(self):
        return bool(self._terms)

    def support(self):
        return [m for m, _ in self.terms]

    def coefficient(self, mon):
        return self._terms.get(mon.exps, Fraction(0))

    def _check(self, other):
        if self.n != other.n:
            raise MathDomainError("forms live in different ambient rings")
        if self._terms and other._terms and self.degree != other.degree:
            raise MathDomainError("inhomogeneous sum of forms")

    def __add__(self, other):
        if not isinstance(other, XPoly):
            return NotImplemented
        self._check(other)
        acc = dict(self._terms)
        for e, c in other._terms.items():
            prev = acc.pop(e, None)
            c = c if prev is None else prev + c
            if c:
                acc[e] = c
        return XPoly._from_dict(self.n, acc, self.degree if self._terms else other.degree)

    def __neg__(self):
        return self.scale(-1)

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
        return XPoly(self.n, [(tuple(map(add, e1, e2)), c1 * c2)
                              for e1, c1 in self._terms.items()
                              for e2, c2 in other._terms.items()],
                     self.degree + other.degree)

    __rmul__ = __mul__

    def scale(self, c):
        if not c:
            return XPoly.zero(self.n, self.degree)
        return XPoly._from_dict(self.n, {e: k * c for e, k in self._terms.items()},
                                self.degree)

    def is_scalar(self):
        return not any(isinstance(c, ParamPoly) for c in self._terms.values())

    def __eq__(self, other):
        return (isinstance(other, XPoly) and self.n == other.n
                and self._terms == other._terms)

    def __hash__(self):
        # the support alone, as ParamPoly's
        return hash((self.n, frozenset(self._terms)))

    def __str__(self):
        terms = []
        for mon, c in self.terms:
            factors = _x_factors(mon)
            if isinstance(c, ParamPoly) and len(c._terms) > 1:
                # a sum stays bracketed, as one factor: (C[1,1] + 2)*x2
                factors = [(f"({c})", 1)] + factors
                c = 1
            elif isinstance(c, ParamPoly):
                cm, c = c.terms[0]
                factors = _c_factors(cm) + factors
            terms.append((c, _power_product(factors)))
        return _signed_sum(terms)

    __repr__ = __str__


@functools.lru_cache(maxsize=1)
def _image_memo(g, n):
    """(D, G, images, successors) for the last invertible rational g seen.

    g is keyed as given, a tuple of row tuples, and its entries become
    Fractions only here, on a miss; then come the checks that it is
    (n+1) x (n+1) and invertible, in that order.  g = G / D, G as rows of
    sparse (column, int) pairs.  images maps an exponent tuple e to the
    image of x^e under G, a dict from exponent tuple to nonzero int;
    successors maps an exponent tuple m to the tuples m + e_j, j = 0..n, so
    that all images share one tuple per monomial.  `_image` fills both.  A
    new g frees the memo of the last; a malformed or singular g raises on
    every call, since exceptions are not cached.
    """
    rows = tuple(tuple(map(Fraction, row)) for row in g)
    if len(rows) != n + 1 or any(len(r) != n + 1 for r in rows):
        raise MathDomainError(f"change of coordinates must be {n + 1}x{n + 1}")
    D = math.lcm(*(q.denominator for row in rows for q in row))
    G = tuple(tuple((j, int(q * D)) for j, q in enumerate(row) if q)
              for row in rows)
    if linalg.det([dict(row) for row in G]) == 0:  # det G = D^(n+1) * det g
        raise MathDomainError("singular change of coordinates")
    one = (0,) * len(rows)
    return D, G, {one: {one: 1}}, {}


def _image(e, G, images, successors):
    """Image of x^e under G, built and memoized as image(x^e / x_i) * (row i).

    i is the least index with e_i > 0.  Walks down to the nearest memoized
    exponent, then multiplies back up one row of G at a time.
    """
    img = images.get(e)
    chain = []
    while img is None:
        i = next(k for k, x in enumerate(e) if x)
        chain.append((e, i))
        e = e[:i] + (e[i] - 1,) + e[i + 1:]
        img = images.get(e)
    for e, i in reversed(chain):
        acc = {}
        for m, a in img.items():
            up = successors.get(m)
            if up is None:
                up = successors[m] = tuple(m[:j] + (m[j] + 1,) + m[j + 1:]
                                           for j in range(len(m)))
            for j, b in G[i]:
                key = up[j]
                acc[key] = acc.get(key, 0) + a * b
        images[e] = img = {m: v for m, v in acc.items() if v}
    return img


def apply_change_of_coords(f: XPoly, g) -> XPoly:
    """Image of f under the substitution x_i -> sum_j g[i][j] * x_j.

    g must be an invertible (n+1) x (n+1) rational matrix; the image of a
    homogeneous form is homogeneous of the same degree.  With g = G / D for
    an integer matrix G, `_image_memo` checks g once and keeps the integer
    images of x^e under G for the last g, shared by every form transformed
    under it in a row (a basis, say); it is keyed on g's entries as given,
    so a repeated g is neither converted nor checked again.  The
    coefficients c of f are scaled to k = c * L, L the lcm of their Fraction
    denominators (ints for Fractions, ParamPolys times an int otherwise),
    the terms k * image(x^e) are accumulated per target exponent tuple, and
    the sums are divided by L * D^d once, an int sum by the Fraction
    constructor's int path; that dict is the image form as it stands,
    unsorted.
    """
    n = f.n
    D, G, images, successors = _image_memo(tuple(map(tuple, g)), n)
    L = math.lcm(*(c.denominator for c in f._terms.values() if isinstance(c, Fraction)))
    acc = {}
    for e, c in f._terms.items():
        k = c.numerator * (L // c.denominator) if isinstance(c, Fraction) else c * L
        for m, a in _image(e, G, images, successors).items():
            prev = acc.get(m)
            acc[m] = k * a if prev is None else prev + k * a
    den = L * D ** f.degree
    return XPoly._from_dict(n, {m: Fraction(v, den) if type(v) is int
                                else v * Fraction(1, den)
                                for m, v in acc.items() if v}, f.degree)


# ---------------------------------------------------------------------------
# Text format
#
# Terms are joined by " + " / " - "; rational coefficients print as "a/b"
# (no "/1"); monomial factors print as "x2^2*x1", parameters as "C[i,j]".
# ---------------------------------------------------------------------------

def _number(q):
    """Text of an int or Fraction: the one place a computed number is printed."""
    try:
        return str(q)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise ScaleCapError(f"cannot print a number of more than "
                            f"{sys.get_int_max_str_digits()} digits") from None


def _power_product(pairs):
    """Factors b or b^e of the (b, e) pairs, joined by "*"; "" for no pairs."""
    return "*".join(b if e == 1 else f"{b}^{_number(e)}" for b, e in pairs)


def _x_factors(mon):
    """(x_i, e_i) pairs of a monomial from x_n down, zero exponents left out."""
    return [(f"x{i}", e) for i, e in reversed(list(enumerate(mon.exps))) if e]


def _c_factors(cm):
    return [(f"C[{i},{j}]", e) for (i, j), e in cm]


def _signed_sum(terms, space=" "):
    """Text of (coefficient, factors) terms, such as "2*x1 - x0"; "0" if empty.

    factors is "" for a constant; a coefficient of 1 before factors is left out.
    """
    out = []
    for c, factors in terms:
        if not factors:
            body = _number(abs(c))
        elif abs(c) == 1:
            body = factors
        else:
            body = f"{_number(abs(c))}*{factors}"
        if not out:
            out.append("-" + body if c < 0 else body)
        else:
            out.append(f"{space}{'-' if c < 0 else '+'}{space}{body}")
    return "".join(out) or "0"


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


# Caps on the work of one parse: the exponent after '^', the number of term
# products that expanding the expression forms, and the nesting of
# parentheses, which the parser follows by recursion.
_MAX_PARSE_EXPONENT = 1000
_MAX_PARSE_PRODUCTS = 100_000
_MAX_PARSE_DEPTH = 100


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.products = 0
        self.depth = 0

    def count(self, products):
        self.products += products
        if self.products > _MAX_PARSE_PRODUCTS:
            raise ScaleCapError(f"expanding the expression needs more than "
                                f"{_MAX_PARSE_PRODUCTS} term products")

    def mul(self, a, b):
        self.count(len(a._terms) * len(b._terms))
        return a * b

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
                total = -total
        else:
            total = self.parse_product()
        while self.peek() in ("+", "-"):
            kind, _ = self.next()
            term = self.parse_product()
            total = total - term if kind == "-" else total + term
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
            if e and len(base._terms) == 1:
                # raised in one step, counted as the e products of the loop
                # below up to the one that passes the cap
                self.count(min(e, _MAX_PARSE_PRODUCTS + 1 - self.products))
                (cm, q), = base._terms.items()
                return ParamPoly._from_dict({tuple((v, k * e) for v, k in cm): q ** e})
            power = ParamPoly.const(1)
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
            return ParamPoly.const(q)
        if kind == "x":
            _, i = self.next()
            return ParamPoly.var((i,))
        if kind == "C":
            _, key = self.next()
            return ParamPoly.var(key)
        if kind == "(":
            self.next()
            self.depth += 1
            if self.depth > _MAX_PARSE_DEPTH:
                raise ScaleCapError(
                    f"parentheses nest deeper than the cap {_MAX_PARSE_DEPTH}")
            inner = self.parse_sum()
            if self.peek() != ")":
                raise ParseError("unbalanced parenthesis")
            self.next()
            self.depth -= 1
            return inner
        raise ParseError(f"unexpected token {kind!r}")


def _parse(text):
    try:
        parser = _Parser(_tokenize(text))
    except ValueError as exc:  # int() refuses a literal of too many digits
        raise ParseError(f"cannot read a number: {exc}") from exc
    p = parser.parse_sum()
    if parser.pos != len(parser.tokens):
        raise ParseError(f"trailing input in {text!r}")
    return p


def parse_xpoly(text, n) -> XPoly:
    """Parse a homogeneous form; C[i,j] factors land in ParamPoly coefficients."""
    by_exps = {}
    for cm, q in _parse(text)._terms.items():
        exps = [0] * (n + 1)
        for v, e in cm:
            if len(v) == 1:
                if v[0] > n:
                    raise ParseError(f"variable x{v[0]} out of range for n={n}")
                exps[v[0]] = e
        params = tuple(x for x in cm if len(x[0]) == 2)
        by_exps.setdefault(tuple(exps), {})[params] = q
    if any(cm for d in by_exps.values() for cm in d):
        terms = [(e, ParamPoly._from_dict(d)) for e, d in by_exps.items()]
    else:
        terms = [(e, d[()]) for e, d in by_exps.items()]
    try:
        return XPoly(n, terms)
    except MathDomainError as exc:
        raise ParseError(str(exc)) from exc


def parse_parampoly(text) -> ParamPoly:
    """Parse a polynomial in the chart parameters only."""
    p = _parse(text)
    if any(len(v) == 1 for cm in p._terms for v, _ in cm):
        raise ParseError("x-variables not allowed in a parameter polynomial")
    return p
