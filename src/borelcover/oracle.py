"""Desk-scale exact ideal engine over the parameter ring Q[C].

A Buchberger Groebner routine, normal forms, ideal equality, and greedy
linear elimination, to certify the main pipeline's output; the pipeline calls
only groebner_basis, for chart.hilbert_polynomial_of_forms.  Hard scale caps
keep it honest about what it can do.

Inside one call a polynomial is a dict from exponent tuples over the
collected variables to coefficients, and `_sub_multiple` adds multiples of
one to another.  Buchberger and normal forms reduce fraction-free on
primitive integer dicts through `_reduce`; greedy elimination computes on
Fractions, dividing by the Fraction constructor, since the inputs' values
may be ints.  Results have Fraction coefficients.  Each term order is defined
once, on exponent tuples (`_exponent_order`); `make_order` wraps it for
C-multi-indices.  The order key and the support bitmask of each monomial are
computed once and memoized.  `_reduce` keeps the monomials still to reduce in
a list sorted by key, so each step pops the leading one instead of scanning
them all, and tests a reducer's lead for divisibility only when its support
mask lies inside the monomial's.
"""

from __future__ import annotations

import heapq
from bisect import insort
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from operator import add, le, neg, sub

from .errors import MathDomainError, ScaleCapError
from .ring import ParamPoly

DEFAULT_MAX_VARS = 16
DEFAULT_MAX_PAIRS = 50_000


def _collect_vars(gens):
    seen = set()
    for g in gens:
        seen.update(g.variables())
    return sorted(seen)


def _exponent_order(variables, kind="degrevlex", block=()):
    """Key function on exponent tuples over `variables`; see make_order."""
    if kind == "degrevlex":
        def key(e):
            return (sum(e), tuple(map(neg, e)))
        return key
    if kind == "lex-block":
        block = [tuple(v) for v in block]
        pos = {v: i for i, v in enumerate(variables)}
        # a block variable outside `variables` reads 0
        head = [pos.get(v) for v in block]
        rest = [i for i, v in enumerate(variables) if v not in set(block)]

        def key(e):
            tail = [e[i] for i in rest]
            return (tuple(0 if i is None else e[i] for i in head), sum(tail),
                    tuple(map(neg, tail)))
        return key
    raise MathDomainError(f"unknown term order {kind!r}")


def make_order(variables, kind="degrevlex", block=()):
    """Key function on C-multi-indices; larger key means larger monomial.

    'degrevlex' treats later variables (in the sorted key order) as larger.
    'lex-block' eliminates the given block: block exponents compare first,
    lexicographically in the listed order, then degrevlex on the rest.  The
    key is that of _exponent_order on the multi-index's exponent tuple.
    """
    key = _exponent_order(variables, kind, block)
    pos = {v: i for i, v in enumerate(variables)}

    def cm_key(cm):
        out = [0] * len(variables)
        for v, e in cm:
            if v not in pos:
                raise MathDomainError(f"variable C[{v[0]},{v[1]}] outside the order")
            out[pos[v]] = e
        return key(out)
    return cm_key


class _Masks(dict):
    """Memoized support bitmask of each exponent tuple: bit k set when x_k occurs."""

    def __init__(self, n):
        super().__init__()
        self.bits = [1 << k for k in range(n)]

    def __missing__(self, e):
        k = self[e] = sum(compress(self.bits, e))
        return k


class _Ring(dict):
    """Exponent tuples over fixed variables; maps each to its memoized order
    key, given on exponent tuples, and holds their memoized support masks."""

    def __init__(self, variables, key):
        super().__init__()
        self.variables = variables
        self.pos = {v: i for i, v in enumerate(variables)}
        self.key = key
        self.masks = _Masks(len(variables))

    def __missing__(self, e):
        k = self[e] = self.key(e)
        return k

    def from_param(self, p):
        """p as a dict from exponent tuples to its int or Fraction coefficients."""
        pos, n = self.pos, len(self.variables)
        out = {}
        for cm, c in p._terms.items():
            e = [0] * n
            for v, x in cm:
                e[pos[v]] = x
            out[tuple(e)] = c
        return out

    def primitive(self, p):
        """(s, f): p = s * f, f a primitive integer dict (lcm of denominators
        cleared, content divided out)."""
        f = self.from_param(p)
        den = lcm(*(c.denominator for c in f.values()))
        f = {e: c.numerator * (den // c.denominator) for e, c in f.items()}
        g = gcd(*f.values()) or 1
        return Fraction(g, den), {e: c // g for e, c in f.items()}

    def to_param(self, f):
        """f, whose coefficients are nonzero ints or Fractions, as a ParamPoly
        with Fraction values; the variables are sorted, so each multi-index
        comes out canonical."""
        return ParamPoly._from_dict(
            {tuple((v, x) for v, x in zip(self.variables, e) if x):
             c if type(c) is Fraction else Fraction(c) for e, c in f.items()})


def _divides(a, b):
    return all(map(le, a, b))


def _lcm(a, b):
    return tuple(map(max, a, b))


def _sub_multiple(work, c, shift, g):
    """work -= c * x^shift * g, in place; returns the monomials it adds to work."""
    added = []
    for e, d in g.items():
        m = tuple(map(add, e, shift))
        v = work.get(m)
        if v is None:
            work[m] = -c * d
            added.append(m)
        else:
            v -= c * d
            if v:
                work[m] = v
            else:
                del work[m]
    return added


def _reduce(f, reducers, ring):
    """Fully reduced remainder of the integer dict f against (lead, integer
    dict) reducers, fraction-free (Becker-Weispfenning, Groebner Bases).

    Each step takes the leading term a*x^m of what is left and the first
    reducer g in listed order whose leading exponent divides x^m, with
    leading coefficient b, and sets work <- (b/k)*work - (a/k)*x^(m-lead)*g
    for k = gcd(a, b), scaling the remainder so far by b/k too.  Returns
    (rem, n, d): rem, primitive with a positive leading coefficient, is n/d
    times the remainder.  Its first key is its leading exponent.

    The monomials of work wait in a list sorted by their memoized keys: a new
    one is put in place by bisection, the largest is popped from the end, and
    one popped after it cancelled is skipped.  Every monomial a step adds lies
    below x^m, so none returns once popped.  A reducer's lead gets the full
    divisibility test only when its support mask lies inside that of x^m
    (Bachmann-Schoenemann, ISSAC 1998).
    """
    work = dict(f)
    rem = {}
    n = 1
    key, masks = ring, ring.masks
    pending = sorted((key[e], e) for e in work)
    reducers = [(masks[lead], lead, g) for lead, g in reducers]
    while pending:
        m = pending.pop()[1]
        a = work.get(m)
        if a is None:
            continue  # cancelled after it was listed
        mask = masks[m]
        for lead_mask, lead, g in reducers:
            if lead_mask & mask == lead_mask and _divides(lead, m):
                b = g[lead]
                k = gcd(a, b)
                a, b = a // k, b // k
                if b != 1:
                    work = {e: b * c for e, c in work.items()}
                    rem = {e: b * c for e, c in rem.items()}
                    n *= b
                for t in _sub_multiple(work, a, tuple(map(sub, m, lead)), g):
                    insort(pending, (key[t], t))
                break
        else:
            rem[m] = work.pop(m)
    d = gcd(*rem.values()) or 1
    if rem and next(iter(rem.values())) < 0:
        d = -d
    return {e: c // d for e, c in rem.items()}, n, d


def normal_form(p: ParamPoly, basis, key) -> ParamPoly:
    """Fully reduced remainder of p against the marked leading terms of basis."""
    basis = [b for b in basis if b]
    variables = _collect_vars([p, *basis])
    ring = _Ring(variables, lambda e: key(
        tuple((v, x) for v, x in zip(variables, e) if x)))
    reducers = [(max(g, key=ring.__getitem__), g)
                for g in (ring.primitive(b)[1] for b in basis)]
    s, f = ring.primitive(p)
    rem, n, d = _reduce(f, reducers, ring)
    scale = s * d / n  # the exact remainder, not a multiple of it
    return ring.to_param({e: c * scale for e, c in rem.items()})


def groebner_basis(gens, order="degrevlex", block=(), max_vars=DEFAULT_MAX_VARS,
                   max_pairs=DEFAULT_MAX_PAIRS):
    """Reduced Groebner basis by Buchberger, pairs taken by the normal selection.

    Pending S-pairs sit in a heap keyed by (lcm in the term order, insertion
    count); ranked by total degree alone, lex-block systems on three
    parameters built intermediate elements of degree 25 with coefficients of
    tens of thousands of bits.  Each new basis element passes through the
    Gebauer-Moeller update (Becker-Weispfenning, Groebner Bases, 1993,
    UPDATE): of the new pairs it keeps only those whose lcm no other new
    pair's lcm divides, minus pairs with coprime leading terms; it drops the
    pending pairs that the new leading term settles; and it retires basis
    elements whose leading term the new one divides.  Raises ScaleCapError
    beyond the caps; `max_pairs` counts the pairs taken from the heap.  The
    elements are primitive integer dicts; the result is monic and sorted by
    leading term, smallest first.  Every S-polynomial and every tail goes
    through `_reduce`, with its sorted pending list of monomials and its
    support-mask divisor search, keyed by the order's key on exponent tuples.
    """
    gens = [g for g in gens if g]
    if not gens:
        return []
    variables = _collect_vars(gens)
    if len(variables) > max_vars:
        raise ScaleCapError(
            f"{len(variables)} parameters exceed the oracle cap {max_vars}")
    ring = _Ring(variables, _exponent_order(variables, order, block))

    polys = []     # every element ever added: (lead, primitive integer dict)
    active = []    # indices of the current basis, in insertion order
    pending = {}   # (i, j) -> lcm of the leading exponents, i < j
    heap = []
    counter = 0

    def add(f):
        """Append the remainder f, then apply the Gebauer-Moeller update."""
        nonlocal active, counter
        polys.append((next(iter(f)), f))
        h, lh = len(polys) - 1, polys[-1][0]
        new = [(g, _lcm(polys[g][0], lh)) for g in active]
        kept = []
        for k, (g, l) in enumerate(new):
            coprime = sum(l) == sum(lh) + sum(polys[g][0])
            if coprime or not (any(_divides(l2, l) for _, l2 in new[k + 1:])
                               or any(_divides(l2, l) for _, l2, _ in kept)):
                kept.append((g, l, coprime))
        for (i, j), l in list(pending.items()):
            if (_divides(lh, l) and _lcm(polys[i][0], lh) != l
                    and _lcm(polys[j][0], lh) != l):
                del pending[(i, j)]
        for g, l, coprime in kept:
            if not coprime:
                pending[(g, h)] = l
                heapq.heappush(heap, (ring[l], counter, g, h))
                counter += 1
        active = [g for g in active if not _divides(lh, polys[g][0])] + [h]

    for g in gens:
        nf = _reduce(ring.primitive(g)[1], [polys[h] for h in active], ring)[0]
        if nf:
            add(nf)

    processed = 0
    while heap:
        _, _, i, j = heapq.heappop(heap)
        l = pending.pop((i, j), None)
        if l is None:
            continue  # dropped by a later update
        processed += 1
        if processed > max_pairs:
            raise ScaleCapError(f"Buchberger exceeded {max_pairs} S-pairs")
        (lead_i, f_i), (lead_j, f_j) = polys[i], polys[j]
        a, b = f_i[lead_i], f_j[lead_j]
        k = gcd(a, b)
        s = {}  # (b/k) * x^(l - lead_i) * f_i - (a/k) * x^(l - lead_j) * f_j
        _sub_multiple(s, -(b // k), tuple(map(sub, l, lead_i)), f_i)
        _sub_multiple(s, a // k, tuple(map(sub, l, lead_j)), f_j)
        nf = _reduce(s, [polys[h] for h in active], ring)[0]
        if nf:
            add(nf)

    # the active leading terms are minimal; reduce every tail, make it monic
    basis = sorted((polys[k] for k in active), key=lambda lp: ring[lp[0]])
    out = []
    for k, (lead, f) in enumerate(basis):
        f = _reduce(f, basis[:k] + basis[k + 1:], ring)[0]
        out.append(ring.to_param({e: Fraction(c, f[lead]) for e, c in f.items()}))
    return out


def ideal_equal(A, B) -> bool:
    """Do two generator lists generate the same ideal of Q[C]?

    Reduced degrevlex Groebner bases are unique, monic and sorted by leading
    term, so the ideals are equal exactly when their reduced bases are.  The
    union of their variables is capped at DEFAULT_MAX_VARS.
    """
    A = [a for a in A if a]
    B = [b for b in B if b]
    if not A or not B:
        return not A and not B
    variables = set(_collect_vars(A)) | set(_collect_vars(B))
    if len(variables) > DEFAULT_MAX_VARS:
        raise ScaleCapError(
            f"{len(variables)} parameters exceed the oracle cap {DEFAULT_MAX_VARS}")
    return groebner_basis(A) == groebner_basis(B)


@dataclass(frozen=True)
class EliminationResult:
    """Greedy linear elimination outcome.

    `eliminated` lists (variable, expression) in elimination order; each
    expression may mention variables eliminated later, so evaluation goes in
    reverse order.  `residual` is what remains of the generators.
    """

    residual: tuple
    eliminated: tuple

    @property
    def eliminated_count(self):
        return len(self.eliminated)

    def eliminated_variables(self):
        return [v for v, _ in self.eliminated]

    def lift_point(self, free_values):
        """Extend values of the surviving variables to the eliminated ones."""
        values = dict(free_values)
        for var, expr in reversed(self.eliminated):
            values[var] = expr.evaluate(values)
        return values


def _linear_candidate(f):
    """Least k such that x_k occurs in f in exactly one term, and that is c * x_k."""
    count = Counter(k for e in f for k, x in enumerate(e) if x)
    return min((e.index(1) for e in f if sum(e) == 1 and count[e.index(1)] == 1),
               default=None)


def _substitute(f, k, powers):
    """f with x_k replaced by expr, in place; powers[j - 1] = expr^j, filled on demand."""
    for e in [e for e in f if e[k]]:
        while len(powers) < e[k]:
            power = {}
            for s, d in powers[0].items():
                _sub_multiple(power, -d, s, powers[-1])
            powers.append(power)
        _sub_multiple(f, -f.pop(e), e[:k] + (0,) + e[k + 1:], powers[e[k] - 1])
    return f


def greedy_linear_eliminate(gens) -> EliminationResult:
    """Repeatedly solve a variable that appears linearly with constant coefficient.

    Scans generators in listed order and variables in index order, substitutes
    the solved variable everywhere, removes the solving generator, and stops
    when no generator qualifies.  Zero generators are dropped.  Works on
    exponent dicts, building each power of a solved expression once.
    """
    gens = [g for g in gens if g]
    ring = _Ring(_collect_vars(gens), None)
    work = [ring.from_param(g) for g in gens]
    eliminated = []
    while True:
        for idx, f in enumerate(work):
            k = _linear_candidate(f)
            if k is not None:
                break
        else:
            break
        f = work.pop(idx)
        c = f.pop(tuple(int(i == k) for i in range(len(ring.variables))))
        powers = [{e: Fraction(-d, c) for e, d in f.items()}]
        eliminated.append((ring.variables[k], powers[0]))
        work = [w for w in work if _substitute(w, k, powers)]
    return EliminationResult(
        residual=tuple(map(ring.to_param, work)),
        eliminated=tuple((v, ring.to_param(x)) for v, x in eliminated))
