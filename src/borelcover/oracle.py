"""Desk-scale exact ideal engine over the parameter ring Q[C].

A Buchberger Groebner routine, normal forms, ideal equality, and greedy
linear elimination, to certify the main pipeline's output; the pipeline calls
only groebner_basis, for chart.hilbert_polynomial_of_forms.  Hard scale caps
keep it honest about what it can do.

Each term order is defined once, as a list of weight rows (`_weight_rows`):
x^a lies above x^b when the first row whose dot products with a and b differ
gives a the larger one.  `make_order` reads the rows as a key on
C-multi-indices.

Buchberger and normal forms store each monomial of a call as one int
(`_Packing`, after Bachmann-Schoenemann, ISSAC 1998, and Monagan-Pearce's
POLY, 2012).  The low n*W bits hold the exponents, one W-bit field per
variable, whose top bit is a guard; above them each weight row's dot product
with the exponents is one digit in a balanced base.  Packing is linear, so a
product of monomials is `+`, a quotient `-`, and `<` on the ints is the term
order; x^a divides x^b exactly when no field of ((b & L) | G) - (a & L) loses
its guard bit (L masks the exponent bits, G the guard bits), since no field
borrows from the next.  Every exponent packed and every shift of a reduction
stays below 2^(W-2), checked with one AND, so no sum of two ever reaches a
guard bit; past that cap they raise ScaleCapError, never a wrong answer.
Polynomials are dicts from these ints to primitive integer coefficients, and
`_reduce` reduces them fraction-free, popping the leading monomial from a
sorted list of the ints.

Greedy elimination has no variable cap, so it packs nothing: it works on
the generators' own dicts from C-multi-indices (sorted ((i, j), e) pairs, as
in ParamPoly) to values, where a monomial costs its support and not one
field per parameter.  It computes on Fractions, dividing by the Fraction
constructor, since the inputs' values may be ints.  Results have Fraction
coefficients.
"""

from __future__ import annotations

import heapq
import struct
from bisect import insort
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import MathDomainError, ScaleCapError
from .ring import ParamPoly, _cmon_mul

DEFAULT_MAX_VARS = 16
DEFAULT_MAX_PAIRS = 50_000
W = 16  # bits per packed exponent field: one unsigned short for struct
MAX_EXPONENT = (1 << W - 2) - 1  # the largest exponent packed or shifted


def _collect_vars(gens):
    seen = set()
    for g in gens:
        seen.update(g.variables())
    return sorted(seen)


def _weight_rows(variables, kind="degrevlex", block=()):
    """The term order on exponent tuples over `variables` as weight rows.

    'degrevlex': all ones, then -e_0, -e_1, ..., so later variables (in the
    sorted key order) are larger.  'lex-block': one row e_b per variable of
    the block, in the listed order (a block variable outside `variables`
    reads 0), then the sum of the other variables, then minus each of them.
    """
    n = len(variables)
    if kind == "degrevlex":
        rest = [1] * n
        return [rest] + [[-(i == k) for i in range(n)] for k in range(n)]
    if kind == "lex-block":
        block = [tuple(v) for v in block]
        rest = [int(v not in block) for v in variables]
        return ([[int(v == b) for v in variables] for b in block] + [rest]
                + [[-(i == k) for i in range(n)] for k in range(n) if rest[k]])
    raise MathDomainError(f"unknown term order {kind!r}")


def make_order(variables, kind="degrevlex", block=()):
    """Key function on C-multi-indices; larger key means larger monomial.

    The key is the tuple of the order's weight rows (`_weight_rows`) dotted
    with the multi-index's exponents.
    """
    rows = _weight_rows(variables, kind, block)
    pos = {v: i for i, v in enumerate(variables)}

    def cm_key(cm):
        e = [0] * len(variables)
        for v, x in cm:
            if v not in pos:
                raise MathDomainError(f"variable C[{v[0]},{v[1]}] outside the order")
            e[pos[v]] = x
        return tuple(sum(map(mul, row, e)) for row in rows)
    return cm_key


class _Packing:
    """Monomials over fixed variables packed into ints for one term order.

    `units[k]` is the packed x_k; a monomial packs to sum(e_k * units[k]).
    `low` masks the exponent fields, `guards` their top bits and `headroom`
    their top two bits, which no packed exponent and no shift may touch.
    """

    def __init__(self, variables, kind="degrevlex", block=()):
        self.variables = variables
        self.pos = {v: i for i, v in enumerate(variables)}
        n = len(variables)
        rows = _weight_rows(variables, kind, block)
        # every digit lies within n * 2^(W-1) of 0, below half the base
        base = 1 << W + n.bit_length()
        self.units = [(1 << W * k)
                      + (sum(row[k] * base ** d for d, row in enumerate(reversed(rows)))
                         << W * n) for k in range(n)]
        fields = sum(1 << W * k for k in range(n))
        self.low = (1 << W * n) - 1
        self.guards = fields << W - 1
        self.headroom = fields * (3 << W - 2)
        self._fields = struct.Struct(f"<{n}H").unpack

    def pack(self, e):
        """The packed int of the exponent tuple e."""
        if max(e, default=0) > MAX_EXPONENT:
            raise _past_cap()
        return sum(map(mul, e, self.units))

    def unpack(self, m):
        """The exponent tuple of the packed int m."""
        return self._fields((m & self.low).to_bytes(2 * len(self.variables), "little"))

    def divides(self, a, b):
        """Does the packed monomial a divide the packed monomial b?"""
        low, guards = self.low, self.guards
        return (((b & low) | guards) - (a & low)) & guards == guards

    def primitive(self, p):
        """(s, f): p = s * f, f a primitive integer dict on packed monomials
        (lcm of denominators cleared, content divided out)."""
        pos, units = self.pos, self.units
        f = {}
        for cm, c in p._terms.items():
            m = over = 0
            for v, x in cm:
                m += x * units[pos[v]]
                over |= x
            if over > MAX_EXPONENT:
                raise _past_cap()
            f[m] = c
        den = lcm(*(c.denominator for c in f.values()))
        f = {m: c.numerator * (den // c.denominator) for m, c in f.items()}
        g = gcd(*f.values()) or 1
        return Fraction(g, den), {m: c // g for m, c in f.items()}

    def to_param(self, f):
        """f, whose values are nonzero ints or Fractions, as a ParamPoly with
        Fraction values; the variables are sorted, so each multi-index comes
        out canonical."""
        unpack, variables = self.unpack, self.variables
        return _fraction_param(
            {tuple((v, x) for v, x in zip(variables, unpack(m)) if x): c
             for m, c in f.items()})


def _fraction_param(terms):
    """The ParamPoly of the canonical dict terms, int values made Fractions."""
    return ParamPoly._from_dict(
        {cm: c if type(c) is Fraction else Fraction(c) for cm, c in terms.items()})


def _past_cap():
    return ScaleCapError(
        f"an exponent past {MAX_EXPONENT} exceeds the oracle's packing cap")


def _lcm(a, b):
    return tuple(map(max, a, b))


def _sub_multiple(work, c, monomials, coefficients):
    """work -= c * sum(d * m), over m, d in zip(monomials, coefficients),
    in place; returns the monomials it adds to work."""
    added = []
    for m, d in zip(monomials, coefficients):
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
    """Fully reduced remainder of the packed integer dict f against (lead,
    packed integer dict) reducers, fraction-free (Becker-Weispfenning,
    Groebner Bases).

    Each step takes the leading term a*x^m of what is left and the first
    reducer g in listed order whose leading monomial divides x^m, with
    leading coefficient b, and sets work <- (b/k)*work - (a/k)*x^(m-lead)*g
    for k = gcd(a, b), scaling the remainder so far by b/k too.  Returns
    (rem, n, d): rem, primitive with a positive leading coefficient, is n/d
    times the remainder.  Its first key is its leading monomial.

    The packed monomials of work wait in a sorted list: a new one is put in
    place by bisection, the largest is popped from the end, and one popped
    after it cancelled is skipped.  Every monomial a step adds lies below
    x^m, so none returns once popped.  The guard test of `ring` is the exact
    divisibility test.  The reducers' monomials lie below the packing cap and
    f's below the guard bits (an S-polynomial's are sums of two below the
    cap); a shift m - lead, and a monomial kept in the remainder, past the
    cap raise ScaleCapError, so every sum e + shift fits its fields.
    """
    work = dict(f)
    rem = {}
    n = 1
    low, guards, headroom = ring.low, ring.guards, ring.headroom
    pending = sorted(work)
    reducers = [(lead & low, lead, g) for lead, g in reducers]
    while pending:
        m = pending.pop()
        a = work.get(m)
        if a is None:
            continue  # cancelled after it was listed
        top = (m & low) | guards
        for lead_low, lead, g in reducers:
            if (top - lead_low) & guards == guards:
                shift = m - lead
                if shift & headroom:
                    raise _past_cap()
                b = g[lead]
                k = gcd(a, b)
                a, b = a // k, b // k
                if b != 1:
                    work = {e: b * c for e, c in work.items()}
                    rem = {e: b * c for e, c in rem.items()}
                    n *= b
                for t in _sub_multiple(work, a, map(shift.__add__, g), g.values()):
                    insort(pending, t)
                break
        else:
            if m & headroom:
                raise _past_cap()
            rem[m] = work.pop(m)
    d = gcd(*rem.values()) or 1
    if rem and next(iter(rem.values())) < 0:
        d = -d
    return {e: c // d for e, c in rem.items()}, n, d


def normal_form(p: ParamPoly, basis, order="degrevlex", block=()) -> ParamPoly:
    """Fully reduced remainder of p against the leading terms of basis in the
    term order given as to groebner_basis."""
    basis = [b for b in basis if b]
    ring = _Packing(_collect_vars([p, *basis]), order, block)
    reducers = [(max(g), g) for g in (ring.primitive(b)[1] for b in basis)]
    s, f = ring.primitive(p)
    rem, n, d = _reduce(f, reducers, ring)
    scale = s * d / n  # the exact remainder, not a multiple of it
    return ring.to_param({e: c * scale for e, c in rem.items()})


def groebner_basis(gens, order="degrevlex", block=(), max_vars=DEFAULT_MAX_VARS,
                   max_pairs=DEFAULT_MAX_PAIRS):
    """Reduced Groebner basis by Buchberger, pairs taken by the normal selection.

    Pending S-pairs sit in a heap keyed by (packed lcm, insertion count): the
    lcm in the term order; ranked by total degree alone, lex-block systems on
    three parameters built intermediate elements of degree 25 with
    coefficients of tens of thousands of bits.  Each new basis element passes
    through the Gebauer-Moeller update (Becker-Weispfenning, Groebner Bases,
    1993, UPDATE): of the new pairs it keeps only those whose lcm no other
    new pair's lcm divides, minus pairs with coprime leading terms; it drops
    the pending pairs that the new leading term settles; and it retires basis
    elements whose leading term the new one divides.  Raises ScaleCapError
    beyond the caps; `max_pairs` counts the pairs taken from the heap.  The
    elements are primitive integer dicts on packed monomials (see the module
    docstring); each keeps its leading exponent tuple, unpacked once, and
    each new pair's lcm is taken on those tuples and packed once.  Every
    S-polynomial and every tail goes through `_reduce`.  The result is monic
    and sorted by leading term, smallest first.
    """
    gens = [g for g in gens if g]
    if not gens:
        return []
    variables = _collect_vars(gens)
    if len(variables) > max_vars:
        raise ScaleCapError(
            f"{len(variables)} parameters exceed the oracle cap {max_vars}")
    ring = _Packing(variables, order, block)
    low, guards = ring.low, ring.guards

    polys = []     # every element ever added: (lead, primitive integer dict)
    exps = []      # the leading exponent tuple of each
    active = []    # indices of the current basis, in insertion order
    pending = {}   # (i, j) -> packed lcm of the leading monomials, i < j
    heap = []
    counter = 0

    def add(f):
        """Append the remainder f, then apply the Gebauer-Moeller update; the
        loops over pairs inline `ring.divides`."""
        nonlocal active, counter
        lh = next(iter(f))
        eh = ring.unpack(lh)
        h = len(polys)
        polys.append((lh, f))
        exps.append(eh)
        new = [(g, ring.pack(_lcm(exps[g], eh))) for g in active]
        lows = [l & low for _, l in new]
        kept = []
        for k, (g, l) in enumerate(new):
            coprime = l == lh + polys[g][0]
            top = lows[k] | guards
            if coprime or not (
                    any((top - l2) & guards == guards for l2 in lows[k + 1:])
                    or any((top - l2) & guards == guards for _, _, l2, _ in kept)):
                kept.append((g, l, lows[k], coprime))
        lh_low = lh & low
        for (i, j), l in list(pending.items()):
            if (((l & low) | guards) - lh_low) & guards == guards:
                e = ring.unpack(l)
                if _lcm(exps[i], eh) != e and _lcm(exps[j], eh) != e:
                    del pending[(i, j)]
        for g, l, _, coprime in kept:
            if not coprime:
                pending[(g, h)] = l
                heapq.heappush(heap, (l, counter, g, h))
                counter += 1
        active = [g for g in active if not ring.divides(lh, polys[g][0])] + [h]

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
        _sub_multiple(s, -(b // k), map((l - lead_i).__add__, f_i), f_i.values())
        _sub_multiple(s, a // k, map((l - lead_j).__add__, f_j), f_j.values())
        nf = _reduce(s, [polys[h] for h in active], ring)[0]
        if nf:
            add(nf)

    # the active leading terms are minimal; reduce every tail, make it monic
    basis = sorted((polys[k] for k in active), key=lambda lp: lp[0])
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
    """Least variable that occurs in f in exactly one term, and that is c * C[v]."""
    count = Counter(v for cm in f for v, _ in cm)
    return min((cm[0][0] for cm in f
                if len(cm) == 1 and cm[0][1] == 1 and count[cm[0][0]] == 1),
               default=None)


def _substitute(f, v, powers):
    """f with C[v] replaced by expr, in place; powers[j - 1] = expr^j, filled on demand."""
    for cm, x in [(cm, x) for cm in f for w, x in cm if w == v]:
        while len(powers) < x:
            power = {}
            for s, d in powers[0].items():
                _sub_multiple(power, -d, [_cmon_mul(s, m) for m in powers[-1]],
                              powers[-1].values())
            powers.append(power)
        g = powers[x - 1]
        rest = tuple(p for p in cm if p[0] != v)
        _sub_multiple(f, -f.pop(cm), [_cmon_mul(rest, m) for m in g], g.values())
    return f


def greedy_linear_eliminate(gens) -> EliminationResult:
    """Repeatedly solve a variable that appears linearly with constant coefficient.

    Scans generators in listed order and variables in sorted order,
    substitutes the solved variable everywhere, removes the solving
    generator, and stops when no generator qualifies.  Zero generators are
    dropped.  Works on the generators' own {multi-index: value} dicts,
    building each power of a solved expression once.
    """
    work = [dict(g._terms) for g in gens if g]
    eliminated = []
    while True:
        for idx, f in enumerate(work):
            v = _linear_candidate(f)
            if v is not None:
                break
        else:
            break
        f = work.pop(idx)
        c = f.pop(((v, 1),))
        powers = [{cm: Fraction(-d, c) for cm, d in f.items()}]
        eliminated.append((v, powers[0]))
        work = [w for w in work if _substitute(w, v, powers)]
    return EliminationResult(
        residual=tuple(map(_fraction_param, work)),
        eliminated=tuple((v, _fraction_param(x)) for v, x in eliminated))
