"""Buchberger engine and zero-dimensional scheme toolkit.

The basis is computed with sugar-strategy pair selection and both
Buchberger criteria; basis elements are kept monic so reduction never
divides.  Every reduction is heap division on packed monomials
(``TermOrder.pack``) inside one kernel, ``Reducers.remainder``: a basis
is packed once (``GroebnerBasis.reducers``, or grown with the basis
inside ``buchberger``) and pairs are popped from a heap keyed on (sugar,
packed lcm, i, j) (docs/DECISIONS.md D6).  The kernel runs over
Q(zeta5) only, on raw integer numerators: one gcd per popped monomial
(D7) and a CycloElem only for a remainder term (D15); any other field
context raises TypeError.  It is seeded straight from packed terms (D8):
a polynomial, an S-pair from the two packed tails, a sum of products
term by term, or a basis tail, so no tuple polynomial is built only to
be packed again.
The reduced basis comes from the minimal basis by one tail-reduction
pass.  Before a run, `buchberger` splits off the generators that are
single variables, setting them to 0 in the rest, and looks the rest up
in a per-process table of reduced bases keyed by positional terms, so a
repeated ideal (the symmetric charts of a surface, a cusp chart met
again) is computed once (D14).  Polynomials keep exponent tuples;
packing lives only in the kernel's seeds, the pair queue and the
standard-monomial scan.
Zero-dimensional ideals get: standard monomials and degree, eliminants
by Krylov iteration on the quotient, Seidenberg radicals, and point
extraction in shape position, where the points that are not
Q(zeta5)-rational become dynamic extension-tower branches;
Q(zeta5)-rational points are resolved out of branches by the verified
mod-p lifting in modp.  Only point extraction imports extfield and
modp, so a process that extracts no points never loads them.  The
linear algebra on the quotient runs on raw Z[zeta5] rows: pivots scaled
to their norm, one content gcd per reduced vector, and CycloElems only
at the interface (D9).
"""

from __future__ import annotations

import heapq
import itertools
from fractions import Fraction
from math import gcd, lcm

from . import unipoly
from .cyclofield import canon, conj_product, phi5_mul
from .multipoly import (
    QZ5,
    Poly,
    mono_deg,
    mono_div,
    mono_lcm,
)

_ONE = (1, 0, 0, 0)
_MINUS_ONE = (-1, 0, 0, 0)


class GroebnerBasis:
    """Reduced Groebner basis: monic, autoreduced, deterministic order."""

    def __init__(self, ring, polys, stats=None):
        self.ring = ring
        self.polys = tuple(polys)
        self.stats = stats or {}
        self._reducers = None

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self.polys)

    def __repr__(self):
        return "GroebnerBasis(%d elements)" % len(self.polys)

    def is_trivial(self):
        """True when the ideal is the whole ring (basis == {1})."""
        return len(self.polys) == 1 and mono_deg(self.polys[0].lm()) == 0

    def reducers(self):
        """The basis packed for the reduction kernel, built on first use."""
        if self._reducers is None:
            self._reducers = Reducers(self.ring, self.polys)
        return self._reducers


def _accumulate(coeffs, heap, base, nc, dv, terms):
    """Add x^base * sum((nc * n / dv) x^t) over (t, n) in terms into a
    reduction's raw dict and max-heap; x^base * x^t packs to base + t and
    nc * n is the `phi5_mul` product of two numerator 4-tuples.  A
    rational multiplier (n1 = n2 = n3 = 0) scales instead: n0 * n is the
    same 4-tuple from 4 integer products (docs/DECISIONS.md D12).

    The products share the denominator dv, so each adds componentwise to
    a raw coefficient over dv; one over another denominator is
    cross-multiplied (docs/DECISIONS.md D7).
    """
    get = coeffs.get
    n0, n1, n2, n3 = nc
    rational = not (n1 or n2 or n3)
    for t, tn in terms:
        p = base + t
        if rational:
            t0, t1, t2, t3 = tn
            b0, b1, b2, b3 = n0 * t0, n0 * t1, n0 * t2, n0 * t3
        else:
            b0, b1, b2, b3 = phi5_mul(nc, tn)
        old = get(p)
        if old is None:
            coeffs[p] = (b0, b1, b2, b3, dv)
            heapq.heappush(heap, -p)
        else:
            o0, o1, o2, o3, od = old
            if od == dv:
                coeffs[p] = (o0 + b0, o1 + b1, o2 + b2, o3 + b3, od)
            else:
                coeffs[p] = (
                    o0 * dv + b0 * od,
                    o1 * dv + b1 * od,
                    o2 * dv + b2 * od,
                    o3 * dv + b3 * od,
                    od * dv,
                )


class Reducers:
    """Monic polynomials over Q(zeta5) packed for heap division, and the
    one reduction kernel (docs/DECISIONS.md D6-D8).

    Each polynomial g with packed lead l becomes (l - one, tail, D), where
    one is the packed constant monomial and (D, tail) = packed(g's other
    terms, l).  A packed monomial m is divisible by l exactly when
    (m - (l - one)) & guard == 0, and then m * t / l packs to m + (t - l).
    """

    def __init__(self, ring, polys=()):
        if ring.field is not QZ5:
            raise TypeError("Groebner reduction runs over %s only" % QZ5.name)
        order = ring.order
        self.ring = ring
        self.pack = order.pack
        self.one = order.pack((0,) * ring.nvars)
        self.guard = order.guard(ring.nvars)
        self.entries = []
        for g in polys:
            if not g.is_zero:
                self.append(g)

    def packed(self, terms, shift=0):
        """(D, [(pack(e) - shift, n) for each term]), D the lcm of the
        denominators and n the four integer numerators of the term's
        coefficient over D."""
        pack = self.pack
        D = lcm(1, *(c.d for _, c in terms))
        return D, [
            (pack(e) - shift, tuple([x * (D // c.d) for x in c.n]))
            for e, c in terms
        ]

    def entry(self, g):
        lead = self.pack(g.terms[0][0])
        D, tail = self.packed(g.terms[1:], lead)
        return lead - self.one, tail, D

    def append(self, g):
        self.entries.append(self.entry(g))

    def remainder(self, seeds):
        """Remainder modulo the entries of the sum of the seeds (base, nc,
        dv, terms), each standing for x^base * sum((nc * n / dv) x^t) over
        (t, n) in terms: the reduction kernel.

        The seeds go into a dict keyed by packed monomial, their keys into
        a max-heap.  The largest monomial m is popped with its raw
        coefficient c.  If the first entry lead dividing it is l, c is
        divided by the gcd of its five integers and c * m/l * tail is
        subtracted (the lead cancels by construction); else c joins the
        remainder as a CycloElem in lowest terms, the only one built here.
        Seeds and reduction steps add their products by the same step,
        `_accumulate`.
        """
        coeffs = {}
        heap = []
        for base, nc, dv, terms in seeds:
            _accumulate(coeffs, heap, base, nc, dv, terms)
        guard = self.guard
        entries = self.entries
        pop = heapq.heappop
        rem = []
        while heap:
            m = -pop(heap)
            a0, a1, a2, a3, d = coeffs.pop(m)
            if not (a0 or a1 or a2 or a3):
                continue
            if m & guard:
                raise ValueError("exponent passes the slot bound during reduction")
            for lead, tail, D in entries:
                if not (m - lead) & guard:
                    g = -gcd(d, a0, a1, a2, a3)
                    nc = (a0 // g, a1 // g, a2 // g, a3 // g)
                    _accumulate(coeffs, heap, m, nc, d // -g * D, tail)
                    break
            else:
                rem.append((m, canon((a0, a1, a2, a3), d)))
        ring = self.ring
        unpack, n = ring.order.unpack, ring.nvars
        return Poly(ring, tuple([(unpack(m, n), c) for m, c in rem]))

    def spair_remainder(self, i, j, L):
        """NF of the S-polynomial of entries i and j, L the packed lcm of
        their leads: both tails shifted to L, the second negated; the
        leads, 1 - 1 at L, are never added."""
        _, ti, Di = self.entries[i]
        _, tj, Dj = self.entries[j]
        return self.remainder([(L, _ONE, Di, ti), (L, _MINUS_ONE, Dj, tj)])

    def reduced_basis(self):
        """The reduced Groebner basis, in decreasing lead order, of the
        ideal of the entries, which must be a monic Groebner basis.

        Minimal basis first: sweeping in increasing packed lead, an entry
        is dropped when a kept lead divides its lead (a divisor is never
        larger, and the first of equal leads is kept).  The kept leads are
        those of the reduced basis, so one pass reducing each tail modulo
        the kept entries gives it (docs/DECISIONS.md D8).  An entry's own
        lead divides none of its tail's monomials, so it may stay among
        the reducers.
        """
        one, guard = self.one, self.guard
        minimal = Reducers(self.ring)
        kept = minimal.entries
        for ent in sorted(self.entries, key=lambda ent: ent[0]):
            lead = ent[0] + one
            if all((lead - l) & guard for l, _, _ in kept):
                kept.append(ent)
        ring = self.ring
        lead_coeff = ring.field.one
        unpack, n = ring.order.unpack, ring.nvars
        basis = []
        for l, tail, D in reversed(kept):
            lead = l + one
            r = minimal.remainder([(lead, _ONE, D, tail)])
            basis.append(Poly(ring, ((unpack(lead, n), lead_coeff),) + r.terms))
        return basis


def _reducers(ring, gb):
    if isinstance(gb, GroebnerBasis):
        return gb.reducers()
    if isinstance(gb, Reducers):
        return gb
    return Reducers(ring, gb)


def normal_form(f: Poly, gb) -> Poly:
    """Unique remainder of f modulo a monic basis (list, GroebnerBasis or
    Reducers) over Q(zeta5).

    f's packed terms seed the kernel, `Reducers.remainder`.  Its steps are
    those of reducing the leading term of the whole polynomial again and
    again, by the first basis element whose lead divides it, so the
    remainder is the same.
    """
    red = _reducers(f.ring, gb)
    D, terms = red.packed(f.terms)
    return red.remainder([(0, _ONE, D, terms)])


def normal_form_products(products, gb) -> Poly:
    """NF of the sum of sign * f * g over (sign, f, g) in products, sign
    +1 or -1, modulo a monic basis as in `normal_form`.

    Each term a of the shorter factor seeds the kernel with the other
    factor's packed terms shifted by a, so no product polynomial is
    built or brought to lowest terms (docs/DECISIONS.md D8).
    """
    products = list(products)
    red = _reducers(products[0][1].ring, gb)
    seeds = []
    for sign, f, g in products:
        if len(f.terms) > len(g.terms):
            f, g = g, f
        Df, fs = red.packed(f.terms, red.one)
        Dg, gs = red.packed(g.terms)
        for a, n in fs:
            seeds.append((a, n if sign > 0 else tuple([-x for x in n]), Df * Dg, gs))
    return red.remainder(seeds)


def spoly(f: Poly, g: Poly) -> Poly:
    """S-polynomial of two monic polynomials (the reference for
    `Reducers.spair_remainder`)."""
    ring, lf, lg = f.ring, f.lm(), g.lm()
    L = mono_lcm(lf, lg)
    shift = lambda m: Poly(ring, ((mono_div(L, m), ring.field.one),))
    return shift(lf) * f - shift(lg) * g


# (number of variables, term order name, field, frozenset of the monic
# generators' terms) -> (terms of the reduced basis, stats of the run that
# computed it): one entry per ideal run in this process (D14)
_BASES = {}


def buchberger(gens, ring=None) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by gens.

    Two exact steps come before a run (docs/DECISIONS.md D14).  A
    generator that is a single variable x_k is split off and x_k set to 0
    in the others: I + (x_k) = I|x_k=0 + (x_k), and x_k is prime to every
    lead of a basis without it, so the basis is the run's on the rest
    plus the split variables, in decreasing lead order, or {1}.  The run
    on the rest is looked up in `_BASES` first, by the positional terms
    of its monic generators; a hit is rebuilt in the caller's ring.
    """
    gens = [g for g in gens if isinstance(g, Poly) and not g.is_zero]
    if ring is None:
        if not gens:
            raise ValueError("cannot infer ring from empty generator list")
        ring = gens[0].ring
    if not gens:
        return GroebnerBasis(ring, ())
    zero = {g.lm() for g in gens if len(g.terms) == 1 and mono_deg(g.lm()) == 1}
    if zero:
        split = [k for k in range(ring.nvars) if any(e[k] for e in zero)]
        gens = [
            Poly(ring, tuple([t for t in g.terms if not any(t[0][k] for k in split)]))
            for g in gens
        ]
    gens = [g.monic() for g in gens if g.terms]
    key = (ring.nvars, ring.order.name, ring.field, frozenset([g.terms for g in gens]))
    hit = _BASES.get(key)
    if hit is None:
        hit = _BASES[key] = _run(gens, ring)
    terms, stats = hit
    basis = [Poly(ring, t) for t in terms]
    if zero and not (len(basis) == 1 and mono_deg(basis[0].lm()) == 0):
        one = ring.field.one
        basis += [Poly(ring, ((e, one),)) for e in zero]
        pack = ring.order.pack
        basis.sort(key=lambda g: pack(g.lm()), reverse=True)
    return GroebnerBasis(ring, basis, stats=dict(stats, size=len(basis)))


def _run(gens, ring):
    """(terms of the reduced basis, stats) of the ideal of monic gens.

    Pairs are taken in order of (sugar, lcm of the leads, indices) from a
    heap; the product and chain criteria skip pairs, and the chain
    criterion tests divisibility on the packed leads.  Each S-pair is
    reduced from the two packed tails; the result is
    `Reducers.reduced_basis` of the basis grown.
    """
    pack = ring.order.pack
    gens = sorted(gens, key=lambda g: pack(g.lm()))
    leads = []
    sugars = []
    red = Reducers(ring)  # entries[k][0] is pack(leads[k]) - one
    one, guard, entries = red.one, red.guard, red.entries
    heap = []  # (sugar, packed lcm, i, j)
    pending = set()  # the pairs in heap

    def add_poly(g, sugar):
        idx = len(leads)
        lg = g.lm()
        dg = mono_deg(lg)
        for i, lf in enumerate(leads):
            L = mono_lcm(lf, lg)
            dL = mono_deg(L)
            s = max(sugars[i] + dL - mono_deg(lf), sugar + dL - dg)
            heapq.heappush(heap, (s, pack(L), i, idx))
            pending.add((i, idx))
        leads.append(lg)
        sugars.append(sugar)
        red.append(g)

    for g in gens:
        add_poly(g, g.degree())

    processed = 0
    while heap:
        s, L, i, j = heapq.heappop(heap)
        pending.remove((i, j))
        # product criterion: coprime leads
        if L == entries[i][0] + entries[j][0] + one:
            continue
        # chain criterion: a third lead divides L and both its pairs are done
        skip = False
        for k, (lk, _, _) in enumerate(entries):
            if k == i or k == j or (L - lk) & guard:
                continue
            a = (i, k) if i < k else (k, i)
            b = (j, k) if j < k else (k, j)
            if a not in pending and b not in pending:
                skip = True
                break
        if skip:
            continue
        processed += 1
        r = red.spair_remainder(i, j, L)
        if not r.is_zero:
            r = r.monic()
            add_poly(r, max(s, r.degree()))

    basis = red.reduced_basis()
    return tuple([g.terms for g in basis]), {"pairs_processed": processed}


# ---------------------------------------------------------------------------
# zero-dimensional schemes


class NotZeroDimensional(Exception):
    def __init__(self, witness_var):
        super().__init__(
            "no pure power of variable %r among leading terms" % witness_var
        )
        self.witness_var = witness_var


class ZeroDimScheme:
    """A zero-dimensional ideal with its quotient-basis bookkeeping."""

    def __init__(self, gb: GroebnerBasis, std_monomials, is_radical=False):
        self.gb = gb
        self.ring = gb.ring
        self.std_monomials = tuple(std_monomials)
        self.degree = len(self.std_monomials)
        self.is_radical = is_radical or self.degree <= 1

    def __repr__(self):
        return "ZeroDimScheme(degree=%d)" % self.degree


def zero_dim_analyze(gb: GroebnerBasis) -> ZeroDimScheme:
    """Standard monomials and degree; raises NotZeroDimensional with a
    witness variable when some variable has no pure power leading term."""
    ring = gb.ring
    n = ring.nvars
    if gb.is_trivial():
        return ZeroDimScheme(gb, ())
    if not gb.polys:
        raise NotZeroDimensional(ring.vars[0] if n else None)
    lms = [g.lm() for g in gb.polys]
    bounds = [None] * n
    for lm in lms:
        nz = [i for i, e in enumerate(lm) if e]
        if len(nz) == 1:
            i = nz[0]
            if bounds[i] is None or lm[i] < bounds[i]:
                bounds[i] = lm[i]
    for i, b in enumerate(bounds):
        if b is None:
            raise NotZeroDimensional(ring.vars[i])
    red = gb.reducers()
    std = []
    for exp in itertools.product(*(range(b) for b in bounds)):
        m = red.pack(exp)
        if all((m - lead) & red.guard for lead, _, _ in red.entries):
            std.append((m, exp))
    std.sort()
    return ZeroDimScheme(gb, [exp for _, exp in std])


_ZERO4 = (0, 0, 0, 0)


def _int_vector(vec):
    """A vector of CycloElems as integer 4-tuples over their common
    denominator (the denominator itself is dropped)."""
    D = lcm(1, *(c.d for c in vec))
    return [tuple([x * (D // c.d) for x in c.n]) for c in vec], D


def _lincomb(N, v, b, nz):
    """N * v + b * row over Z[e], N an int, b a 4-tuple and the row given
    by its nonzero entries nz = [(i, r), ...]."""
    if N == 1:
        out = list(v)
    else:
        out = [(N * x0, N * x1, N * x2, N * x3) for x0, x1, x2, x3 in v]
    for i, r in nz:
        p0, p1, p2, p3 = phi5_mul(b, r)
        x0, x1, x2, x3 = out[i]
        out[i] = (x0 + p0, x1 + p1, x2 + p2, x3 + p3)
    return out


def _nonzero(v):
    return [(i, x) for i, x in enumerate(v) if x != _ZERO4]


def _pivot(v):
    """Index of the first nonzero entry, or None."""
    for i, x in enumerate(v):
        if x != _ZERO4:
            return i
    return None


def _normalised(v, piv):
    """v times s2 s3 s4 of v[piv] (`conj_product`), so the pivot becomes a
    positive rational integer, then divided by its content."""
    p = v[piv]
    if p[1] or p[2] or p[3]:
        conj = conj_product(p)
        v = [phi5_mul(conj, x) for x in v]
    elif p[0] < 0:
        v = [(-x0, -x1, -x2, -x3) for x0, x1, x2, x3 in v]
    return _primitive(v)[0]


def _primitive(v):
    """(v / g, g), g the content of v: the gcd of all its integers (0 for
    the zero vector)."""
    g = gcd(*[x for t in v for x in t])
    if g > 1:
        v = [(x0 // g, x1 // g, x2 // g, x3 // g) for x0, x1, x2, x3 in v]
    return v, g


def _reduce(v, rows):
    """v reduced against echelon rows (pivot, N, row, nonzero entries),
    N the positive rational integer at the pivot: v <- N * v -
    v[pivot] * row, with no content taken."""
    for piv, N, _, nz in rows:
        b0, b1, b2, b3 = v[piv]
        if b0 or b1 or b2 or b3:
            v = _lincomb(N, v, (-b0, -b1, -b2, -b3), nz)
    return v


def _reduce_tracked(v, rows):
    """v reduced against Krylov rows (pivot, N, row entries, combo
    entries), the row being sum(combo[j] * (power vector j)), the entries
    nonzero ones as in `_reduce`.  Returns (r, combo, f) with
    r = f * v - sum(combo[j] * power vector j), f a positive int and
    combo of length len(rows)."""
    combo = [_ZERO4] * len(rows)
    f = 1
    for piv, N, nz, cnz in rows:
        b0, b1, b2, b3 = v[piv]
        if b0 or b1 or b2 or b3:
            v = _lincomb(N, v, (-b0, -b1, -b2, -b3), nz)
            combo = _lincomb(N, combo, (b0, b1, b2, b3), cnz)
            f *= N
    return v, combo, f


def _echelon_add(rows, v):
    """Reduce v against the echelon rows; append the normalised remainder
    and return it, or None if v lies in their span."""
    v = _reduce(v, rows)
    piv = _pivot(v)
    if piv is None:
        return None
    v = _normalised(v, piv)
    rows.append((piv, v[piv][0], v, _nonzero(v)))
    return v


def _echelon(vectors):
    rows = []
    for v in vectors:
        _echelon_add(rows, v)
    return rows


def _apply(op_rows, v):
    """M * v for M given by sparse integer rows [(j, n), ...]."""
    out = []
    for row in op_rows:
        a0 = a1 = a2 = a3 = 0
        for j, n in row:
            x = v[j]
            if x != _ZERO4:
                p0, p1, p2, p3 = phi5_mul(n, x)
                a0 += p0
                a1 += p1
                a2 += p2
                a3 += p3
        out.append((a0, a1, a2, a3))
    return out


class QuotientAlgebra:
    """Linear algebra on R/I for a zero-dimensional ideal.

    The public vectors (`coeffs`, `nf_coeffs`, `mult_columns`) hold
    CycloElems.  The elimination underneath runs on raw rows over Z[e]
    (docs/DECISIONS.md D9): a vector is a list of integer 4-tuples, the
    multiplication operator of p is sparse integer rows over one
    denominator L, and an echelon row is scaled so that its pivot is a
    positive rational integer N, then divided by its content.  Reducing
    v by a row is v <- N * v - v[pivot] * row, and a reduced vector takes
    one content gcd.  Spans (`supported_length`, `generates_whole`)
    ignore scale; `krylov` tracks the rational scale of each power vector,
    so its minimal polynomial and `solve_in_krylov` are exact.  `canon`
    runs only where CycloElems leave: the eliminant, the Krylov
    coordinates and the normal forms the kernel returns.
    """

    def __init__(self, scheme: ZeroDimScheme):
        self.scheme = scheme
        self.ring = scheme.ring
        self.field = scheme.ring.field
        self.basis = scheme.std_monomials
        self.index = {m: i for i, m in enumerate(self.basis)}
        self._var_rows = None
        self._packed = None

    def nf(self, p: Poly) -> Poly:
        """NF(p) modulo the basis of I."""
        return normal_form(p, self.scheme.gb)

    def nf_products(self, products) -> Poly:
        """NF of the sum of sign * f * g over (sign, f, g) in products."""
        return normal_form_products(products, self.scheme.gb)

    def nf_coeffs(self, p: Poly):
        """Dense coefficient vector of NF(p) on the standard monomials."""
        return self.coeffs(self.nf(p))

    def coeffs(self, nf: Poly):
        """Dense coefficient vector of a polynomial already in normal form."""
        v = [self.field.zero] * len(self.basis)
        for e, c in nf.terms:
            v[self.index[e]] = c
        return v

    def in_radical(self, p: Poly) -> bool:
        """Is p in sqrt(I)?  Exactly when p^d is in I, d = deg I: square
        NF(p), scaled to content 1, until it is zero or 2^k >= d
        (docs/DECISIONS.md D5)."""
        g = self.nf(p)
        k = 1
        while not g.is_zero and k < len(self.basis):
            g = self.nf_products([(1, g, g)]).primitive()
            k *= 2
        return g.is_zero

    def _products(self, p: Poly):
        """NF(m * p) for each standard monomial m."""
        ring, one = self.ring, self.field.one
        return [self.nf_products([(1, Poly(ring, ((m, one),)), p)]) for m in self.basis]

    def mult_columns(self, p: Poly):
        """Columns of the multiplication-by-p operator."""
        return [self.coeffs(nf) for nf in self._products(p)]

    def _operator(self, p: Poly):
        """Multiplication by p as (columns, rows), up to the one scale L,
        the lcm of its denominators: integer 4-tuples, the columns dense
        and the rows sparse [(j, n), ...]."""
        nfs = self._products(p)
        L = lcm(1, *(c.d for nf in nfs for _, c in nf.terms))
        index = self.index
        n = len(self.basis)
        cols = []
        rows = [[] for _ in range(n)]
        for j, nf in enumerate(nfs):
            col = [_ZERO4] * n
            for e, c in nf.terms:
                i = index[e]
                x = col[i] = tuple([a * (L // c.d) for a in c.n])
                rows[i].append((j, x))
            cols.append(col)
        return cols, rows

    def _times(self, p: Poly, w):
        """NF(p * W) for W with integer coefficient vector w, as (u, D)
        with u an integer vector and NF(p * W) = u / D: p's terms seed the
        reduction kernel with w's nonzero entries as raw numerators."""
        red = self.scheme.gb.reducers()
        if self._packed is None:
            self._packed = [red.pack(m) for m in self.basis]
        Dp, ps = red.packed(p.terms, red.one)
        wt = [(m, x) for m, x in zip(self._packed, w) if x != _ZERO4]
        nf = red.remainder([(a, n, Dp, wt) for a, n in ps])
        return _int_vector(self.coeffs(nf))

    def generates_whole(self, vectors):
        """Do elements with these NF vectors generate R/I as an ideal?

        Their ideal is the closure of span{v} under the multiplication
        operators of the variables, found by exact elimination with no
        random choices.  True means V(I + (elements)) is empty.
        """
        if self._var_rows is None:
            self._var_rows = [self._operator(v)[1] for v in self.ring.gens()]
        rows = []
        pending = [_int_vector(v)[0] for v in vectors]
        while pending and len(rows) < len(self.basis):
            red = _echelon_add(rows, pending.pop())
            if red is not None:
                pending.extend(_apply(op, red) for op in self._var_rows)
        return len(rows) == len(self.basis)

    def supported_length(self, polys):
        """Length of the part of V(I) on which every polynomial vanishes.

        R/I is the product of its local rings A_p, and on A_p mult-by-g
        is g(p) plus a nilpotent, so the stable image g^k (R/I) is the
        sum of the A_p with g(p) != 0.  The images of the polys span the
        A_p off the common zeros; the rest is the wanted length
        (docs/DECISIONS.md D3).  Exact, with no random choices.
        """
        n = len(self.basis)
        rows = []
        for g in polys:
            cols, op = self._operator(g)
            image = _echelon(cols)
            while True:  # g^(k+1) A inside g^k A: stable once the rank holds
                nxt = _echelon(_apply(op, r) for _, _, r, _ in image)
                if len(nxt) == len(image):
                    break
                image = nxt
            for _, _, r, _ in image:
                _echelon_add(rows, r)
            if len(rows) == n:
                break
        return n - len(rows)

    def krylov(self, p: Poly):
        """Minimal polynomial of mult-by-p on the cyclic module generated
        by 1 (== the monic generator of I intersect K[p]).

        Returns (minpoly_coeffs, rows); shape-position parameterization
        passes the rows to `solve_in_krylov`.  The k-th power vector
        p^k mod I is w / s with w integer and s a positive rational
        tracked alongside; the next power is NF(p * w) from the reduction
        kernel (`_times`), so w itself is never reduced.  An echelon row
        keeps the nonzero entries of a vector and of its combo, with
        vector = sum(combo[j] * p^j mod I).
        """
        n = len(self.basis)
        w = [_ZERO4] * n
        zero_mono = (0,) * self.ring.nvars
        if zero_mono in self.index:
            w[self.index[zero_mono]] = (1, 0, 0, 0)
        s = Fraction(1)
        rows = []
        for _ in range(n + 1):
            red, combo, f = _reduce_tracked(w, rows)
            # red = f * s * p^k - sum(combo[j] * p^j)
            fs = f * s
            num, den = fs.numerator, fs.denominator
            piv = _pivot(red)
            if piv is None:
                # dependency: p^k = sum(combo[j] / fs * p^j)
                return [canon(tuple([-x * den for x in c]), num) for c in combo] + [
                    self.field.one
                ], rows
            # den * red = num * p^k - sum(den * combo[j] * p^j)
            both = [tuple([x * den for x in t]) for t in red] + [
                tuple([-x * den for x in c]) for c in combo
            ]
            both.append((num, 0, 0, 0))
            both = _normalised(both, piv)
            rows.append((piv, both[piv][0], _nonzero(both[:n]), _nonzero(both[n:])))
            w, D = self._times(p, w)
            w, g = _primitive(w)
            s = s * D / g if g else s
        raise AssertionError("Krylov iteration failed to terminate")

    def solve_in_krylov(self, vec, rows):
        """Combination coefficients expressing vec in the Krylov powers."""
        u, D = _int_vector(vec)
        red, combo, f = _reduce_tracked(u, rows)
        if _pivot(red) is not None:
            return None
        # f * D * vec = sum(combo[j] * p^j), up to the last row used
        while len(combo) > 1 and combo[-1] == _ZERO4:
            combo.pop()
        return [canon(c, f * D) for c in combo] or [self.field.zero]


def eliminant(scheme: ZeroDimScheme, p: Poly):
    """Monic generator of I intersect K[p] (the eliminant of p)."""
    alg = QuotientAlgebra(scheme)
    mp, _ = alg.krylov(p)
    return mp


def radical_zero_dim(scheme: ZeroDimScheme) -> ZeroDimScheme:
    """Seidenberg radical: adjoin squarefree parts of every eliminant."""
    if scheme.is_radical:
        return scheme
    if scheme.degree == 0:
        return scheme
    ring = scheme.ring
    field = ring.field
    extra = []
    for i, var in enumerate(ring.vars):
        g = eliminant(scheme, ring.var(var))
        h = unipoly.squarefree_part(g, field)
        if len(h) != len(g):
            extra.append(_univariate_to_poly(h, ring, i))
    if not extra:
        out = ZeroDimScheme(scheme.gb, scheme.std_monomials, is_radical=True)
        return out
    gb = buchberger(list(scheme.gb.polys) + extra, ring)
    out = zero_dim_analyze(gb)
    return ZeroDimScheme(out.gb, out.std_monomials, is_radical=True)


def _univariate_to_poly(coeffs, ring, var_index):
    terms = []
    for k, c in enumerate(coeffs):
        if ring.field.is_zero(c):
            continue
        e = [0] * ring.nvars
        e[var_index] = k
        terms.append((tuple(e), c))
    return ring.from_terms(terms)


# ---------------------------------------------------------------------------
# point extraction


class ShapePositionError(Exception):
    pass


class PointBranch:
    """Points of a scheme living over one tower branch.

    coords are affine coordinates (one per ring variable) with values in
    the branch tower; degree is the number of geometric points the branch
    represents (1 means a single rational point over the scheme's field).
    """

    def __init__(self, ctx, coords, degree, eliminant_coeffs=None, t_name=None):
        self.ctx = ctx
        self.coords = tuple(coords)
        self.degree = degree
        self.eliminant = eliminant_coeffs
        self.t_name = t_name

    @property
    def is_rational(self):
        return self.degree == 1

    def __repr__(self):
        kind = "point" if self.is_rational else "branch(deg=%d)" % self.degree
        return "PointBranch[%s: %s]" % (
            kind,
            ", ".join(self.ctx.to_str(c) for c in self.coords),
        )


def _as_tower(field):
    from .extfield import BASE_TOWER, TowerContext

    if isinstance(field, TowerContext):
        return field
    return BASE_TOWER


def extract_points(
    scheme: ZeroDimScheme,
    seed: int = 20240501,
    known_points=(),
    resolve: bool = True,
    max_tries: int = 8,
):
    """All points of a radical zero-dimensional scheme, as PointBranch list.

    Shape position: a separating linear form t is found (single variables
    first, then seeded random combinations); the lex-style description
    {g(t), x_i - h_i(t)} is realized through the Krylov iteration, known
    rational points are peeled off g, remaining Q(zeta5)-rational roots are
    resolved by verified mod-p lifting, and whatever is left becomes a
    dynamic tower branch.  The branch degrees always sum to the scheme
    degree.
    """
    import random as _random

    from .extfield import TowerContext
    from .modp import roots_in_qz5

    scheme = radical_zero_dim(scheme)
    if scheme.degree == 0:
        return []
    ring = scheme.ring
    field = ring.field
    n = ring.nvars
    rng = _random.Random(seed)
    alg = QuotientAlgebra(scheme)

    candidates = []
    for i in range(n - 1, -1, -1):
        candidates.append(ring.var(ring.vars[i]))
    for _ in range(max_tries):
        combo = ring.var(ring.vars[n - 1])
        for i in range(n - 1):
            c = rng.randint(-4, 4)
            if c:
                combo = combo + ring.var(ring.vars[i]).scale(field.coerce(c))
        candidates.append(combo)

    lam = g = rows = None
    for cand in candidates:
        mp, rws = alg.krylov(cand)
        if len(mp) - 1 == scheme.degree:
            lam, g, rows = cand, mp, rws
            break
    if lam is None:
        raise ShapePositionError(
            "no separating linear form found after %d attempts" % max_tries
        )

    params = []
    for i in range(n):
        vec = alg.nf_coeffs(ring.var(ring.vars[i]))
        h = alg.solve_in_krylov(vec, rows)
        if h is None:
            raise ShapePositionError("variable not in the Krylov span")
        params.append(h)

    out = []
    gb_polys = scheme.gb.polys

    def in_scheme(coords):
        return all(
            field.is_zero(p.eval(list(coords), field=field)) for p in gb_polys
        )

    # peel known rational points
    for p in known_points:
        coords = tuple(field.coerce(c) for c in p)
        if not in_scheme(coords):
            continue
        t0 = lam.eval(list(coords), field=field)
        g2 = unipoly.peel_root(g, t0, field)
        if g2 is None:
            continue
        g = g2
        out.append(PointBranch(_as_tower(field), coords, 1))

    # resolve remaining rational roots over the base field
    if resolve and not isinstance(field, TowerContext) and unipoly.deg(g, field) > 0:
        for t0 in roots_in_qz5(list(g)):
            g2 = unipoly.peel_root(g, t0, field)
            if g2 is None:
                continue
            coords = tuple(
                unipoly.eval_poly(h, t0, field) for h in params
            )
            if not in_scheme(coords):
                continue
            g = g2
            out.append(PointBranch(_as_tower(field), coords, 1))

    d = unipoly.deg(g, field)
    if d == 1:
        t0 = field.neg(g[0])
        coords = tuple(unipoly.eval_poly(h, t0, field) for h in params)
        out.append(PointBranch(_as_tower(field), coords, 1))
    elif d > 1:
        base = _as_tower(field)
        t_name = "t%d" % (base.depth + 1)
        # coefficients of g are already valid base-tower representatives
        tower = base.adjoin(t_name, list(g))
        gen = tower.gen()
        coords = []
        for h in params:
            acc = tower.zero
            for c in reversed(h):
                acc = tower.add(tower.mul(acc, gen), tower.lift(c))
            coords.append(acc)
        out.append(
            PointBranch(tower, tuple(coords), d, eliminant_coeffs=g, t_name=t_name)
        )

    total = sum(b.degree for b in out)
    if total != scheme.degree:
        raise AssertionError(
            "extracted degree %d != scheme degree %d" % (total, scheme.degree)
        )
    return out
