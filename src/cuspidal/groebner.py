"""Buchberger engine and zero-dimensional scheme toolkit.

The basis is computed in degrevlex, the only term order
(docs/DECISIONS.md D18), with sugar-strategy pair selection and the pair
update of Gebauer and Moeller (D20); basis elements are kept monic so
reduction never divides.  Every reduction is heap division on packed monomials
(``multipoly.pack``) inside one kernel, ``Reducers.raw_remainder``: a
basis is packed once (``GroebnerBasis.reducers``, or grown with the basis
inside ``buchberger``) and pairs are popped from a heap keyed on (sugar,
packed lcm, i, j) (docs/DECISIONS.md D6).  The kernel runs on raw
Q(zeta5) integer numerators, one gcd per popped monomial (D7), as every
ring is over Q(zeta5) (D17).  It is seeded straight
from packed terms (D8): a polynomial, an S-pair from the two packed
tails, a sum of products term by term, or a basis tail, so no tuple
polynomial is built only to be packed again.  Its remainder stays raw,
as packed monomials and numerators, where the kernels use it: a new
basis element is appended as the entry of its monic multiple, and the
quotient algebra reads its operators from it; ``Reducers.remainder``
builds a polynomial of CycloElems for the other callers (D16).
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
extraction in shape position, whose Q(zeta5)-rational points are found
by the verified mod-p lifting in modp; points that are not
Q(zeta5)-rational end the extraction as a typed NonRationalResidual
(D17).  Point extraction imports modp's one root finder when it runs
(D24), so `surface-report`, which extracts no points, never loads it.  The
linear algebra on the quotient runs on the raw Z[zeta5] echelon of
`linalg` (D9): pivots scaled to their norm, one content gcd per reduced
vector, and CycloElems only at the interface.  Each scheme has one
quotient algebra, which memoises its operators (D16) and its Krylov
results; a stable image stops at the nilpotency index of its operator
when the scheme is reduced or a memoised minimal polynomial gives it,
and otherwise when the rank holds (D28).
"""

from __future__ import annotations

import heapq
import itertools
from fractions import Fraction
from functools import cached_property
from math import comb, gcd, lcm
from operator import itemgetter

from . import unipoly
from .cyclofield import ONE, ZERO, _raw, as_cyclo, canon, conj_product, phi5_mul
from .linalg import (
    _ZERO4,
    _apply,
    _echelon,
    _echelon_add,
    _int_vector,
    _nonzero,
    _normalised,
    _pivot,
    _primitive,
    _reduce_tracked,
)
from .multipoly import (
    QZ5,
    Poly,
    guard,
    mono_deg,
    mono_div,
    mono_lcm,
    pack,
    unpack,
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
    reduction's raw dict and max-heap; x^base * x^t packs to base + t.
    The products nc * n are formed in one of two loops, with no call or
    branch per term: a rational multiplier (n1 = n2 = n3 = 0) scales n by
    4 integer products (docs/DECISIONS.md D12), any other takes the 16 of
    `phi5_mul`'s general case, written out (D20).

    The products share the denominator dv, so each adds componentwise to
    a raw coefficient over dv; one over another denominator is
    cross-multiplied (docs/DECISIONS.md D7).
    """
    get = coeffs.get
    push = heapq.heappush
    n0, n1, n2, n3 = nc
    if n1 or n2 or n3:
        for t, (t0, t1, t2, t3) in terms:
            r4 = n1 * t3 + n2 * t2 + n3 * t1
            b0 = n0 * t0 + n2 * t3 + n3 * t2 - r4
            b1 = n0 * t1 + n1 * t0 + n3 * t3 - r4
            b2 = n0 * t2 + n1 * t1 + n2 * t0 - r4
            b3 = n0 * t3 + n1 * t2 + n2 * t1 + n3 * t0 - r4
            p = base + t
            old = get(p)
            if old is None:
                coeffs[p] = (b0, b1, b2, b3, dv)
                push(heap, -p)
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
    else:
        for t, (t0, t1, t2, t3) in terms:
            b0, b1, b2, b3 = n0 * t0, n0 * t1, n0 * t2, n0 * t3
            p = base + t
            old = get(p)
            if old is None:
                coeffs[p] = (b0, b1, b2, b3, dv)
                push(heap, -p)
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
    one reduction kernel (docs/DECISIONS.md D6-D8, D16).

    Each polynomial g with packed lead l becomes (l - one, tail, D), where
    one is the packed constant monomial and (D, tail) = packed(g's other
    terms, l).  A packed monomial m is divisible by l exactly when
    (m - (l - one)) & guard == 0, and then m * t / l packs to m + (t - l).
    """

    def __init__(self, ring, polys=()):
        self.ring = ring
        self.one = pack((0,) * ring.nvars)
        self.guard = guard(ring.nvars)
        self.entries = []
        # packed monomial -> the first entry whose lead divides it, or the
        # number of entries that were found not to; entries are only
        # appended, so either stays true (D20)
        self.memo = {}
        for g in polys:
            if not g.is_zero:
                self.entries.append(self.entry(g))

    def packed(self, terms, shift=0):
        """(D, [(pack(e) - shift, n) for each term]), D the lcm of the
        denominators and n the four integer numerators of the term's
        coefficient over D."""
        D = lcm(1, *(c.d for _, c in terms))
        return D, [
            (pack(e) - shift, tuple([x * (D // c.d) for x in c.n]))
            for e, c in terms
        ]

    def entry(self, g):
        lead = pack(g.terms[0][0])
        D, tail = self.packed(g.terms[1:], lead)
        return lead - self.one, tail, D

    def raw_remainder(self, seeds):
        """Remainder modulo the entries of the sum of the seeds (base, nc,
        dv, terms), each standing for x^base * sum((nc * n / dv) x^t) over
        (t, n) in terms: the reduction kernel.  The remainder comes raw,
        as [(packed monomial, numerators, d), ...] in decreasing order,
        each n / d in lowest terms with d > 0.

        The seeds go into a dict keyed by packed monomial, their keys into
        a max-heap.  The largest monomial m is popped with its raw
        coefficient c, and c is divided by the gcd of its five integers.
        If the first entry lead dividing m is l, c * m/l * tail is
        subtracted (the lead cancels by construction); else c joins the
        remainder.  Seeds and reduction steps add their products by the
        same step, `_accumulate`.  The first entry dividing m is memoised
        for the life of the object, and so is the number of entries that
        do not divide it, so a later lookup scans only the entries
        appended since (docs/DECISIONS.md D20).
        """
        coeffs = {}
        heap = []
        for base, nc, dv, terms in seeds:
            _accumulate(coeffs, heap, base, nc, dv, terms)
        guard, entries, memo = self.guard, self.entries, self.memo
        pop = heapq.heappop
        rem = []
        while heap:
            m = -pop(heap)
            a0, a1, a2, a3, d = coeffs.pop(m)
            if not (a0 or a1 or a2 or a3):
                continue
            if m & guard:
                # only a product seed can pass the slot bound (D18)
                raise ValueError("degree passes the slot bound during reduction")
            g = gcd(d, a0, a1, a2, a3)
            ent = memo.get(m, 0)
            if ent.__class__ is int:  # not yet found: scan the entries after
                for ent in entries[ent:]:
                    if not (m - ent[0]) & guard:
                        memo[m] = ent
                        break
                else:
                    memo[m] = len(entries)
                    rem.append((m, (a0 // g, a1 // g, a2 // g, a3 // g), d // g))
                    continue
            nc = (-a0 // g, -a1 // g, -a2 // g, -a3 // g)
            _accumulate(coeffs, heap, m, nc, d // g * ent[2], ent[1])
        return rem

    def remainder(self, seeds):
        """`raw_remainder` as a polynomial."""
        ring, n = self.ring, self.ring.nvars
        rem = self.raw_remainder(seeds)
        return Poly(ring, tuple([(unpack(m, n), _raw(c, d)) for m, c, d in rem]))

    def monic_entry(self, rem):
        """The entry of the monic polynomial rem / lc(rem), rem a nonzero
        raw remainder: the entry of `rem.monic()`, from one conjugate
        product and one content gcd.

        With lc = n / d, 1 / lc = d * s2 s3 s4(n) / N(n) (`conj_product`;
        the norm N(n) is a positive rational integer), or d / n0 when n is
        rational.  Over the lcm D of the tail's denominators, the tail of
        rem / lc is sum(x^t * n_t * (D / d_t) * d * conj) / (D * N).  The
        one representation with integer numerators and the least
        denominator is this one divided by the gcd of all its integers,
        which is the form `packed` gives the canonical coefficients.
        """
        (lead, (l0, l1, l2, l3), ld), tail = rem[0], rem[1:]
        D = lcm(1, *[d for _, _, d in tail])
        if l1 or l2 or l3:
            conj = conj_product((l0, l1, l2, l3))
            N = phi5_mul((l0, l1, l2, l3), conj)[0]
        else:
            conj, N = (1, 0, 0, 0) if l0 > 0 else (-1, 0, 0, 0), abs(l0)
        terms = []
        for m, c, d in tail:
            k = D // d * ld
            x0, x1, x2, x3 = phi5_mul(c, conj)
            terms.append((m - lead, (x0 * k, x1 * k, x2 * k, x3 * k)))
        den = D * N
        g = gcd(den, *[x for _, t in terms for x in t])
        if g > 1:
            den //= g
            terms = [(m, tuple([x // g for x in t])) for m, t in terms]
        return lead - self.one, terms, den

    def spair_seeds(self, i, j, L):
        """Seeds of the S-polynomial of entries i and j, L the packed lcm of
        their leads: both tails shifted to L, the second negated; the
        leads, 1 - 1 at L, are never added."""
        _, ti, Di = self.entries[i]
        _, tj, Dj = self.entries[j]
        return [(L, _ONE, Di, ti), (L, _MINUS_ONE, Dj, tj)]

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
        ring, n = self.ring, self.ring.nvars
        basis = []
        for l, tail, D in reversed(kept):
            lead = l + one
            r = minimal.remainder([(lead, _ONE, D, tail)])
            basis.append(Poly(ring, ((unpack(lead, n), ONE),) + r.terms))
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

    f's packed terms seed the kernel, `Reducers.raw_remainder`.  Its steps
    are those of reducing the leading term of the whole polynomial again
    and again, by the first basis element whose lead divides it, so the
    remainder is the same.
    """
    red = _reducers(f.ring, gb)
    D, terms = red.packed(f.terms)
    return red.remainder([(0, _ONE, D, terms)])


def _product_seeds(products, one):
    """Kernel seeds of the sum of sign * f * g over (sign, f, g) in
    products, f and g packed as (D, [(packed monomial, numerators), ...])
    and one the packed constant monomial.

    Each term a of the shorter factor seeds the kernel with the other
    factor's packed terms shifted by a, so no product polynomial is built
    or brought to lowest terms (docs/DECISIONS.md D8).
    """
    seeds = []
    for sign, (Df, fs), (Dg, gs) in products:
        if len(fs) > len(gs):
            Df, fs, Dg, gs = Dg, gs, Df, fs
        for a, n in fs:
            n = n if sign > 0 else tuple([-x for x in n])
            seeds.append((a - one, n, Df * Dg, gs))
    return seeds


def common_denominator(rem):
    """A raw remainder packed over one denominator: (D, [(packed
    monomial, numerators), ...]), D the lcm of the denominators."""
    D = lcm(1, *[d for _, _, d in rem])
    return D, [(m, tuple([x * (D // d) for x in c])) for m, c, d in rem]


def spoly(f: Poly, g: Poly) -> Poly:
    """S-polynomial of two monic polynomials (the reference for
    `Reducers.spair_seeds`)."""
    ring, lf, lg = f.ring, f.lm(), g.lm()
    L = mono_lcm(lf, lg)
    shift = lambda m: Poly(ring, ((mono_div(L, m), ONE),))
    return shift(lf) * f - shift(lg) * g


# (number of variables, frozenset of the monic generators' terms) ->
# (terms of the reduced basis, stats of the run that computed it): one
# entry per ideal run in this process (D14)
_BASES = {}


def buchberger(gens, ring=None) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by gens.

    Two exact steps come before a run (docs/DECISIONS.md D14).  A
    generator that is a single variable x_k is split off and x_k set to 0
    in the others: I + (x_k) = I|x_k=0 + (x_k), and x_k is prime to every
    lead of a basis without it, so the basis is the run's on the rest
    plus the split variables, in decreasing lead order, or {1}.  The run
    on the rest is looked up in `_BASES` first, by the positional terms
    of its monic generators; a hit is rebuilt in the caller's ring.  A
    generator that is already monic is kept as it is, so callers that
    pass the same generators again (`singcert.chart_piece`) make them
    monic once.
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
        # a term is kept when its exponents at the split variables are
        # those of the constant monomial
        split = itemgetter(*[k for k in range(ring.nvars) if any(e[k] for e in zero)])
        free = split(ring._zero_mono)
        gens = [
            Poly(ring, tuple([t for t in g.terms if split(t[0]) == free]))
            for g in gens
        ]
    gens = [g.monic() for g in gens if g.terms]
    key = (ring.nvars, frozenset([g.terms for g in gens]))
    hit = _BASES.get(key)
    if hit is None:
        hit = _BASES[key] = _run(gens, ring)
    terms, stats = hit
    basis = [Poly(ring, t) for t in terms]
    if zero and not (len(basis) == 1 and mono_deg(basis[0].lm()) == 0):
        basis += [Poly(ring, ((e, ONE),)) for e in zero]
        basis.sort(key=lambda g: pack(g.lm()), reverse=True)
    return GroebnerBasis(ring, basis, stats=dict(stats, size=len(basis)))


def _run(gens, ring):
    """(terms of the reduced basis, stats) of the ideal of monic gens.

    Each element, generators included, enters through the update of
    Gebauer and Moeller (docs/DECISIONS.md D20).  Its pairs are formed
    only with the live elements, those whose lead no later lead divides.
    Among them, a pair is dropped when another new pair's lcm properly
    divides its lcm (M); of the pairs with one lcm only the first in the
    heap is kept (F), and none when one of them has coprime leads
    (product criterion).  A pending pair (i, j) is dropped when the new
    lead divides its lcm L and L is neither lcm(i, new) nor lcm(j, new)
    (B_k); lcm(i, new) is computed for every earlier element, live or not.
    Pairs are taken in order of (sugar, lcm of the leads, indices) from a
    heap, a dropped one skipped when popped.  Each S-pair is reduced
    from the two packed tails by every entry, and a nonzero remainder
    joins the basis as the entry of its monic multiple
    (`Reducers.monic_entry`), with the pair's sugar s as its own: s is at
    least the degree of the lcm, which no term of the S-pair or of its
    remainder passes, so s is max(s, deg r) (docs/DECISIONS.md D18).
    The result is `Reducers.reduced_basis` of the basis grown.
    """
    n = ring.nvars
    gens = sorted(gens, key=lambda g: pack(g.lm()))
    leads = []
    excess = []  # sugar minus lead degree; a pair's sugar is its max + deg L
    red = Reducers(ring)  # entries[k][0] is pack(leads[k]) - one
    one, guard, entries = red.one, red.guard, red.entries
    heap = []  # (sugar, packed lcm, i, j)
    pending = {}  # (i, j) -> packed lcm, the pairs in heap not dropped
    live = []  # the elements whose lead no later lead divides

    def add_entry(entry, sugar):
        h, eh = len(leads), entry[0]
        lh = unpack(eh + one, n)
        xh = sugar - mono_deg(lh)
        lcms = [mono_lcm(lf, lh) for lf in leads]
        packed = [pack(L) for L in lcms]
        for i, j in [
            ij
            for ij, L in pending.items()
            if not (L - eh) & guard and packed[ij[0]] != L and packed[ij[1]] != L
        ]:
            del pending[i, j]  # B_k
        first = {}  # packed lcm -> its first pair's heap key, None if coprime
        for i in live:
            L = packed[i]
            coprime = L == entries[i][0] + eh + one
            key = None if coprime else (max(excess[i], xh) + mono_deg(lcms[i]), L, i, h)
            if L not in first or key is None or first[L] and key < first[L]:
                first[L] = key
        minimal = []
        for L in sorted(first):  # a divisor of L is no larger
            if all((L - M + one) & guard for M in minimal):
                minimal.append(L)
                if first[L]:
                    heapq.heappush(heap, first[L])
                    pending[first[L][2], h] = L
        live[:] = [i for i in live if (entries[i][0] - eh + one) & guard] + [h]
        leads.append(lh)
        excess.append(xh)
        entries.append(entry)

    for g in gens:
        add_entry(red.entry(g), g.degree())

    processed = zero = 0
    while heap:
        s, L, i, j = heapq.heappop(heap)
        if pending.pop((i, j), None) is None:
            continue
        processed += 1
        r = red.raw_remainder(red.spair_seeds(i, j, L))
        if r:
            add_entry(red.monic_entry(r), s)
        else:
            zero += 1

    basis = red.reduced_basis()
    stats = {"pairs_processed": processed, "zero_reductions": zero}
    return tuple([g.terms for g in basis]), stats


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

    @cached_property
    def algebra(self):
        """The scheme's one `QuotientAlgebra`, with its memoised operators."""
        return QuotientAlgebra(self)


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
        m = pack(exp)
        if all((m - lead) & red.guard for lead, _, _ in red.entries):
            std.append((m, exp))
    std.sort()
    return ZeroDimScheme(gb, [exp for _, exp in std])


class QuotientAlgebra:
    """Linear algebra on R/I for a zero-dimensional ideal; one per scheme
    (`ZeroDimScheme.algebra`).

    The public vectors (`nf_coeffs`, `raw_coeffs`) hold CycloElems.
    Underneath, NF(m * p) for the standard monomials m comes raw from
    the reduction kernel, p packed once, and the elimination runs on
    `linalg`'s raw Z[e] rows (docs/DECISIONS.md D9, D16): a vector is a
    list of integer 4-tuples, and the multiplication operator of p is
    integer columns and sparse rows over one denominator L, read from the
    raw remainders.  Spans (`supported_length`, `generates_whole`) ignore
    scale; `krylov` tracks the rational scale of each power vector, so its
    minimal polynomial and `solve_in_krylov` are exact.  CycloElems are
    built only where vectors leave: the eliminant, the Krylov coordinates
    and the public vectors.

    Operators, Krylov results and stable images are memoised by the
    polynomial's terms for the life of the algebra, so a chart's pieces
    and strata that ask about the same coordinate build its operator
    once.  A stable image takes as many echelon passes as the nilpotency
    index of its operator when that index is known for free: at most 1
    on a reduced scheme, else the order at t = 0 of a minimal polynomial
    that `krylov` has already found.  Only the last chart's scheme has
    such polynomials from `singcert`, the eliminants of its radical;
    every other chart takes no radical, its piece ideal does (D30).
    Otherwise the passes run until the rank holds (docs/DECISIONS.md
    D28).
    """

    def __init__(self, scheme: ZeroDimScheme):
        self.scheme = scheme
        self.ring = scheme.ring
        self.basis = scheme.std_monomials
        self.index = {m: i for i, m in enumerate(self.basis)}
        red = self._red = scheme.gb.reducers()
        self._packed = [pack(m) for m in self.basis]
        self._position = {m: i for i, m in enumerate(self._packed)}
        self._operators = {}  # p.terms -> (columns, rows, rational)
        self._krylov = {}  # p.terms -> (minimal polynomial, Krylov rows)
        self._stable = {}  # p.terms -> rows of the stable image of mult-by-p

    def raw_nf(self, p: Poly):
        """NF(p) as a raw remainder (`Reducers.raw_remainder`)."""
        D, terms = self._red.packed(p.terms)
        return self._red.raw_remainder([(0, _ONE, D, terms)])

    def raw_nf_products(self, products):
        """Raw NF of the sum of sign * f * g over (sign, f, g), f and g
        packed as `common_denominator` packs a raw remainder."""
        return self._red.raw_remainder(_product_seeds(products, self._red.one))

    def nf_coeffs(self, p: Poly):
        """Dense coefficient vector of NF(p) on the standard monomials."""
        return self.raw_coeffs(self.raw_nf(p))

    def raw_coeffs(self, rem):
        """Dense coefficient vector of a raw remainder."""
        v = [ZERO] * len(self.basis)
        position = self._position
        for m, c, d in rem:
            v[position[m]] = _raw(c, d)
        return v

    def _dense(self, rem, L):
        """Integer vector of L times a raw remainder, L a common multiple
        of its denominators."""
        v = [_ZERO4] * len(self.basis)
        position = self._position
        for m, c, d in rem:
            v[position[m]] = c if d == L else tuple([x * (L // d) for x in c])
        return v

    def _products(self, p: Poly):
        """Raw NF(m * p) for each standard monomial m: the packed terms of
        NF(p), which has p's multiplication map, shifted by m seed the
        kernel, so an unreduced p is reduced once, not once per m."""
        red = self._red
        D, ps = common_denominator(self.raw_nf(p))
        return [red.raw_remainder([(m - red.one, _ONE, D, ps)]) for m in self._packed]

    def _operator(self, p: Poly):
        """Multiplication by p as (columns, rows, rational), up to the one
        scale L, the lcm of its denominators: integer 4-tuples, the columns
        dense and the rows sparse [(j, n), ...], and whether every entry
        is rational, which picks `_apply`'s loop."""
        op = self._operators.get(p.terms)
        if op is None:
            rems = self._products(p)
            L = lcm(1, *[d for rem in rems for _, _, d in rem])
            cols = [self._dense(rem, L) for rem in rems]
            rows = [[] for _ in self.basis]
            rational = True
            for j, col in enumerate(cols):
                for i, x in enumerate(col):
                    if x != _ZERO4:
                        rows[i].append((j, x))
                        if x[1] or x[2] or x[3]:
                            rational = False
            op = self._operators[p.terms] = (cols, rows, rational)
        return op

    def _nilpotency_index(self, p: Poly):
        """A k with p^k A the stable image, when one is known without
        work: 1 on a reduced scheme, where mult-by-p has no nilpotent
        part, else the least, the order at t = 0 of p's minimal polynomial
        t^k r(t), r(0) != 0, if `krylov(p)` has run; None otherwise.  As
        1 generates A, that minimal polynomial is the one of mult-by-p,
        so A is ker p^k (+) p^k A (docs/DECISIONS.md D28)."""
        if self.scheme.is_radical:
            return 1
        kr = self._krylov.get(p.terms)
        if kr is None:
            return None
        return next(k for k, c in enumerate(kr[0]) if c)

    def _stable_image(self, p: Poly):
        """Echelon vectors spanning the stable image of mult-by-p: the
        image of p^k, k the nilpotency index when it is known
        (`_nilpotency_index`), else of the first power whose rank the next
        power keeps."""
        image = self._stable.get(p.terms)
        if image is None:
            cols, op, rational = self._operator(p)

            def times_p(rows):
                return _echelon(_apply(op, r, rational) for _, _, r, _ in rows)

            rows = _echelon(cols)
            k = self._nilpotency_index(p)
            if k is not None:
                for _ in range(k - 1):
                    rows = times_p(rows)
            else:
                while True:  # p^(j+1) A inside p^j A: stable once the rank holds
                    nxt = times_p(rows)
                    if len(nxt) == len(rows):
                        break
                    rows = nxt
            image = self._stable[p.terms] = tuple([r for _, _, r, _ in rows])
        return image

    def generates_whole(self, vectors):
        """Do elements with these NF vectors generate R/I as an ideal?

        Their ideal is the closure of span{v} under the multiplication
        operators of the variables, found by exact elimination with no
        random choices.  True means V(I + (elements)) is empty.
        """
        ops = [self._operator(v) for v in self.ring.gens()]
        rows = []
        pending = [_int_vector(v)[0] for v in vectors]
        while pending and len(rows) < len(self.basis):
            red = _echelon_add(rows, pending.pop())
            if red is not None:
                pending.extend(_apply(op, red, rational) for _, op, rational in ops)
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
            for r in self._stable_image(g):
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
        tracked alongside.  The next power is NF(p * W), W the element
        with coefficients w: p's packed terms, packed once, seed the
        reduction kernel with w's nonzero entries as raw numerators, so w
        itself is never reduced.  An echelon row keeps the nonzero entries
        of a vector and of its combo, with vector = sum(combo[j] * p^j mod I).
        The result is memoised by p's terms, and its minimal polynomial
        gives `_stable_image` the nilpotency index of mult-by-p.
        """
        kr = self._krylov.get(p.terms)
        if kr is None:
            kr = self._krylov[p.terms] = self._run_krylov(p)
        return kr

    def _run_krylov(self, p: Poly):
        n = len(self.basis)
        red = self._red
        Dp, ps = red.packed(p.terms, red.one)
        w = [_ZERO4] * n
        zero_mono = (0,) * self.ring.nvars
        if zero_mono in self.index:
            w[self.index[zero_mono]] = (1, 0, 0, 0)
        s = Fraction(1)
        rows = []
        for _ in range(n + 1):
            r, combo, f = _reduce_tracked(w, rows)
            # r = f * s * p^k - sum(combo[j] * p^j)
            fs = f * s
            num, den = fs.numerator, fs.denominator
            piv = _pivot(r)
            if piv is None:
                # dependency: p^k = sum(combo[j] / fs * p^j)
                return [canon(tuple([-x * den for x in c]), num) for c in combo] + [
                    ONE
                ], rows
            # den * r = num * p^k - sum(den * combo[j] * p^j)
            both = [tuple([x * den for x in t]) for t in r] + [
                tuple([-x * den for x in c]) for c in combo
            ]
            both.append((num, 0, 0, 0))
            both = _normalised(both, piv)
            rows.append((piv, both[piv][0], _nonzero(both[:n]), _nonzero(both[n:])))
            wt = [(m, x) for m, x in zip(self._packed, w) if x != _ZERO4]
            rem = red.raw_remainder([(a, c, Dp, wt) for a, c in ps])
            D = lcm(1, *[d for _, _, d in rem])
            w, g = _primitive(self._dense(rem, D))
            s = s * D / g if g else s
        raise AssertionError("Krylov iteration failed to terminate")

    def solve_in_krylov(self, vec, rows):
        """Combination coefficients expressing vec in the Krylov powers."""
        u, D = _int_vector(vec)
        r, combo, f = _reduce_tracked(u, rows)
        if _pivot(r) is not None:
            return None
        # f * D * vec = sum(combo[j] * p^j), up to the last row used
        while len(combo) > 1 and combo[-1] == _ZERO4:
            combo.pop()
        return [canon(c, f * D) for c in combo] or [ZERO]


def eliminant(scheme: ZeroDimScheme, p: Poly):
    """Monic generator of I intersect K[p] (the eliminant of p)."""
    mp, _ = scheme.algebra.krylov(p)
    return mp


def radical_zero_dim(scheme: ZeroDimScheme) -> ZeroDimScheme:
    """Seidenberg radical: adjoin squarefree parts of every eliminant."""
    if scheme.is_radical:
        return scheme
    if scheme.degree == 0:
        return scheme
    ring = scheme.ring
    extra = []
    for i, var in enumerate(ring.vars):
        g = eliminant(scheme, ring.var(var))
        h = unipoly.squarefree_part(g, QZ5)
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
        if not c:
            continue
        e = [0] * ring.nvars
        e[var_index] = k
        terms.append((tuple(e), c))
    return ring.from_terms(terms)


# ---------------------------------------------------------------------------
# point extraction


class ShapePositionError(Exception):
    pass


class NonRationalResidual(Exception):
    """Points of a scheme that are not Q(zeta5)-rational: a factor of
    this degree of the separating eliminant has no root in Q(zeta5)."""

    def __init__(self, degree):
        super().__init__(
            "%d point(s) of the scheme are not Q(zeta5)-rational" % degree
        )
        self.degree = degree


def extract_points(scheme: ZeroDimScheme, known_points=()):
    """All points of a radical zero-dimensional scheme over Q(zeta5), as
    tuples of affine coordinates (one per ring variable).

    Shape position: a separating linear form t is found (single variables
    first, then t_c = x_{n-1} + c x_0 + c^2 x_1 + ... + c^{n-1} x_{n-2} for
    c = 1, 2, ..., of which at most (n-1) C(N, 2) fail on N points,
    docs/DECISIONS.md D21); the triangular description
    {g(t), x_i - h_i(t)} is realized through the Krylov iteration, known
    rational points are peeled off g, and the remaining Q(zeta5)-rational
    roots are resolved by `modp.rational_roots`; every point is checked
    to lie on the scheme.  Raises NonRationalResidual(d) when a factor of
    g of degree d > 1 has no root left in Q(zeta5) (docs/DECISIONS.md
    D17); otherwise one point per unit of the scheme degree is returned.
    """
    from .modp import rational_roots

    scheme = radical_zero_dim(scheme)
    if scheme.degree == 0:
        return []
    ring = scheme.ring
    n = ring.nvars
    alg = scheme.algebra
    xs = [ring.var(v) for v in ring.vars]
    tries = (n - 1) * comb(scheme.degree, 2) + 1

    def candidates():
        yield from reversed(xs)
        for c in range(1, tries + 1):
            yield ring.linear_form([c ** (i + 1) for i in range(n - 1)] + [1])

    for lam in candidates():
        g, rows = alg.krylov(lam)
        if len(g) - 1 == scheme.degree:
            break
    else:
        raise ShapePositionError(
            "no separating linear form among the %d forms t_c" % tries
        )

    params = []
    for x in xs:
        h = alg.solve_in_krylov(alg.nf_coeffs(x), rows)
        if h is None:
            raise ShapePositionError("variable not in the Krylov span")
        params.append(h)

    out = []
    gb_polys = scheme.gb.polys

    def in_scheme(coords):
        return all(not p.eval(list(coords)) for p in gb_polys)

    # peel known rational points
    for p in known_points:
        coords = tuple(map(as_cyclo, p))
        if not in_scheme(coords):
            continue
        t0 = lam.eval(list(coords))
        g2 = unipoly.peel_root(g, t0, QZ5)
        if g2 is None:
            continue
        g = g2
        out.append(coords)

    # resolve the remaining rational roots
    roots, residual = rational_roots(g)
    for t0 in roots:
        coords = tuple(unipoly.eval_poly(h, t0, QZ5) for h in params)
        if not in_scheme(coords):
            raise AssertionError("root %s of the eliminant is no point" % t0)
        out.append(coords)
    if len(residual) > 1:
        raise NonRationalResidual(len(residual) - 1)

    if len(out) != scheme.degree:
        raise AssertionError(
            "extracted degree %d != scheme degree %d" % (len(out), scheme.degree)
        )
    return out
