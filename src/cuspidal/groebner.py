"""Buchberger engine and zero-dimensional scheme toolkit.

The basis is computed with sugar-strategy pair selection and both
Buchberger criteria; basis elements are kept monic so reduction never
divides.  Every reduction is heap division on packed monomials
(``TermOrder.pack``) inside one kernel, ``Reducers.remainder``: a basis
is packed once (``GroebnerBasis.reducers``, or grown with the basis
inside ``buchberger``) and pairs are popped from a heap keyed on (sugar,
packed lcm, i, j) (docs/DECISIONS.md D6).  The kernel runs over
Q(zeta5) only, on raw integer numerators brought to lowest terms once
per popped monomial (D7); a ring over any other field context raises
TypeError.  It is seeded straight from packed terms (D8): a polynomial,
an S-pair from the two packed tails, a sum of products term by term, or
a basis tail, so no tuple polynomial is built only to be packed again.
The reduced basis comes from the minimal basis by one tail-reduction
pass.  Polynomials keep exponent tuples; packing lives only in the
kernel's seeds, the pair queue and the standard-monomial scan.
Zero-dimensional ideals get: standard monomials and degree, eliminants
by Krylov iteration on the quotient, Seidenberg radicals, and point
extraction in shape position, where the points that are not
Q(zeta5)-rational become dynamic extension-tower branches;
Q(zeta5)-rational points are resolved out of branches by the verified
mod-p lifting in modp.
"""

from __future__ import annotations

import heapq
import itertools
from math import lcm

from . import unipoly
from .cyclofield import canon, phi5_mul
from .extfield import BASE_TOWER, TowerContext
from .modp import roots_in_qz5
from .multipoly import (
    QZ5,
    Poly,
    mono_deg,
    mono_div,
    mono_lcm,
    mono_mul,
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
    nc * n is the `phi5_mul` product of two numerator 4-tuples.

    The products share the denominator dv, so each adds componentwise to
    a raw coefficient over dv; one over another denominator is
    cross-multiplied (docs/DECISIONS.md D7).
    """
    get = coeffs.get
    for t, tn in terms:
        p = base + t
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
        a max-heap.  The largest monomial is popped and its raw
        coefficient brought to lowest terms once, by `canon`; if the first
        entry lead dividing it is l, c * m/l * tail is subtracted (the
        lead cancels by construction), else the term joins the remainder.
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
            c = canon((a0, a1, a2, a3), d)
            if m & guard:
                raise ValueError("exponent passes the slot bound during reduction")
            for lead, tail, D in entries:
                if not (m - lead) & guard:
                    _accumulate(coeffs, heap, m, (-c).n, c.d * D, tail)
                    break
            else:
                rem.append((m, c))
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


def mul_mono(f: Poly, mono) -> Poly:
    """f * x^mono (term order is multiplication-compatible)."""
    return Poly(f.ring, tuple((mono_mul(mono, e), c) for e, c in f.terms))


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


def is_member(f: Poly, gb) -> bool:
    return normal_form(f, gb).is_zero


def spoly(f: Poly, g: Poly) -> Poly:
    """S-polynomial of two monic polynomials (the reference for
    `Reducers.spair_remainder`)."""
    lf, lg = f.lm(), g.lm()
    L = mono_lcm(lf, lg)
    return mul_mono(f, mono_div(L, lf)) - mul_mono(g, mono_div(L, lg))


def buchberger(gens, ring=None) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by gens.

    Pairs are taken in order of (sugar, lcm of the leads, indices) from a
    heap; the product and chain criteria skip pairs, and the chain
    criterion tests divisibility on the packed leads.  Each S-pair is
    reduced from the two packed tails; the result is
    `Reducers.reduced_basis` of the basis grown.
    """
    gens = [g for g in gens if isinstance(g, Poly) and not g.is_zero]
    if ring is None:
        if not gens:
            raise ValueError("cannot infer ring from empty generator list")
        ring = gens[0].ring
    if not gens:
        return GroebnerBasis(ring, ())
    pack = ring.order.pack
    gens = sorted(
        (g.monic() for g in gens),
        key=lambda g: pack(g.lm()),
    )
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
    return GroebnerBasis(
        ring, basis, stats={"pairs_processed": processed, "size": len(basis)}
    )


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


class QuotientAlgebra:
    """Linear algebra on R/I for a zero-dimensional ideal."""

    def __init__(self, scheme: ZeroDimScheme):
        self.scheme = scheme
        self.ring = scheme.ring
        self.field = scheme.ring.field
        self.basis = scheme.std_monomials
        self.index = {m: i for i, m in enumerate(self.basis)}
        self._var_columns = None

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

    def mult_columns(self, p: Poly):
        """Columns of the multiplication-by-p operator."""
        ring, one = self.ring, self.field.one
        return [
            self.coeffs(self.nf_products([(1, Poly(ring, ((m, one),)), p)]))
            for m in self.basis
        ]

    def apply_columns(self, cols, vec):
        f = self.field
        n = len(self.basis)
        out = [f.zero] * n
        for j, vj in enumerate(vec):
            if f.is_zero(vj):
                continue
            col = cols[j]
            for i in range(n):
                if not f.is_zero(col[i]):
                    out[i] = f.add(out[i], f.mul(col[i], vj))
        return out

    def one_vector(self):
        v = [self.field.zero] * len(self.basis)
        zero_mono = (0,) * self.ring.nvars
        if zero_mono in self.index:
            v[self.index[zero_mono]] = self.field.one
        return v

    def generates_whole(self, vectors):
        """Do elements with these NF vectors generate R/I as an ideal?

        Their ideal is the closure of span{v} under the multiplication
        matrices of the variables, found by exact elimination with no
        random choices.  True means V(I + (elements)) is empty.
        """
        if self._var_columns is None:
            self._var_columns = [self.mult_columns(v) for v in self.ring.gens()]
        rows = []
        pending = list(vectors)
        while pending and len(rows) < len(self.basis):
            red = self._echelon_add(rows, pending.pop())
            if red is not None:
                pending.extend(self.apply_columns(c, red) for c in self._var_columns)
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
            cols = self.mult_columns(g)
            image = self._echelon(cols)
            while True:  # g^(k+1) A inside g^k A: stable once the rank holds
                nxt = self._echelon(self.apply_columns(cols, r) for _, r, _ in image)
                if len(nxt) == len(image):
                    break
                image = nxt
            for _, r, _ in image:
                self._echelon_add(rows, r)
            if len(rows) == n:
                break
        return n - len(rows)

    def _echelon(self, vectors):
        rows = []
        for v in vectors:
            self._echelon_add(rows, v)
        return rows

    def _echelon_add(self, rows, v):
        """Reduce v against the echelon rows (pivot, row, ()); append and
        return the normalised remainder, or None if v lies in their span."""
        f = self.field
        red, _ = self._reduce_against(v, (), rows)
        piv = self._pivot(red)
        if piv is None:
            return None
        inv = f.inv(red[piv])
        red = [f.mul(x, inv) for x in red]
        rows.append((piv, red, ()))
        return red

    def krylov(self, p: Poly):
        """Minimal polynomial of mult-by-p on the cyclic module generated
        by 1 (== the monic generator of I intersect K[p]).

        Returns (minpoly_coeffs, power_vectors, echelon) so shape-position
        parameterization can reuse the iteration.
        """
        f = self.field
        cols = self.mult_columns(p)
        vecs = []
        rows = []  # list of (vector, combo) in echelon form
        v = self.one_vector()
        step = 0
        while True:
            combo = [f.zero] * (step + 1)
            combo[step] = f.one
            red, combo_red = self._reduce_against(v, combo, rows)
            piv = self._pivot(red)
            if piv is None:
                # dependency: minpoly coefficients = combo_red
                return combo_red, vecs, rows
            inv = f.inv(red[piv])
            red = [f.mul(x, inv) for x in red]
            combo_red = [f.mul(x, inv) for x in combo_red]
            rows.append((piv, red, combo_red))
            vecs.append(v)
            v = self.apply_columns(cols, v)
            step += 1
            if step > len(self.basis) + 1:
                raise AssertionError("Krylov iteration failed to terminate")

    def _pivot(self, v):
        for i, x in enumerate(v):
            if not self.field.is_zero(x):
                return i
        return None

    def _reduce_against(self, v, combo, rows):
        f = self.field
        v = list(v)
        combo = list(combo)
        for piv, rv, rc in rows:
            c = v[piv]
            if f.is_zero(c):
                continue
            for i in range(len(v)):
                if not f.is_zero(rv[i]):
                    v[i] = f.sub(v[i], f.mul(c, rv[i]))
            for i in range(len(rc)):
                if not f.is_zero(rc[i]):
                    if i >= len(combo):
                        combo.extend([f.zero] * (i + 1 - len(combo)))
                    combo[i] = f.sub(combo[i], f.mul(c, rc[i]))
        return v, combo

    def solve_in_krylov(self, vec, rows):
        """Combination coefficients expressing vec in the Krylov powers."""
        f = self.field
        red, combo = self._reduce_against(vec, [f.zero], rows)
        if self._pivot(red) is not None:
            return None
        return [f.neg(c) for c in combo]


def eliminant(scheme: ZeroDimScheme, p: Poly):
    """Monic generator of I intersect K[p] (the eliminant of p)."""
    alg = QuotientAlgebra(scheme)
    mp, _, _ = alg.krylov(p)
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
        mp, vecs, rws = alg.krylov(cand)
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
