"""Buchberger engine and zero-dimensional scheme toolkit.

The basis is computed with sugar-strategy pair selection and both
Buchberger criteria, then autoreduced; basis elements are kept monic so
normal-form reduction never divides (over towers this confines splits to
basis construction).  Zero-dimensional ideals get: standard monomials and
degree, eliminants by Krylov iteration on the quotient, Seidenberg
radicals, and point extraction in shape position with dynamic extension
towers; Q(zeta5)-rational points are resolved out of branches by the
verified mod-p lifting in modp.
"""

from __future__ import annotations

import itertools

from . import unipoly
from .extfield import BASE_TOWER, TowerContext
from .modp import roots_in_qz5
from .multipoly import (
    Poly,
    mono_deg,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)


class GroebnerBasis:
    """Reduced Groebner basis: monic, autoreduced, deterministic order."""

    def __init__(self, ring, polys, stats=None):
        self.ring = ring
        self.polys = tuple(polys)
        self.stats = stats or {}

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self.polys)

    def __repr__(self):
        return "GroebnerBasis(%d elements)" % len(self.polys)

    def is_trivial(self):
        """True when the ideal is the whole ring (basis == {1})."""
        return len(self.polys) == 1 and mono_deg(self.polys[0].lm()) == 0


def mul_mono(f: Poly, mono, coeff=None) -> Poly:
    """f * coeff * x^mono (term order is multiplication-compatible)."""
    field = f.ring.field
    if coeff is None:
        return Poly(f.ring, tuple((mono_mul(mono, e), c) for e, c in f.terms))
    return Poly(
        f.ring,
        tuple((mono_mul(mono, e), field.mul(c, coeff)) for e, c in f.terms),
    )


def normal_form(f: Poly, gb) -> Poly:
    """Unique remainder of f modulo a monic basis (list or GroebnerBasis)."""
    basis = gb.polys if isinstance(gb, GroebnerBasis) else tuple(gb)
    ring = f.ring
    lead_info = [(g.lm(), g) for g in basis if not g.is_zero]
    rem = []
    h = f
    while not h.is_zero:
        hm, hc = h.lt()
        hit = None
        for lm, g in lead_info:
            if mono_divides(lm, hm):
                hit = (lm, g)
                break
        if hit is None:
            rem.append((hm, hc))
            h = Poly(ring, h.terms[1:])
        else:
            lm, g = hit
            h = h.sub_mul_mono(hc, mono_div(hm, lm), g)
    return Poly(ring, tuple(rem))


def is_member(f: Poly, gb) -> bool:
    return normal_form(f, gb).is_zero


def spoly(f: Poly, g: Poly) -> Poly:
    """S-polynomial of two monic polynomials."""
    lf, lg = f.lm(), g.lm()
    L = mono_lcm(lf, lg)
    return mul_mono(f, mono_div(L, lf)) - mul_mono(g, mono_div(L, lg))


def buchberger(gens, ring=None) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by gens."""
    gens = [g for g in gens if isinstance(g, Poly) and not g.is_zero]
    if ring is None:
        if not gens:
            raise ValueError("cannot infer ring from empty generator list")
        ring = gens[0].ring
    if not gens:
        return GroebnerBasis(ring, ())
    key = ring.order.key
    gens = sorted(
        (g.primitive().monic() for g in gens),
        key=lambda g: key(g.lm()),
    )
    G = []
    sugars = []
    pending = {}

    def add_poly(g, sugar):
        idx = len(G)
        G.append(g)
        sugars.append(sugar)
        for i in range(idx):
            if G[i] is None:
                continue
            L = mono_lcm(G[i].lm(), g.lm())
            s = max(
                sugars[i] + mono_deg(mono_div(L, G[i].lm())),
                sugar + mono_deg(mono_div(L, g.lm())),
            )
            pending[(i, idx)] = (s, key(L))

    for g in gens:
        add_poly(g, g.degree())

    processed = 0
    while pending:
        (i, j) = min(pending, key=lambda p: (pending[p][0], pending[p][1], p))
        del pending[(i, j)]
        f, g = G[i], G[j]
        if f is None or g is None:
            continue
        lf, lg = f.lm(), g.lm()
        L = mono_lcm(lf, lg)
        # product criterion
        if L == mono_mul(lf, lg):
            continue
        # chain criterion
        skip = False
        for k in range(len(G)):
            if k in (i, j) or G[k] is None:
                continue
            if mono_divides(G[k].lm(), L):
                a = (min(i, k), max(i, k))
                b = (min(j, k), max(j, k))
                if a not in pending and b not in pending:
                    skip = True
                    break
        if skip:
            continue
        processed += 1
        s = spoly(f, g)
        r = normal_form(s, [p for p in G if p is not None])
        if not r.is_zero:
            r = r.primitive().monic()
            sug = max(
                sugars[i] + mono_deg(mono_div(L, lf)),
                sugars[j] + mono_deg(mono_div(L, lg)),
            )
            add_poly(r, max(sug, r.degree()))

    basis = [g for g in G if g is not None]
    # autoreduction
    changed = True
    while changed:
        changed = False
        for i in range(len(basis)):
            others = [basis[k] for k in range(len(basis)) if k != i and basis[k]]
            r = normal_form(basis[i], others)
            if r.is_zero:
                basis[i] = None
                basis = [b for b in basis if b is not None]
                changed = True
                break
            r = r.primitive().monic()
            if r != basis[i]:
                basis[i] = r
                changed = True
    basis.sort(key=lambda g: key(g.lm()), reverse=True)
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
    std = []
    for exp in itertools.product(*(range(b) for b in bounds)):
        if not any(mono_divides(lm, exp) for lm in lms):
            std.append(exp)
    std.sort(key=ring.order.key)
    return ZeroDimScheme(gb, std)


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
            g = self.nf(g * g).primitive()
            k *= 2
        return g.is_zero

    def mult_columns(self, p: Poly):
        """Columns of the multiplication-by-p operator."""
        cols = []
        for m in self.basis:
            cols.append(self.nf_coeffs(mul_mono(p, m)))
        return cols

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
