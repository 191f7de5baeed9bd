"""Dynamic triangular extensions of Q(zeta5) (D5-style evaluation).

A tower is a sequence of levels (name, minpoly); each minpoly is monic,
squarefree and univariate over the sub-tower below it.  Minpolys need not
be irreducible: the tower then represents a product of fields, and any
attempt to invert a zero divisor raises SplitEvent carrying refined
towers whose defining polynomials multiply to the original one.

Element representation: a depth-k element is a tuple of depth-(k-1)
elements of length deg(minpoly at level k-1); depth-0 elements are
CycloElem.  Representatives are always fully reduced, so an element is
zero in every branch iff its representative is the zero tuple.

No other module imports this one: every ring, point and matrix of the
pipeline is over Q(zeta5) (docs/DECISIONS.md D17).  The towers stay for
the dynamic-split property of acceptance criterion 9.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclofield import CycloElem
from .multipoly import QZ5
from . import unipoly


class SplitEvent(Exception):
    """A defining polynomial factored; carries the refined branch towers."""

    def __init__(self, branches, level, reason=""):
        super().__init__(
            "tower split at level %d%s" % (level, ": " + reason if reason else "")
        )
        self.branches = branches
        self.level = level


class TowerContext:
    """Field context for a (possibly split) triangular tower over Q(zeta5)."""

    def __init__(self, levels=()):
        self.levels = tuple(levels)
        self.name = "QQ(zeta5)" + "".join("[%s]" % nm for nm, _ in self.levels)
        # cached zero/one representatives per depth
        zs, os = [QZ5.zero], [QZ5.one]
        for _, mp in self.levels:
            d = len(mp) - 1
            zs.append((zs[-1],) * d)
            os.append((os[-1],) + (zs[-2],) * (d - 1))
        self._zeros = zs
        self._ones = os
        self.zero = zs[-1]
        self.one = os[-1]
        self._subs = [None] * (len(self.levels) + 1)

    # -- structure -----------------------------------------------------------

    @property
    def depth(self):
        return len(self.levels)

    def degree(self, k=None):
        if k is None:
            k = self.depth
        d = 1
        for _, mp in self.levels[:k]:
            d *= len(mp) - 1
        return d

    def level_degree(self, k):
        return len(self.levels[k][1]) - 1

    def sub_context(self, k):
        if k >= self.depth:
            return self
        if self._subs[k] is None:
            self._subs[k] = TowerContext(self.levels[:k])
        return self._subs[k]

    def adjoin(self, name, minpoly):
        """New tower with one more level over this one.

        minpoly: list of elements of this tower, monic and squarefree.
        """
        mp = tuple(minpoly)
        if len(mp) < 2:
            raise ValueError("defining polynomial must have degree >= 1")
        if not self.eq(mp[-1], self.one):
            raise ValueError("defining polynomial must be monic")
        try:
            g = unipoly.gcd_monic(
                list(mp), unipoly.derivative(list(mp), self), self
            )
            squarefree = unipoly.deg(g, self) == 0
        except SplitEvent:
            squarefree = True  # finer branches may refine later
        if not squarefree:
            raise ValueError("defining polynomial must be squarefree")
        return TowerContext(self.levels + ((name, mp),))

    def gen(self, k=None):
        """Generator element of level k (default: the top level)."""
        if k is None:
            k = self.depth - 1
        if k < 0:
            raise ValueError("the base field has no tower generator")
        d = self.level_degree(k)
        if d == 1:
            # linear level: the generator equals -mp[0]
            rep = self.sub_context(k).neg(self.levels[k][1][0])
            rep = (rep,)
        else:
            rep = (self._zeros[k], self._ones[k]) + (self._zeros[k],) * (d - 2)
        for j in range(k + 1, self.depth):
            rep = (rep,) + (self._zeros[j],) * (self.level_degree(j) - 1)
        return rep

    # -- coercion and re-reduction ---------------------------------------------------

    def coerce(self, x):
        if isinstance(x, tuple):
            return x  # assumed a valid representative of this tower
        if isinstance(x, int):
            c = CycloElem.from_int(x)
        elif isinstance(x, CycloElem):
            c = x
        elif isinstance(x, Fraction):
            c = CycloElem.from_rat(x)
        else:
            raise TypeError("cannot coerce %r into %s" % (x, self.name))
        rep = c
        for j in range(self.depth):
            rep = (rep,) + (self._zeros[j],) * (self.level_degree(j) - 1)
        return rep

    def _transport(self, rep, k):
        """Re-reduce a depth-k representative from a coarser same-shape
        tower: the splitting code moves the upper levels' minpolys with it."""
        if k == 0:
            return rep
        sub = k - 1
        subctx = self.sub_context(sub)
        coeffs = [self._transport(c, sub) for c in rep]
        _, r = unipoly.divmod_poly(coeffs, list(self.levels[sub][1]), subctx)
        return self._pad(r, sub)

    def _pad(self, coeffs, k):
        d = self.level_degree(k)
        cs = list(coeffs)
        while len(cs) < d:
            cs.append(self._zeros[k])
        return tuple(cs[:d])

    # -- predicates ---------------------------------------------------------------

    def is_zero(self, a):
        return self._is_zero(a, self.depth)

    def _is_zero(self, a, k):
        if k == 0:
            return a.is_zero
        return all(self._is_zero(c, k - 1) for c in a)

    def eq(self, a, b):
        return self.is_zero(self.sub(a, b))

    # -- arithmetic -----------------------------------------------------------------

    def add(self, a, b):
        return self._add(a, b, self.depth)

    def _add(self, a, b, k):
        if k == 0:
            return a + b
        return tuple(self._add(x, y, k - 1) for x, y in zip(a, b))

    def sub(self, a, b):
        return self._sub(a, b, self.depth)

    def _sub(self, a, b, k):
        if k == 0:
            return a - b
        return tuple(self._sub(x, y, k - 1) for x, y in zip(a, b))

    def neg(self, a):
        return self._neg(a, self.depth)

    def _neg(self, a, k):
        if k == 0:
            return -a
        return tuple(self._neg(x, k - 1) for x in a)

    def mul(self, a, b):
        return self._mul(a, b, self.depth)

    def _mul(self, a, b, k):
        if k == 0:
            return a * b
        sub = k - 1
        d = len(a)
        conv = [self._zeros[sub]] * (2 * d - 1)
        for i, x in enumerate(a):
            if self._is_zero(x, sub):
                continue
            for j, y in enumerate(b):
                if not self._is_zero(y, sub):
                    conv[i + j] = self._add(conv[i + j], self._mul(x, y, sub), sub)
        mp = self.levels[sub][1]
        for i in range(2 * d - 2, d - 1, -1):
            c = conv[i]
            if self._is_zero(c, sub):
                continue
            conv[i] = self._zeros[sub]
            for j in range(d):
                if not self._is_zero(mp[j], sub):
                    conv[i - d + j] = self._sub(
                        conv[i - d + j], self._mul(c, mp[j], sub), sub
                    )
        return tuple(conv[:d])

    def scale_rat(self, a, r):
        return self._scale_rat(a, r, self.depth)

    def _scale_rat(self, a, r, k):
        if k == 0:
            return a * r
        return tuple(self._scale_rat(x, r, k - 1) for x in a)

    # -- inversion with dynamic splitting ---------------------------------------------

    def inv(self, a):
        return self._inv_at(a, self.depth)

    def _inv_at(self, a, k):
        if k == 0:
            return a.inverse()
        sub = k - 1
        subctx = self.sub_context(sub)
        try:
            A = unipoly.trim(list(a), subctx)
            if not A:
                raise ZeroDivisionError("inverse of zero in %s" % self.name)
            mp = list(self.levels[sub][1])
            r_prev, r_cur = mp, A
            s_prev, s_cur = [], [subctx.one]
            while True:
                d_cur = unipoly.deg(r_cur, subctx)
                if d_cur < 0:
                    g = unipoly.monic(r_prev, subctx)
                    self._raise_split(sub, g)
                if d_cur == 0:
                    break
                q, r_next = unipoly.divmod_poly(r_prev, r_cur, subctx)
                s_next = unipoly.sub(s_prev, unipoly.mul(q, s_cur, subctx), subctx)
                r_prev, r_cur = r_cur, r_next
                s_prev, s_cur = s_cur, s_next
            const_inv = subctx.inv(r_cur[0])
            inv_rep = unipoly.scale(s_cur, const_inv, subctx)
            _, inv_rep = unipoly.divmod_poly(inv_rep, mp, subctx)
            return self._pad(inv_rep, sub)
        except SplitEvent as ev:
            self._bubble(ev)

    def _raise_split(self, level, g):
        """Split levels[level]'s minpoly as g * (minpoly // g)."""
        subctx = self.sub_context(level)
        mp = list(self.levels[level][1])
        q, r = unipoly.divmod_poly(mp, g, subctx)
        if unipoly.deg(r, subctx) >= 0:
            raise AssertionError("split factor does not divide the minpoly")
        q = unipoly.monic(q, subctx)
        if unipoly.deg(g, subctx) == 0 or unipoly.deg(q, subctx) == 0:
            raise AssertionError("trivial split factor")
        b1 = self._with_level_minpoly(level, g)
        b2 = self._with_level_minpoly(level, q)
        raise SplitEvent([b1, b2], level)

    def _with_level_minpoly(self, level, mp):
        name = self.levels[level][0]
        ctx = TowerContext(
            self.levels[:level] + ((name, tuple(mp)),)
        )
        for j in range(level + 1, self.depth):
            nm, old_mp = self.levels[j]
            moved = tuple(ctx._transport(c, j) for c in old_mp)
            ctx = TowerContext(ctx.levels + ((nm, moved),))
        return ctx

    def _bubble(self, ev: SplitEvent):
        """Re-raise a split from a sub-tower with full-depth branch towers."""
        if ev.branches and ev.branches[0].depth == self.depth:
            raise ev
        out = []
        for b in ev.branches:
            ctx = b
            for j in range(b.depth, self.depth):
                nm, old_mp = self.levels[j]
                moved = tuple(ctx._transport(c, j) for c in old_mp)
                ctx = TowerContext(ctx.levels + ((nm, moved),))
            out.append(ctx)
        raise SplitEvent(out, ev.level)

    # -- display -------------------------------------------------------------------------

    def to_str(self, a):
        return self._to_str(a, self.depth)

    def _to_str(self, a, k):
        if k == 0:
            from .cyclofield import cyclo_to_str

            return cyclo_to_str(a)
        name = self.levels[k - 1][0]
        parts = []
        for i, c in enumerate(a):
            if self._is_zero(c, k - 1):
                continue
            cs = self._to_str(c, k - 1)
            if i == 0:
                parts.append(cs)
                continue
            mono = name if i == 1 else "%s^%d" % (name, i)
            if cs == "1":
                parts.append(mono)
            else:
                wrap = "(%s)" % cs if ("+" in cs[1:] or "-" in cs[1:]) else cs
                parts.append("%s*%s" % (wrap, mono))
        if not parts:
            return "0"
        out = parts[0]
        for p in parts[1:]:
            out += "-" + p[1:] if p.startswith("-") else "+" + p
        return out

    def __repr__(self):
        return "TowerContext(%s)" % self.name


BASE_TOWER = TowerContext(())


def ext_invert_or_split(ctx: TowerContext, a):
    """Inverse of a valid in the whole tower, or the SplitEvent refining it.

    Raises ZeroDivisionError when a is identically zero.
    """
    if ctx.is_zero(a):
        raise ZeroDivisionError("element is identically zero")
    try:
        return ctx.inv(a)
    except SplitEvent as ev:
        return ev
