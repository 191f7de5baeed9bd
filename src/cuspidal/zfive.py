"""The Z5 actions a_k : (x,y,z,w) -> e^k (x, y e, z e^2, w e^3) on P^3.

Projectively all five a_k coincide with the diagonal action
diag(1, e, e^2, e^3), whose full fixed locus consists of the four
coordinate points (distinct eigenvalues).  A monomial x^a y^b z^c w^d
is scaled by e^r with r = (k*(a+b+c+d) + b + 2c + 3d) mod 5; a polynomial
is a_k-invariant iff every monomial has residue 0.

A general linear action (used for the permutation action on the
Van der Geer-Zagier surfaces) is supported through LinearAction.

Every orbit in the package is walked here: orbit(x, step) follows one
element round its cycle, and orbits(items, step, same) partitions a list
(cusps, tropes, lines) into orbits in walk order.  A walk that leaves
the list simply ends its orbit; the callers' orbit-size checks then
reject the list (docs/DECISIONS.md D11).
"""

from __future__ import annotations

import operator
from itertools import combinations_with_replacement

from .cyclofield import CycloElem
from .linalg import kernel_basis
from .multipoly import Poly, ProjPoint, QZ5, Ring


def weight_residue(exp, k: int) -> int:
    """Character exponent of a_k on the monomial with exponents exp."""
    a, b, c, d = exp
    return (k * (a + b + c + d) + b + 2 * c + 3 * d) % 5


class ActionK:
    """One of the five diagonal actions a_k, k = 0..4."""

    def __init__(self, k: int):
        if not 0 <= k <= 4:
            raise ValueError("k must be in 0..4")
        self.k = k

    def __repr__(self):
        return "ActionK(%d)" % self.k

    def scales(self):
        """Per-coordinate scaling factors (e^k, e^(k+1), e^(k+2), e^(k+3))."""
        return tuple(CycloElem.e_power(self.k + i) for i in range(4))

    def on_point(self, p: ProjPoint) -> ProjPoint:
        f = p.field
        s = self.scales()
        return ProjPoint(
            [f.mul(c, f.coerce(si)) for c, si in zip(p.coords, s)], field=f
        )

    def on_poly(self, p: Poly) -> Poly:
        """Substitute coordinates by their images (F composed with a_k)."""
        f = p.ring.field
        out = []
        for e, c in p.terms:
            r = weight_residue(e, self.k)
            out.append((e, f.mul(c, f.coerce(CycloElem.e_power(r)))))
        return p.ring.from_terms(out)

    def is_invariant(self, p: Poly) -> bool:
        return all(weight_residue(e, self.k) == 0 for e, _ in p.terms)

    def fixed_points(self):
        """Full projective fixed locus: the four coordinate points."""
        pts = []
        for i in range(4):
            coords = [0, 0, 0, 0]
            coords[i] = 1
            pts.append(ProjPoint(coords))
        return pts


def orbit(x, step):
    """[x, step(x), step(step(x)), ...] up to the first return to x."""
    out = [x]
    y = step(x)
    while y != x:
        out.append(y)
        y = step(y)
    return out


def orbits(items, step, same=operator.eq):
    """Partition items into orbits of step, in walk order.

    An orbit starts at the first remaining item and takes in the first
    remaining item that is same(item, image) to its last member's image;
    it ends when no remaining item matches.  So a walk that leaves items
    yields a short orbit, never an exception.
    """
    remaining = list(items)
    out = []
    while remaining:
        orb = [remaining.pop(0)]
        while True:
            image = step(orb[-1])
            hit = next(
                (i for i, x in enumerate(remaining) if same(x, image)), None
            )
            if hit is None:
                break
            orb.append(remaining.pop(hit))
        out.append(orb)
    return out


def degree_monomials(d: int):
    """All degree-d exponent tuples in four variables, descending degrevlex."""
    if d < 0:
        raise ValueError("degree must be non-negative")
    expos = []
    for combo in combinations_with_replacement(range(4), d):
        e = [0, 0, 0, 0]
        for i in combo:
            e[i] += 1
        expos.append(tuple(e))
    return sorted(
        expos, key=lambda e: (sum(e), tuple(-x for x in reversed(e))), reverse=True
    )


def invariant_basis(d: int, k: int, ring: Ring | None = None):
    """All degree-d monomials of a_k-residue 0, as exponent tuples.

    Deterministic order: descending degrevlex.  Pass a ring to get Poly
    generators instead of raw exponent tuples.
    """
    expos = [e for e in degree_monomials(d) if weight_residue(e, k) == 0]
    if ring is None:
        return expos
    return [Poly(ring, ((e, ring.field.one),)) for e in expos]


class FreeActionVerdict:
    def __init__(self, free: bool, offending):
        self.free = free
        self.offending = list(offending)

    def __repr__(self):
        if self.free:
            return "FreeActionVerdict(free)"
        return "FreeActionVerdict(fixed points on surface: %s)" % self.offending

    def to_json(self):
        return {
            "free": self.free,
            "fixed_points_on_surface": [repr(p) for p in self.offending],
        }


def free_action_check(F: Poly, action=None) -> FreeActionVerdict:
    """Check that no fixed point of the action lies on the surface F = 0."""
    if not F.is_homogeneous():
        raise ValueError("surface polynomial must be homogeneous")
    if action is None:
        action = ActionK(0)
    bad = []
    for p in action.fixed_points():
        v = F.eval(list(p.coords), field=p.field)
        if p.field.is_zero(v):
            bad.append(p)
    return FreeActionVerdict(not bad, bad)


class LinearAction:
    """A finite-order linear action given by a 4x4 matrix over Q(zeta5)."""

    def __init__(self, matrix, order: int):
        self.matrix = [[QZ5.coerce(v) for v in row] for row in matrix]
        self.order = order

    def on_point(self, p: ProjPoint) -> ProjPoint:
        f = p.field
        coords = []
        for row in self.matrix:
            acc = f.zero
            for a, c in zip(row, p.coords):
                acc = f.add(acc, f.mul(f.coerce(a), c))
            coords.append(acc)
        return ProjPoint(coords, field=f)

    def on_poly(self, p: Poly) -> Poly:
        """F(M x): substitute each variable by the corresponding row form."""
        units = [g.lm() for g in p.ring.gens()]
        forms = [p.ring.from_terms(zip(units, row)) for row in self.matrix]
        return p.subs(dict(enumerate(forms)))

    def is_invariant(self, p: Poly) -> bool:
        return self.on_poly(p) == p

    def fixed_points(self):
        """Eigenvector points (requires semisimple action, e.g. order 5).

        Raises ValueError on an eigenspace of dimension 2 or more: its
        whole projective line or plane is fixed, not just a basis of it.
        """
        pts = []
        for k in range(5):
            lam = CycloElem.e_power(k)
            m = [
                [
                    QZ5.sub(self.matrix[i][j], lam if i == j else QZ5.zero)
                    for j in range(4)
                ]
                for i in range(4)
            ]
            kernel = kernel_basis(m, QZ5)
            if len(kernel) > 1:
                raise ValueError(
                    "eigenvalue zeta^%d has a %d-dimensional eigenspace; its "
                    "fixed locus is not finite" % (k, len(kernel))
                )
            for v in kernel:
                if any(not QZ5.is_zero(c) for c in v):
                    pts.append(ProjPoint(v))
        # deduplicate projectively
        out = []
        for p in pts:
            if all(p != q for q in out):
                out.append(p)
        return out
