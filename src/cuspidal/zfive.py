"""Z5 actions on P^3: LinearAction, a 4x4 matrix over Q(zeta5), is the
one action type (docs/DECISIONS.md D25).

ActionK(k) is the diagonal action a_k : (x,y,z,w) -> e^k (x, y e, z e^2,
w e^3).  Projectively all five a_k coincide with diag(1, e, e^2, e^3),
whose full fixed locus consists of the four coordinate points (distinct
eigenvalues).  A monomial is a_k-invariant iff the product of the
diagonal entries to its exponents is 1.  The permutation action on the
Van der Geer-Zagier surfaces is a LinearAction too.

Every orbit in the package is walked here: orbit(x, step) follows one
element round its cycle, and orbits(items, step, same) partitions a list
(cusps, tropes, lines) into orbits in walk order.  A walk that leaves
the list simply ends its orbit; the callers' orbit-size checks then
reject the list (docs/DECISIONS.md D11).
"""

from __future__ import annotations

import operator
from itertools import combinations_with_replacement
from math import prod

from .cyclofield import ONE, CycloElem, as_cyclo
from .linalg import kernel_basis
from .multipoly import Poly, ProjPoint, degrevlex_key


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
    return sorted(expos, key=degrevlex_key, reverse=True)


def invariant_basis(d: int, k: int):
    """All degree-d monomials that a_k fixes, as exponent tuples.

    Deterministic order: descending degrevlex.
    """
    diag = [row[i] for i, row in enumerate(ActionK(k).matrix)]
    powers = [[c**n for n in range(d + 1)] for c in diag]
    return [
        e
        for e in degree_monomials(d)
        if prod(p[n] for p, n in zip(powers, e)) == ONE
    ]


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


def free_action_check(F: Poly, action) -> FreeActionVerdict:
    """Check that no fixed point of the action lies on the surface F = 0."""
    if not F.is_homogeneous():
        raise ValueError("surface polynomial must be homogeneous")
    bad = [p for p in action.fixed_points() if not F.eval(list(p.coords))]
    return FreeActionVerdict(not bad, bad)


class LinearAction:
    """A finite-order linear action given by a 4x4 matrix over Q(zeta5)."""

    def __init__(self, matrix):
        self.matrix = [[as_cyclo(v) for v in row] for row in matrix]
        self._fixed_points = None
        self._row_forms = {}  # ring -> {variable index: row form}

    def on_point(self, p: ProjPoint) -> ProjPoint:
        return ProjPoint(
            [sum(a * c for a, c in zip(row, p.coords)) for row in self.matrix]
        )

    def on_poly(self, p: Poly) -> Poly:
        """F(M x): substitute each variable by the corresponding row form;
        the forms are built once per ring."""
        forms = self._row_forms.get(p.ring)
        if forms is None:
            forms = self._row_forms[p.ring] = {
                i: p.ring.linear_form(row) for i, row in enumerate(self.matrix)
            }
        return p.subs(forms)

    def is_invariant(self, p: Poly) -> bool:
        return self.on_poly(p) == p

    def fixed_points(self):
        """Eigenvector points in eigenvalue order 1, e, ..., e^4 (requires
        a semisimple action, e.g. order 5); computed once per action.

        Raises ValueError on an eigenspace of dimension 2 or more: its
        whole projective line or plane is fixed, not just a basis of it.
        """
        if self._fixed_points is None:
            pts = []
            for k in range(5):
                lam = CycloElem.e_power(k)
                m = [
                    [a - lam if i == j else a for j, a in enumerate(row)]
                    for i, row in enumerate(self.matrix)
                ]
                kernel = kernel_basis(m)
                if len(kernel) > 1:
                    raise ValueError(
                        "eigenvalue zeta^%d has a %d-dimensional eigenspace; "
                        "its fixed locus is not finite" % (k, len(kernel))
                    )
                pts += [ProjPoint(v) for v in kernel]
            self._fixed_points = tuple(pts)
        return self._fixed_points


class ActionK(LinearAction):
    """a_k = diag(e^k, e^(k+1), e^(k+2), e^(k+3)), k = 0..4."""

    def __init__(self, k: int):
        if not 0 <= k <= 4:
            raise ValueError("k must be in 0..4")
        super().__init__(
            [
                [CycloElem.e_power(k + i) if i == j else 0 for j in range(4)]
                for i in range(4)
            ]
        )
        self.k = k

    def __repr__(self):
        return "ActionK(%d)" % self.k
