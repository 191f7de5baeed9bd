"""Z5 actions on P^3: LinearAction, a 4x4 matrix over Q(zeta5), is the
one action type (docs/DECISIONS.md D25).

ActionK(k) is the diagonal action a_k : (x,y,z,w) -> e^k (x, y e, z e^2,
w e^3).  Projectively all five a_k coincide with diag(1, e, e^2, e^3),
whose full fixed locus consists of the four coordinate points (distinct
eigenvalues), and every answer here is the same for all five: F = 0 is
preserved when F(Mx) = lambda F, and no factor e^j of M changes the order
of the fixed points (docs/DECISIONS.md D32).  A monomial is fixed by a_k
iff the product of the diagonal entries to its exponents is 1.  The
permutation action on the Van der Geer-Zagier surfaces is a LinearAction
too.  A non-diagonal action that preserves F = 0 has an eigen frame: in
the basis of its fixed points it is a_0, and F becomes H(y) = F(Py) on
the monomials of one weight (`LinearAction.eigen_frame`,
docs/DECISIONS.md D34).

Every orbit in the package is walked here: orbit(x, step) follows one
element round its cycle, and orbits(items, step, same) partitions a list
(cusps, tropes, lines) into orbits in walk order.  A walk that leaves
the list simply ends its orbit; the callers' orbit-size checks then
reject the list (docs/DECISIONS.md D11).
"""

from __future__ import annotations

import operator
from itertools import combinations_with_replacement, product
from math import prod

from .cyclofield import ONE, CycloElem, as_cyclo
from .linalg import _echelon_add, kernel_basis, solve
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


def _evaluation_grid(support, d):
    """Points y of {1, ..., d+1}^4 by coordinate sum, then
    lexicographically, each kept while its row of monomials y^e, e in
    support, raises the rank of the rows kept before: (points, rows), a
    square invertible system.  The grid always gets there for monomials
    of degree d (docs/DECISIONS.md D34)."""
    echelon, points, rows = [], [], []
    for total in range(4, 4 * d + 5):
        for a, b, c in product(range(1, d + 2), repeat=3):
            y = (a, b, c, total - a - b - c)
            if not 1 <= y[3] <= d + 1:
                continue
            row = [prod([t**n for t, n in zip(y, e)]) for e in support]
            if _echelon_add(echelon, [(v, 0, 0, 0) for v in row]) is None:
                continue
            points.append(y)
            rows.append([CycloElem.from_int(v) for v in row])
            if len(rows) == len(support):
                return points, rows
    raise AssertionError("the grid spans every form of degree %d" % d)


class FreeActionVerdict:
    def __init__(self, free: bool, offending):
        self.free = free
        self.offending = list(offending)

    def __repr__(self):
        if self.free:
            return "FreeActionVerdict(free)"
        return "FreeActionVerdict(fixed points on surface: %s)" % self.offending

    def mapped(self, P):
        """The verdict with each point y sent to Py: for H(y) = F(Py), the
        verdict on F from the verdict on H (docs/DECISIONS.md D34)."""
        to_input = LinearAction(P).on_point
        return FreeActionVerdict(self.free, [to_input(y) for y in self.offending])

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
        self._eigen = None  # (g + 1, fixed points), see fixed_points
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

    def invariance_scalar(self, p: Poly):
        """The scalar lambda with p(Mx) = lambda p, read off p's leading
        term, or None when the action moves V(p) (docs/DECISIONS.md D32)."""
        image = self.on_poly(p)
        lam = image.coeff_of(p.lm()) / p.lc()
        return lam if image == p.scale(lam) else None

    def is_invariant(self, p: Poly) -> bool:
        """Whether the action preserves V(p)."""
        return self.invariance_scalar(p) is not None

    def eigen_frame(self, F: Poly):
        """(P, H) with H(y) = F(Py) when this action is not diagonal and
        preserves V(F), a form of positive degree d; None otherwise, and
        for an action without four distinct eigenvalues among 1, e, ...,
        e^4 (see `fixed_points`).

        P's column i is fixed_points()[i], the eigenvector of e^(g+1+i),
        so AP = PD with D = e^(g+1) a_0, and F(Ax) = e^k F makes
        H(Dy) = e^k H(y): H lives on the monomials y^e with
        sum((g+1+i) e_i) = k mod 5.  Their coefficients solve the
        evaluations F(Py) at the points of `_evaluation_grid`
        (docs/DECISIONS.md D34).
        """
        m = self.matrix
        if all(not m[i][j] for i in range(4) for j in range(4) if i != j):
            return None
        d = F.degree()
        if d < 1 or not F.is_homogeneous():
            return None
        lam = self.invariance_scalar(F)
        if lam is None:
            return None
        try:
            first, points = self._eigenbasis()
        except ValueError:
            return None
        # A^5 = 1 (four distinct fifth roots of unity), so lam is some e^k
        k = next(k for k in range(5) if lam == CycloElem.e_power(k))
        support = [
            e
            for e in degree_monomials(d)
            if sum((first + i) * n for i, n in enumerate(e)) % 5 == k
        ]
        grid, rows = _evaluation_grid(support, d)
        P = [[p.coords[i] for p in points] for i in range(4)]
        values = [F.eval([sum(a * c for a, c in zip(r, y)) for r in P]) for y in grid]
        return P, F.ring.from_terms(zip(support, solve(rows, values)))

    def fixed_points(self):
        """Eigenvector points of an action with four distinct eigenvalues
        among 1, e, ..., e^4, computed once per action.  One power e^g is
        then no eigenvalue, and the points come in eigenvalue order from
        e^(g+1) on, cyclically; e^j M rotates all eigenvalues and e^g
        alike, so it lists the points as M does (docs/DECISIONS.md D32).

        Raises ValueError otherwise, e.g. on an eigenspace of dimension 2
        or more: its whole projective line or plane is fixed.
        """
        return self._eigenbasis()[1]

    def _eigenbasis(self):
        """(g + 1, fixed points): the exponent of the first point's
        eigenvalue and the points of `fixed_points`."""
        if self._eigen is None:
            kernels = []
            for k in range(5):
                lam = CycloElem.e_power(k)
                m = [
                    [a - lam if i == j else a for j, a in enumerate(row)]
                    for i, row in enumerate(self.matrix)
                ]
                kernels.append(kernel_basis(m))
            dims = [len(kernel) for kernel in kernels]
            if dims.count(0) != 1:
                raise ValueError(
                    "eigenspaces of 1, e, ..., e^4 of dimensions %s: the fixed "
                    "points need four distinct eigenvalues among them" % dims
                )
            g = dims.index(0)
            cycle = kernels[g + 1 :] + kernels[:g]
            self._eigen = g + 1, tuple(ProjPoint(v) for (v,) in cycle)
        return self._eigen


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
