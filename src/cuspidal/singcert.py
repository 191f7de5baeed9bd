"""Scheme-level singularity certificates (all-A1 / all-A2 verdicts).

The singular locus of a surface F = 0 in P^3 is split into four disjoint
pieces matching the projective normalization (last nonzero coordinate
= 1), so every singular point is counted exactly once.  Piece ci lies in
affine chart ci where the later coordinates vanish (`chart_piece`).
`ChartData` is the one chart-piece object, here and in `curvegeom`,
which also asks it about the pieces of the exceptional plane of a cusp
blow-up (D33): one small Buchberger run on the chart's generators plus
the equations of the piece, the piece ideal, tests the piece for
emptiness, and the chart's own scheme is built only for a nonempty
piece and for the last chart (docs/DECISIONS.md D10).
A piece's length (here its Tjurina degree) is the length of the chart
scheme supported where the later coordinates vanish, read from stable
images of its multiplication matrices (D3, D23); its distinct-point
count is the degree of the radical of the piece ideal (D30).  Every
chart's degree and point count are summed by one rule from its own
piece and the later pieces it meets.

Classification is by Hessian rank stratification plus Tjurina
accounting and never needs point coordinates:

* rank(projective Hessian) = rank(chart Hessian h) <= 3 at singular
  points (Euler, D31), and the rank-3 locus is the A1 stratum (tau = 1);
* corank-2-or-worse points (rank <= 1) are excluded by proving that
  stratum empty, so a degenerate point has rank exactly 2, hence is of
  type A_k with k >= 2 and tau = k; tau_total = 2n then forces k = 2
  everywhere.

A stratum V(I + J) is empty iff J generates R/sqrt(I) (Nullstellensatz),
decided by linear algebra on the radical of each nonempty piece.  J is
spanned by the 2x2 minors of h or by det h, formed inside R/sqrt(I)
from h's reduced entries, never expanded (docs/DECISIONS.md D2).
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations

from . import linalg
from .cyclofield import ZERO
from .groebner import (
    NotZeroDimensional,
    ZeroDimScheme,
    buchberger,
    common_denominator,
    radical_zero_dim,
    zero_dim_analyze,
)
from .multipoly import Poly, ProjPoint, Ring, hessian, jacobian
from .zfive import free_action_check


class SingularInCodimensionOne(ValueError):
    """The singular locus has a curve component: no finite certificate."""

    def __init__(self, chart, witness_var):
        super().__init__(
            "singular in codimension one (chart %s, variable %s)"
            % (chart, witness_var)
        )


class SingularLocusNotInvariant(Exception):
    """The singular points off the fixed locus of an action that preserves
    the surface are no union of free 5-orbits: a miscount (D32)."""

    def __init__(self, free_count):
        super().__init__(
            "singular locus not closed under the action: %d singular points "
            "off the fixed locus, not a multiple of 5" % free_count
        )


class ChartData:
    """One chart piece: the points of V(gens) in affine chart chart_index,
    with coordinate ring `ring`, where the equations `later` vanish.  In
    P^n (`chart_piece`), piece ci is the points whose last nonzero
    coordinate is x_ci, and later the later coordinates; in blow-up chart
    m of a cusp (`curvegeom._exceptional_piece`), it is chart m's part of
    the exceptional plane, and later w and the later directions (D33).

    The piece ideal is gens + later.  Its one Buchberger run
    (`piece_basis`) is the emptiness test, so an empty piece never builds
    its chart; a piece with no later equation, the last chart of P^n, is
    the whole chart and takes no test (docs/DECISIONS.md D10).  The
    chart's run (`scheme`) is made on first use.  The piece's length is
    the supported length on {later = 0} of the chart scheme (D3): slicing
    the scheme by the later equations would undercount a non-reduced
    point on the chart boundary (D23).  Its points are the degree of
    `piece_radical`, the radical of the piece ideal (D30).
    """

    def __init__(self, chart_index, ring, gens, later):
        self.chart_index = chart_index
        self.ring, self.gens, self.later = ring, gens, later

    @cached_property
    def piece_basis(self):
        return buchberger(self.gens + self.later, ring=self.ring)

    @cached_property
    def empty(self):
        return bool(self.later) and self.piece_basis.is_trivial()

    @cached_property
    def scheme(self):
        return zero_dim_analyze(buchberger(self.gens, ring=self.ring))

    @cached_property
    def length(self):
        return 0 if self.empty else self.scheme.algebra.supported_length(self.later)

    @cached_property
    def points(self):
        return self.piece_radical.degree

    @cached_property
    def piece_radical(self):
        """The piece's points as a radical scheme: the Seidenberg radical
        of the piece ideal, of the chart scheme itself for the last chart;
        degree 0, with the chart unbuilt, for an empty piece."""
        if self.empty:
            return ZeroDimScheme(self.piece_basis, ())
        if not self.later:
            return radical_zero_dim(self.scheme)
        return radical_zero_dim(zero_dim_analyze(self.piece_basis))


class SingularSchemeReport:
    def __init__(self, charts, pieces, positive_dimensional):
        self.charts = charts  # ChartData, or None where not zero-dimensional
        self.pieces = pieces  # list of dicts with tau / npoints per piece
        self.positive_dimensional = positive_dimensional  # None or witness

    @property
    def tau_total(self):
        return sum(p["tau"] for p in self.pieces)

    @property
    def n_points(self):
        return sum(p["npoints"] for p in self.pieces)


def chart_ring(ring: Ring, chart_index: int) -> Ring:
    names = tuple(v for i, v in enumerate(ring.vars) if i != chart_index)
    return Ring(names)


def chart_piece(gens, chart_index: int):
    """Affine chart ci of V(gens) in P^n, for its piece (the points whose
    last nonzero coordinate is x_ci): (chart ring, the nonzero
    dehomogenised gens in their order, made monic, the later coordinates,
    which vanish on the piece).  V(chart gens + later) is the piece; the
    generators are monic so that `buchberger`, which every test of the
    piece calls on them, need not make them so again."""
    cring = chart_ring(gens[0].ring, chart_index)
    cgens = [to_chart(g, chart_index, cring) for g in gens]
    later = [cring.var(v) for v in cring.vars[chart_index:]]
    return cring, [g.monic() for g in cgens if not g.is_zero], later


def to_chart(p: Poly, chart_index: int, cring: Ring) -> Poly:
    """Dehomogenize at the chart variable and drop it from the ring."""
    k = chart_index
    return cring.from_terms([(e[:k] + e[k + 1 :], c) for e, c in p.terms])


def singular_scheme(F: Poly) -> SingularSchemeReport:
    """Jacobian scheme piece by piece: a chart is built only when its piece
    is nonempty or it is the last chart (docs/DECISIONS.md D10)."""
    if not F.is_homogeneous():
        raise ValueError("surface polynomial must be homogeneous")
    if F.degree() < 1:
        raise ValueError("surface polynomial must not be a constant")
    ring = F.ring
    parts = jacobian(F)
    charts = [ChartData(ci, *chart_piece(parts, ci)) for ci in range(ring.nvars)]
    positive = None
    for ci, chart in enumerate(charts):
        if chart.empty:
            continue
        try:
            chart.scheme  # a nonempty piece or the last chart is built
        except NotZeroDimensional as ev:
            positive = {"chart": ring.vars[ci], "witness_var": ev.witness_var}
            charts[ci] = None
    # a positive-dimensional locus has no finite accounting
    pieces = [] if positive else _pieces(ring, charts)
    return SingularSchemeReport(charts, pieces, positive)


def _pieces(ring, charts):
    """One report row per chart.  The degree and point count of chart ci
    add, to its own piece's length and points, the length and the points
    off the plane x_ci = 0 of each later nonempty piece, so a chart whose
    piece is empty is never built (docs/DECISIONS.md D10, D30)."""
    pieces = []
    for ci, chart in enumerate(charts):
        degree, points = chart.length, chart.points
        for k in charts[ci + 1 :]:
            if not k.points:
                continue
            x = k.ring.var(ring.vars[ci])
            # points and length of piece k on the plane x_ci = 0: with no
            # point there, there is no length either
            on_points = k.piece_radical.algebra.supported_length([x])
            on_length = on_points and k.scheme.algebra.supported_length(k.later + [x])
            points += k.points - on_points
            degree += k.length - on_length
        pieces.append(
            {
                "chart": ring.vars[ci],
                "chart_degree": degree,
                "chart_points": points,
                "tau": chart.length,
                "npoints": chart.points,
            }
        )
    return pieces


class SingularityCertificate:
    def __init__(
        self,
        surface_name,
        report,
        verdict,
        n1,
        n2,
        strata,
        invariant,
        free_action,
        orbits,
    ):
        self.surface_name = surface_name
        self.report = report
        self.verdict = verdict  # "all_A1" | "all_A2" | "smooth" | "mixed_or_worse"
        self.n1 = n1
        self.n2 = n2
        self.strata = strata
        # None without an action; orbits also None when it moves F
        self.invariant = invariant
        self.free_action = free_action
        self.orbits = orbits

    @property
    def n_points(self):
        return self.report.n_points

    @property
    def tau_total(self):
        return self.report.tau_total

    def to_json(self):
        return {
            "surface": self.surface_name,
            "n_points": self.n_points,
            "tau_total": self.tau_total,
            "n_A1": self.n1,
            "n_A2": self.n2,
            "verdict": self.verdict,
            "strata": self.strata,
            "orbits": self.orbits,
            "pieces": self.report.pieces,
        }


def classify_all(F: Poly, surface_name="surface", action=None):
    """Full scheme-level certificate for the singular locus of F; with an
    action, also whether the action preserves F and acts freely on it, and
    the orbits of the singular points (docs/DECISIONS.md D26)."""
    report = singular_scheme(F)
    if report.positive_dimensional is not None:
        raise SingularInCodimensionOne(
            report.positive_dimensional["chart"],
            report.positive_dimensional["witness_var"],
        )
    invariant = free_action = orbits = None
    if action is not None:
        invariant = action.is_invariant(F)
        free_action = free_action_check(F, action)
        orbits = _orbit_analysis(F, report, free_action.offending, invariant)
    n = report.n_points
    tau = report.tau_total
    rank_le1_empty = True
    degenerate_empty = True
    degenerate_all = True
    for chart in report.charts:
        if not chart.points:
            continue
        # V(I + J) = V(sqrt(I) + J): every stratum is read on R/sqrt(I),
        # once per point on the piece that holds it
        alg = chart.piece_radical.algebra
        h = hessian(to_chart(F, chart.chart_index, alg.ring))
        vecs2, vecs3 = hessian_minor_vectors(alg, h)
        if not alg.generates_whole(vecs2):
            rank_le1_empty = False
        if not alg.generates_whole(vecs3):
            degenerate_empty = False
        if any(c for v in vecs3 for c in v):
            degenerate_all = False

    strata = {
        "rank_le1": "empty" if rank_le1_empty else "nonempty",
        "degenerate": "empty"
        if degenerate_empty
        else ("all" if degenerate_all else "mixed"),
    }

    if n == 0:
        verdict, n1, n2 = "smooth", 0, 0
    elif degenerate_empty and tau == n:
        verdict, n1, n2 = "all_A1", n, 0
    elif rank_le1_empty and degenerate_all and tau == 2 * n:
        verdict, n1, n2 = "all_A2", 0, n
    else:
        verdict, n1, n2 = "mixed_or_worse", None, None

    return SingularityCertificate(
        surface_name, report, verdict, n1, n2, strata, invariant, free_action, orbits
    )


_PAIRS = list(combinations(range(3), 2))


def hessian_minor_vectors(alg, H):
    """NF vectors in alg = R/sqrt(I) of the six 2x2 minors (row set <=
    column set) and of the determinant of the symmetric 3x3 chart Hessian
    H over alg.ring (D31): 7 reductions.  By symmetry the minors on
    columns {1, 2} are the determinant's minors on rows {1, 2}."""
    h, lower, det = _cofactor_det(alg, H)
    minors2 = [
        lower[r] if c == (1, 2) else _minor2(alg, h, r, c)
        for a, r in enumerate(_PAIRS)
        for c in _PAIRS[a:]
    ]
    return [alg.raw_coeffs(m) for m in minors2], [alg.raw_coeffs(det)]


def hessian_det_vector(alg, H):
    """The NF vector of det H alone (for `linsys.impose_cusps`): 4 reductions."""
    return alg.raw_coeffs(_cofactor_det(alg, H)[2])


def _cofactor_det(alg, H):
    """det H in alg by cofactors along row 0: the reduced entries (D2),
    each packed once from its raw remainder (D16), the raw 2x2 minors on
    rows {1, 2} by their columns, and the raw determinant, each cofactor
    sum seeding its reduction term by term (D8)."""
    h = {}
    for i in range(3):
        for j in range(i, 3):
            h[i, j] = h[j, i] = common_denominator(alg.raw_nf(H[i][j]))
    lower = {c: _minor2(alg, h, (1, 2), c) for c in _PAIRS}
    cofactors = [(1, 0, (1, 2)), (-1, 1, (0, 2)), (1, 2, (0, 1))]
    det = alg.raw_nf_products(
        [(sign, h[0, j], common_denominator(lower[c])) for sign, j, c in cofactors]
    )
    return h, lower, det


def _minor2(alg, h, rows, cols):
    (r0, r1), (c0, c1) = rows, cols
    return alg.raw_nf_products([(1, h[r0, c0], h[r1, c1]), (-1, h[r0, c1], h[r1, c0])])


def _orbit_analysis(F: Poly, report, fixed_on_surface, invariant):
    """Scheme-level orbit decomposition of the singular points under an
    order-5 action with a finite fixed locus, given the fixed points on F;
    None when the action does not preserve F (docs/DECISIONS.md D26, D32).

    A linear action that preserves F preserves its Jacobian ideal, so the
    singular locus is a union of fixed points and free 5-orbits.  The
    fixed singular points are among fixed_on_surface (Euler), so a count
    of the others that is no multiple of 5 is a miscount, and raises
    SingularLocusNotInvariant.  For a locus that need not be closed under
    the action, such a count proves nothing, and none is checked.
    """
    if not invariant:
        return None
    parts = jacobian(F)
    fixed_sing = [
        p for p in fixed_on_surface if not any(g.eval(list(p.coords)) for g in parts)
    ]
    free_count = report.n_points - len(fixed_sing)
    if free_count % 5 != 0:
        raise SingularLocusNotInvariant(free_count)
    orbits = [{"size": 1, "representative": repr(p)} for p in fixed_sing]
    orbits += [{"size": 5} for _ in range(free_count // 5)]
    return orbits


def local_surface(F: Poly, point: ProjPoint):
    """F in the affine chart of point, shifted so that point is the origin.

    Returns (local, cring, ci, shift) with shift the substitution
    u_i -> u_i + point_i used.
    """
    ci = point.chart()
    cring = chart_ring(F.ring, ci)
    aff = point.affine()
    shift = {i: cring.var(cring.vars[i]) + cring.from_scalar(aff[i]) for i in range(3)}
    return to_chart(F, ci, cring).subs(shift), cring, ci, shift


def classify_at_point(F: Poly, point: ProjPoint):
    """Local classification at one singular point: 'A1', 'A2' or 'other'."""
    local, cring, _, _ = local_surface(F, point)
    # order-by-order pieces
    quad = degree_part(local, 2)
    cubic = degree_part(local, 3)
    if not degree_part(local, 0).is_zero or not degree_part(local, 1).is_zero:
        raise ValueError("point is not singular on the surface")
    qmat = quadratic_matrix(quad, cring)
    rank = linalg.rank(qmat)
    if rank == 3:
        return "A1"
    if rank == 2:
        kern = linalg.kernel_basis(qmat)
        if len(kern) != 1:
            return "other: quadratic rank defect"
        v = kern[0]
        if not cubic.is_zero and cubic.eval(v):
            return "A2"
        return "other: needs higher jet"
    return "other: quadratic rank <= 1"


def degree_part(p: Poly, d: int) -> Poly:
    return p.ring.from_terms((e, c) for e, c in p.terms if sum(e) == d)


def quadratic_matrix(quad: Poly, cring: Ring):
    n = cring.nvars
    m = [[ZERO] * n for _ in range(n)]
    for e, c in quad.terms:
        idx = [i for i, k in enumerate(e) for _ in range(k)]
        i, j = idx[0], idx[1]
        if i == j:
            m[i][i] = m[i][i] + c
        else:
            half = c / 2
            m[i][j] = m[i][j] + half
            m[j][i] = m[j][i] + half
    return m


def same_singular_locus(rep1: SingularSchemeReport, rep2: SingularSchemeReport):
    """Do two surfaces have identical reduced singular loci?

    Compares the reduced radical bases piece by piece (deterministic
    reduced GBs are canonical for a fixed order, and the pieces partition
    the locus).
    """
    for c1, c2 in zip(rep1.charts, rep2.charts):
        if (c1 is None) != (c2 is None):
            return False
        if c1 is None:
            continue
        r1, r2 = c1.piece_radical, c2.piece_radical
        if r1.degree != r2.degree:
            return False
        b1 = {str(p) for p in r1.gb.polys}
        b2 = {str(p) for p in r2.gb.polys}
        if b1 != b2:
            return False
    return True
