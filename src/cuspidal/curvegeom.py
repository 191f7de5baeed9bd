"""Curves on the quartic/quintic pair and exact intersection data.

* tropes of the 16-node quartic: planes through six nodes whose
  restriction is a doubled conic (candidates are the exact planes through
  node triples, with exact incidence);
* strict-transform intersection numbers at a cusp from one point
  blow-up: an A2 point has a rank-2 tangent cone, split in closed form
  over the complement of its kernel (docs/DECISIONS.md D33); the
  exceptional curve of the blow-up is the corresponding pair of lines,
  which realize the two (-2)-curves of the A2 chain (they meet once; the
  strict transform of the surface is verified smooth along them);
* intersections of two curves away from and over the cusps, as exact
  lengths of `singcert.ChartData` pieces: away from the cusps, the
  pieces of P^3 (last nonzero coordinate = 1), each the supported length
  of its chart scheme where the later coordinates vanish (D23); over a
  cusp, the pieces of the exceptional plane, one per blow-up chart,
  where w and the later directions vanish (D23, D33).  An empty piece
  builds no chart scheme, and the smoothness of the blown-up surface and
  of the strict-transform curves along the exceptional plane is one
  Jacobian criterion asked of the same pieces;
* the degree-1 path: when every generator of the curves involved is a
  linear form, the intersection away from the cusps is P(ker M) of the
  stacked coefficient rows, and a line's row at a cusp is read off its
  direction; anything else, or a premise that fails, takes the chart
  schemes and strict transforms (D29);
* self-intersections on the resolved quintic by adjunction with
  K = O(1) (crepancy of rational double point resolutions):
  C~^2 = 2 p_a(C~) - 2 - deg C.
"""

from __future__ import annotations

import functools
import itertools

from . import linalg
from .cyclofield import ONE
from .groebner import NotZeroDimensional, buchberger, normal_form
from .modp import rational_roots
from .multipoly import (
    Poly,
    ProjPoint,
    Ring,
    degrevlex_key,
    minors,
    mono_deg,
    proportional,
    restrict_to_plane,
)
from .singcert import (
    ChartData,
    chart_piece,
    degree_part,
    local_surface,
    quadratic_matrix,
    to_chart,
)


class SquareRootFailure(Exception):
    pass


def poly_square_root(F: Poly):
    """Write F = scalar * c^2 with monic c, or raise SquareRootFailure."""
    if F.is_zero:
        raise SquareRootFailure("zero polynomial")
    lc = F.lc()
    Fm = F.scale(lc.inverse())
    lm = F.lm()
    if any(k % 2 for k in lm):
        raise SquareRootFailure("leading monomial is not a square")
    half = tuple(k // 2 for k in lm)
    ring = F.ring
    r = ring.from_terms([(half, ONE)])
    R = Fm - r * r
    two_inv = ONE / 2
    guard = 0
    while not R.is_zero:
        guard += 1
        if guard > 4 * len(F.terms) + 16:
            raise SquareRootFailure("iteration did not terminate")
        lmR, lcR = R.lt()
        if any(a < b for a, b in zip(lmR, half)):
            raise SquareRootFailure("not a perfect square")
        te = tuple(a - b for a, b in zip(lmR, half))
        r = r + ring.from_terms([(te, lcR * two_inv)])
        R = Fm - r * r
    return lc, r


# ---------------------------------------------------------------------------
# tropes


class Trope:
    """A plane meeting the quartic in a doubled conic."""

    def __init__(self, plane, conic, node_indices, through_fixed, invariant):
        self.plane = plane
        self.conic = conic  # monic; does not involve the solved variable
        self.node_indices = tuple(node_indices)
        self.through_fixed = through_fixed
        self.invariant = invariant

    def __repr__(self):
        return "Trope(%s; nodes %s%s)" % (
            self.plane,
            list(self.node_indices),
            "; through fixed node" if self.through_fixed else "",
        )


class TropeCensus:
    def __init__(self, tropes):
        self.tropes = tropes

    def partition(self):
        """(invariant tropes through the fixed node, other tropes through
        it, tropes away from it)."""
        inv = [t for t in self.tropes if t.through_fixed and t.invariant]
        through = [t for t in self.tropes if t.through_fixed and not t.invariant]
        away = [t for t in self.tropes if not t.through_fixed]
        return inv, through, away


def find_tropes(Q: Poly, nodes, fixed_node: ProjPoint, action) -> TropeCensus:
    """All tropes of the nodal quartic Q, from its full rational node list.

    Candidate planes are the planes through three nodes; a plane through
    exactly six nodes (exact incidence) is kept iff Q restricts to a
    perfect square up to one scalar.  Three non-collinear nodes of a
    trope fix it, so no trope is missed; the triples inside a six-node
    plane already found are skipped.  Tropes come in the order of their
    sorted node tuples, each marked invariant when the action maps its
    plane to a multiple of itself.
    """
    ring = Q.ring
    planes = {}  # sorted node tuple -> monic plane through exactly those nodes
    for triple in itertools.combinations(range(len(nodes)), 3):
        if any(set(triple) <= set(six) for six in planes):
            continue
        kern = linalg.kernel_basis([list(nodes[i].coords) for i in triple])
        if len(kern) != 1:
            continue  # collinear nodes
        hpoly = ring.linear_form(kern[0]).monic()
        incident = tuple(
            i for i, nd in enumerate(nodes) if not hpoly.eval(list(nd.coords))
        )
        if len(incident) == 6:
            planes[incident] = hpoly
    fixed_index = next((i for i, nd in enumerate(nodes) if nd == fixed_node), None)
    tropes = []
    for incident, hpoly in sorted(planes.items()):
        try:
            _, conic = poly_square_root(restrict_to_plane(Q, hpoly))
        except SquareRootFailure:
            continue
        invariant = proportional(action.on_poly(hpoly), hpoly)
        tropes.append(Trope(hpoly, conic, incident, fixed_index in incident, invariant))
    return TropeCensus(tropes)


# ---------------------------------------------------------------------------
# surface-surface intersection report


class IntersectionReport:
    def __init__(
        self, conic_containments, degree_expected, degree_counted, excess,
        plane, planes_tried,
    ):
        self.conic_containments = conic_containments
        self.degree_expected = degree_expected
        self.degree_counted = degree_counted
        self.excess = excess
        self.plane = plane  # coefficients of the deciding plane, or None
        self.planes_tried = planes_tried

    @property
    def clean(self):
        return (
            all(self.conic_containments)
            and self.degree_expected == self.degree_counted
            and self.plane is not None
            and not self.excess
        )

    def to_json(self):
        return {
            "conics_on_both": sum(1 for x in self.conic_containments if x),
            "degree_expected": self.degree_expected,
            "degree_counted": self.degree_counted,
            "excess_components": self.excess,
            "plane": self.plane,
            "planes_tried": self.planes_tried,
            "clean": self.clean,
        }


# planes tried for the excess test of intersect_surfaces, in order
_SLICE_PLANES = ((7, -1, -3, -1), (-2, 1, -6, -1), (2, 2, 4, 1), (-4, 2, 5, -2))


def intersect_surfaces(S: Poly, Q: Poly, conic_curves):
    """Verify S meets Q exactly at the given conics.

    Checks (i) every conic lies on both surfaces, (ii) degree bookkeeping
    deg S * deg Q = sum of conic degrees, and (iii) one plane section of
    V(S, Q) of that degree lies on the union of the conic planes (their
    product vanishes on every point of each piece of the section,
    docs/DECISIONS.md D23).  Any curve
    component of V(S, Q) meets every plane, so an excess component or a
    conic listed twice in place of another is seen.  The planes tried are
    the fixed list _SLICE_PLANES (docs/DECISIONS.md D21); without such a
    plane among them the verdict is not clean.
    """
    ring = S.ring
    containments = [
        curve_lies_on(c, S) and curve_lies_on(c, Q) for c in conic_curves
    ]
    expected = S.degree() * Q.degree()
    counted = sum(c.degree for c in conic_curves)
    prod = ring.one
    for c in conic_curves:
        prod = prod * c.gens[0]
    degenerate_slices = 0
    for tried, coeffs in enumerate(_SLICE_PLANES, 1):
        plane = ring.linear_form(coeffs)
        try:
            section = _chart_pieces([S, Q, plane])
        except NotZeroDimensional:
            degenerate_slices += 1
            continue
        if sum(chart.length for chart in section) != expected:
            continue
        excess = []
        for chart in section:
            # the product vanishes on every point of the piece iff its
            # zeros there carry the whole length of the piece
            on_planes = to_chart(prod, chart.chart_index, chart.ring)
            length = chart.scheme.algebra.supported_length(chart.later + [on_planes])
            if length != chart.length:
                excess.append(
                    {
                        "chart": ring.vars[chart.chart_index],
                        "witness": "plane-product not in radical",
                    }
                )
        return IntersectionReport(
            containments, expected, counted, excess, list(coeffs), tried
        )
    if degenerate_slices == len(_SLICE_PLANES):
        raise ValueError(
            "surfaces share a component (every plane section is positive-"
            "dimensional): precondition violated"
        )
    return IntersectionReport(
        containments, expected, counted, [], None, len(_SLICE_PLANES)
    )


def _chart_pieces(gens):
    """V(gens) in P^n as disjoint chart pieces (last nonzero coordinate
    = 1): the `ChartData` of each nonempty piece, its chart built (the
    last chart's piece is empty when its chart scheme has degree 0).
    Raises NotZeroDimensional when V(gens) is positive-dimensional: then
    the chart of the piece holding a dense part of a curve is."""
    out = []
    for ci in range(gens[0].ring.nvars):
        chart = ChartData(ci, *chart_piece(gens, ci))
        if not chart.empty and chart.scheme.degree:
            out.append(chart)
    return out


# ---------------------------------------------------------------------------
# curves


class CurveOnSurface:
    """A curve on the quintic given by ambient ideal generators."""

    def __init__(self, name, gens, degree, pa_embedded, double_points=0):
        self.name = name
        self.gens = list(gens)
        self.degree = degree
        self.pa_embedded = pa_embedded
        self.double_points = double_points  # delta = 1 points resolved at cusps

    def strict_pa(self):
        return self.pa_embedded - self.double_points

    def resolved_self_intersection(self):
        """C~^2 on the resolved quintic (adjunction, K = O(1) pullback)."""
        return 2 * self.strict_pa() - 2 - self.degree

    def __repr__(self):
        return "CurveOnSurface(%s, deg %d)" % (self.name, self.degree)


def curve_lies_on(curve: CurveOnSurface, F: Poly) -> bool:
    gb = buchberger(curve.gens, ring=F.ring)
    return normal_form(F, gb).is_zero


# ---------------------------------------------------------------------------
# scheme-length helpers


def linear_form_rows(gens):
    """The coefficient rows of gens when every generator is a linear form
    (all its terms of degree 1), else None: the input property that sends
    a question to the degree-1 path (docs/DECISIONS.md D29)."""
    if gens and all(mono_deg(e) == 1 for g in gens for e, _ in g.terms):
        return [g.linear_coeffs() for g in gens]
    return None


def pair_intersection_away_from(curveC, curveD, excluded_points):
    """Total intersection length of two distinct curves outside the
    excluded points (exact; the ambient lengths equal surface intersection
    multiplicities at smooth surface points).

    When both curves are cut out by linear forms, V(C) meet V(D) is the
    reduced linear space P(ker M), M the stacked coefficient rows: no
    point has length 0, one point length 1 unless it is excluded
    (docs/DECISIONS.md D29).  A larger kernel, or any other curve, takes
    the chart pieces (`chart_pair_intersection`)."""
    rows = linear_form_rows(curveC.gens + curveD.gens)
    if rows is not None:
        kern = linalg.kernel_basis(rows)
        if len(kern) < 2:
            return sum(1 for v in kern if ProjPoint(v) not in excluded_points)
    return chart_pair_intersection(curveC, curveD, excluded_points)


def chart_pair_intersection(curveC, curveD, excluded_points):
    """`pair_intersection_away_from` by chart schemes, for any curves: the
    length of each chart piece of V(C) meet V(D), less the supported
    length at each excluded point of the piece (D23)."""
    total = 0
    for chart in _chart_pieces(curveC.gens + curveD.gens):
        length = chart.length
        for p in excluded_points:
            if p.chart() != chart.chart_index:
                continue
            aff = list(p.affine())
            if any(g.eval(aff) for g in chart.gens):
                continue
            cring = chart.ring
            at_p = [
                cring.var(v) - cring.from_scalar(q) for v, q in zip(cring.vars, aff)
            ]
            length -= chart.scheme.algebra.supported_length(at_p)
        total += length
    return total


# ---------------------------------------------------------------------------
# cusp resolution


class ResolutionError(Exception):
    pass


class CuspResolution:
    """One point blow-up at an A2 cusp, with curve intersection data.

    The exceptional curve is the pair of lines {l1 = 0}, {l2 = 0} in the
    exceptional plane (the factored rank-2 tangent cone); these are the
    two (-2)-curves of the A2 chain, meeting once, and the blown-up
    surface is verified smooth along them.  For each registered curve the
    row (m1, m2) holds the intersection numbers of its strict transform
    with the two lines.  ``charts`` keeps (mchart, images, strict
    transform) per blow-up chart, for the transcripts.
    """

    def __init__(self, cusp, lines, local_vars, charts):
        self.cusp = cusp
        self.lines = lines
        self.local_vars = local_vars
        self.charts = charts
        self.curve_rows = {}
        self.pair_over_cusp = {}
        self.curve_smooth = {}

    @property
    def transcripts(self):
        """Each blow-up chart's substitution and strict transform, as text."""
        return [
            {
                "chart": mchart,
                "substitution": {
                    self.local_vars[j]: str(images[j]) for j in range(3)
                },
                "strict_transform": str(fs),
            }
            for mchart, images, fs in self.charts
        ]


def tangent_cone_lines(flocal: Poly, cring: Ring):
    """Factor the rank-2 quadratic part into two monic linear forms.

    Returns (l1, l2, kernel_vector); deterministic labelling (sorted by
    string form); raises ResolutionError when the rank is not 2 or
    `modp.rational_roots` finds no two slopes in Q(zeta5).
    """
    if degree_part(flocal, 0).terms or degree_part(flocal, 1).terms:
        raise ResolutionError("point is not singular on the surface")
    quad = degree_part(flocal, 2)
    m = quadratic_matrix(quad, cring)
    if linalg.rank(m) != 2:
        raise ResolutionError("tangent cone rank is not 2 (not an A2 datum)")
    kern = linalg.kernel_basis(m)[0]
    # e_i, e_j, kern is a basis for k the last index with kern_k != 0 and
    # i < j the others; s and t are its coordinate forms of e_i and e_j,
    # u = s(u) e_i + t(u) e_j + (.) kern (docs/DECISIONS.md D33)
    k = max(p for p in range(3) if kern[p])
    i, j = (p for p in range(3) if p != k)
    u = cring.gens()
    s_poly, t_poly = (u[p] - u[k].scale(kern[p] / kern[k]) for p in (i, j))
    a, b, c = m[i][i], 2 * m[i][j], m[j][j]
    if not a:
        l1 = t_poly
        l2 = s_poly.scale(b) + t_poly.scale(c)
    else:
        # the slopes r of a r^2 + b r + c, distinct since the rank is 2
        slopes, _ = rational_roots([c, b, a])
        if len(slopes) < 2:
            raise ResolutionError(
                "tangent cone splits only over a quadratic extension"
            )
        r1, r2 = slopes
        l1 = (s_poly - t_poly.scale(r1)).scale(a)
        l2 = s_poly - t_poly.scale(r2)
    if l1 * l2 != quad:
        raise ResolutionError("tangent cone factorization failed verification")
    l1, l2 = sorted((l1.monic(), l2.monic()), key=str)
    return l1, l2, kern


def blow_up_charts(cring: Ring):
    """Point blow-up substitutions: chart m maps u_m -> w, u_i -> w v_i.

    Chart ring variables: (v_* for the kept directions, in order) + (w_,).
    """
    out = []
    for mchart in range(3):
        names = tuple(
            "v_%s" % cring.vars[j] for j in range(3) if j != mchart
        ) + ("w_",)
        bring = Ring(names)
        vs = bring.gens()
        w = vs[-1]
        images = []
        vi = 0
        for j in range(3):
            if j == mchart:
                images.append(w)
            else:
                images.append(w * vs[vi])
                vi += 1
        out.append((mchart, bring, images))
    return out


def strict_transform(p: Poly, bring: Ring, mchart: int):
    """Pull p through blow-up chart m (`blow_up_charts`) and divide by the
    largest power of w: (strict transform, that power).

    The chart's ring map sends u^e to v^e' w^|e|, e' the exponents of the
    kept directions, with the coefficient unchanged; distinct monomials go
    to distinct ones, so the pull-back is an exponent map and its terms
    need only be sorted in the chart ring's order.  The largest power of
    w dividing it is the least total degree of p's terms
    (docs/DECISIONS.md D28)."""
    if p.is_zero:
        return bring.zero, 0
    mult = min(sum(e) for e, _ in p.terms)
    terms = [(e[:mchart] + e[mchart + 1 :] + (sum(e) - mult,), c) for e, c in p.terms]
    terms.sort(key=lambda t: degrevlex_key(t[0]), reverse=True)
    return Poly(bring, tuple(terms)), mult


def _exceptional_piece(gens, bring, mchart):
    """Blow-up chart m's part of the exceptional plane in V(gens), as a
    `singcert.ChartData` piece: the points of w = 0 whose last nonzero
    direction is m, where the later directions bring.gens()[m:-1] vanish,
    as in `singcert.chart_piece`.  The three charts' pieces partition the
    exceptional plane, so each exceptional point counts in one chart."""
    return ChartData(mchart, bring, gens, [bring.var("w_")] + bring.gens()[mchart:-1])


def _exceptional_supported_length(gens, bring, mchart):
    """Length of V(gens) on blow-up chart m's piece of the exceptional
    plane; an empty piece builds no chart scheme (docs/DECISIONS.md D33)."""
    try:
        return _exceptional_piece(gens, bring, mchart).length
    except NotZeroDimensional:
        raise ResolutionError("strict transforms share a component over the cusp")


def _smooth_over_exceptional(per_chart, codim):
    """Jacobian criterion along the exceptional plane for a scheme of
    codimension codim, given per blow-up chart as (mchart, bring, its
    generators there): no point of the chart's piece where the codim x
    codim minors of the Jacobian vanish too (1: the partials of the
    strict transform of the surface, 2: the 2x2 minors of a curve's).
    A chart with fewer than codim generators is skipped."""
    for mchart, bring, gens in per_chart:
        if len(gens) < codim:
            continue
        jac = [[g.partial(i) for i in range(bring.nvars)] for g in gens]
        if not _exceptional_piece(gens + minors(jac, codim), bring, mchart).empty:
            return False
    return True


def resolve_cusp(S: Poly, cusp: ProjPoint, curves) -> CuspResolution:
    """Blow up one certified A2 cusp and record all curve data there."""
    flocal, cring, ci, shift = local_surface(S, cusp)
    l1, l2, kern = tangent_cone_lines(flocal, cring)
    cubic = degree_part(flocal, 3)
    if not cubic.eval(list(kern)):
        raise ResolutionError(
            "not resolved by the point blow-up (cubic vanishes on the kernel "
            "line); contradicts the A2 certificate"
        )
    l1c, l2c = l1.linear_coeffs(), l2.linear_coeffs()

    charts = blow_up_charts(cring)
    strict_by_chart = []
    for mchart, bring, images in charts:
        fs, mult = strict_transform(flocal, bring, mchart)
        if mult != 2:
            raise ResolutionError("surface multiplicity at the cusp is not 2")
        strict_by_chart.append((mchart, bring, images, fs))

    # smoothness of the blown-up surface along the exceptional plane
    if not _smooth_over_exceptional(
        [(mchart, bring, [fs]) for mchart, bring, _, fs in strict_by_chart], 1
    ):
        raise ResolutionError("strict transform singular along the exceptional locus")

    res = CuspResolution(
        cusp,
        (l1c, l2c),
        cring.vars,
        [(mchart, images, fs) for mchart, _, images, fs in strict_by_chart],
    )

    incident = []
    point = list(cusp.coords)
    for curve in curves:
        # incidence is exact evaluation at the cusp
        if any(g.eval(point) for g in curve.gens):
            res.curve_rows[curve.name] = (0, 0)
        else:
            incident.append(curve)

    @functools.cache
    def strict_gens_of(curve):
        """Per blow-up chart, (mchart, bring, the strict transforms of the
        curve's local generators).  Only a curve through the cusp is
        shifted, and a generator that is S itself (the T3 sections) is
        already shifted."""
        loc = [
            flocal if g is S else to_chart(g, ci, cring).subs(shift)
            for g in curve.gens
        ]
        loc = [g for g in loc if not g.is_zero]
        per_chart = []
        for mchart, bring, images, fs in strict_by_chart:
            sg = []
            for g in loc:
                gs, _ = strict_transform(g, bring, mchart)
                if not gs.is_zero:
                    sg.append(gs)
            per_chart.append((mchart, bring, sg))
        return per_chart

    # in blow-up chart m the exceptional line {l = 0} is cut out by the
    # strict transform of l
    lines_by_chart = [
        [strict_transform(l, bring, m)[0] for m, bring, _, _ in strict_by_chart]
        for l in (l1, l2)
    ]
    # a line through the cusp meets the exceptional plane once,
    # transversally, at its direction (docs/DECISIONS.md D29)
    directions = {}
    for curve in incident:
        v = _line_direction(curve.gens, ci)
        if v is not None:
            directions[curve.name] = v
            res.curve_rows[curve.name] = tuple(
                int(not l.eval(list(v.coords))) for l in (l1, l2)
            )
            res.curve_smooth[curve.name] = True
            continue
        res.curve_rows[curve.name] = tuple(
            sum(
                _exceptional_supported_length(sg + [bring.var("w_"), lc], bring, mchart)
                for (mchart, bring, sg), lc in zip(strict_gens_of(curve), lines)
            )
            for lines in lines_by_chart
        )
        smooth = _smooth_over_exceptional(strict_gens_of(curve), 2)
        res.curve_smooth[curve.name] = smooth

    for a in range(len(incident)):
        for b in range(a + 1, len(incident)):
            cu, cv = incident[a], incident[b]
            du, dv = directions.get(cu.name), directions.get(cv.name)
            if du is not None and dv is not None and du != dv:
                # lines with distinct directions: disjoint strict transforms
                length = 0
            else:
                length = sum(
                    _exceptional_supported_length(sg_u + sg_v, bring, mchart)
                    for (mchart, bring, sg_u), (_, _, sg_v) in zip(
                        strict_gens_of(cu), strict_gens_of(cv)
                    )
                )
            res.pair_over_cusp[(cu.name, cv.name)] = length
            res.pair_over_cusp[(cv.name, cu.name)] = length
    return res


def _line_direction(gens, chart_index):
    """The direction, as a point of the exceptional plane, of the line
    that the linear forms gens cut out through a point of chart
    chart_index, or None when gens are not all linear forms or do not cut
    out a line.  A linear form vanishing at the point has, in the shifted
    chart coordinates, its own coefficients less the chart one as its
    local form, so the direction spans their kernel."""
    rows = linear_form_rows(gens)
    if rows is None:
        return None
    kern = linalg.kernel_basis([r[:chart_index] + r[chart_index + 1 :] for r in rows])
    return ProjPoint(kern[0]) if len(kern) == 1 else None


def curve_singular_points(curve: CurveOnSurface):
    """Singular points of the curve (rank-deficiency of the Jacobian),
    counted per chart piece: (chart index, number of points) for each
    nonempty piece."""
    ring = curve.gens[0].ring
    n = ring.nvars
    jac = [[g.partial(i) for i in range(n)] for g in curve.gens]
    mins = [m for m in minors(jac, min(len(curve.gens), n - 2)) if not m.is_zero]
    return [(c.chart_index, c.points) for c in _chart_pieces(curve.gens + mins)]
