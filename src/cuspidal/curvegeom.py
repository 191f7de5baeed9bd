"""Curves on the quartic/quintic pair and exact intersection data.

* tropes of the 16-node quartic: planes through six nodes whose
  restriction is a doubled conic (candidates are the exact planes through
  node triples, with exact incidence);
* strict-transform intersection numbers at a cusp from one point
  blow-up: an A2 point has a rank-2 tangent cone; the exceptional curve
  of the blow-up is the corresponding pair of lines, which realize the
  two (-2)-curves of the A2 chain (they meet once; the strict transform
  of the surface is verified smooth along them);
* intersections of two curves away from and over the cusps, as exact
  scheme lengths inside partitioned charts;
* self-intersections on the resolved quintic by adjunction with
  K = O(1) (crepancy of rational double point resolutions):
  C~^2 = 2 p_a(C~) - 2 - deg C.
"""

from __future__ import annotations

import itertools

from . import linalg
from .cyclofield import cyclo_sqrt, ratio
from .groebner import (
    NotZeroDimensional,
    QuotientAlgebra,
    buchberger,
    normal_form,
    radical_zero_dim,
    zero_dim_analyze,
)
from .multipoly import Poly, ProjPoint, QZ5, Ring, minors, restrict_to_plane
from .singcert import chart_ring, degree_part, quadratic_matrix, to_chart


class SquareRootFailure(Exception):
    pass


def poly_square_root(F: Poly):
    """Write F = scalar * c^2 with monic c, or raise SquareRootFailure."""
    if F.is_zero:
        raise SquareRootFailure("zero polynomial")
    field = F.ring.field
    lc = F.lc()
    Fm = F.scale(field.inv(lc))
    lm = F.lm()
    if any(k % 2 for k in lm):
        raise SquareRootFailure("leading monomial is not a square")
    half = tuple(k // 2 for k in lm)
    ring = F.ring
    r = ring.from_terms([(half, field.one)])
    R = Fm - r * r
    two_inv = field.inv(field.coerce(2))
    guard = 0
    while not R.is_zero:
        guard += 1
        if guard > 4 * len(F.terms) + 16:
            raise SquareRootFailure("iteration did not terminate")
        lmR, lcR = R.lt()
        if any(a < b for a, b in zip(lmR, half)):
            raise SquareRootFailure("not a perfect square")
        te = tuple(a - b for a, b in zip(lmR, half))
        r = r + ring.from_terms([(te, field.mul(lcR, two_inv))])
        R = Fm - r * r
    return lc, r


# ---------------------------------------------------------------------------
# tropes


class Trope:
    """A plane meeting the quartic in a doubled conic."""

    def __init__(self, plane, conic, scalar, node_indices, through_fixed):
        self.plane = plane
        self.conic = conic  # monic; does not involve the solved variable
        self.scalar = scalar
        self.node_indices = tuple(node_indices)
        self.through_fixed = through_fixed
        self.invariant = False

    def __repr__(self):
        return "Trope(%s; nodes %s%s)" % (
            self.plane,
            list(self.node_indices),
            "; through fixed node" if self.through_fixed else "",
        )


class TropeCensus:
    def __init__(self, tropes, fixed_index):
        self.tropes = tropes
        self.fixed_index = fixed_index

    def partition(self):
        """(invariant tropes through the fixed node, other tropes through
        it, tropes away from it)."""
        inv = [t for t in self.tropes if t.through_fixed and t.invariant]
        through = [t for t in self.tropes if t.through_fixed and not t.invariant]
        away = [t for t in self.tropes if not t.through_fixed]
        return inv, through, away


def find_tropes(Q: Poly, nodes, fixed_node: ProjPoint, action=None) -> TropeCensus:
    """All tropes of the nodal quartic Q, from its full rational node list.

    Candidate planes are the planes through three nodes; a plane through
    exactly six nodes (exact incidence) is kept iff Q restricts to a
    perfect square up to one scalar.  Three non-collinear nodes of a
    trope fix it, so no trope is missed; the triples inside a six-node
    plane already found are skipped.  Tropes come in the order of their
    sorted node tuples.
    """
    ring = Q.ring
    planes = {}  # sorted node tuple -> monic plane through exactly those nodes
    for triple in itertools.combinations(range(len(nodes)), 3):
        if any(set(triple) <= set(six) for six in planes):
            continue
        kern = linalg.kernel_basis([list(nodes[i].coords) for i in triple], QZ5)
        if len(kern) != 1:
            continue  # collinear nodes
        terms = []
        for j, c in enumerate(kern[0]):
            if not QZ5.is_zero(c):
                e = [0] * ring.nvars
                e[j] = 1
                terms.append((tuple(e), c))
        hpoly = ring.from_terms(terms).monic()
        incident = tuple(
            i
            for i, nd in enumerate(nodes)
            if QZ5.is_zero(hpoly.eval(list(nd.coords)))
        )
        if len(incident) == 6:
            planes[incident] = hpoly
    fixed_index = None
    for i, nd in enumerate(nodes):
        if nd == fixed_node:
            fixed_index = i
            break
    tropes = []
    for incident, hpoly in sorted(planes.items()):
        try:
            scalar, conic = poly_square_root(restrict_to_plane(Q, hpoly))
        except SquareRootFailure:
            continue
        tropes.append(
            Trope(hpoly, conic, scalar, incident, fixed_index in incident)
        )
    census = TropeCensus(tropes, fixed_index)
    if action is not None:
        for t in census.tropes:
            moved = action.on_poly(t.plane)
            t.invariant = moved.scale(t.plane.lc()) == t.plane.scale(moved.lc())
    return census


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


def intersect_surfaces(S: Poly, Q: Poly, conic_curves, seed=20240501):
    """Verify S meets Q exactly at the given conics.

    Checks (i) every conic lies on both surfaces, (ii) degree bookkeeping
    deg S * deg Q = sum of conic degrees, and (iii) one plane section of
    V(S, Q) of that degree lies on the union of the conic planes (their
    product is in the section's radical, docs/DECISIONS.md D5).  Any curve
    component of V(S, Q) meets every plane, so an excess component or a
    conic listed twice in place of another is seen.  Without such a plane
    among the random ones tried the verdict is not clean.
    """
    import random as _random

    ring = S.ring
    containments = []
    for c in conic_curves:
        gb = buchberger(c.gens, ring=ring)
        containments.append(
            normal_form(S, gb).is_zero and normal_form(Q, gb).is_zero
        )
    expected = S.degree() * Q.degree()
    counted = sum(c.degree for c in conic_curves)
    prod = ring.one
    for c in conic_curves:
        prod = prod * c.gens[0]
    rng = _random.Random(seed)
    tried = 0
    degenerate_slices = 0
    for _ in range(4):
        coeffs = [rng.randint(-7, 7) for _ in range(4)]
        if not any(coeffs):
            continue
        tried += 1
        plane = ring.from_terms(
            (tuple(1 if j == i else 0 for j in range(4)), QZ5.coerce(c))
            for i, c in enumerate(coeffs)
            if c
        )
        try:
            section = _chart_pieces([S, Q, plane])
        except NotZeroDimensional:
            degenerate_slices += 1
            continue
        if sum(scheme.degree for _, scheme in section) != expected:
            continue
        excess = [
            {"chart": ring.vars[ci], "witness": "plane-product not in radical"}
            for ci, scheme in section
            if not QuotientAlgebra(scheme).in_radical(to_chart(prod, ci, scheme.ring))
        ]
        return IntersectionReport(
            containments, expected, counted, excess, coeffs, tried
        )
    if degenerate_slices == tried:
        raise ValueError(
            "surfaces share a component (every plane section is positive-"
            "dimensional): precondition violated"
        )
    return IntersectionReport(containments, expected, counted, [], None, tried)


def _chart_pieces(gens):
    """V(gens) in P^n as disjoint chart pieces (last nonzero coordinate
    = 1): (chart index, zero-dimensional scheme) for each nonempty piece.
    Raises NotZeroDimensional when a piece is positive-dimensional."""
    ring = gens[0].ring
    out = []
    for ci in range(ring.nvars):
        cring = chart_ring(ring, ci)
        # the chart ring's variables from position ci on are the later ones
        g2 = [to_chart(g, ci, cring) for g in gens]
        g2 += [cring.var(v) for v in cring.vars[ci:]]
        gb = buchberger([g for g in g2 if not g.is_zero], ring=cring)
        if not gb.is_trivial():
            out.append((ci, zero_dim_analyze(gb)))
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


def pair_intersection_away_from(curveC, curveD, excluded_points):
    """Total intersection length of two distinct curves outside the
    excluded points (exact; the ambient lengths equal surface intersection
    multiplicities at smooth surface points)."""
    total = 0
    for ci, scheme in _chart_pieces(curveC.gens + curveD.gens):
        deg = scheme.degree
        alg = QuotientAlgebra(scheme)
        for p in excluded_points:
            if p.chart() != ci:
                continue
            aff = list(p.affine())
            if not all(QZ5.is_zero(g.eval(aff)) for g in scheme.gb.polys):
                continue
            cring = scheme.ring
            at_p = [
                cring.var(v) - cring.from_scalar(q) for v, q in zip(cring.vars, aff)
            ]
            deg -= alg.supported_length(at_p)
        total += deg
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

    def __init__(self, cusp, chart_index, lines, local_vars, charts):
        self.cusp = cusp
        self.chart_index = chart_index
        self.lines = lines
        self.local_vars = local_vars
        self.charts = charts
        self.curve_rows = {}
        self.pair_over_cusp = {}
        self.curve_smooth = {}
        self.smooth_verified = False

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

    def correction(self, name):
        """(a, b) with pi* C = C~ + a A + b A' as Q-divisors."""
        m1, m2 = self.curve_rows[name]
        return (ratio(2 * m1 + m2, 3), ratio(m1 + 2 * m2, 3))


def _local_surface(S: Poly, cusp: ProjPoint):
    ring = S.ring
    ci = cusp.chart()
    cring = chart_ring(ring, ci)
    f = to_chart(S, ci, cring)
    aff = cusp.affine()
    shift = {
        i: cring.var(cring.vars[i]) + cring.from_scalar(aff[i]) for i in range(3)
    }
    return f.subs(shift), cring, ci, shift


def _field_sqrt(x, field):
    if not hasattr(field, "levels"):
        return cyclo_sqrt(x)
    flat = field.flatten(x)
    if any(not c.is_zero for c in flat[1:]):
        return None
    r = cyclo_sqrt(flat[0])
    return None if r is None else field.coerce(r)


def _matrix_inverse(m, field):
    n = len(m)
    aug = [
        list(m[i]) + [field.one if j == i else field.zero for j in range(n)]
        for i in range(n)
    ]
    red, piv = linalg.rref(aug, field)
    if piv != list(range(n)):
        raise ValueError("matrix not invertible")
    return [row[n:] for row in red]


def tangent_cone_lines(flocal: Poly, cring: Ring):
    """Factor the rank-2 quadratic part into two monic linear forms.

    Returns (l1, l2, kernel_vector); deterministic labelling (sorted by
    string form); raises ResolutionError when the rank is not 2 or the
    splitting needs a square root outside the working field.
    """
    field = cring.field
    if degree_part(flocal, 0).terms or degree_part(flocal, 1).terms:
        raise ResolutionError("point is not singular on the surface")
    quad = degree_part(flocal, 2)
    m = quadratic_matrix(quad, cring)
    if linalg.rank(m, field) != 2:
        raise ResolutionError("tangent cone rank is not 2 (not an A2 datum)")
    kern = linalg.kernel_basis(m, field)[0]
    comp = []
    for i in range(3):
        v = [field.zero] * 3
        v[i] = field.one
        trial = [list(u) for u in comp] + [v, list(kern)]
        if linalg.rank(trial, field) == len(trial):
            comp.append(v)
        if len(comp) == 2:
            break
    v1, v2 = comp

    def q_bilin(u, v):
        out = field.zero
        for i in range(3):
            for j in range(3):
                out = field.add(out, field.mul(field.mul(u[i], m[i][j]), v[j]))
        return out

    a = q_bilin(v1, v1)
    b = field.mul(field.coerce(2), q_bilin(v1, v2))
    c = q_bilin(v2, v2)
    Minv = _matrix_inverse([[v1[i], v2[i], kern[i]] for i in range(3)], field)

    def linear_poly(coeffs):
        return cring.from_terms(
            (tuple(1 if j == i else 0 for j in range(3)), cc)
            for i, cc in enumerate(coeffs)
            if not field.is_zero(cc)
        )

    s_poly = linear_poly(Minv[0])
    t_poly = linear_poly(Minv[1])
    if field.is_zero(a) and field.is_zero(c):
        l1 = s_poly.scale(b)
        l2 = t_poly
    elif field.is_zero(a):
        l1 = t_poly
        l2 = s_poly.scale(b) + t_poly.scale(c)
    else:
        disc = field.sub(field.mul(b, b), field.mul(field.coerce(4), field.mul(a, c)))
        delta = _field_sqrt(disc, field)
        if delta is None:
            raise ResolutionError(
                "tangent cone splits only over a quadratic extension"
            )
        inv2a = field.inv(field.mul(field.coerce(2), a))
        r1 = field.mul(field.sub(field.neg(b), delta), inv2a)
        r2 = field.mul(field.add(field.neg(b), delta), inv2a)
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
        bring = Ring(names, cring.order, cring.field)
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


def strict_transform(p: Poly, bring: Ring, images):
    """Pull p through the blow-up and divide by the largest power of w."""
    q = p.subs(dict(enumerate(images)), ring=bring)
    if q.is_zero:
        return q, 0
    widx = bring.nvars - 1
    mult = min(e[widx] for e, _ in q.terms)
    if mult:
        q = bring.from_terms(
            (e[:widx] + (e[widx] - mult,), c) for e, c in q.terms
        )
    return q, mult


def _partition_extras(bring: Ring, mchart: int):
    """Slice variables so each exceptional point is counted in one chart:
    chart 2 takes all its points, chart 1 those with V_2 = 0, chart 0 those
    with V_1 = V_2 = 0."""
    if mchart == 2:
        return []
    if mchart == 1:
        return [bring.var(bring.vars[1])]  # v for the ambient direction 2
    return [bring.var(bring.vars[0]), bring.var(bring.vars[1])]


def _line_in_chart(line_coeffs, mchart, bring, field):
    terms = []
    const = field.zero
    vi = 0
    for j in range(3):
        if j == mchart:
            const = line_coeffs[j]
        else:
            if not field.is_zero(line_coeffs[j]):
                e = [0, 0, 0]
                e[vi] = 1
                terms.append((tuple(e), line_coeffs[j]))
            vi += 1
    p = bring.from_terms(terms)
    if not field.is_zero(const):
        p = p + bring.from_scalar(const)
    return p


def _exceptional_supported_length(gens, bring, mchart):
    """Length of V(gens) supported on the w = 0 partition slice."""
    gens = [g for g in gens if not g.is_zero]
    gb0 = buchberger(gens, ring=bring)
    if gb0.is_trivial():
        return 0
    try:
        scheme = zero_dim_analyze(gb0)
    except NotZeroDimensional:
        raise ResolutionError("strict transforms share a component over the cusp")
    return QuotientAlgebra(scheme).supported_length(
        [bring.var("w_")] + _partition_extras(bring, mchart)
    )


def resolve_cusp(S: Poly, cusp: ProjPoint, curves) -> CuspResolution:
    """Blow up one certified A2 cusp and record all curve data there."""
    flocal, cring, ci, shift = _local_surface(S, cusp)
    field = cring.field
    l1, l2, kern = tangent_cone_lines(flocal, cring)
    cubic = degree_part(flocal, 3)
    if field.is_zero(cubic.eval(list(kern), field=field)):
        raise ResolutionError(
            "not resolved by the point blow-up (cubic vanishes on the kernel "
            "line); contradicts the A2 certificate"
        )
    unit_exp = lambda i: tuple(1 if j == i else 0 for j in range(3))
    l1c = [l1.coeff_of(unit_exp(i)) for i in range(3)]
    l2c = [l2.coeff_of(unit_exp(i)) for i in range(3)]

    charts = blow_up_charts(cring)
    strict_by_chart = []
    for mchart, bring, images in charts:
        fs, mult = strict_transform(flocal, bring, images)
        if mult != 2:
            raise ResolutionError("surface multiplicity at the cusp is not 2")
        strict_by_chart.append((mchart, bring, images, fs))

    # smoothness of the blown-up surface along the exceptional fiber
    for mchart, bring, images, fs in strict_by_chart:
        gens = [fs] + [fs.partial(i) for i in range(bring.nvars)]
        gens.append(bring.var("w_"))
        gb = buchberger([g for g in gens if not g.is_zero], ring=bring)
        if not gb.is_trivial():
            raise ResolutionError(
                "strict transform singular along the exceptional locus"
            )

    res = CuspResolution(
        cusp,
        ci,
        (l1c, l2c),
        cring.vars,
        [(mchart, images, fs) for mchart, _, images, fs in strict_by_chart],
    )
    res.smooth_verified = True

    strict_gens = {}
    incident = []
    point = list(cusp.coords)
    for curve in curves:
        # incidence is exact evaluation at the cusp; only a curve through
        # it is shifted, and a generator that is S itself (the T3
        # sections) is already shifted
        if any(not field.is_zero(g.eval(point)) for g in curve.gens):
            res.curve_rows[curve.name] = (0, 0)
            continue
        loc = [
            flocal if g is S else to_chart(g, ci, cring).subs(shift)
            for g in curve.gens
        ]
        loc = [g for g in loc if not g.is_zero]
        incident.append(curve)
        per_chart = []
        for mchart, bring, images, fs in strict_by_chart:
            sg = []
            for g in loc:
                gs, _ = strict_transform(g, bring, images)
                if not gs.is_zero:
                    sg.append(gs)
            per_chart.append((mchart, bring, sg))
        strict_gens[curve.name] = per_chart

    for curve in incident:
        row = []
        for line_coeffs in res.lines:
            total = 0
            for mchart, bring, sg in strict_gens[curve.name]:
                lpoly = _line_in_chart(line_coeffs, mchart, bring, field)
                gens = list(sg) + [bring.var("w_"), lpoly]
                gens += _partition_extras(bring, mchart)
                gens = [g for g in gens if not g.is_zero]
                gb = buchberger(gens, ring=bring)
                if gb.is_trivial():
                    continue
                total += zero_dim_analyze(gb).degree
            row.append(total)
        res.curve_rows[curve.name] = tuple(row)
        res.curve_smooth[curve.name] = _curve_smooth_over_exceptional(
            strict_gens[curve.name]
        )

    for a in range(len(incident)):
        for b in range(a + 1, len(incident)):
            cu, cv = incident[a], incident[b]
            length = 0
            for pos in range(3):
                mchart, bring, sg_u = strict_gens[cu.name][pos]
                _, _, sg_v = strict_gens[cv.name][pos]
                length += _exceptional_supported_length(
                    list(sg_u) + list(sg_v), bring, mchart
                )
            res.pair_over_cusp[(cu.name, cv.name)] = length
            res.pair_over_cusp[(cv.name, cu.name)] = length
    return res


def _curve_smooth_over_exceptional(per_chart):
    """Jacobian criterion for the strict-transform curve on the w = 0 fiber."""
    for mchart, bring, sg in per_chart:
        gens = [g for g in sg if not g.is_zero]
        if len(gens) < 2:
            continue
        jac = [[g.partial(i) for i in range(bring.nvars)] for g in gens]
        mins = [m for m in minors(jac, 2) if not m.is_zero]
        probe = gens + mins + [bring.var("w_")] + _partition_extras(bring, mchart)
        gb = buchberger([g for g in probe if not g.is_zero], ring=bring)
        if not gb.is_trivial():
            return False
    return True


def curve_singular_points(curve: CurveOnSurface):
    """Singular points of the curve (rank-deficiency of the Jacobian),
    returned as a per-chart-piece degree count with the radical loci."""
    ring = curve.gens[0].ring
    n = ring.nvars
    jac = [[g.partial(i) for i in range(n)] for g in curve.gens]
    mins = [m for m in minors(jac, min(len(curve.gens), n - 2)) if not m.is_zero]
    out = []
    for ci, scheme in _chart_pieces(curve.gens + mins):
        out.append((ci, radical_zero_dim(scheme)))
    return out
