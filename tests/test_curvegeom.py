import itertools
import random
from fractions import Fraction

import pytest

from cuspidal import catalog, curvegeom, groebner, linalg, modp, singcert
from cuspidal.cyclofield import ALPHA, ONE, ZERO, CycloElem
from cuspidal.curvegeom import (
    CurveOnSurface,
    ResolutionError,
    SquareRootFailure,
    _exceptional_supported_length,
    _smooth_over_exceptional,
    blow_up_charts,
    chart_pair_intersection,
    curve_lies_on,
    curve_singular_points,
    find_tropes,
    intersect_surfaces,
    pair_intersection_away_from,
    poly_square_root,
    resolve_cusp,
    strict_transform,
    tangent_cone_lines,
)
from cuspidal.groebner import NotZeroDimensional, buchberger, zero_dim_analyze
from cuspidal.multipoly import ProjPoint, minors, proportional, restrict_to_plane
from cuspidal.pipeline import divisibility_pipeline, new_quintic_curves
from cuspidal.singcert import chart_ring, degree_part, local_surface, quadratic_matrix
from cuspidal.zfive import ActionK, orbits

R = catalog.XYZW


def test_poly_square_root_roundtrip():
    x, y, z, w = R.gens()
    c = x**2 + (z * w).scale(CycloElem.from_int(1) - 2 * ALPHA)
    scalar, root = poly_square_root((c * c).scale(ALPHA))
    assert scalar == ALPHA * c.lc() ** 2 or (root * root).scale(scalar) == (
        c * c
    ).scale(ALPHA)
    with pytest.raises(SquareRootFailure):
        poly_square_root(x**2 + y**2)
    with pytest.raises(SquareRootFailure):
        poly_square_root(x**3)


def test_trope_census_published_quartic(node_data):
    Q = catalog.get("new_quartic").poly
    census = find_tropes(
        Q, node_data["nodes"], node_data["fixed"], action=ActionK(0)
    )
    assert len(census.tropes) == 16
    inv, through, away = census.partition()
    assert len(inv) == 1 and len(through) == 5 and len(away) == 10
    # the invariant trope through the fixed node is y = 0
    assert str(inv[0].plane) == "y"
    # tropes come in the order of their node tuples, which the pipeline's
    # T-family naming reads
    keys = [t.node_indices for t in census.tropes]
    assert keys == sorted(keys) and len(set(keys)) == 16
    # every trope contains exactly 6 certified nodes, and its plane vanishes
    # on exactly those
    nodes = node_data["nodes"]
    for t in census.tropes:
        assert len(t.node_indices) == 6
        assert list(t.node_indices) == sorted(t.node_indices)
        on = tuple(
            i for i, nd in enumerate(nodes) if t.plane.eval(list(nd.coords)).is_zero
        )
        assert on == t.node_indices
    # negative control: without node 0 the six tropes through it keep only
    # five nodes each, and the ten tropes away from it remain
    rest = find_tropes(Q, nodes[1:], node_data["fixed"], action=ActionK(0))
    away_from_0 = [t.node_indices for t in census.tropes if 0 not in t.node_indices]
    assert [t.node_indices for t in rest.tropes] == [
        tuple(i - 1 for i in key) for key in away_from_0
    ]
    assert [len(part) for part in rest.partition()] == [1, 3, 6]
    # restriction of Q to y = 0 is the published doubled conic
    x, y, z, w = R.gens()
    conic = x**2 + (z * w).scale(CycloElem.from_int(1) - 2 * ALPHA)
    restr = restrict_to_plane(Q, y)
    assert restr == conic**2
    # square certificate: conic^2 equals the restriction up to one scalar
    scalar, root = poly_square_root(restr)
    assert root.scale(root.lc()) == root  # monic
    assert (root * root).scale(scalar) == restr


def test_trope_orbits_structure(node_data):
    Q = catalog.get("new_quartic").poly
    act = ActionK(0)
    census = find_tropes(Q, node_data["nodes"], node_data["fixed"], action=act)
    _, through, away = census.partition()

    def step(t):
        return act.on_poly(t.plane).monic()

    def same(t, plane):
        return t.plane == plane

    assert sorted(len(o) for o in orbits(away, step, same)) == [5, 5]
    assert sorted(len(o) for o in orbits(through, step, same)) == [5]


def test_no_tropes_on_smooth_quadric():
    x, y, z, w = R.gens()
    census = find_tropes(x**2 + y**2 + z**2 + w**2, [], None, ActionK(0))
    assert census.tropes == []


def test_intersect_surfaces_clean(new_divisibility):
    # computed inside the pipeline; its report is part of the stages
    stage = [
        s
        for s in new_divisibility.stages
        if s["stage"] == "quintic_meets_quartic_at_conics"
    ][0]
    assert stage["ok"]
    assert stage["degree_expected"] == 20 == stage["degree_counted"]
    assert stage["conics_on_both"] == 10
    assert stage["excess_components"] == []
    assert len(stage["plane"]) == 4 and any(stage["plane"])
    assert stage["planes_tried"] >= 1


def test_intersect_surfaces_duplicate_conic_not_clean(new_divisibility):
    # one conic listed twice in place of another: the degrees still
    # balance (20 = 20) and every listed conic lies on both surfaces, but
    # the plane section has points on the missing conic, off the union of
    # the listed conic planes
    S = catalog.get("new_quintic").poly
    Q = catalog.get("new_quartic").poly
    conics = new_divisibility.families[0] + new_divisibility.families[1]
    assert len(conics) == 10
    rep = intersect_surfaces(S, Q, conics[:-1] + [conics[0]])
    assert all(rep.conic_containments)
    assert rep.degree_expected == 20 == rep.degree_counted
    assert rep.plane is not None
    assert rep.excess
    assert not rep.clean


def test_intersect_surfaces_rejects_shared_component():
    x, y, z, w = R.gens()
    F = x**2 + y * z
    c = CurveOnSurface("c", [x, y], 1, 0)
    with pytest.raises(ValueError):
        # F and F*(w) share the component F: every plane slice is
        # one-dimensional, violating the precondition
        intersect_surfaces(F, F * w, [c])


def test_resolve_cusp_split_tangent_cone_model():
    # S = x*y*w + z^3 has an A2 point at (0:0:0:1) with tangent cone x*y;
    # the line x = z = 0 lies on S and meets the first exceptional line
    # once, the second not at all (hand-computed oracle)
    x, y, z, w = R.gens()
    S = x * y * w + z**3
    line = CurveOnSurface("L", [x, z], 1, 0)
    assert curve_lies_on(line, S)
    res = resolve_cusp(S, ProjPoint([0, 0, 0, 1]), [line])
    assert res.curve_rows["L"] == (1, 0)


def test_resolve_cusp_curve_missing_the_point():
    x, y, z, w = R.gens()
    S = x * y * w + z**3
    far = CurveOnSurface("far", [x - w, z], 1, 0)
    res = resolve_cusp(S, ProjPoint([0, 0, 0, 1]), [far])
    assert res.curve_rows["far"] == (0, 0)


def test_resolve_cusp_rejects_a1():
    x, y, z, w = R.gens()
    cone = x**2 + y * z  # rank-3 quadric cone: A1, not A2
    with pytest.raises(ResolutionError):
        resolve_cusp(cone * w + z**3 * y - z**3 * y + cone * w, ProjPoint([0, 0, 0, 1]), [])
    with pytest.raises(ResolutionError):
        resolve_cusp(x**2 * w + y**2 * w + z**2 * w + x**3, ProjPoint([0, 0, 0, 1]), [])


def test_resolve_cusp_needs_field_extension():
    # tangent cone x^2 + y^2 splits only over Q(zeta5)(i)
    x, y, z, w = R.gens()
    S = x**2 * w + y**2 * w + z**3
    with pytest.raises(ResolutionError) as ei:
        resolve_cusp(S, ProjPoint([0, 0, 0, 1]), [])
    assert "quadratic extension" in str(ei.value)


# the two lines of the tangent cone Q(x, y) of S = Q w + z^3 at (0:0:0:1):
# slopes in Q(sqrt5), which is inside Q(zeta5) (sqrt5 = -1 - 2e^2 - 2e^3),
# rational slopes, and a cone with a = 0 (c = 0 and c != 0); x^2 - 2y^2
# needs sqrt2, which Q(zeta5) lacks
@pytest.mark.parametrize(
    "cone, want",
    [
        (lambda x, y: x**2 - 5 * y**2, ("x+(-1-2*e^2-2*e^3)*y", "x+(1+2*e^2+2*e^3)*y")),
        (lambda x, y: x**2 + x * y - y**2, ("x+(-e^2-e^3)*y", "x+(1+e^2+e^3)*y")),
        (lambda x, y: x * y, ("x", "y")),
        (lambda x, y: x * y + y**2, ("x+y", "y")),
        (lambda x, y: x**2 - 2 * y**2, None),
    ],
    ids=["x^2-5y^2", "x^2+xy-y^2", "xy", "xy+y^2", "x^2-2y^2"],
)
def test_tangent_cone_lines_models(cone, want):
    x, y, z, w = R.gens()
    S = cone(x, y) * w + z**3
    flocal, cring, _, _ = local_surface(S, ProjPoint([0, 0, 0, 1]))
    if want is None:
        with pytest.raises(ResolutionError, match="quadratic extension"):
            tangent_cone_lines(flocal, cring)
        return
    l1, l2, kern = tangent_cone_lines(flocal, cring)
    assert (str(l1), str(l2)) == want
    assert [str(c) for c in kern] == ["0", "0", "1"]
    assert proportional(l1 * l2, degree_part(flocal, 2))


def test_tangent_cone_missed_slopes_need_an_extension(monkeypatch):
    # with no usable prime the root finder finds no slope: the cusp fails
    # as needing a quadratic extension, never with a wrong pair of lines
    monkeypatch.setattr(modp, "INERT_PRIMES", [])
    x, y, z, w = R.gens()
    S = (x**2 - 5 * y**2) * w + z**3
    flocal, cring, _, _ = local_surface(S, ProjPoint([0, 0, 0, 1]))
    with pytest.raises(ResolutionError, match="quadratic extension"):
        tangent_cone_lines(flocal, cring)


def reference_tangent_cone_lines(quad, cring):
    """`tangent_cone_lines` on a rank-2 form before the closed form: the
    complement of kern by rank trials (e_i kept in index order while the
    chosen vectors, e_i and kern are independent), the binary form by the
    bilinear form of m, and s, t by solving against the basis [v1 v2
    kern].  Returns (l1, l2, kern, the binary form's (a, b, c)), with l1
    and l2 None when the root finder finds no two slopes."""
    m = quadratic_matrix(quad, cring)
    kern = linalg.kernel_basis(m)[0]
    comp = []
    for i in range(3):
        v = [ZERO] * 3
        v[i] = ONE
        if linalg.rank(comp + [v, list(kern)]) == len(comp) + 2:
            comp.append(v)
        if len(comp) == 2:
            break
    v1, v2 = comp

    def q_bilin(u, v):
        return sum((u[i] * m[i][j] * v[j] for i in range(3) for j in range(3)), ZERO)

    a, b, c = q_bilin(v1, v1), 2 * q_bilin(v1, v2), q_bilin(v2, v2)
    basis = [v1, v2, kern]
    s_poly = cring.linear_form(linalg.solve(basis, [ONE, ZERO, ZERO]))
    t_poly = cring.linear_form(linalg.solve(basis, [ZERO, ONE, ZERO]))
    if not a:
        l1, l2 = t_poly, s_poly.scale(b) + t_poly.scale(c)
    else:
        slopes, _ = modp.rational_roots([c, b, a])
        if len(slopes) < 2:
            return None, None, kern, (a, b, c)
        r1, r2 = slopes
        l1, l2 = (s_poly - t_poly.scale(r1)).scale(a), s_poly - t_poly.scale(r2)
    assert l1 * l2 == quad
    l1, l2 = sorted((l1.monic(), l2.monic()), key=str)
    return l1, l2, kern, (a, b, c)


SQRT5 = -1 - 2 * ALPHA  # sqrt5 = -1 - 2e^2 - 2e^3


def random_rank2_cone(rng, cring, k, kind):
    """l1 * l2 for two linear forms vanishing on a kernel vector whose
    last nonzero entry is at k, with nonzero entries before it: rational
    forms, the conjugates s +- sqrt5 t of rational s and t, or ("a=0")
    rational forms with l1 vanishing on e_i too, i the first index other
    than k, so that m_ii = 0."""
    kern = [rng.choice([-3, -2, -1, 1, 2]) for _ in range(k)] + [1] + [0] * (2 - k)
    i = 1 if k == 0 else 0

    def annihilating(zero_at=None):
        coeffs = [
            CycloElem.from_int(rng.randint(-5, 5)) / rng.randint(1, 3) for _ in kern
        ]
        for p in (zero_at, k):
            if p is not None:
                coeffs[p] = ZERO
        # kern_k = 1: the entry at k cancels the others on kern
        coeffs[k] = -sum((c * e for c, e in zip(coeffs, kern)), ZERO)
        return cring.linear_form(coeffs)

    if kind == "sqrt5":
        s, t = annihilating(), annihilating()
        return (s + t.scale(SQRT5)) * (s - t.scale(SQRT5))
    return annihilating(i if kind == "a=0" else None) * annihilating()


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("kind", ["rational", "sqrt5", "a=0"])
def test_tangent_cone_lines_match_complement_and_solve(k, kind, monkeypatch):
    # seeded rank-2 cones with the kernel's last nonzero entry at k: the
    # closed-form complement gives the binary form of the rank trials and
    # solves, and so the same lines and kernel, or the same failure when
    # the root finder misses the slopes (docs/DECISIONS.md D33)
    rng = random.Random(3300 + 10 * k + len(kind))
    cring = chart_ring(R, 3)
    forms = []
    roots = modp.rational_roots
    monkeypatch.setattr(
        curvegeom, "rational_roots", lambda cs: forms.append(cs) or roots(cs)
    )
    split = 0
    for _ in range(8):
        quad = random_rank2_cone(rng, cring, k, kind)
        if linalg.rank(quadratic_matrix(quad, cring)) != 2:
            continue  # l1 and l2 proportional, or one of them zero
        l1, l2, kern, (a, b, c) = reference_tangent_cone_lines(quad, cring)
        assert max(p for p in range(3) if kern[p]) == k and (k == 0 or kern[0])
        assert not a or kind != "a=0"
        forms.clear()
        if l1 is None:
            with pytest.raises(ResolutionError, match="quadratic extension"):
                tangent_cone_lines(quad, cring)
        else:
            got = tangent_cone_lines(quad, cring)
            assert (str(got[0]), str(got[1]), got[2]) == (str(l1), str(l2), kern)
            split += 1
        assert forms == ([[c, b, a]] if a else [])
    assert split >= 4


def reference_exceptional_length(gens, bring, mchart):
    """`_exceptional_supported_length` before chart pieces: the chart
    scheme of gens, built whenever gens have a zero in the chart, and its
    length supported on chart m's part of w = 0."""
    gb = buchberger(gens, ring=bring)
    if gb.is_trivial():
        return 0
    try:
        scheme = zero_dim_analyze(gb)
    except NotZeroDimensional:
        raise ResolutionError("strict transforms share a component over the cusp")
    return scheme.algebra.supported_length([bring.var("w_")] + bring.gens()[mchart:-1])


def reference_smooth_over_exceptional(per_chart, codim):
    """The two smoothness checks before chart pieces: the strict transform
    of the surface with its partials on the whole of w = 0 in each chart,
    and a curve's with its 2x2 minors on chart m's part of w = 0."""
    for mchart, bring, gens in per_chart:
        w = bring.var("w_")
        if codim == 1:
            (fs,) = gens
            probe = [fs] + [fs.partial(i) for i in range(bring.nvars)] + [w]
        elif len(gens) < 2:
            continue
        else:
            jac = [[g.partial(i) for i in range(bring.nvars)] for g in gens]
            probe = gens + minors(jac, 2) + [w] + bring.gens()[mchart:-1]
        if not buchberger(probe, ring=bring).is_trivial():
            return False
    return True


@pytest.fixture(scope="module")
def new_quintic_at_cusps(node_data):
    """The new quintic, its 15 curves and the three cusps that
    `divisibility_pipeline` resolves, one per orbit, found without
    resolving a cusp."""
    ent = catalog.get("new_quintic")
    Q = catalog.get(ent.companion).poly
    families, _ = new_quintic_curves(
        ent.poly, Q, node_data["nodes"], node_data["fixed"], ent.action
    )
    cusps = [
        catalog.CHOSEN_NODE if catalog.CHOSEN_NODE in o else o[0]
        for o in orbits(node_data["cusps"], ent.action.on_point)
    ]
    return ent.poly, [c for fam in families for c in fam], cusps, families


def test_exceptional_pieces_match_the_buchberger_routes(
    new_quintic_at_cusps, monkeypatch
):
    # every row, pair length and smoothness verdict of the new quintic's
    # 15 curves at its three representative cusps is the one of the
    # Buchberger routes the chart pieces replaced (docs/DECISIONS.md D33)
    S, curves, cusps, _ = new_quintic_at_cusps
    got = [resolve_cusp(S, p, curves) for p in cusps]
    for name, reference in [
        ("_exceptional_supported_length", reference_exceptional_length),
        ("_smooth_over_exceptional", reference_smooth_over_exceptional),
    ]:
        monkeypatch.setattr(curvegeom, name, reference)
    want = [resolve_cusp(S, p, curves) for p in cusps]
    for a, b in zip(got, want):
        assert a.curve_rows == b.curve_rows
        assert a.pair_over_cusp == b.pair_over_cusp
        assert a.curve_smooth == b.curve_smooth
    # 22 points of the strict transforms on the exceptional lines, and
    # every curve through a cusp is smooth over it
    assert sum(sum(row) for a in got for row in a.curve_rows.values()) == 22
    assert all(v for a in got for v in a.curve_smooth.values())


def test_smoothness_verdicts_on_models():
    # in each blow-up chart, V(v_a v_b + w^2) is singular at the origin
    # of the chart, on the chart's piece of w = 0, and so is the curve
    # V(w, v_a v_b); V(w, v_a) is smooth
    for mchart, bring, _ in blow_up_charts(chart_ring(R, 3)):
        va, vb, w = bring.gens()
        cases = [
            ([va * vb + w**2], 1, False),
            ([w, va * vb], 2, False),
            ([w, va], 2, True),
        ]
        for gens, codim, smooth in cases:
            per_chart = [(mchart, bring, gens)]
            assert _smooth_over_exceptional(per_chart, codim) is smooth
            assert reference_smooth_over_exceptional(per_chart, codim) is smooth


def test_resolve_cusp_analyzes_only_nonempty_exceptional_pieces(
    new_quintic_at_cusps, monkeypatch
):
    # a strict-transform length builds its chart scheme only when the
    # chart's piece of the exceptional plane is nonempty: 22 chart schemes
    # at the new quintic's three representative cusps, against 174 when
    # one was built wherever the generators had a zero in the chart
    S, curves, cusps, _ = new_quintic_at_cusps
    calls = []
    analyze = groebner.zero_dim_analyze

    def counted(gb):
        calls.append(gb)
        return analyze(gb)

    for mod in (groebner, singcert, curvegeom):
        if getattr(mod, "zero_dim_analyze", None) is analyze:
            monkeypatch.setattr(mod, "zero_dim_analyze", counted)
    for p in cusps:
        resolve_cusp(S, p, curves)
    assert len(calls) == 22


def test_a_curve_listed_twice_shares_a_component_over_the_cusp(
    new_quintic_at_cusps, node_data
):
    # negative control: one curve of each family under a second name, at
    # a cusp it passes through; the shared component meets the
    # exceptional plane, so some chart piece is nonempty and its chart
    # scheme is positive-dimensional
    S, _, _, families = new_quintic_at_cusps
    for fam in families:
        curve = fam[0]
        again = CurveOnSurface("again", curve.gens, curve.degree, curve.pa_embedded)
        cusp = next(p for p in node_data["cusps"] if through(curve, p))
        with pytest.raises(ResolutionError, match="share a component over the cusp"):
            resolve_cusp(S, cusp, [curve, again])


def test_exceptional_length_counts_a_double_point_on_the_chart_boundary():
    # chart 1 keeps the exceptional points with v_z = 0: the point
    # v_x = v_z = 0 of V(w, v_x, v_z^2) has length 2 there; adding v_z as
    # a generator would cut it down to the reduced point, length 1
    mchart, bring, _ = blow_up_charts(chart_ring(R, 3))[1]
    assert (mchart, bring.vars) == (1, ("v_x", "v_z", "w_"))
    v_x, v_z, w = bring.gens()
    assert _exceptional_supported_length([w, v_x, v_z**2], bring, 1) == 2
    assert _exceptional_supported_length([w, v_x, v_z**2, v_z], bring, 1) == 1


def reference_strict_transform(p, bring, images):
    """The pull-back that `strict_transform` ran before its exponent map,
    variable i to images[i] term by term in the chart ring, then divided
    by the largest power of w."""
    q = bring.zero
    for e, c in p.terms:
        term = bring.from_scalar(c)
        for i, k in enumerate(e):
            if k:
                term = term * images[i] ** k
        q = q + term
    if q.is_zero:
        return q, 0
    widx = bring.nvars - 1
    mult = min(e[widx] for e, _ in q.terms)
    if mult:
        q = bring.from_terms((e[:widx] + (e[widx] - mult,), c) for e, c in q.terms)
    return q, mult


@pytest.mark.parametrize("mchart", range(3))
def test_strict_transform_matches_subs_route(mchart):
    # random polynomials with rational and Q(zeta5) coefficients, some
    # with no low-degree terms, the zero polynomial, and the VdGZ
    # quintic's local surface at a cusp: the same terms, coefficients and
    # multiplicity in each blow-up chart
    rng = random.Random(2831 + mchart)
    cring = chart_ring(R, 3)
    m, bring, images = blow_up_charts(cring)[mchart]
    assert m == mchart
    r = lambda: Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    coeffs = [lambda: CycloElem.from_rat(r()), lambda: CycloElem([r() for _ in range(4)])]
    cusp = ProjPoint([-1, -1, 0, 1])
    polys = [cring.zero, local_surface(catalog.get("vdgz_quintic").poly, cusp)[0]]
    for trial in range(30):
        low = trial % 4
        terms = []
        for _ in range(rng.randint(1, 8)):
            e = [0, 0, 0]
            for _ in range(rng.randint(low, low + 4)):
                e[rng.randrange(3)] += 1
            terms.append((tuple(e), coeffs[trial % 2]()))
        polys.append(cring.from_terms(terms))
    mults = set()
    for p in polys:
        got, mult = strict_transform(p, bring, mchart)
        want, want_mult = reference_strict_transform(p, bring, images)
        assert got == want and str(got) == str(want) and mult == want_mult
        assert got.ring is bring
        mults.add(mult)
    assert {0, 1, 2, 3} <= mults


def test_pair_intersection_away_from():
    x, y, z, w = R.gens()
    c1 = CurveOnSurface("a", [x, y], 1, 0)
    c2 = CurveOnSurface("b", [x, z], 1, 0)
    meet = ProjPoint([0, 0, 0, 1])
    assert pair_intersection_away_from(c1, c2, []) == 1
    assert pair_intersection_away_from(c1, c2, [meet]) == 0


def test_pair_intersection_tangential():
    # in the plane x = 0 the line y = 0 is tangent to the conic y w = z^2
    # at (0:0:0:1); the line y = z meets it there and at (0:1:1:1)
    x, y, z, w = R.gens()
    conic = CurveOnSurface("conic", [x, y * w - z**2], 2, 0)
    tangent = CurveOnSurface("tangent", [x, y], 1, 0)
    secant = CurveOnSurface("secant", [x, y - z], 1, 0)
    p0 = ProjPoint([0, 0, 0, 1])
    p1 = ProjPoint([0, 1, 1, 1])
    assert pair_intersection_away_from(conic, tangent, []) == 2
    assert pair_intersection_away_from(conic, tangent, [p0]) == 0
    # the same tangency with z and w swapped sits at (0:0:1:0), in piece z
    # on the boundary of chart z: its length is still 2, not the 1 of the
    # piece ideal cut by w
    boundary = CurveOnSurface("boundary", [x, y * z - w**2], 2, 0)
    assert pair_intersection_away_from(boundary, tangent, []) == 2
    assert pair_intersection_away_from(boundary, tangent, [ProjPoint([0, 0, 1, 0])]) == 0
    assert pair_intersection_away_from(conic, secant, []) == 2
    assert pair_intersection_away_from(conic, secant, [p0]) == 1
    assert pair_intersection_away_from(conic, secant, [p1]) == 1


# -- the degree-1 path (docs/DECISIONS.md D29) -----------------------------


def vdgz_line_curves():
    return [CurveOnSurface(label, forms, 1, 0) for label, forms in catalog.vdgz_lines()]


def through(curve, point):
    return not any(g.eval(list(point.coords)) for g in curve.gens)


@pytest.mark.parametrize("excluded", ["cusps", "none"])
def test_linear_pair_intersection_matches_chart_pieces(excluded, monkeypatch):
    # all 105 pairs of the 15 VdGZ lines: P(ker M) gives the chart-piece
    # length, with and without the 15 cusps excluded
    points = catalog.vdgz_cusps() if excluded == "cusps" else []
    pairs = list(itertools.combinations(vdgz_line_curves(), 2))
    want = [chart_pair_intersection(C, D, points) for C, D in pairs]
    # the linear path answers every pair: the chart pieces are not reached
    monkeypatch.setattr(curvegeom, "chart_pair_intersection", None)
    got = [pair_intersection_away_from(C, D, points) for C, D in pairs]
    assert len(got) == 105 and got == want
    assert sum(got) == {"cusps": 30, "none": 45}[excluded]


def test_line_rows_over_cusps_match_strict_transforms(monkeypatch):
    # at each of the 15 VdGZ cusps, the rows, pair lengths and smoothness
    # of the 15 lines read off their directions equal those of the
    # strict transforms
    S = catalog.get("vdgz_quintic").poly
    lines = vdgz_line_curves()
    cusps = catalog.vdgz_cusps()
    smooth = curvegeom._smooth_over_exceptional

    def surface_only(per_chart, codim):
        # the blown-up surface is still checked, no curve is
        assert codim == 1, "curve-smoothness probe on the linear path"
        return smooth(per_chart, codim)

    with monkeypatch.context() as m:
        # no strict-transform length on the linear path
        m.setattr(curvegeom, "_exceptional_supported_length", None)
        m.setattr(curvegeom, "_smooth_over_exceptional", surface_only)
        linear = [resolve_cusp(S, p, lines) for p in cusps]
    monkeypatch.setattr(curvegeom, "linear_form_rows", lambda gens: None)
    strict = [resolve_cusp(S, p, lines) for p in cusps]
    for cusp, a, b in zip(cusps, linear, strict):
        assert a.curve_rows == b.curve_rows
        assert a.pair_over_cusp == b.pair_over_cusp
        assert a.curve_smooth == b.curve_smooth
        # two lines through each cusp, one on each exceptional line
        on = [c.name for c in lines if through(c, cusp)]
        assert sorted(a.curve_rows[n] for n in on) == [(0, 1), (1, 0)]
        assert set(a.pair_over_cusp.values()) == {0}
        assert set(a.curve_smooth) == set(on)


def test_line_tangent_to_a_conic_takes_the_strict_path(
    new_divisibility, node_data, monkeypatch
):
    # the line tangent to the conic T1.0 at a cusp shares its direction
    # there: the pair's length over the cusp comes from the strict
    # transforms and is 1, while the line's own row is read off its
    # direction
    S = catalog.get("new_quintic").poly
    conic = new_divisibility.families[0][0]
    plane, quad = conic.gens
    cusp = next(p for p in node_data["cusps"] if through(conic, p))
    at = list(cusp.coords)
    tangent_plane = R.linear_form([quad.partial(i).eval(at) for i in range(4)])
    line = CurveOnSurface("tangent", [plane, tangent_plane], 1, 0)
    assert through(line, cusp)
    calls = []
    length = curvegeom._exceptional_supported_length

    def counted(gens, bring, mchart):
        calls.append(mchart)
        return length(gens, bring, mchart)

    monkeypatch.setattr(curvegeom, "_exceptional_supported_length", counted)
    res = resolve_cusp(S, cusp, [conic, line])
    assert res.pair_over_cusp[("T1.0", "tangent")] == 1
    assert res.pair_over_cusp[("tangent", "T1.0")] == 1
    assert res.curve_rows == {"T1.0": (0, 1), "tangent": (0, 1)}
    assert res.curve_smooth == {"T1.0": True, "tangent": True}
    # six lengths for the conic's row, three for the pair, none for the
    # line's row
    assert len(calls) == 9


def test_one_line_twice_fails_as_before():
    # the same line under other generators: the kernel is a plane, so
    # the chart pieces find a curve; at a cusp on it the two directions
    # agree, so the strict transforms find a shared component
    lines = vdgz_line_curves()
    line = lines[0]
    f, g = line.gens
    again = CurveOnSurface("again", [f + g, f - g], 1, 0)
    cusps = catalog.vdgz_cusps()
    for points in ([], cusps):
        with pytest.raises(NotZeroDimensional):
            pair_intersection_away_from(line, again, points)
    cusp = next(p for p in cusps if through(line, p))
    with pytest.raises(ResolutionError, match="share a component"):
        resolve_cusp(catalog.get("vdgz_quintic").poly, cusp, [line, again])


@pytest.mark.parametrize("name, fired", [("new_quintic", 0), ("vdgz_quintic", 33)])
def test_linear_path_fires_only_on_lines(name, fired, monkeypatch):
    # the conics and plane sections of the new quintic never take the
    # degree-1 path; on VdGZ it answers the 27 pair intersections and the
    # 6 lines through the three cusp representatives
    seen = []
    rows_of = curvegeom.linear_form_rows

    def counted(gens):
        rows = rows_of(gens)
        seen.append(rows is not None)
        return rows

    monkeypatch.setattr(curvegeom, "linear_form_rows", counted)
    divisibility_pipeline(name)
    assert seen and sum(seen) == fired


def test_t3_member_has_five_double_points(new_divisibility):
    fam3 = new_divisibility.families[2]
    sing = curve_singular_points(fam3[0])
    assert sum(n for _, n in sing) == 5


def test_resolution_rows_published_consistency(new_divisibility):
    # each conic passes through 6 cusps in total, each T3 member has five
    # double points: the (m1 + m2) totals over the three orbit
    # representatives, scaled by the 5 cusps per orbit, must agree
    fams = new_divisibility.families
    resolutions = new_divisibility.resolutions
    for fam, expected in zip(fams, (6, 6, 10)):
        total = 0
        for res in resolutions:
            for c in fam:
                m1, m2 = res.curve_rows[c.name]
                total += m1 + m2
        assert total == expected


def test_adjunction_values():
    # line / conic / plane quintic on a quintic surface
    line = CurveOnSurface("l", [], 1, 0)
    conic = CurveOnSurface("c", [], 2, 0)
    quintic_section = CurveOnSurface("q", [], 5, 6, double_points=5)
    assert line.resolved_self_intersection() == -3
    assert conic.resolved_self_intersection() == -4
    assert quintic_section.resolved_self_intersection() == -5


def test_exceptional_lines_meet_once(new_divisibility):
    # the two lines of each resolution intersect in exactly one point of
    # the exceptional plane (the A2 dual graph edge)
    from cuspidal import linalg

    for res in new_divisibility.resolutions:
        l1, l2 = res.lines
        rows = [list(l1), list(l2)]
        assert linalg.rank(rows) == 2
