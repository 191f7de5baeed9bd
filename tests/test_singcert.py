import json
from itertools import combinations
from types import SimpleNamespace

import pytest

from cuspidal import catalog, linalg
from cuspidal.cyclofield import ZERO
from cuspidal.groebner import buchberger, radical_zero_dim
from cuspidal.multipoly import ProjPoint, QZ5, hessian, jacobian, minors
from cuspidal.singcert import (
    SingularInCodimensionOne,
    classify_all,
    chart_piece,
    classify_at_point,
    hessian_minor_vectors,
    same_singular_locus,
    singular_scheme,
    to_chart,
)
from cuspidal.zfive import ActionK

R = catalog.XYZW


def test_smooth_quadric_empty_scheme():
    x, y, z, w = R.gens()
    rep = singular_scheme(x**2 + y**2 + z**2 + w**2)
    assert rep.n_points == 0 and rep.tau_total == 0
    cert = classify_all(x**2 + y**2 + z**2 + w**2)
    assert cert.verdict == "smooth"


@pytest.mark.parametrize("name", catalog.names())
def test_chart_piece_generators_are_monic(name):
    # the dehomogenised Jacobian in its order, each made monic once, so
    # that buchberger's monic() hands every one back as it is
    parts = jacobian(catalog.get(name).poly)
    for ci in range(4):
        ring, gens, _ = chart_piece(parts, ci)
        want = [to_chart(g, ci, ring) for g in parts]
        assert [g.terms for g in gens] == [g.monic().terms for g in want if g]
        assert all(g.monic() is g for g in gens)


def test_positive_dimensional_reported():
    x, y, z, w = R.gens()
    # x^2 y^2: singular along two planes
    rep = singular_scheme(x**2 * y**2)
    assert rep.positive_dimensional is not None
    with pytest.raises(ValueError):
        classify_all(x**2 * y**2)


# negative controls: each must fail the A1/A2 verdict at the right stratum
A2_PLUS_A1 = "w^2*x^2+w^2*y^2+z^3*w+x^2*y^2+x^2*z^2+y^4+z^4+3*x*y*z*w"
A4_QUINTIC = "x*y*w^3+x^5+y^5+z^5"


@pytest.mark.parametrize(
    "text, n_points, tau, strata",
    [
        # cone over a smooth plane cubic: corank 3 at the vertex
        ("x^3+y^3+z^3", 1, 8, {"rank_le1": "nonempty", "degenerate": "all"}),
        # one A3 point at (0:0:0:1)
        ("w^2*(x^2+y^2)+z^4+x^4+y^4", 1, 3,
         {"rank_le1": "empty", "degenerate": "all"}),
        # A2 at (0:0:0:1) and A1 at (1:0:0:0)
        (A2_PLUS_A1, 2, 3, {"rank_le1": "empty", "degenerate": "mixed"}),
        # a quintic with one A4 point at (0:0:0:1): corank 1 but tau 4
        (A4_QUINTIC, 1, 4, {"rank_le1": "empty", "degenerate": "all"}),
    ],
    ids=["cone", "A3", "A2_plus_A1", "A4_quintic"],
)
def test_negative_control_strata(text, n_points, tau, strata):
    cert = classify_all(R.parse(text))
    assert cert.verdict == "mixed_or_worse"
    assert cert.n1 is None and cert.n2 is None
    assert cert.n_points == n_points
    assert cert.tau_total == tau
    assert cert.strata == strata


def test_new_quartic_certificate(new_quartic_cert):
    cert = new_quartic_cert
    assert cert.verdict == "all_A1"
    assert cert.n_points == 16
    assert cert.tau_total == 16
    assert cert.strata == {"rank_le1": "empty", "degenerate": "empty"}
    sizes = sorted(o["size"] for o in cert.orbits)
    assert sizes == [1, 5, 5, 5]
    fixed = [o for o in cert.orbits if o["size"] == 1]
    assert fixed[0]["representative"] == "(0 : 0 : 1 : 0)"


def test_new_quintic_certificate(new_quintic_cert):
    cert = new_quintic_cert
    assert cert.verdict == "all_A2"
    assert cert.n_points == 15
    assert cert.tau_total == 30
    assert cert.strata["rank_le1"] == "empty"
    assert cert.strata["degenerate"] == "all"
    assert sorted(o["size"] for o in cert.orbits) == [5, 5, 5]


def test_vdgz_pair(vdgz_quartic_cert, vdgz_quintic_cert):
    assert vdgz_quartic_cert.verdict == "all_A1"
    assert vdgz_quartic_cert.n_points == 15
    assert vdgz_quintic_cert.verdict == "all_A2"
    assert vdgz_quintic_cert.n_points == 15
    assert vdgz_quintic_cert.tau_total == 30
    assert same_singular_locus(
        vdgz_quartic_cert.report, vdgz_quintic_cert.report
    )


def test_vdgz_quintic_chart_pieces(vdgz_quintic_cert):
    # the z piece is the only proper partial slice in the catalog: three
    # cusps with w = 0, counted in chart z and excluded from chart w
    pieces = {
        p["chart"]: (p["tau"], p["npoints"]) for p in vdgz_quintic_cert.report.pieces
    }
    assert pieces == {"x": (0, 0), "y": (0, 0), "z": (6, 3), "w": (24, 12)}


def test_tau_additivity_chart_independent(new_quartic_cert, new_quintic_cert):
    # disjoint pieces sum to the global invariants
    for cert, tau, n in ((new_quartic_cert, 16, 16), (new_quintic_cert, 30, 15)):
        assert sum(p["tau"] for p in cert.report.pieces) == tau
        assert sum(p["npoints"] for p in cert.report.pieces) == n


def test_classify_at_point_local_models():
    # u^2 + v^2 + t^2 at the origin of the w = 1 chart: A1
    x, y, z, w = R.gens()
    F1 = x**2 * w + y**2 * w + z**2 * w  # cubic with A1 at (0:0:0:1)
    assert classify_at_point(F1, ProjPoint([0, 0, 0, 1])) == "A1"
    # u^2 + v^2 + t^3: A2
    F2 = x**2 * w + y**2 * w + z**3
    assert classify_at_point(F2, ProjPoint([0, 0, 0, 1])) == "A2"
    # u^2 + v^2 + t^4: needs a higher jet (A3)
    F3 = x**2 * w**2 + y**2 * w**2 + z**4
    assert classify_at_point(F3, ProjPoint([0, 0, 0, 1])).startswith("other")


def test_classify_at_point_published_quartic():
    q = catalog.get("new_quartic").poly
    assert classify_at_point(q, ProjPoint([1, 1, 1, 1])) == "A1"
    assert classify_at_point(q, ProjPoint([0, 0, 1, 0])) == "A1"


def test_classify_at_point_matches_scheme_verdict(node_data):
    # pointwise classification agrees with the scheme-level verdict
    s = catalog.get("new_quintic").poly
    for p in node_data["cusps"][:5]:
        assert classify_at_point(s, p) == "A2"


def test_singular_points_closed_under_action(node_data):
    # a_k-image of every extracted singular point is singular again
    from cuspidal.zfive import ActionK

    q = catalog.get("new_quartic").poly
    parts = jacobian(q)
    act = ActionK(0)
    for p in node_data["nodes"]:
        img = act.on_point(p)
        for g in parts:
            assert QZ5.is_zero(g.eval(list(img.coords)))


def test_certificate_json_schema(new_quintic_cert):
    import jsonschema

    from cuspidal.schemas import SINGULARITY_CERTIFICATE_SCHEMA

    jsonschema.validate(new_quintic_cert.to_json(), SINGULARITY_CERTIFICATE_SCHEMA)


@pytest.mark.parametrize(
    "fixture",
    ["new_quartic_cert", "new_quintic_cert", "vdgz_quartic_cert", "vdgz_quintic_cert"],
)
def test_hessian_minor_vectors_match_ambient_minors(fixture, request):
    # every minor built from reduced entries has the vector of the
    # determinant of the chart Hessian expanded in the chart ring and
    # reduced, on every nonempty chart
    from cuspidal.groebner import QuotientAlgebra

    cert = request.getfixturevalue(fixture)
    F = catalog.get(cert.surface_name).poly
    charts = [c for c in cert.report.charts if c is not None and c.scheme.degree]
    assert charts
    for chart in charts:
        h = hessian(to_chart(F, chart.chart_index, chart.ring))
        alg = QuotientAlgebra(radical_zero_dim(chart.scheme))
        got = hessian_minor_vectors(alg, h)
        for k, vecs in zip((2, 3), got):
            want = [alg.nf_coeffs(m) for m in _upper_minors(h, k)]
            assert vecs == want


def _upper_minors(H, k):
    """The k x k minors of the symmetric H, expanded, one per row set <=
    column set in lex order."""
    sets = list(combinations(range(len(H)), k))
    full = minors(H, k)
    return [
        full[a * len(sets) + b] for a in range(len(sets)) for b in range(a, len(sets))
    ]


def _ideal_closure(alg, vecs):
    """The reduced echelon rows of the ideal of alg that the NF vectors
    generate: their span closed under multiplication by the variables."""
    # the columns of mult-by-v: NF(m * v) for each standard monomial m
    ops = [
        [alg.nf_coeffs(alg.ring.from_terms([(m, 1)]) * v) for m in alg.basis]
        for v in alg.ring.gens()
    ]

    def times(cols, v):
        out = [ZERO] * len(v)
        for x, col in zip(v, cols):
            if x:
                out = [o + x * c for o, c in zip(out, col)]
        return out

    span = [r for r in linalg.rref(vecs)[0] if any(r)]
    while True:
        grown = span + [times(cols, r) for cols in ops for r in span]
        rows = [r for r in linalg.rref(grown)[0] if any(r)]
        if len(rows) == len(span):
            return span
        span = rows


FOUR_A1_QUARTIC = "y^2*(x^2+z^2)+z^2*(x^2+w^2)+w^2*(x^2+y^2)+x*y*z*w"


SEVEN_SURFACES = pytest.mark.parametrize(
    "text",
    catalog.names() + [A2_PLUS_A1, A4_QUINTIC, FOUR_A1_QUARTIC],
    ids=catalog.names() + ["A2_plus_A1", "A4_quintic", "four_A1"],
)


def _surface(text):
    return catalog.get(text).poly if text in catalog.names() else R.parse(text)


@SEVEN_SURFACES
def test_derived_chart_counts_match_built_charts(text):
    # every chart's degree and point count are summed from its own piece
    # and the later pieces (docs/DECISIONS.md D10, D30); they must equal
    # the degrees of the chart scheme and of its radical, built here
    rep = singular_scheme(_surface(text))
    assert len(rep.pieces) == len(rep.charts) == 4
    for piece, chart in zip(rep.pieces, rep.charts):
        assert piece["chart_degree"] == chart.scheme.degree, piece["chart"]
        radical = radical_zero_dim(chart.scheme)
        assert piece["chart_points"] == radical.degree, piece["chart"]


@SEVEN_SURFACES
def test_piece_radical_is_chart_radical_cut_by_later(text):
    # rad(I + L) = rad(I) + L for the ideal L of the later coordinates,
    # as a closed subscheme of a reduced zero-dimensional scheme is
    # reduced: the two reduced bases are the same polynomials (D30)
    rep = singular_scheme(_surface(text))
    pieces = [c for c in rep.charts if c.points]
    assert pieces
    for chart in pieces:
        radical = radical_zero_dim(chart.scheme)
        want = buchberger(list(radical.gb.polys) + chart.later, ring=chart.ring)
        assert chart.piece_radical.gb.polys == want.polys, chart.chart_index


@SEVEN_SURFACES
def test_chart_hessian_minors_generate_the_projective_ideals(text, monkeypatch):
    # at a singular point p with p_ci = 1, H(p) p = 0 (Euler), so the
    # projective Hessian H has the rank of the chart Hessian h; R/sqrt(I)
    # is reduced, so on every nonempty piece the six 2x2 minors of h and
    # the 21 of H generate one ideal, and det h and the ten 3x3 minors of
    # H another (docs/DECISIONS.md D31)
    from cuspidal import singcert

    calls = []

    def recording(alg, H):
        vecs = hessian_minor_vectors(alg, H)
        calls.append((alg, vecs))
        return vecs

    monkeypatch.setattr(singcert, "hessian_minor_vectors", recording)
    F = _surface(text)
    cert = classify_all(F)
    pieces = [c for c in cert.report.charts if c.points]
    assert [alg for alg, _ in calls] == [c.piece_radical.algebra for c in pieces]
    H = hessian(F)
    for chart, (alg, (vecs2, vecs3)) in zip(pieces, calls):
        assert (len(vecs2), len(vecs3)) == (6, 1)
        for k, vecs in ((2, vecs2), (3, vecs3)):
            want = [
                alg.nf_coeffs(to_chart(m, chart.chart_index, alg.ring))
                for m in _upper_minors(H, k)
            ]
            assert _ideal_closure(alg, vecs) == _ideal_closure(alg, want), (
                chart.chart_index,
                k,
            )


def test_hessian_minor_reductions_per_piece(monkeypatch):
    # the six 2x2 minors and the determinant of the chart Hessian are
    # 7 reductions per piece with points (docs/DECISIONS.md D31); the
    # replay takes them on the quartic's two pieces, on the locus at each
    # of the nodes b = 0..3 and on the quintic's one piece
    from cuspidal.groebner import QuotientAlgebra
    from cuspidal.reproduce import reproduce_construction

    calls = []
    real = QuotientAlgebra.raw_nf_products

    def counting(self, products):
        calls.append(products)
        return real(self, products)

    monkeypatch.setattr(QuotientAlgebra, "raw_nf_products", counting)
    counts = {}
    for name in catalog.names():
        ent = catalog.get(name)
        calls.clear()
        cert = classify_all(ent.poly, name, action=ent.action)
        counts[name] = len(calls)
        assert len(calls) == 7 * sum(1 for c in cert.report.charts if c.points)
    assert counts == {
        "new_quartic": 14,
        "new_quintic": 7,
        "vdgz_quartic": 14,
        "vdgz_quintic": 14,
    }
    calls.clear()
    assert reproduce_construction()["pass"]
    # the cusp solve reads det h alone: the three 2x2 minors on rows
    # {1, 2} and the cofactor sum, 4 per locus and node
    assert len(calls) == 7 * 2 + 4 * 4 + 7 * 1 == 37


@pytest.mark.parametrize("name", ["new_quartic", "new_quintic", "vdgz_quintic"])
def test_certificate_is_the_same_for_every_a_k(name):
    # the five a_k are one projective action, so they give one
    # certificate: invariance up to a scalar and a scalar-free order of
    # the fixed points (docs/DECISIONS.md D32)
    F = catalog.get(name).poly
    seen = set()
    for k in range(5):
        cert = classify_all(F, name, action=ActionK(k))
        rep = (cert.to_json(), cert.free_action.to_json(), cert.invariant)
        seen.add(json.dumps(rep, sort_keys=True))
    assert len(seen) == 1
    (rep,) = seen
    assert json.loads(rep)[2] is (name != "vdgz_quintic")


@pytest.mark.parametrize("fixture", ["new_quartic_cert", "new_quintic_cert"])
def test_orbit_count_check_catches_a_miscount(fixture, request):
    # on a preserved surface the locus is a union of fixed points and free
    # 5-orbits, so a point count off by one must raise
    from cuspidal.singcert import SingularLocusNotInvariant, _orbit_analysis

    cert = request.getfixturevalue(fixture)
    F = catalog.get(cert.surface_name).poly
    offending = cert.free_action.offending
    assert cert.invariant
    assert _orbit_analysis(F, cert.report, offending, True) == cert.orbits
    miscounted = SimpleNamespace(n_points=cert.n_points + 1)
    with pytest.raises(SingularLocusNotInvariant):
        _orbit_analysis(F, miscounted, offending, True)
    assert _orbit_analysis(F, miscounted, offending, False) is None


@pytest.mark.parametrize(
    "text, chart, var",
    [
        ("x^2*y^2", "w", "x"),
        ("w^2*(x^3+y^3+z^3)", "z", "x"),
        ("z^2*(x^2+y^2+3*w^2)+w^2*(x^2-2*y^2+5*z^2)+z*w*(x*y+z*w)+z^3*x", "y", "x"),
    ],
    ids=["two_planes", "double_plane", "curve"],
)
def test_positive_dimensional_witness_pinned(text, chart, var):
    # the witness is the last chart, in x..w order, that is not
    # zero-dimensional, with the variable its basis lacks a pure power of
    F = R.parse(text)
    rep = singular_scheme(F)
    assert rep.positive_dimensional == {"chart": chart, "witness_var": var}
    with pytest.raises(SingularInCodimensionOne) as ev:
        classify_all(F)
    assert str(ev.value) == (
        "singular in codimension one (chart %s, variable %s)" % (chart, var)
    )


def test_empty_piece_charts_are_not_built(monkeypatch):
    # every cusp of the new quintic is in piece w: charts x, y and z are
    # settled by their emptiness tests alone, and the one radical taken
    # is chart w's
    from cuspidal import singcert

    radicals = []

    def counting(scheme):
        radicals.append(scheme.ring.vars)
        return radical_zero_dim(scheme)

    monkeypatch.setattr(singcert, "radical_zero_dim", counting)
    ent = catalog.get("new_quintic")
    cert = classify_all(ent.poly, ent.name, action=ent.action)
    assert [p["npoints"] for p in cert.report.pieces] == [0, 0, 0, 15]
    assert radicals == [("x", "y", "z")]
    for chart in cert.report.charts[:3]:
        assert "scheme" not in vars(chart)
        assert chart.length == chart.points == chart.piece_radical.degree == 0
    assert "scheme" in vars(cert.report.charts[3])
