import pytest

from cuspidal import catalog
from cuspidal.cyclofield import ALPHA, CycloElem
from cuspidal.linsys import (
    check_double_points,
    conditioned_system,
    impose_cusps,
    kummer_nonexistence_check,
    proportional,
    verify_sc_membership,
)
from cuspidal.modp import rational_roots
from cuspidal.multipoly import ProjPoint, QZ5
from cuspidal.singcert import classify_all
from cuspidal.zfive import ActionK, invariant_basis, orbits

R = catalog.XYZW


@pytest.fixture(scope="module")
def loci15(new_quartic_cert):
    wchart = new_quartic_cert.report.charts[3]
    assert wchart.piece_radical.degree == 15
    return [(3, wchart.piece_radical)]


def test_trivial_system_single_point():
    # degree-1 system through (1:0:0:0): the three other coordinates
    sys1 = conditioned_system(1, None, points=[(ProjPoint([1, 0, 0, 0]), 1)])
    assert sys1.dimension == 3
    names = set()
    for b in sys1.basis:
        assert len(b.terms) == 1
        names.add(R.vars[b.lm().index(1)])
    assert names == {"y", "z", "w"}


def test_invariant_quintic_system_two_generators(loci15):
    sys5 = conditioned_system(5, 0, loci=loci15)
    assert sys5.dimension == 2
    assert check_double_points(sys5.basis, loci15, R)


def test_unconstrained_quintic_system_dimension(loci15):
    sys5 = conditioned_system(5, None, loci=loci15)
    assert sys5.projective_dimension == 4
    assert check_double_points(sys5.basis, loci15, R)


def test_kernel_dimension_action_invariance(loci15, node_data):
    # imposing via explicit points (restriction of scalars) gives the same
    # kernel dimension as the locus route
    pts = [(p, 2) for p in node_data["cusps"]]
    sys_pts = conditioned_system(5, 0, points=pts)
    assert sys_pts.dimension == 2
    # permuting condition points does not change the kernel
    sys_perm = conditioned_system(5, 0, points=list(reversed(pts)))
    assert sys_perm.dimension == 2


def test_impose_cusps_recovers_published_quintic(loci15):
    sys5 = conditioned_system(5, 0, loci=loci15)
    L1, L2 = sys5.basis
    rep = impose_cusps(L1, L2, loci15)
    assert len(rep.roots) == 1
    assert rep.residual_degree == 0
    F = L1 + L2.scale(rep.roots[0])
    assert proportional(F, catalog.get("new_quintic").poly)


@pytest.mark.parametrize("pencil", ["shifted", "swapped"])
def test_impose_cusps_roots_off_the_interpolation_nodes(loci15, pencil):
    # the cubics in b are interpolated at b = 0, 1, 2, 3; a pencil whose
    # root is moved off the published one must still give it exactly:
    # L1 + 3 L2 + b L2 has root b0 - 3, and L2 + b L1 has root 1 / b0
    L1, L2 = conditioned_system(5, 0, loci=loci15).basis
    (b0,) = impose_cusps(L1, L2, loci15).roots
    if pencil == "shifted":
        rep, want = impose_cusps(L1 + L2.scale(3), L2, loci15), b0 - 3
    else:
        rep, want = impose_cusps(L2, L1, loci15), b0.inverse()
    assert rep.roots == [want]
    assert rep.residual_degree == 0


def test_gcd_monic_of_two_conditions_is_their_common_factor():
    from cuspidal import unipoly

    # gcd({b^2 - 1, b - 1}) = b - 1 -> root 1
    g = unipoly.gcd_monic(
        [CycloElem.from_int(-1), QZ5.zero, QZ5.one],
        [CycloElem.from_int(-1), QZ5.one],
        QZ5,
    )
    assert g == [CycloElem.from_int(-1), QZ5.one]


def test_impose_cusps_already_cuspidal(loci15):
    # constraints from (S, S) pencil: minors of S + b*S vanish for b = 0
    s = catalog.get("new_quintic").poly
    zero = R.zero
    rep = impose_cusps(s, zero, loci15)
    # every condition is identically satisfied: gcd is trivial, no roots
    assert rep.residual_degree == 0


def test_impose_cusps_gcd_is_the_projective_minor_gcd(loci15, monkeypatch):
    # every L1 + b L2 is singular on the locus, so the conditions of det h,
    # h the chart Hessian, and of the ten 3x3 minors of the projective
    # Hessian span one space of cubics in b: one gcd, up to a unit
    # (docs/DECISIONS.md D31)
    from itertools import combinations

    from cuspidal import linalg, linsys, unipoly
    from cuspidal.cyclofield import as_cyclo
    from cuspidal.multipoly import hessian, minors
    from cuspidal.singcert import to_chart

    seen = []

    def recording(g):
        seen.append(g)
        return rational_roots(g)

    monkeypatch.setattr(linsys, "rational_roots", recording)
    L1, L2 = conditioned_system(5, 0, loci=loci15).basis
    assert len(impose_cusps(L1, L2, loci15).roots) == 1
    (g,) = seen

    ((ci, scheme),) = loci15
    triples = list(combinations(range(4), 3))
    rows = []
    for b in range(4):
        full = minors(hessian(L1 + L2.scale(b)), 3)
        row = [as_cyclo(b**j) for j in range(4)]
        for a in range(len(triples)):
            for c in range(a, len(triples)):
                m = to_chart(full[a * len(triples) + c], ci, scheme.ring)
                row.extend(scheme.algebra.nf_coeffs(m))
        rows.append(row)
    coeffs, _ = linalg.rref(rows)  # row j: the b^j coefficients
    want = None
    for col in range(4, len(rows[0])):
        cond = unipoly.trim([coeffs[j][col] for j in range(4)], QZ5)
        if cond:
            want = cond if want is None else unipoly.gcd_monic(want, cond, QZ5)
    assert unipoly.deg(want, QZ5) >= 1
    assert unipoly.monic(g, QZ5) == unipoly.monic(want, QZ5)


def test_linear_system_contains():
    sys1 = conditioned_system(1, None, points=[(ProjPoint([1, 0, 0, 0]), 1)])
    y = R.var("y")
    x = R.var("x")
    assert sys1.contains(y)
    assert not sys1.contains(x)


def test_proportionality():
    x, y = R.var("x"), R.var("y")
    p = x + y
    assert proportional(p, p.scale(ALPHA))
    assert not proportional(p, x - y)


def test_sc_membership_published_solution(node_data):
    q = catalog.get("new_quartic").poly
    smons = invariant_basis(4, 0)
    coeffs = [q.coeff_of(m) for m in smons]
    # representatives of the two other orbits: pick cusps outside the
    # orbit of (1:1:1:1)
    cusp_orbits = orbits(node_data["cusps"], ActionK(0).on_point)
    others = [o for o in cusp_orbits if catalog.CHOSEN_NODE not in o]
    assert len(others) == 2
    verdict = verify_sc_membership(coeffs, others[0][0], others[1][0])
    assert verdict.passed, verdict.groups


def test_sc_membership_zero_assignment_fails():
    verdict = verify_sc_membership(
        [0] * 7, ProjPoint([1, 2, 3, 1]), ProjPoint([1, 3, 2, 1])
    )
    assert verdict.groups["ordinariness"] == "fail"


def test_sc_membership_same_orbit_fails(node_data):
    q = catalog.get("new_quartic").poly
    smons = invariant_basis(4, 0)
    coeffs = [q.coeff_of(m) for m in smons]
    act = ActionK(0)
    image = act.on_point(catalog.CHOSEN_NODE)
    cusp_orbits = orbits(node_data["cusps"], act.on_point)
    others = [o for o in cusp_orbits if catalog.CHOSEN_NODE not in o]
    verdict = verify_sc_membership(coeffs, image, others[0][0])
    assert verdict.groups["orbit_separation"] == "fail"


def test_kummer_nonexistence(vdgz_quintic_cert):
    loci = []
    for chart in vdgz_quintic_cert.report.charts:
        if chart is not None and chart.piece_radical.degree > 0:
            loci.append((chart.chart_index, chart.piece_radical))
    vq = catalog.get("vdgz_quartic").poly

    def certifier(F):
        c = classify_all(F, "member")
        return c.n_points, c.verdict

    sys4, rep = kummer_nonexistence_check(loci, vq, certifier)
    assert sys4.dimension == 1
    assert rep.contains_quartic
    assert rep.member_points == 15
    assert rep.verdict is False
