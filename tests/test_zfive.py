import random

import pytest

from cuspidal.catalog import NEW_QUARTIC_TEXT, NEW_QUINTIC_TEXT, VDGZ_ACTION, XYZW, get
from cuspidal.cyclofield import ALPHA, CycloElem, ratio
from cuspidal.multipoly import ProjPoint, QZ5, Ring
from cuspidal import linalg, zfive
from cuspidal.zfive import (
    ActionK,
    LinearAction,
    degree_monomials,
    free_action_check,
    invariant_basis,
    orbit,
    orbits,
)

R = XYZW
COORDINATE_POINTS = [
    ProjPoint([1 if i == j else 0 for j in range(4)]) for i in range(4)
]


def residue(exp, k):
    """Reference: a_k scales x^a y^b z^c w^d by e^r, r = k(a+b+c+d) + b +
    2c + 3d mod 5."""
    a, b, c, d = exp
    return (k * (a + b + c + d) + b + 2 * c + 3 * d) % 5


def test_invariant_basis_degree4_action0():
    got = invariant_basis(4, 0)
    want = {
        (4, 0, 0, 0),  # x^4
        (0, 3, 1, 0),  # y^3 z
        (0, 1, 0, 3),  # y w^3
        (0, 0, 2, 2),  # z^2 w^2
        (1, 2, 0, 1),  # x y^2 w
        (1, 1, 2, 0),  # x y z^2
        (2, 0, 1, 1),  # x^2 z w
    }
    assert len(got) == 7
    assert set(got) == want
    # exactly the support of the published quartic
    assert set(R.parse(NEW_QUARTIC_TEXT).support()) == want


def test_invariant_basis_degree1():
    assert invariant_basis(1, 0) == [(1, 0, 0, 0)]


def test_invariant_basis_degree5_same_for_all_k():
    base = invariant_basis(5, 0)
    # enumeration oracle: residue of a degree-5 monomial is independent of k
    for exp in base:
        for k in range(5):
            assert residue(exp, k) == 0
    for k in range(1, 5):
        assert invariant_basis(5, k) == base
    # the published quintic uses only invariant monomials
    assert set(R.parse(NEW_QUINTIC_TEXT).support()) <= set(base)


def test_action_scales_monomials_by_residue():
    rng = random.Random(31)
    for _ in range(50):
        exp = tuple(rng.randint(0, 3) for _ in range(4))
        k = rng.randrange(5)
        mono = R.from_terms([(exp, QZ5.one)])
        acted = ActionK(k).on_poly(mono)
        r = residue(exp, k)
        assert acted == mono.scale(CycloElem.e_power(r))


@pytest.mark.parametrize("k", range(5))
def test_action_k_is_a_diagonal_linear_action(k):
    act = ActionK(k)
    assert isinstance(act, LinearAction)
    assert act.matrix == [
        [CycloElem.e_power(k + i) if i == j else 0 for j in range(4)]
        for i in range(4)
    ]
    assert repr(act) == "ActionK(%d)" % k


@pytest.mark.parametrize("k", range(5))
def test_action_k_scales_every_monomial_by_its_residue(k):
    act = ActionK(k)
    for d in range(6):
        for exp in degree_monomials(d):
            mono = R.from_terms([(exp, QZ5.one)])
            scaled = mono.scale(CycloElem.e_power(residue(exp, k)))
            assert act.on_poly(mono) == scaled
            # preserved up to the scalar e^residue (docs/DECISIONS.md D32)
            assert act.is_invariant(mono)
    # a sum of two monomials with different residues is not preserved
    x, y = R.var("x"), R.var("y")
    assert residue((1, 0, 0, 0), k) != residue((0, 1, 0, 0), k)
    assert not act.is_invariant(x + y)
    assert not act.is_invariant(x**5 - 2 * y**2 * x**3)


@pytest.mark.parametrize("k", range(5))
def test_action_k_fixed_points_are_the_coordinate_points(k):
    # the coordinate point i has eigenvalue e^(k+i), so e^(k+4) is
    # missing and the points come from e^k on: coordinate order for every
    # k (docs/DECISIONS.md D32)
    assert list(ActionK(k).fixed_points()) == COORDINATE_POINTS


@pytest.mark.parametrize("k", range(5))
def test_invariant_basis_is_the_residue_zero_monomials(k):
    for d in range(7):
        want = [e for e in degree_monomials(d) if residue(e, k) == 0]
        assert invariant_basis(d, k) == want
    assert invariant_basis(5, k) == invariant_basis(5, 0)


def test_fixed_points_computed_once(monkeypatch):
    calls = []
    real = zfive.kernel_basis

    def counting(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(zfive, "kernel_basis", counting)
    for act in (ActionK(0), LinearAction(VDGZ_ACTION.matrix)):
        calls.clear()
        first = act.fixed_points()
        assert act.fixed_points() is first
        assert len(calls) == 5  # one eigen-kernel per fifth root of unity


@pytest.mark.parametrize("name", ["new_quartic", "new_quintic", "vdgz_quartic", "vdgz_quintic"])
def test_on_poly_builds_the_row_forms_once_per_ring(name, monkeypatch):
    # the images are those of substituting freshly built row forms, and
    # the four forms are built once for each ring the action meets
    ent = get(name)
    act = LinearAction(ent.action.matrix)
    other = Ring(("x", "y", "z", "w", "t"))
    polys = [ent.poly, R.var("x") + 2 * R.var("w"), R.var("y") ** 3 * R.var("z")]
    polys += [other.var("t") * other.var("x") ** 2 + other.var("w")]

    def fresh_image(p):
        return p.subs({i: p.ring.linear_form(row) for i, row in enumerate(act.matrix)})

    want = [fresh_image(p) for p in polys]
    calls = []
    real = Ring.linear_form

    def counting(ring, coeffs):
        calls.append(ring)
        return real(ring, coeffs)

    monkeypatch.setattr(Ring, "linear_form", counting)
    for _ in range(3):
        assert [act.on_poly(p) for p in polys] == want
    assert calls == [R] * 4 + [other] * 4
    assert act.is_invariant(ent.poly)
    assert len(calls) == 8


def test_action_order_five():
    rng = random.Random(37)
    for k in range(5):
        act = ActionK(k)
        p = R.parse(NEW_QUARTIC_TEXT)
        q = p
        for _ in range(5):
            q = act.on_poly(q)
        assert q == p
        pt = ProjPoint([1, 2, ratio(3, 7), 1])
        u = pt
        for _ in range(5):
            u = act.on_point(u)
        assert u == pt


def test_orbits():
    step = ActionK(0).on_point
    assert len(orbit(ProjPoint([1, 0, 0, 0]), step)) == 1
    assert len(orbit(ProjPoint([0, 0, 1, 0]), step)) == 1
    assert len(orbit(ProjPoint([1, 1, 1, 1]), step)) == 5


def test_orbits_partition_quartic_nodes(node_data):
    step = ActionK(0).on_point
    parts = orbits(node_data["nodes"], step)
    assert sorted(len(o) for o in parts) == [1, 5, 5, 5]
    for o in parts:
        assert all(b == step(a) for a, b in zip(o, o[1:]))


def test_orbits_walk_leaving_the_set_ends_the_orbit(node_data):
    # the cusps in walk order, less the first: that orbit's walk stops
    # where it would return to the dropped cusp
    step = ActionK(0).on_point
    walked = [p for o in orbits(node_data["cusps"], step) for p in o]
    parts = orbits(walked[1:], step)
    assert [len(o) for o in parts] == [4, 5, 5]


def test_linear_action_invariance():
    assert VDGZ_ACTION.is_invariant(get("vdgz_quintic").poly)
    assert not VDGZ_ACTION.is_invariant(R.var("x"))


def test_invariance_of_catalog_surfaces():
    act = ActionK(0)
    assert act.is_invariant(R.parse(NEW_QUARTIC_TEXT))
    assert act.is_invariant(R.parse(NEW_QUINTIC_TEXT))
    # the five a_k are one projective action: a degree-5 monomial has the
    # same residue under every a_k, and the quartic's monomials share one
    for k in range(1, 5):
        assert ActionK(k).is_invariant(R.parse(NEW_QUINTIC_TEXT))
        assert ActionK(k).is_invariant(R.parse(NEW_QUARTIC_TEXT))
    assert not act.is_invariant(get("vdgz_quintic").poly)


def test_new_quartic_is_preserved_by_a_1_up_to_e4():
    # a_1 = diag(e, e^2, e^3, e^4) scales each of the quartic's monomials
    # by e^4: the surface is preserved, though F(a_1 x) != F
    F = R.parse(NEW_QUARTIC_TEXT)
    act = ActionK(1)
    assert act.on_poly(F) == F.scale(CycloElem.e_power(4))
    assert act.is_invariant(F)


def test_free_action_check_quintic():
    s = R.parse(NEW_QUINTIC_TEXT)
    for k in range(5):
        assert free_action_check(s, ActionK(k)).free
    v = free_action_check(s, ActionK(0))
    assert v.free
    # in particular F(0,0,1,0) = -136/3 + 220/3*(e^3+e^2) != 0
    z5 = s.coeff_of((0, 0, 5, 0))
    assert z5 == CycloElem.from_rat(ratio(-136, 3)) + ratio(220, 3) * ALPHA
    assert not z5.is_zero


def test_free_action_check_quartic_not_free():
    q = R.parse(NEW_QUARTIC_TEXT)
    v = free_action_check(q, ActionK(0))
    assert not v.free
    assert ProjPoint([0, 0, 1, 0]) in v.offending


def test_x5_not_free():
    x = R.var("x")
    v = free_action_check(x**5, ActionK(0))
    assert not v.free
    assert len(v.offending) == 3


def test_vdgz_action_invariance_and_freeness():
    ent = get("vdgz_quintic")
    assert VDGZ_ACTION.on_poly(ent.poly) == ent.poly
    fixed = VDGZ_ACTION.fixed_points()
    assert len(fixed) == 4
    v = free_action_check(ent.poly, action=VDGZ_ACTION)
    assert v.free


def test_fixed_points_refuse_repeated_eigenvalue():
    # zeta appears twice: the whole line {x = w = 0} is fixed, which a
    # kernel basis of two points would not cover
    z = CycloElem.e_power
    diag = [z(0), z(1), z(1), z(2)]
    act = LinearAction(
        [[diag[i] if i == j else 0 for j in range(4)] for i in range(4)]
    )
    with pytest.raises(ValueError):
        act.fixed_points()
    with pytest.raises(ValueError):
        free_action_check(R.var("y") ** 5, action=act)


def test_vdgz_action_order():
    p = ProjPoint([1, 2, 3, 1])
    q = p
    for _ in range(5):
        q = VDGZ_ACTION.on_point(q)
    assert q == p
    assert len(orbit(p, VDGZ_ACTION.on_point)) == 5


def _on_one_fixed_point():
    """An invariant quintic of VDGZ_ACTION through exactly one of its fixed
    points: -e C(4, 1) + C(3, 2) on s1 = 0, where C(a, b) is the cyclic
    sum of x_k^a x_(k+1)^b over the five coordinates.  At the fixed point
    (1, z, z^2, z^3, z^4) of z = e^j it is 5 z (z - e), zero for j = 1."""
    x, y, z, w = R.gens()
    c = [x, y, z, w, -(x + y + z + w)]

    def cyclic(a, b):
        return sum((c[k] ** a * c[(k + 1) % 5] ** b for k in range(5)), R.zero)

    return cyclic(3, 2) - cyclic(4, 1).scale(CycloElem.e_power(1))


@pytest.mark.parametrize("name, nterms", [("vdgz_quintic", 12), ("vdgz_quartic", 7)])
def test_eigen_frame_is_the_substitution_by_the_column_forms(name, nterms):
    # H(y) = F(Py), the route it replaces: F.subs over P's row forms, with
    # P's columns the fixed points in their order
    F = get(name).poly
    P, H = VDGZ_ACTION.eigen_frame(F)
    columns = [ProjPoint([row[i] for row in P]) for i in range(4)]
    assert columns == list(VDGZ_ACTION.fixed_points())
    assert H == F.subs({i: R.linear_form(row) for i, row in enumerate(P)})
    assert len(H.terms) == nterms < len(F.terms)
    assert all(c.d == 1 and not any(c.n[1:]) for _, c in H.terms)
    # in the frame the action is a_0, which preserves H
    assert ActionK(0).is_invariant(H)


def test_eigen_frame_of_forms_over_q_zeta5_and_of_nonzero_weight():
    # coefficients in Q(zeta5): 11 terms, as x^5 drops out of the weight
    # class of 12 because F passes through the first fixed point
    F = _on_one_fixed_point()
    assert VDGZ_ACTION.invariance_scalar(F) == 1
    P, H = VDGZ_ACTION.eigen_frame(F)
    assert H == F.subs({i: R.linear_form(row) for i, row in enumerate(P)})
    assert len(H.terms) == 11
    # sum of e^(-k) x_k^5 over the five coordinates: F(Ax) = e F, so H
    # lives on the monomials of weight 1, not 0
    x, y, z, w = R.gens()
    coords = [x, y, z, w, -(x + y + z + w)]
    F = sum(
        ((c**5).scale(CycloElem.e_power(-k)) for k, c in enumerate(coords)), R.zero
    )
    assert VDGZ_ACTION.invariance_scalar(F) == CycloElem.e_power(1)
    P, H = VDGZ_ACTION.eigen_frame(F)
    assert H == F.subs({i: R.linear_form(row) for i, row in enumerate(P)})
    # and a_0 scales H by e, as A scales F
    assert ActionK(0).invariance_scalar(H) == CycloElem.e_power(1)


def test_eigen_frame_none_without_a_frame():
    # the ActionK surfaces are certified as given
    for name in ("new_quartic", "new_quintic"):
        ent = get(name)
        assert isinstance(ent.action, ActionK)
        assert ent.action.eigen_frame(ent.poly) is None
    # the a4 and codimension-one controls of divisibility: VDGZ_ACTION
    # moves them
    for text in ("x*y*w^3+x^5+y^5+z^5", "x^2*y^2*w+x^5+y^5"):
        F = R.parse(text)
        assert VDGZ_ACTION.invariance_scalar(F) is None
        assert VDGZ_ACTION.eigen_frame(F) is None
    # a non-diagonal action without fixed points: swapping x and y has
    # the eigenvalue -1, no fifth root of unity
    swap = LinearAction([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    F = R.parse("x^5+y^5+z^5+w^5")
    assert swap.is_invariant(F)
    assert swap.eigen_frame(F) is None
    # and no form of positive degree
    assert VDGZ_ACTION.eigen_frame(R.parse("x+y^2")) is None


@pytest.mark.parametrize(
    "name, on_surface",
    [
        ("vdgz_quintic", [False] * 4),
        # s2 and s4 vanish at every fixed point
        ("vdgz_quartic", [True] * 4),
        ("one_fixed_point", [True, False, False, False]),
    ],
    ids=["vdgz_quintic", "vdgz_quartic", "one_fixed_point"],
)
def test_eigen_frame_carries_the_fixed_points(name, on_surface):
    # H vanishes at coordinate point i exactly when F vanishes at
    # fixed_points()[i], and the verdict on H maps back to the verdict on F
    F = _on_one_fixed_point() if name == "one_fixed_point" else get(name).poly
    P, H = VDGZ_ACTION.eigen_frame(F)
    fixed = VDGZ_ACTION.fixed_points()
    on_H = [not H.eval(list(p.coords)) for p in COORDINATE_POINTS]
    assert on_H == [not F.eval(list(p.coords)) for p in fixed]
    assert on_H == on_surface
    verdict = free_action_check(F, VDGZ_ACTION)
    mapped = free_action_check(H, ActionK(0)).mapped(P)
    assert mapped.offending == verdict.offending
    assert mapped.to_json() == verdict.to_json()


def test_evaluation_grid_keeps_the_rank_raising_points():
    # monomials without w: (1, 1, 1, 2) repeats the row of (1, 1, 1, 1)
    # and is skipped
    support = [(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (1, 1, 0, 0)]
    points, rows = zfive._evaluation_grid(support, 2)
    assert points == [(1, 1, 1, 1), (1, 1, 2, 1), (1, 2, 1, 1), (2, 1, 1, 1)]
    assert linalg.rank(rows) == 4
    # every weight class of the quartics and quintics gets a square
    # invertible system
    for d in (4, 5):
        for k in range(5):
            support = [e for e in degree_monomials(d) if residue(e, k) == 0]
            points, rows = zfive._evaluation_grid(support, d)
            assert len(points) == len(support) == linalg.rank(rows)
