"""Linear systems of surfaces with imposed (double) points.

Conditions are imposed in two interchangeable ways, both linear in the
unknown coefficients and over Q(zeta5) (docs/DECISIONS.md D17):

* against a point locus given by radical Groebner bases (one per affine
  chart piece): a double point condition means every partial derivative
  of the unknown surface reduces to zero against the locus, whatever
  field the individual points live in;

* against explicit Q(zeta5)-rational points: one matrix row per
  evaluated condition.

Also here: the one-parameter cusp-imposing solve (roots b of the gcd of
the conditions det h = 0, h the chart Hessian of L1 + b*L2), membership
checking for the published solution of the quartic search scheme, and the
Kummer-type non-existence check on the Van der Geer-Zagier cusps.

The cusp conditions are read in the locus algebras, never expanded in
the ambient ring: det h is a cubic in b, so its vectors at b = 0, 1, 2,
3 (`singcert.hessian_det_vector`) give its four coefficient vectors
by one exact Vandermonde solve (docs/DECISIONS.md D23, D31).
"""

from __future__ import annotations

from . import linalg, unipoly
from .catalog import XYZW
from .cyclofield import ONE, ZERO, as_cyclo
from .groebner import normal_form
from .modp import rational_roots
from .multipoly import QZ5, Poly, ProjPoint, hessian
from .multipoly import proportional  # noqa: F401  re-exported, not called here
from .singcert import hessian_det_vector, to_chart
from .zfive import ActionK, degree_monomials, invariant_basis, orbit


class LinearSystem:
    """Kernel basis of the imposed linear conditions."""

    def __init__(self, columns, basis):
        self.columns = tuple(columns)
        self.basis = list(basis)

    @property
    def dimension(self):
        """Vector-space dimension of the system."""
        return len(self.basis)

    @property
    def projective_dimension(self):
        return len(self.basis) - 1

    def contains(self, f: Poly) -> bool:
        """Is f a Q(zeta5)-combination of the basis?"""
        if not self.basis:
            return f.is_zero
        ring = self.basis[0].ring
        cols = {m: j for j, m in enumerate(self.columns)}
        mat = []
        rhs = []
        for m in self.columns:
            row = [b.coeff_of(m) for b in self.basis]
            mat.append(row)
            rhs.append(f.coeff_of(m))
        # any monomial of f outside the column span rules membership out
        for e, c in f.terms:
            if e not in cols and c:
                return False
        return linalg.solve(mat, rhs) is not None


def conditioned_system(d, action_k, loci=(), points=()) -> LinearSystem:
    """Degree-d system with double points imposed along loci and/or points.

    loci: iterable of (chart_index, radical ZeroDimScheme) pairs; points:
    iterable of (ProjPoint, order) with order 1 (containment) or 2 (double
    point; F(p) = 0 then follows from Euler's relation).  The system
    lives in `catalog.XYZW`.
    """
    ring = XYZW
    columns = degree_monomials(d) if action_k is None else invariant_basis(d, action_k)
    rows = []

    for chart_index, scheme in loci:
        cring = scheme.ring
        alg = scheme.algebra
        for v in range(ring.nvars):
            vecs = []
            for m in columns:
                if m[v] == 0:
                    vecs.append(None)
                    continue
                mono = Poly(ring, ((m, ONE),)).partial(v)
                mc = to_chart(mono, chart_index, cring)
                vecs.append(alg.nf_coeffs(mc))
            for pos in range(scheme.degree):
                row = []
                for j, vec in enumerate(vecs):
                    row.append(ZERO if vec is None else vec[pos])
                rows.append(row)

    for point, order in points:
        coords = list(point.coords)
        if order == 1:
            rows.append([Poly(ring, ((m, ONE),)).eval(coords) for m in columns])
        elif order == 2:
            for v in range(ring.nvars):
                rows.append([
                    Poly(ring, ((m, ONE),)).partial(v).eval(coords)
                    for m in columns
                ])
        else:
            raise ValueError("condition order must be 1 or 2")

    kernel = linalg.kernel_basis(rows) if rows else []
    if not rows:
        kernel = [
            [ONE if i == j else ZERO for j in range(len(columns))]
            for i in range(len(columns))
        ]
    basis = [ring.from_terms(zip(columns, v)) for v in kernel]
    return LinearSystem(columns, basis)


def check_double_points(basis, loci, ring):
    """Post-hoc check: every basis member has vanishing partials on the loci."""
    for f in basis:
        for chart_index, scheme in loci:
            cring = scheme.ring
            for v in range(ring.nvars):
                g = to_chart(f.partial(v), chart_index, cring)
                if not normal_form(g, scheme.gb).is_zero:
                    return False
    return True


# ---------------------------------------------------------------------------
# cusp imposition: F_b = L1 + b L2


class CuspSolveReport:
    def __init__(self, roots, residual_degree):
        self.roots = roots
        self.residual_degree = residual_degree


def impose_cusps(L1: Poly, L2: Poly, loci) -> CuspSolveReport:
    """Solve for b making det h vanish on the given loci, h the chart
    Hessian of L1 + b L2: as the double points are imposed, that is the
    projective Hessian's rank <= 2 there (docs/DECISIONS.md D31).

    The conditions are the entries of det h's coefficient vectors in b,
    solved from its values at b = 0, 1, 2, 3 (module docstring).
    Returns the roots in Q(zeta5) of the gcd of all induced univariate
    conditions in b (`modp.rational_roots`), and the degree of the
    unsolved residual factor (0 when everything is accounted for).
    """
    nodes = range(4)
    rows = []  # per node: [b^0..b^3] + the det h vector of every locus
    for b in nodes:
        row = [as_cyclo(b**j) for j in nodes]
        F = L1 + L2.scale(b)
        for chart_index, scheme in loci:
            h = hessian(to_chart(F, chart_index, scheme.ring))
            row.extend(hessian_det_vector(scheme.algebra, h))
        rows.append(row)
    coeffs, _ = linalg.rref(rows)  # rows b^j of the coefficient vectors
    conds = []  # univariate polynomials in b over Q(zeta5)
    for col in range(len(nodes), len(rows[0])):
        poly_b = unipoly.trim([coeffs[j][col] for j in nodes], QZ5)
        if poly_b:
            conds.append(poly_b)

    if not conds:
        return CuspSolveReport([], 0)
    g = conds[0]
    for c in conds[1:]:
        if unipoly.deg(g, QZ5) == 0:
            break
        g = unipoly.gcd_monic(g, c, QZ5)
    roots, residual = rational_roots(g)
    return CuspSolveReport(roots, max(len(residual) - 1, 0))


# ---------------------------------------------------------------------------
# the quartic search scheme: membership verification


class SCMembershipVerdict:
    def __init__(self, groups):
        self.groups = groups

    @property
    def passed(self):
        return all(v == "pass" for v in self.groups.values())


def verify_sc_membership(coefficients, rep2: ProjPoint, rep3: ProjPoint):
    """Check a proposed solution of the quartic search.

    coefficients: the 7 scalars of F = sum a_i s_i over the degree-4
    invariant monomial basis (descending degrevlex order); rep2 and rep3:
    representatives of the two node orbits besides the orbit of (1:1:1:1).
    """
    smons = invariant_basis(4, 0)
    if len(coefficients) != len(smons):
        raise ValueError("need exactly %d coefficients" % len(smons))
    F = XYZW.from_terms(zip(smons, coefficients))
    groups = {}
    fixed = ProjPoint([1, 1, 1, 1])

    def partials_vanish(point):
        return all(
            not F.partial(v).eval(list(point.coords)) for v in range(4)
        )

    groups["partials_at_fixed_choice"] = (
        "pass" if partials_vanish(fixed) else "fail"
    )
    groups["partials_at_second_orbit"] = "pass" if partials_vanish(rep2) else "fail"
    groups["partials_at_third_orbit"] = "pass" if partials_vanish(rep3) else "fail"

    # ordinariness at (1:1:1:1): some order-3 Hessian minor is nonzero,
    # that is, the Hessian there has rank at least 3
    coords = list(fixed.coords)
    at_fixed = [[h.eval(coords) for h in row] for row in hessian(F)]
    groups["ordinariness"] = "pass" if linalg.rank(at_fixed) >= 3 else "fail"

    # orbit separation: the three representatives in pairwise distinct orbits
    step = ActionK(0).on_point
    # ProjPoints are normalised, so projective equality is ==
    same_orbit = any(
        a == q
        for a, b in ((fixed, rep2), (fixed, rep3), (rep2, rep3))
        for q in orbit(b, step)
    )
    groups["orbit_separation"] = "fail" if same_orbit else "pass"
    return SCMembershipVerdict(groups)


# ---------------------------------------------------------------------------
# Kummer-type non-existence on the Van der Geer-Zagier cusps


class KummerReport:
    def __init__(self, dimension, contains_quartic, member_points, verdict):
        self.dimension = dimension
        self.contains_quartic = contains_quartic
        self.member_points = member_points
        self.verdict = verdict


def kummer_nonexistence_check(loci, vdgz_quartic: Poly, certifier):
    """Degree-4 system with double points at the 15 VdGZ cusps.

    certifier: callable Poly -> (n_points, verdict) used on the member(s)
    when the system is one-dimensional; a 16-node (Kummer-type) member
    would need n_points == 16.
    """
    sys4 = conditioned_system(4, None, loci=loci)
    contains = sys4.contains(vdgz_quartic)
    member_points = None
    exists = None
    if sys4.dimension == 1:
        n_points, _verdict = certifier(sys4.basis[0])
        member_points = n_points
        exists = n_points == 16
    return sys4, KummerReport(sys4.dimension, contains, member_points, exists)
