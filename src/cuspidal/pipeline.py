"""End-to-end drivers: node extraction, curve-family construction,
cusp resolutions, lattice assembly and the divisibility certificate.

Two curve recipes are built in: the tropes of the companion quartic for
the new quintic (two conic orbits and one orbit of plane quintic
sections through the fixed node), and the fifteen lines for the
Van der Geer-Zagier quintic.
"""

from __future__ import annotations

from . import catalog, lattice, linalg
from .curvegeom import (
    CurveOnSurface,
    curve_singular_points,
    find_tropes,
    intersect_surfaces,
    pair_intersection_away_from,
    resolve_cusp,
)
from .groebner import NonRationalResidual, extract_points
from .multipoly import ProjPoint
from .schemas import PipelineError, Stages
from .singcert import (
    SingularInCodimensionOne,
    SingularLocusNotInvariant,
    classify_all,
)
from .zfive import ActionK, orbit, orbits


def quartic_nodes():
    """The 16 nodes of the new quartic as rational ProjPoints.

    Returns (nodes, fixed_node, cusps, cert) where cusps are the 15
    non-fixed nodes (= the cusps of the companion quintic) and cert the
    quartic's node certificate.
    """
    entry = catalog.get("new_quartic")
    cert = classify_all(entry.poly, entry.name, action=entry.action)
    if cert.verdict != "all_A1" or cert.n_points != 16:
        raise PipelineError("quartic is not 16-nodal: %s" % cert.verdict)
    wpiece = cert.report.charts[3].piece_radical
    known = [
        tuple(p.coords[:3])
        for p in orbit(catalog.CHOSEN_NODE, entry.action.on_point)
    ]
    try:
        points = extract_points(wpiece, known_points=known)
    except NonRationalResidual as ev:
        raise PipelineError("%d nodes are not Q(zeta5)-rational" % ev.degree)
    cusps = [ProjPoint(list(p) + [1]) for p in points]
    if len(cusps) != 15:
        raise PipelineError("expected 15 non-fixed nodes")
    nodes = cusps + [catalog.FIXED_NODE]
    return nodes, catalog.FIXED_NODE, cusps, cert


def new_quintic_curves(S, Q, nodes, fixed_node, action):
    """Curve families for the new quintic: T1, T2 conic orbits from the
    tropes away from the fixed node, T3 the plane quintic sections cut by
    the tropes through it."""
    census = find_tropes(Q, nodes, fixed_node, action=action)
    inv, through, away = census.partition()
    if not (len(inv) == 1 and len(through) == 5 and len(away) == 10):
        raise PipelineError(
            "unexpected trope census %d + %d + %d"
            % (len(inv), len(through), len(away))
        )

    def step(t):
        return action.on_poly(t.plane).monic()

    def same(t, plane):
        return t.plane == plane

    away_orbits = orbits(away, step, same)
    if sorted(len(o) for o in away_orbits) != [5, 5]:
        raise PipelineError("tropes away from the fixed node not two 5-orbits")
    through_orbits = orbits(through, step, same)
    if [len(o) for o in through_orbits] != [5]:
        raise PipelineError("tropes through the fixed node not one 5-orbit")
    away_orbits.sort(key=lambda o: str(min(str(t.plane) for t in o)))
    families = []
    for fi, orb in enumerate(away_orbits):
        members = [
            CurveOnSurface("T%d.%d" % (fi + 1, k), [t.plane, t.conic], 2, 0)
            for k, t in enumerate(orb)
        ]
        families.append(members)
    t3 = [
        CurveOnSurface("T3.%d" % k, [t.plane, S], 5, 6, double_points=5)
        for k, t in enumerate(through_orbits[0])
    ]
    families.append(t3)
    return families, census


def vdgz_curves(S, action):
    """The 15 lines on the Van der Geer-Zagier quintic, in three orbits."""
    lines = catalog.vdgz_lines()
    curves = []
    for label, forms in lines:
        curves.append(CurveOnSurface(label, forms, 1, 0))
    # orbit structure through the action on generating planes
    line_orbits = orbits(
        curves,
        lambda c: [action.on_poly(g) for g in c.gens],
        lambda c, moved: _same_pencil(c.gens, moved),
    )
    if sorted(len(o) for o in line_orbits) != [5, 5, 5]:
        raise PipelineError("the 15 lines do not fall into three 5-orbits")
    line_orbits.sort(key=lambda o: min(c.name for c in o))
    families = []
    for fi, orb in enumerate(line_orbits):
        fam = []
        for k, c in enumerate(orb):
            fam.append(
                CurveOnSurface("T%d.%d" % (fi + 1, k), c.gens, 1, 0)
            )
        families.append(fam)
    return families


def _same_pencil(gens_a, gens_b):
    return linalg.rank([g.linear_coeffs() for g in gens_a + gens_b]) == 2


class DivisibilityResult:
    def __init__(
        self,
        surface,
        families,
        resolutions,
        lat,
        vector,
        cert,
        match,
        stages,
        nullspace_basis,
    ):
        self.surface = surface
        self.families = families
        self.resolutions = resolutions
        self.lattice = lat
        self.vector = vector
        self.certificate = cert
        self.match = match
        self.stages = stages
        self.nullspace_basis = nullspace_basis

    def to_json(self, transcript):
        """The report of the ``divisibility`` command; ``transcript`` adds
        the audit transcripts."""
        cert = self.certificate
        report = {
            "surface": self.surface,
            "labels": list(lattice.LABELS),
            "matrix": self.lattice.matrix,
            "det": self.lattice.determinant(),
            "nullspace": [list(v) for v in self.nullspace_basis],
            "vector": list(self.vector),
            "swaps": list(cert.swaps),
            "relation": cert.relation_text(),
            "assumptions": cert.assumptions,
            "published_match": self.match,
            "stages": self.stages,
            "pass": True,
        }
        if transcript:
            report["proof"] = cert.transcript()
            report["resolutions"] = [r.transcripts for r in self.resolutions]
        return report


def _certify_quintic(S, name, action):
    """The singularity certificate of S and the action's free-action
    verdict, its fixed points in S's frame.  An action with an eigen
    frame (P, H) certifies H = S(Py) under a_0, and a fixed point y on H
    is reported as the point Py (docs/DECISIONS.md D34)."""
    frame = action.eigen_frame(S)
    if frame is None:
        cert = classify_all(S, name, action=action)
        return cert, cert.free_action
    P, H = frame
    cert = classify_all(H, name, action=ActionK(0))
    return cert, cert.free_action.mapped(P)


def divisibility_pipeline(name):
    """Full path from the catalog surface to its divisibility certificate."""
    stages = Stages()
    entry = catalog.get(name)
    S = entry.poly
    action = entry.action

    try:
        cert, free_action = _certify_quintic(S, name, action)
    except (SingularInCodimensionOne, SingularLocusNotInvariant) as ev:
        stages.check("quintic_certification", False, error=str(ev))
    stages.check(
        "quintic_certification",
        cert.verdict == "all_A2" and cert.n_points == 15,
        verdict=cert.verdict,
        n_points=cert.n_points,
        tau_total=cert.tau_total,
    )
    # the orbit sums are divided by 5, and the quotient exists, only for a
    # free action that preserves S (docs/DECISIONS.md D25)
    stages.check(
        "action_invariant_and_free",
        cert.invariant and free_action.free,
        invariant=cert.invariant,
        **free_action.to_json(),
    )

    if name == "new_quintic":
        Q = catalog.get(entry.companion).poly
        nodes, fixed_node, cusps, _qc = quartic_nodes()
        families, census = new_quintic_curves(S, Q, nodes, fixed_node, action)
        stages.check(
            "trope_census",
            True,
            tropes=len(census.tropes),
            through_fixed=sum(1 for t in census.tropes if t.through_fixed),
        )
        conics = families[0] + families[1]
        isect = intersect_surfaces(S, Q, conics)
        stages.check("quintic_meets_quartic_at_conics", isect.clean, **isect.to_json())
    elif name == "vdgz_quintic":
        cusps = catalog.vdgz_cusps()
        families = vdgz_curves(S, action)
        stages.check("line_families", True, lines=sum(len(f) for f in families))
    else:
        raise PipelineError("no curve recipe for %s" % name)

    cusp_orbits = orbits(cusps, action.on_point)
    stages.check(
        "cusp_orbits",
        sorted(len(o) for o in cusp_orbits) == [5, 5, 5],
        sizes=[len(o) for o in cusp_orbits],
    )
    cusp_orbits.sort(key=lambda o: sorted(repr(p) for p in o)[0])
    reps = [o[0] for o in cusp_orbits]
    # put the known distinguished node first when present
    for i, o in enumerate(cusp_orbits):
        if catalog.CHOSEN_NODE in o:
            cusp_orbits.insert(0, cusp_orbits.pop(i))
            reps = [o[0] for o in cusp_orbits]
            reps[0] = catalog.CHOSEN_NODE
            break

    all_curves = [c for fam in families for c in fam]
    resolutions = []
    for r, rep in enumerate(reps):
        res = resolve_cusp(S, rep, all_curves)
        ok = all(res.curve_smooth.get(c.name, True) for c in all_curves)
        stages.check(
            "cusp_resolution_%d" % (r + 1),
            ok,
            cusp=repr(rep),
            rows={c.name: res.curve_rows[c.name] for c in all_curves},
        )
        resolutions.append(res)

    # verify T3-style double-point counts for curves with corrections
    for fam in families:
        for c in fam:
            if c.double_points:
                total = sum(n for _, n in curve_singular_points(c))
                stages.check(
                    "curve_double_points_%s" % c.name,
                    total == c.double_points,
                    found=total,
                )
                break  # equivariance: one member per family suffices

    a_rows = []
    for res in resolutions:
        row = []
        for fam in families:
            m1 = sum(res.curve_rows[c.name][0] for c in fam)
            m2 = sum(res.curve_rows[c.name][1] for c in fam)
            row.append((m1, m2))
        a_rows.append(row)

    def orbit_pair_total(i, j):
        """C0 against the members of family j other than C0, with C0 the
        first member of family i: away from the cusps, plus the pairs
        (cs, ct), cs != ct, over them."""
        C0 = families[i][0]
        away = sum(
            pair_intersection_away_from(C0, D, cusps)
            for D in families[j]
            if D is not C0
        )
        over = sum(
            res.pair_over_cusp.get((cs.name, ct.name), 0)
            for res in resolutions
            for cs in families[i]
            for ct in families[j]
            if cs is not ct
        )
        return away + over

    t_pairs = {
        (i, j): orbit_pair_total(i, j) for i in range(3) for j in range(i + 1, 3)
    }
    t_self = [
        families[j][0].resolved_self_intersection() + orbit_pair_total(j, j)
        for j in range(3)
    ]

    lat = lattice.assemble(a_rows, t_pairs, t_self)
    det = lat.determinant()
    stages.check("lattice_determinant_zero", det == 0, determinant=det)

    basis = lattice.nullspace_int(lat.matrix)
    stages.check("nullspace_computed", len(basis) >= 1, rank=len(basis), basis=basis)

    match = None
    if name == "new_quintic":
        strict = lattice.match_published(lat.matrix)
        match = strict or lattice.match_published(
            lat.matrix, skip_entries=((8, 8),)
        )
        if match is not None:
            # the value the published T3 row forces on the skipped entry
            # (docs/DECISIONS.md)
            forced = lattice.t3_self_intersection(lattice.PUBLISHED_MATRIX[8])
            for m in match["skipped_mismatches"]:
                m["projection_formula"] = forced
        stages.check(
            "matches_published_matrix",
            strict is not None,
            fatal=False,
            strict=strict is not None,
            relabelling=match,
        )
        if match is not None:
            lat_use = lat.relabelled(
                match["cusp_permutation"],
                match["per_cusp_swaps"],
                match["t1_t2_swap"],
            )
            basis_use = lattice.nullspace_int(lat_use.matrix)
        else:
            lat_use, basis_use = lat, basis
    else:
        lat_use, basis_use = lat, basis

    vec, cert3 = lattice.find_divisibility_vector(lat_use, basis_use)
    stages.check(
        "divisibility_certificate",
        True,
        vector=vec,
        relation=cert3.relation_text(),
        swaps=list(cert3.swaps),
    )

    return DivisibilityResult(
        name, families, resolutions, lat_use, vec, cert3, match, stages, basis_use
    )
