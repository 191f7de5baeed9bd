"""Stage-by-stage replay of the quartic -> quintic construction.

Verifies: the built-in quartic is 16-nodal with the expected orbit
structure, the invariant degree-5 double-point system at the 15 non-fixed
nodes has exactly two generators, the unconstrained system has projective
dimension 4, the cusp-imposing solve recovers a unique scalar b, the
resulting surface is proportional to the built-in quintic, and that
quintic carries 15 cusps with a free action.
"""

from __future__ import annotations

from . import catalog
from .linsys import check_double_points, conditioned_system, impose_cusps
from .multipoly import proportional
from .schemas import PipelineError, Stages
from .singcert import classify_all


def reproduce_construction(progress=None, quartic_override=None):
    qent = catalog.get("new_quartic")
    quartic = quartic_override if quartic_override is not None else qent.poly
    sent = catalog.get("new_quintic")
    stages = Stages(progress)
    # every stage is fatal: the first failed check ends the replay
    try:
        stages.check(
            "catalog_parse",
            quartic.is_homogeneous()
            and quartic.degree() == 4
            and sent.poly.is_homogeneous()
            and sent.poly.degree() == 5,
        )

        cert = classify_all(quartic, "quartic", action=qent.action)
        orbit_sizes = sorted(o["size"] for o in cert.orbits or [])
        stages.check(
            "quartic_node_certificate",
            cert.verdict == "all_A1"
            and cert.n_points == 16
            and orbit_sizes == [1, 5, 5, 5],
            verdict=cert.verdict,
            n_points=cert.n_points,
            orbit_sizes=orbit_sizes,
        )

        wchart = cert.report.charts[3]
        loci = [(3, wchart.piece_radical)]
        stages.check(
            "nonfixed_nodes_in_w_chart",
            wchart.piece_radical.degree == 15,
            degree=wchart.piece_radical.degree,
        )

        inv5 = conditioned_system(5, 0, loci=loci)
        stages.check(
            "invariant_quintic_system",
            inv5.dimension == 2 and check_double_points(inv5.basis, loci, quartic.ring),
            dimension=inv5.dimension,
        )

        full5 = conditioned_system(5, None, loci=loci)
        stages.check(
            "unconstrained_quintic_system",
            full5.projective_dimension == 4,
            projective_dimension=full5.projective_dimension,
        )

        L1, L2 = inv5.basis
        rep = impose_cusps(L1, L2, loci)
        stages.check(
            "cusp_imposing_solve",
            len(rep.roots) == 1 and rep.residual_degree == 0,
            roots=[str(r) for r in rep.roots],
            residual_degree=rep.residual_degree,
        )

        b = rep.roots[0]
        F = L1 + L2.scale(b)
        stages.check(
            "proportional_to_published_quintic",
            proportional(F, sent.poly),
            b=str(b),
        )

        scert = classify_all(sent.poly, "quintic", action=sent.action)
        stages.check(
            "quintic_cusp_certificate",
            scert.verdict == "all_A2"
            and scert.n_points == 15
            and scert.free_action.free,
            verdict=scert.verdict,
            n_points=scert.n_points,
            free_action=scert.free_action.free,
        )
    except PipelineError:
        return {"stages": stages, "pass": False}
    return {"stages": stages, "pass": True}
