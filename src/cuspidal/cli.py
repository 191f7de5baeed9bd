"""Command-line driver.

Subcommands:
  surface-report NAME|FILE   singularity certificate + free-action check
  reproduce-construction     replay the quartic -> quintic construction
  divisibility NAME          intersection lattice and 3-divisibility

Exit codes: 0 all requested certificates pass, 1 certificate/stage
failure, 2 parse or usage error.  Progress goes to stderr; stdout carries
only the report (JSON with --json, text otherwise).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import catalog
from .singcert import SingularInCodimensionOne, classify_all
from .zfive import ActionK, free_action_check

DEFAULT_SEED = 20240501


def _progress(msg):
    print(msg, file=sys.stderr)
    sys.stderr.flush()


def _load_surface(arg, action_k):
    """Catalog entry by name, or a parsed equation file."""
    try:
        entry = catalog.get(arg)
        return entry.name, entry.poly, entry.action
    except KeyError:
        pass
    if os.path.exists(arg):
        with open(arg) as fh:
            text = fh.read()
        poly = catalog.XYZW.parse(text)
        return os.path.basename(arg), poly, ActionK(action_k or 0)
    raise KeyError("unknown surface %r (not a catalog name or file)" % arg)


def cmd_surface_report(args):
    name, poly, action = _load_surface(args.surface, args.action)
    _progress("certifying singular locus of %s ..." % name)
    if args.chart is not None:
        report = _chart_only_report(name, poly, args.chart)
        _emit(args, report)
        return 0
    try:
        cert = classify_all(poly, name, action=action)
    except SingularInCodimensionOne as ev:
        _emit(args, {"surface": name, "pass": False, "error": str(ev)})
        return 1
    fav = free_action_check(poly, action=action)
    invariant = (
        action.is_invariant(poly)
        if isinstance(action, ActionK)
        else action.on_poly(poly) == poly
    )
    report = cert.to_json()
    report["free_action"] = fav.to_json()
    report["invariant_under_action"] = bool(invariant)
    ok = cert.verdict in ("all_A1", "all_A2", "smooth")
    report["pass"] = ok
    if args.transcript:
        report["transcript"] = {
            "chart_gb_sizes": [
                len(c.scheme.gb.polys) if c else None for c in cert.report.charts
            ],
            "chart_degrees": [
                c.scheme.degree if c else None for c in cert.report.charts
            ],
            "chart_points": [
                c.radical.degree if c else None for c in cert.report.charts
            ],
        }
    _emit(args, report)
    return 0 if ok else 1


def _chart_only_report(name, poly, chart_name):
    from .groebner import buchberger, zero_dim_analyze, radical_zero_dim
    from .multipoly import jacobian
    from .singcert import chart_ring, to_chart

    ring = poly.ring
    if chart_name not in ring.vars:
        raise ValueError("unknown chart %r" % chart_name)
    ci = ring.vars.index(chart_name)
    cring = chart_ring(ring, ci)
    gens = [to_chart(g, ci, cring) for g in jacobian(poly)]
    gb = buchberger([g for g in gens if not g.is_zero], ring=cring)
    scheme = zero_dim_analyze(gb)
    rad = radical_zero_dim(scheme)
    return {
        "surface": name,
        "chart": chart_name,
        "chart_degree": scheme.degree,
        "chart_points": rad.degree,
        "gb_size": len(gb.polys),
        "partial": True,
    }


def cmd_reproduce_construction(args):
    from .reproduce import reproduce_construction

    if args.action not in (None, 0):
        report = {
            "pass": False,
            "reason": "no built-in a_%d quartic in the catalog" % args.action,
            "stages": [],
        }
        _emit(args, report)
        return 1
    _progress("replaying the quartic -> quintic construction ...")
    report = reproduce_construction(seed=args.seed, progress=_progress)
    _emit(args, report)
    return 0 if report["pass"] else 1


def cmd_divisibility(args):
    from .pipeline import PipelineError, divisibility_pipeline

    entry = catalog.get(args.surface)
    if entry.expected_degree != 5:
        print(
            json.dumps({"error": "divisibility needs a cuspidal quintic"}),
            file=sys.stderr,
        )
        return 2
    _progress("running the divisibility pipeline for %s ..." % args.surface)
    transcript = [] if args.transcript else None
    try:
        res = divisibility_pipeline(
            args.surface, transcript=transcript, seed=args.seed
        )
    except PipelineError as ev:
        _emit(args, {"pass": False, "error": str(ev)})
        return 1
    cert = res.certificate
    report = {
        "surface": args.surface,
        "labels": list(res.lattice.labels),
        "matrix": res.lattice.matrix,
        "det": res.lattice.determinant(),
        "nullspace": [list(v) for v in res.nullspace_basis],
        "vector": list(res.vector),
        "swaps": list(cert.swaps),
        "relation": cert.relation_text(),
        "assumptions": cert.assumptions,
        "published_match": res.match,
        "stages": res.stages,
        "pass": True,
    }
    if args.transcript:
        report["transcript"] = transcript
        report["proof"] = cert.transcript()
        report["resolutions"] = [r.transcripts for r in res.resolutions]
    _emit(args, report)
    return 0


def cmd_invariant_table(args):
    from .zfive import invariant_basis

    table = []
    for d in range(args.max_degree + 1):
        row = {"degree": d}
        for k in range(5):
            row["a_%d" % k] = len(invariant_basis(d, k))
        table.append(row)
    report = {"invariant_monomial_counts": table}
    _emit(args, report)
    return 0


def _emit(args, report):
    if args.json:
        print(json.dumps(report, indent=2, default=str))
    else:
        _pretty(report)


def _pretty(report, indent=0):
    pad = "  " * indent
    if isinstance(report, dict):
        for k, v in report.items():
            if isinstance(v, (dict, list)) and v and not _is_flat(v):
                print("%s%s:" % (pad, k))
                _pretty(v, indent + 1)
            else:
                print("%s%s: %s" % (pad, k, v))
    elif isinstance(report, list):
        for v in report:
            if isinstance(v, (dict, list)) and v and not _is_flat(v):
                _pretty(v, indent)
                print()
            else:
                print("%s- %s" % (pad, v))


def _is_flat(v):
    if isinstance(v, list):
        return all(not isinstance(x, (dict, list)) for x in v)
    return False


def build_parser():
    p = argparse.ArgumentParser(
        prog="cuspidal",
        description="Exact certification of cuspidal quintic surfaces with a "
        "free Z5 action and 3-divisibility of their cusps.",
    )
    p.add_argument("--json", action="store_true", help="emit JSON on stdout")
    p.add_argument(
        "--seed", type=int, default=DEFAULT_SEED, help="deterministic seed"
    )
    p.add_argument(
        "--transcript", action="store_true", help="include audit transcripts"
    )
    sub = p.add_subparsers(dest="command", required=True)

    sr = sub.add_parser("surface-report", help="certify a surface's singularities")
    sr.add_argument("surface", help="catalog name or equation file")
    sr.add_argument("--action", type=int, default=None, help="action index k")
    sr.add_argument("--chart", default=None, help="restrict to one chart")
    sr.set_defaults(fn=cmd_surface_report)

    rc = sub.add_parser(
        "reproduce-construction", help="replay the published construction"
    )
    rc.add_argument("--action", type=int, default=None, help="action index k")
    rc.set_defaults(fn=cmd_reproduce_construction)

    dv = sub.add_parser("divisibility", help="3-divisibility certificate")
    dv.add_argument("surface", help="catalog quintic name")
    dv.set_defaults(fn=cmd_divisibility)

    it = sub.add_parser(
        "invariant-table", help="invariant-monomial counts per (degree, action)"
    )
    it.add_argument("--max-degree", type=int, default=6)
    it.set_defaults(fn=cmd_invariant_table)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as ev:
        return 2 if ev.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (KeyError, ValueError) as ev:
        print(json.dumps({"error": str(ev)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
