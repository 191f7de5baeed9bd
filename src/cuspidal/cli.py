"""Command-line driver.

Subcommands:
  surface-report NAME|FILE   singularity certificate, with the action's
                             invariance and freeness: a catalog surface's
                             own action, a_0 for an equation file
  reproduce-construction     replay the quartic -> quintic construction
  divisibility NAME          intersection lattice and 3-divisibility

Exit codes: 0 all requested certificates pass, 1 certificate/stage
failure, 2 parse or usage error.  Progress goes to stderr; stdout carries
only the report (JSON with --json, text otherwise).  No report depends on
a random choice: --seed is accepted and ignored (docs/DECISIONS.md D21).

`main(argv)` returns the exit code and never exits, so tests and tracers
call it in process.  `run()` is the process entry point, for both
`python -m cuspidal.cli` and the `cuspidal` console script: it flushes the
report and ends the process at once, skipping interpreter teardown, or
exits normally under a profiler or tracer or when the report meets a
closed stdout, which exits 120 (docs/DECISIONS.md D27, D28).

surface-report has one report builder: the certificate of `classify_all`
carries the action verdict (invariant_under_action, free_action), and
--transcript adds each chart's degree, point count and Groebner basis
size (docs/DECISIONS.md D26).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import catalog
from .singcert import (
    SingularInCodimensionOne,
    SingularLocusNotInvariant,
    classify_all,
)
from .zfive import ActionK


def _progress(msg):
    print(msg, file=sys.stderr)
    sys.stderr.flush()


def _load_surface(arg):
    """Catalog entry by name, or a parsed equation file under a_0."""
    if arg in catalog.names():
        entry = catalog.get(arg)
        return entry.name, entry.poly, entry.action
    if os.path.exists(arg):
        try:
            with open(arg) as fh:
                text = fh.read()
        except OSError as ev:  # a directory, or no read permission
            raise ValueError("cannot read equation file %r: %s" % (arg, ev.strerror))
        poly = catalog.XYZW.parse(text)
        return os.path.basename(arg), poly, ActionK(0)
    raise KeyError("unknown surface %r (not a catalog name or file)" % arg)


def cmd_surface_report(args):
    name, poly, action = _load_surface(args.surface)
    _progress("certifying singular locus of %s ..." % name)
    try:
        cert = classify_all(poly, name, action=action)
    except (SingularInCodimensionOne, SingularLocusNotInvariant) as ev:
        _emit(args, {"surface": name, "pass": False, "error": str(ev)})
        return 1
    report = cert.to_json()
    report["free_action"] = cert.free_action.to_json()
    report["invariant_under_action"] = cert.invariant
    ok = cert.verdict in ("all_A1", "all_A2", "smooth")
    report["pass"] = ok
    if args.transcript:
        report["transcript"] = {
            # classify_all has raised unless every chart is zero-dimensional
            "chart_gb_sizes": [len(c.scheme.gb.polys) for c in cert.report.charts],
            "chart_degrees": [c.scheme.degree for c in cert.report.charts],
            "chart_points": [p["chart_points"] for p in cert.report.pieces],
        }
    _emit(args, report)
    return 0 if ok else 1


def cmd_reproduce_construction(args):
    from .reproduce import reproduce_construction

    _progress("replaying the quartic -> quintic construction ...")
    report = reproduce_construction(progress=_progress)
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
    try:
        res = divisibility_pipeline(args.surface)
    except PipelineError as ev:
        _emit(args, {"pass": False, "error": str(ev)})
        return 1
    _emit(args, res.to_json(args.transcript))
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
        "--seed",
        type=int,
        help="accepted and ignored: no report depends on a random choice; "
        "kept so that callers that pass it still run",
    )
    p.add_argument(
        "--transcript", action="store_true", help="include audit transcripts"
    )
    sub = p.add_subparsers(dest="command", required=True)

    sr = sub.add_parser("surface-report", help="certify a surface's singularities")
    sr.add_argument(
        "surface", help="catalog name, or equation file certified under a_0"
    )
    sr.set_defaults(fn=cmd_surface_report)

    rc = sub.add_parser(
        "reproduce-construction", help="replay the published construction"
    )
    rc.set_defaults(fn=cmd_reproduce_construction)

    dv = sub.add_parser("divisibility", help="3-divisibility certificate")
    dv.add_argument("surface", help="catalog quintic name")
    dv.set_defaults(fn=cmd_divisibility)

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
        # str() of a KeyError is the repr of its message
        msg = ev.args[0] if isinstance(ev, KeyError) else str(ev)
        print(json.dumps({"error": msg}), file=sys.stderr)
        return 2


def _observed():
    """Whether a profiler, tracer or monitoring tool is attached: each
    writes its results after the program returns."""
    if sys.getprofile() is not None or sys.gettrace() is not None:
        return True
    monitoring = getattr(sys, "monitoring", None)  # Python 3.12+
    return monitoring is not None and any(
        monitoring.get_tool(tool) is not None for tool in range(6)
    )


def run():
    """Run `main` on the command line and end the process with its code.

    Every certificate and the report are finished when `main` returns,
    and the package registers no atexit callback, starts no thread and
    writes no file, so once stdout and stderr are flushed the only work
    left is interpreter teardown, which `os._exit` skips.  A report that
    meets a closed stdout fails as a failed final flush does, with exit
    120 and the error on stderr, whether the flush here finds the pipe
    closed or a write inside `main` does (unbuffered, or a report larger
    than the buffer).
    """
    try:
        code = main()
    except BrokenPipeError as ev:
        print("%s: %s" % (type(ev).__name__, ev), file=sys.stderr)
        sys.exit(120)
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:  # a closed pipe: fail at exit as the interpreter does
        sys.exit(code)
    if _observed():
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
