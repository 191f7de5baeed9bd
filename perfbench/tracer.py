"""Run the cuspidal CLI with its layer functions timed from outside.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``):

    python perfbench/tracer.py --json surface-report new_quintic

The arguments are those of ``python -m cuspidal.cli``.  Before the CLI
runs, every function named in ``TARGETS`` is replaced by a wrapper.  A
module-level function is rebound in every ``cuspidal.*`` module whose
attribute *is* the original object, because modules import them with
``from .groebner import buchberger``; a method is rebound under every
name of its class that holds the original (``__rmul__ = __mul__``).

Each target records ``calls``, ``self_s`` (its time minus the time of the
wrapped calls it made), ``incl_s``, ``raised`` (exceptions, which pass
through) and the counts its ``observe`` hook reads from return values.
The report goes to stdout exactly as the CLI writes it; the trace goes to
stderr as one JSON line after ``TRACE_MARK``.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import time

TRACE_MARK = "perfbench-trace "


def _count_buchberger(extra, args, result):
    extra["pairs"] += result.stats.get("pairs_processed", 0)
    extra["basis_size"] += len(result.polys)


def _count_normal_form(extra, args, result):
    extra["zero"] += result.is_zero


def _count_zero_dim(extra, args, result):
    extra["degree"] += result.degree


def _count_eliminant(extra, args, result):
    extra["krylov_steps"] += len(result) - 1


def _count_gcd(extra, args, result):
    extra["deg_in"] += max(len(args[0]), len(args[1])) - 1


# (name, module, class or None, attribute names, observe hook, extra counts)
TARGETS = [
    ("cyclofield.mul", "cyclofield", "CycloElem", ("__mul__",), None, ()),
    ("cyclofield.addsub", "cyclofield", "CycloElem", ("__add__", "__sub__"), None, ()),
    ("cyclofield.inverse", "cyclofield", "CycloElem", ("inverse",), None, ()),
    ("multipoly.sub_mul_mono", "multipoly", "Poly", ("sub_mul_mono",), None, ()),
    ("multipoly.mul", "multipoly", "Poly", ("__mul__",), None, ()),
    ("multipoly.addsub", "multipoly", "Poly", ("__add__", "__sub__"), None, ()),
    ("groebner.buchberger", "groebner", None, ("buchberger",),
     _count_buchberger, ("pairs", "basis_size")),
    ("groebner.normal_form", "groebner", None, ("normal_form",),
     _count_normal_form, ("zero",)),
    ("groebner.zero_dim_analyze", "groebner", None, ("zero_dim_analyze",),
     _count_zero_dim, ("degree",)),
    ("groebner.radical_zero_dim", "groebner", None, ("radical_zero_dim",), None, ()),
    ("groebner.eliminant", "groebner", None, ("eliminant",),
     _count_eliminant, ("krylov_steps",)),
    ("groebner.extract_points", "groebner", None, ("extract_points",), None, ()),
    ("unipoly.gcd_monic", "unipoly", None, ("gcd_monic",), _count_gcd, ("deg_in",)),
    ("unipoly.squarefree_part", "unipoly", None, ("squarefree_part",), None, ()),
    ("singcert.singular_scheme", "singcert", None, ("singular_scheme",), None, ()),
    ("singcert.classify_all", "singcert", None, ("classify_all",), None, ()),
    ("zfive.free_action_check", "zfive", None, ("free_action_check",), None, ()),
    ("curvegeom.find_tropes", "curvegeom", None, ("find_tropes",), None, ()),
    ("curvegeom.intersect_surfaces", "curvegeom", None, ("intersect_surfaces",), None, ()),
    ("curvegeom.resolve_cusp", "curvegeom", None, ("resolve_cusp",), None, ()),
    ("curvegeom.pair_intersection_away_from", "curvegeom", None,
     ("pair_intersection_away_from",), None, ()),
    ("curvegeom.curve_singular_points", "curvegeom", None,
     ("curve_singular_points",), None, ()),
    ("lattice.assemble", "lattice", None, ("assemble",), None, ()),
    ("lattice.nullspace_int", "lattice", None, ("nullspace_int",), None, ()),
    ("lattice.match_published", "lattice", None, ("match_published",), None, ()),
    ("lattice.find_divisibility_vector", "lattice", None,
     ("find_divisibility_vector",), None, ()),
    ("linalg.kernel_basis", "linalg", None, ("kernel_basis",), None, ()),
    ("linalg.rank", "linalg", None, ("rank",), None, ()),
]


class Record:
    """Totals for one target; ``times`` is [calls, self_s, incl_s, raised]."""

    def __init__(self, extra_names):
        self.times = [0, 0.0, 0.0, 0]
        self.extra = dict.fromkeys(extra_names, 0)

    def to_json(self):
        calls, self_s, incl_s, raised = self.times
        out = {"calls": calls, "self_s": self_s, "incl_s": incl_s, "raised": raised}
        out.update(self.extra)
        return out


def _wrap(fn, record, observe, stack):
    """Time ``fn`` into ``record``; ``stack`` holds the wrapped-child time
    of every open wrapped call, innermost last."""
    times, extra = record.times, record.extra
    clock = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack.append(0.0)
        t0 = clock()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            times[3] += 1
            raise
        finally:
            dt = clock() - t0
            times[0] += 1
            times[1] += dt - stack.pop()
            times[2] += dt
            if stack:
                stack[-1] += dt
        if observe is not None:
            observe(extra, args, result)
        return result

    return wrapper


def _cuspidal_modules():
    import cuspidal

    for info in pkgutil.iter_modules(cuspidal.__path__, "cuspidal."):
        importlib.import_module(info.name)
    return [m for n, m in sorted(sys.modules.items())
            if n == "cuspidal" or n.startswith("cuspidal.")]


def install():
    """Wrap every target in place; returns {target name: Record}."""
    modules = _cuspidal_modules()
    stack = []
    records = {}
    for name, mod_name, cls_name, attrs, observe, extra_names in TARGETS:
        record = records[name] = Record(extra_names)
        owner = sys.modules["cuspidal." + mod_name]
        if cls_name is not None:
            cls = getattr(owner, cls_name)
            for attr in attrs:
                original = cls.__dict__[attr]
                wrapper = _wrap(original, record, observe, stack)
                for alias, value in list(vars(cls).items()):
                    if value is original:
                        setattr(cls, alias, wrapper)
            continue
        for attr in attrs:
            original = getattr(owner, attr)
            wrapper = _wrap(original, record, observe, stack)
            for mod in modules:
                for alias, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, alias, wrapper)
    return records


def main(argv):
    records = install()
    from cuspidal import cli

    t0 = time.perf_counter()
    try:
        code = cli.main(argv)
    finally:
        wall = time.perf_counter() - t0
        sys.stdout.flush()
        trace = {name: rec.to_json() for name, rec in records.items()}
        sys.stderr.write(TRACE_MARK + json.dumps({"wall_s": wall, "targets": trace}) + "\n")
        sys.stderr.flush()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
