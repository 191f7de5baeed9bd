"""Benchmark of the cuspidal certifier: verdict-checked CLI workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; the program is run from ``src`` as is.
Each workload is one CLI command, run in a fresh
``python -m cuspidal.cli --json ...`` child: a closed loop with one client,
one single-threaded child at a time (but for the traced pair below).
``--seed`` only picks the ``--seed`` and ``PYTHONHASHSEED`` given to each
child; the catalog name is fixed.

Every child's report is checked against answers written by hand from the
paper (``check_*`` below), never against an earlier output.  A child that
fails the check, exits non-zero or times out counts as failed.  The sha256
of the report without timing fields is compared with the digest the seed
commit produced (``digests.json``); a changed digest is reported, not
counted as a failure, since documented correctness fixes may change it.

``--trace 0`` times the workload for ``--seconds`` seconds, set-up
included, and prints the end-to-end metrics: wall_s, cpu_s and
peak_rss_mb are medians over the children, setup_s the median wall time
of several import-and-catalog children.  Times are rescaled to a
reference core speed measured by a probe on the child's own CPU (see
``probe``); the unscaled medians are in the ``details`` line.
``--trace 1`` runs one untraced child and then the same child twice under
``tracer.py``, side by side, and prints the per-layer metrics; a traced
report must have the untraced digest, and every count must repeat in both
traced children.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import random
import re
import select
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

import tracer

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
TRACER = os.path.join(HERE, "tracer.py")

# a run must end within 180 s; children still running at this point
# are killed and counted as failed
RUN_LIMIT_S = 175.0
SETUP_REPEATS = 11
SETUP_CODE = "import cuspidal.cli, cuspidal.catalog as c; c.names()"

# timing keys a report may carry now or later ("elapsed_s", "wall_ms", ...)
TIMING_KEY = re.compile(r"(^|_)(elapsed|seconds|time|wall|cpu)(_|$)|_m?s$")

# --------------------------------------------------------------------------
# known answers, from the paper

LATTICE_LABELS = ["A1", "A1'", "A2", "A2'", "A3", "A3'", "T1", "T2", "T3"]
CUSP_LABELS = LATTICE_LABELS[:6]
# the one stage the pipeline does not treat as fatal: criterion 8, the
# (T3,T3) entry computed 7 against the published -1, an open defect that
# is recorded as reported and neither asserted nor hidden
NON_FATAL_STAGES = {"matches_published_matrix"}


def check_certify(report):
    """The new quintic: 15 A2 cusps (Tjurina number 2 each) and a free,
    invariant Z5 action."""
    wrong = []
    if report.get("verdict") != "all_A2":
        wrong.append("verdict %r" % report.get("verdict"))
    if report.get("n_points") != 15:
        wrong.append("n_points %r" % report.get("n_points"))
    if report.get("tau_total") != 30:
        wrong.append("tau_total %r" % report.get("tau_total"))
    if (report.get("free_action") or {}).get("free") is not True:
        wrong.append("action not free")
    if report.get("invariant_under_action") is not True:
        wrong.append("surface not invariant")
    return wrong


def check_divisibility(report):
    """The 9x9 lattice on the Godeaux quotient is degenerate and its
    relation has all six cusp coefficients nonzero mod 3."""
    wrong = []
    if report.get("pass") is not True:
        wrong.append("pass %r" % report.get("pass"))
    if report.get("det") != 0:
        wrong.append("det %r" % report.get("det"))
    for st in report.get("stages") or []:
        if st.get("stage") not in NON_FATAL_STAGES and st.get("ok") is not True:
            wrong.append("stage %s failed" % st.get("stage"))
    if not report.get("stages"):
        wrong.append("no stages")
    if report.get("labels") != LATTICE_LABELS:
        wrong.append("labels %r" % report.get("labels"))
    vec = report.get("vector") or []
    if len(vec) != len(LATTICE_LABELS):
        wrong.append("vector %r" % vec)
    elif any(v % 3 == 0 for v in vec[: len(CUSP_LABELS)]):
        wrong.append("cusp coefficient divisible by 3 in %r" % vec)
    return wrong


def published_match(report):
    """The non-fatal criterion-8 result, as reported."""
    for st in report.get("stages") or []:
        if st.get("stage") == "matches_published_matrix":
            return {"ok": st.get("ok"), "strict": st.get("strict")}
    return None


# Why each workload is here, and why two others are not, is in README.md.
WORKLOADS = {
    "certify-new": (["surface-report", "new_quintic"], check_certify),
    "divisibility-vdgz": (["divisibility", "vdgz_quintic"], check_divisibility),
}

# --------------------------------------------------------------------------
# per-layer metrics: (metric, unit); "<target>.<field>" reads the trace


def _layer_metrics():
    out = []
    for target, fields in [
        ("cyclofield.mul", ("calls", "self_s")),
        ("cyclofield.addsub", ("calls", "self_s")),
        ("cyclofield.inverse", ("calls", "self_s")),
        ("multipoly.sub_mul_mono", ("calls", "self_s")),
        ("multipoly.mul", ("calls", "self_s")),
        ("multipoly.addsub", ("calls", "self_s")),
        ("groebner.buchberger", ("calls", "self_s", "incl_s", "pairs", "basis_size")),
        ("groebner.normal_form", ("calls", "self_s", "incl_s", "zero_share")),
        ("groebner.zero_dim_analyze", ("calls", "self_s", "degree", "raised")),
        ("groebner.radical_zero_dim", ("calls", "incl_s")),
        ("groebner.eliminant", ("calls", "self_s", "krylov_steps")),
        ("unipoly.gcd_monic", ("calls", "self_s", "deg_in")),
        ("unipoly.squarefree_part", ("calls", "self_s")),
        ("singcert.singular_scheme", ("calls", "incl_s")),
        ("singcert.classify_all", ("calls", "incl_s")),
        ("zfive.free_action_check", ("calls",)),
        ("curvegeom.resolve_cusp", ("calls",)),
        ("curvegeom.pair_intersection_away_from", ("calls",)),
        ("lattice.assemble", ("calls",)),
        ("lattice.nullspace_int", ("calls",)),
        ("lattice.find_divisibility_vector", ("calls",)),
        ("linalg.kernel_basis", ("calls",)),
        ("linalg.rank", ("calls",)),
    ]:
        for field in fields:
            unit = "s" if field.endswith("_s") else (
                "ratio" if field.endswith("_share") else "count")
            out.append(("%s.%s" % (target, field), unit))
    out.append(("trace.overhead_s", "s"))
    out.append(("trace.unstable_counts", "count"))
    return out


LAYER_METRICS = _layer_metrics()

# --------------------------------------------------------------------------
# the probe: this host's cores change speed from second to second as other
# tenants' work comes and goes on them (the same child took 9-18 s on the
# 2-vCPU VM the benchmark was written on), so child times are rescaled to
# a reference core speed, measured by timing a fixed kernel on the child's
# own CPU while the child runs

PROBE_PERIOD_S = 0.05
# probe_kernel's CPU time on an uncontended core of that VM; the rescaled
# times are seconds on a core where the kernel takes this long
PROBE_REF_S = 0.0013
ALL_CPUS = os.sched_getaffinity(0)


def probe_kernel():
    """Fixed exact-rational work shaped like the program's: the square of
    a sparse bivariate polynomial over Q, a dict keyed by exponent tuples.
    It never changes, so rescaled times of different commits compare."""
    p = {(i, j): Fraction(i + 2 * j + 1, j + 3)
         for i in range(6) for j in range(6 - i)}
    q = {}
    for (a, b), c in p.items():
        for (d, e), f in p.items():
            k = (a + d, b + e)
            v = q.get(k)
            q[k] = c * f if v is None else v + c * f
    return q


def cpu_of(pid):
    """The CPU a process last ran on, or None."""
    try:
        with open("/proc/%d/stat" % pid) as fh:
            stat = fh.read()
        return int(stat[stat.rindex(")") + 2:].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def probe(pid):
    """probe_kernel's CPU time, run on the CPU that ``pid`` runs on."""
    cpu = cpu_of(pid)
    if cpu in ALL_CPUS:
        os.sched_setaffinity(0, {cpu})
    try:
        t0 = time.process_time()
        probe_kernel()
        return time.process_time() - t0
    finally:
        os.sched_setaffinity(0, ALL_CPUS)


def speed_scale(probes):
    """Factor that turns times measured while ``probes`` were taken into
    seconds at the reference speed."""
    return PROBE_REF_S / statistics.fmean(probes)


# --------------------------------------------------------------------------
# children


class Child:
    def __init__(self, wall_s, cpu_s, rss_mb, code, stdout, stderr, probes):
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.rss_mb = rss_mb
        self.code = code
        self.stdout = stdout
        self.stderr = stderr
        self.probes = probes
        self.digest = None


def spawn(jobs, timeout):
    """Run one child per ``(argv, hash_seed)`` in ``jobs``, all at once, to
    their ends; each child's wall time from spawn to exit, user+sys time
    and max RSS from its own rusage.  Children still running ``timeout``
    seconds after the start are killed.  ``probe`` runs every
    ``PROBE_PERIOD_S`` on the CPU of one running child, taking them in
    turn, and each child keeps its own probe times."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    children = [None] * len(jobs)
    probes = [[] for _ in jobs]
    running = {}  # pidfd -> (job index, process, stdout file, stderr file)
    turn = 0
    with contextlib.ExitStack() as files:
        t0 = time.perf_counter()
        try:
            for i, (argv, hash_seed) in enumerate(jobs):
                out, err = (files.enter_context(tempfile.TemporaryFile(dir=ROOT))
                            for _ in range(2))
                env["PYTHONHASHSEED"] = str(hash_seed)
                proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out,
                                        stderr=err)
                # a pidfd turns readable when its child exits
                running[os.pidfd_open(proc.pid)] = (i, proc, out, err)
            while running:
                ready = select.select(list(running), [], [], PROBE_PERIOD_S)[0]
                wall = time.perf_counter() - t0
                for fd in ready:
                    i, proc, out, err = running.pop(fd)
                    os.close(fd)
                    _, status, usage = os.wait4(proc.pid, 0)
                    proc.returncode = os.waitstatus_to_exitcode(status)
                    out.seek(0)
                    err.seek(0)
                    children[i] = Child(
                        wall, usage.ru_utime + usage.ru_stime,
                        usage.ru_maxrss / 1024.0, proc.returncode,
                        out.read().decode(), err.read().decode(), probes[i])
                if ready or not running:
                    continue
                if wall > timeout:
                    for _, proc, _, _ in running.values():
                        proc.kill()
                else:
                    turn = (turn + 1) % len(running)
                    i, proc, _, _ = list(running.values())[turn]
                    probes[i].append(probe(proc.pid))
        finally:
            for fd, (_, proc, _, _) in running.items():
                proc.kill()
                proc.wait()
                os.close(fd)
    return children


def cli_argv(args, cli_seed, traced):
    head = [sys.executable, TRACER] if traced else [sys.executable, "-m", "cuspidal.cli"]
    return head + ["--json", "--seed", str(cli_seed)] + list(args)


def strip_timing(obj):
    if isinstance(obj, dict):
        return {k: strip_timing(v) for k, v in obj.items()
                if not TIMING_KEY.search(str(k))}
    if isinstance(obj, list):
        return [strip_timing(v) for v in obj]
    return obj


def digest(report):
    text = json.dumps(strip_timing(report), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def judge(child, check):
    """(failure reasons, report or None) for one workload child."""
    if child.code != 0:
        return ["exit code %d" % child.code], None
    try:
        report = json.loads(child.stdout)
    except ValueError:
        return ["stdout is not one JSON report"], None
    if not isinstance(report, dict):
        return ["report is not a JSON object"], None
    return check(report), report


def read_trace(child):
    for line in reversed(child.stderr.splitlines()):
        if line.startswith(tracer.TRACE_MARK):
            return json.loads(line[len(tracer.TRACE_MARK):])
    return None


def reference_digests():
    with open(os.path.join(HERE, "digests.json")) as fh:
        return json.load(fh)


# --------------------------------------------------------------------------
# runs


class Run:
    """Children of one benchmark run, with their checks and digests."""

    def __init__(self, workload, seed):
        self.args, self.check = WORKLOADS[workload]
        self.reference = reference_digests().get(workload)
        self.rng = random.Random("%s:%d" % (workload, seed))
        self.start = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.digests = set()

    def elapsed(self):
        return time.perf_counter() - self.start

    def draw_seeds(self):
        return self.rng.randrange(1, 2**31), self.rng.randrange(2**32)

    def children(self, cli_seed, hash_seed, traced=False, copies=1):
        """``copies`` identical children, side by side, each checked."""
        argv = cli_argv(self.args, cli_seed, traced)
        children = spawn([(argv, hash_seed)] * copies,
                         RUN_LIMIT_S - self.elapsed())
        for child in children:
            self.record(child, cli_seed, hash_seed, traced)
        return children

    def record(self, child, cli_seed, hash_seed, traced):
        wrong, report = judge(child, self.check)
        self.attempted += 1
        self.failed += bool(wrong)
        entry = {
            "traced": traced, "cli_seed": cli_seed, "hash_seed": hash_seed,
            "wall_s": child.wall_s, "cpu_s": child.cpu_s,
            "peak_rss_mb": child.rss_mb, "wrong": wrong,
        }
        if child.probes:  # none when the child ends within a probe period
            entry["speed_scale"] = speed_scale(child.probes)
        if report is not None:
            child.digest = digest(report)
            self.digests.add(child.digest)
            entry["digest"] = child.digest
            entry["digest_changed"] = child.digest != self.reference
            entry["published_match"] = published_match(report)
        print("child %s" % json.dumps(entry), flush=True)

    def details(self, **extra):
        out = {
            "reference_digest": self.reference,
            "digests": sorted(self.digests),
            "digest_changed": any(d != self.reference for d in self.digests),
            "failed_share": self.failed / max(self.attempted, 1),
        }
        out.update(extra)
        return out


def measure_setup(run):
    """Median wall time of the set-up children, rescaled by the probes
    of all of them (each child is only a few probe periods long)."""
    argv = [sys.executable, "-c", SETUP_CODE]
    spawn([(argv, run.draw_seeds()[1])], RUN_LIMIT_S)  # byte-compiles once
    walls, probes = [], []
    for _ in range(SETUP_REPEATS):
        child, = spawn([(argv, run.draw_seeds()[1])],
                       RUN_LIMIT_S - run.elapsed())
        if child.code != 0:
            raise SystemExit("set-up child failed:\n" + child.stderr)
        walls.append(child.wall_s)
        probes += child.probes
    return statistics.median(walls), speed_scale(probes)


def run_untraced(run, seconds):
    """Set-up children, then workload children until the next one would
    end after ``seconds`` from the start of the run (set-up included).
    wall_s and cpu_s are medians over the children of their times rescaled
    to the reference speed by each child's own probes."""
    setup_wall, setup_scale = measure_setup(run)
    children = []
    while True:
        children += run.children(*run.draw_seeds())
        if run.elapsed() + statistics.fmean(c.wall_s for c in children) > seconds:
            break
    if run.failed:  # a child that died at once has no probes to rescale by
        return {}, run.details(children=len(children)), False
    scales = [speed_scale(c.probes) for c in children]
    metrics = {
        "wall_s": (statistics.median(
            c.wall_s * k for c, k in zip(children, scales)), "s"),
        "cpu_s": (statistics.median(
            c.cpu_s * k for c, k in zip(children, scales)), "s"),
        "peak_rss_mb": (statistics.median(c.rss_mb for c in children), "MB"),
        "setup_s": (setup_wall * setup_scale, "s"),
    }
    raw = {"setup_s": setup_wall,
           "wall_s": statistics.median(c.wall_s for c in children),
           "cpu_s": statistics.median(c.cpu_s for c in children)}
    return metrics, run.details(children=len(children), unscaled=raw), True


COUNT_FIELDS = ("calls", "raised") + tuple(
    name for target in tracer.TARGETS for name in target[5])


def run_traced(run):
    cli_seed, hash_seed = run.draw_seeds()
    base, = run.children(cli_seed, hash_seed)
    # side by side, one a CPU, so that a traced run ends in time
    traced = run.children(cli_seed, hash_seed, traced=True, copies=2)
    traces = [read_trace(c) for c in traced]
    faithful = all(t is not None for t in traces) and all(
        c.digest is not None and c.digest == base.digest for c in traced)
    if not faithful:
        return {}, run.details(faithful=False), False
    scales = [speed_scale(c.probes) for c in traced]
    targets = [t["targets"] for t in traces]
    unstable = sorted(
        "%s.%s" % (name, field)
        for name, rec in targets[0].items()
        for field in COUNT_FIELDS
        if field in rec and rec[field] != targets[1][name][field])
    metrics = {}
    for metric, unit in LAYER_METRICS:
        name, field = metric.rsplit(".", 1)
        if metric == "trace.overhead_s":
            value = (statistics.median(c.wall_s * k for c, k in zip(traced, scales))
                     - base.wall_s * speed_scale(base.probes))
        elif metric == "trace.unstable_counts":
            value = len(unstable)
        elif field == "zero_share":
            rec = targets[0][name]
            value = rec["zero"] / rec["calls"] if rec["calls"] else 0.0
        elif unit == "s":
            value = statistics.median(
                t[name][field] * k for t, k in zip(targets, scales))
        else:
            value = targets[0][name][field]
        metrics[metric] = (value, unit)
    return metrics, run.details(faithful=True, unstable_counts=unstable,
                                trace=targets), True


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cuspidal", "cli.py")):
        print("no cuspidal sources under %s; run from the repository root" % SRC,
              file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed)
    if args.trace:
        metrics, details, ok = run_traced(run)
    else:
        metrics, details, ok = run_untraced(run, args.seconds)
    print("details %s" % json.dumps(details), flush=True)
    result = {
        "correct": ok and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
