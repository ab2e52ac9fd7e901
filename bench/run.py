"""Run one workload of the doublelie benchmark.

    python3 bench/run.py --workload battery --seed 1 --seconds 25 --trace 0

Workloads: battery, closure_search, mutants (see bench/workloads.py).  The
run repeats whole passes over the workload's verdicts for --seconds seconds
(at least two passes, so every pass can be compared with the first), checks
every verdict against its known answer, and prints diagnostics followed by
one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

attempted counts verdicts over all passes; failed counts those that
disagree with their known answer (they raised, failed without a
counterexample, gave another verdict, or changed between passes); correct
is true when none did.  The one documented raise
(workloads.documented_raise) is the known answer of its verdicts, so it is
not in failed; the wrong_verdict_share line counts it.  --trace 0 reports
the end-to-end metrics, --trace 1 the per-layer metrics of a traced run
(bench/tracing.py), whose spans and counts go to bench/out/.  --quick
runs every workload at minimal size.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
SETUP_SAMPLES = 15
SETUP_PROBES = 3
# Passes on a shared machine run 20-60% slower or faster for seconds to
# minutes at a time, in CPU time as much as in wall time, which no run that
# fits the time budget averages out.  So an interval timer runs a fixed
# probe every PROBE_EVERY_S seconds, in the middle of the work, and a
# pass's times are reported at the probe's nominal speed: multiplied by
# PROBE_NOMINAL_S over the mean probe time in the pass.  The mean, not the
# median: the machine flips between a fast and a slow state within a pass,
# and the pass's time adds up both.  Probe time is left out of every time
# measured.  Each set-up is scaled too, by probes run before and after it
# in its own interpreter.  The measured times are printed alongside.
PROBE_EVERY_S = 0.25
PROBE_NOMINAL_S = 0.0125
WORKLOAD_NAMES = ("battery", "closure_search", "mutants")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="minimal input sizes (self-check)")
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _commit():
    """The checked-out commit, or None outside a git clone."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def env_record(args):
    pkg = os.path.join(SRC, "doublelie")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": _cpu_model(), "commit": _commit(),
            "src_sha256": digest.hexdigest(), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "quick": args.quick}


def setup_once(args):
    """Import the package and build the workload's inputs, timed from a
    fresh interpreter (interpreter start-up itself is not counted).  Prints
    the time and the median probe time around it."""
    probes = [_probe_seconds() for _ in range(SETUP_PROBES)]
    start = time.perf_counter()
    from workloads import WORKLOADS
    WORKLOADS[args.workload][0](args.seed, args.quick)
    seconds = time.perf_counter() - start
    probes += [_probe_seconds() for _ in range(SETUP_PROBES)]
    print(repr(seconds), repr(statistics.median(probes)))


def measure_setup(args):
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0"] + (["--quick"] if args.quick else [])
    measured, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        seconds, probe = map(float, done.stdout.split())
        measured.append(seconds)
        scaled.append(seconds * PROBE_NOMINAL_S / probe)
    return measured, scaled


def _probe():
    """A fixed pure-Python load: dict updates on tuple keys with Fraction
    sums, the kind of work the package does.  The cyclic collector is off
    while it runs, so its cost does not grow with the package's heap; no
    change to the package can change its cost, so its time measures the
    machine."""
    acc = {}
    gc.disable()
    try:
        for i in range(4000):
            key = (i % 61, i % 37)
            acc[key] = acc.get(key, 0) + Fraction(i % 11 + 1, i % 7 + 1)
    finally:
        gc.enable()
    return acc


def _probe_seconds():
    start = time.perf_counter()
    _probe()
    return time.perf_counter() - start


class SpeedProbe:
    """Runs the probe every PROBE_EVERY_S seconds from a SIGALRM handler.
    Python calls the handler in the main thread between bytecodes, so no
    thread is added."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def _tick(self, *_signal):
        seconds = _probe_seconds()
        self.samples.append(seconds)
        self.spent += seconds

    def clock(self):
        """perf_counter less the probe's time so far.  A probe that runs
        while the two are read makes the loop read them again."""
        while True:
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:
                return now - spent

    def scale(self, since):
        """The scale of a pass whose samples start at index since; a pass
        that no sample fell in takes the latest one."""
        samples = self.samples[since:] or self.samples[-1:]
        return PROBE_NOMINAL_S / statistics.fmean(samples)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


class Pass:
    """One pass: wall time, the factor that scales its times to the probe's
    nominal speed, its slowest verdict, and which verdicts raised or gave
    another output than in the first pass."""

    __slots__ = ("wall", "scale", "slowest", "count", "errors", "changed")

    def __init__(self, wall, scale, verdicts, first):
        self.wall = wall
        self.scale = scale
        self.slowest = max((v.seconds for v in verdicts), default=0.0)
        self.count = len(verdicts)
        self.errors = {v.id for v in verdicts if v.error}
        self.changed = {v.id for v, w in zip(verdicts, first)
                        if (v.id, v.output, v.error)
                        != (w.id, w.output, w.error)}
        self.changed |= {v.id for v in verdicts[len(first):]}


def timed_passes(run, inputs, budget, minimum, first=None, probe=None):
    """Repeat passes until budget seconds are spent and at least minimum
    passes ran.  Returns the first pass's verdicts (kept for the known-answer
    check) and a Pass per pass, scaled by the SpeedProbe if one is given."""
    passes = []
    spent = 0.0
    clock = time.perf_counter if probe is None else probe.clock
    while len(passes) < minimum or spent < budget:
        gc.collect()
        since = 0 if probe is None else len(probe.samples)
        start = clock()
        verdicts = run(inputs, clock)
        wall = clock() - start
        spent += wall
        if first is None:
            first = verdicts
        passes.append(Pass(wall, 1.0 if probe is None else probe.scale(since),
                           verdicts, first))
    return first, passes


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def _summary(values):
    q1, q3 = _quartiles(values)
    return "median %.6f q1 %.6f q3 %.6f (n=%d)" % (
        statistics.median(values), q1, q3, len(values))


def score(passes, wrong, excused):
    """attempted, failed (verdicts that disagree with their known answer),
    and failed plus the documented raises (excused: the ids that raised so
    in the first pass; a later pass that raises otherwise changed its
    output)."""
    attempted = failed = wrong_or_raised = 0
    for p in passes:
        bad = set(wrong) | p.changed
        attempted += p.count
        failed += len(bad | (p.errors - excused))
        wrong_or_raised += len(bad | p.errors)
    return attempted, failed, wrong_or_raised


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "doublelie", "__init__.py")):
        print("bench: no doublelie package under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_only:
        setup_once(args)
        return 0
    if args.seconds <= 0:
        print("bench: --seconds must be positive", file=sys.stderr)
        return 2

    env = env_record(args)
    print("env: %s" % json.dumps(env))
    if not args.trace:
        setup_measured, setup = measure_setup(args)

    from workloads import WORKLOADS, documented_raise
    build, run, check = WORKLOADS[args.workload]
    inputs = build(args.seed, args.quick)

    if args.trace:
        from tracing import PER_LAYER, Tracer
        first, untraced = timed_passes(run, inputs, args.seconds / 2, 1)
        tracer = Tracer()
        ranges = []

        def traced_run(inp, clock):
            lo = len(tracer.spans)
            out = run(inp, clock)
            ranges.append((lo, len(tracer.spans)))
            return out

        tracer.install()
        try:
            _, traced = timed_passes(traced_run, inputs, args.seconds / 2, 1,
                                     first=first)
        finally:
            tracer.uninstall()
        passes = untraced + traced
    else:
        probe = SpeedProbe()
        try:
            first, passes = timed_passes(run, inputs, args.seconds, 2,
                                         probe=probe)
        finally:
            probe.stop()
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0

    wrong, info = check(inputs, first)
    excused = {v.id for v in first if documented_raise(v)}
    attempted, failed, wrong_or_raised = score(passes, wrong, excused)
    for vid, reason in sorted(wrong.items()):
        print("wrong: %s: %s" % (vid, reason))
    for v in first:
        if v.error:
            print("raised%s: %s: %s" % (" (documented)" if v.id in excused
                                        else "", v.id, v.error))
    nondeterministic = sorted(set().union(*(p.changed for p in passes)))
    if nondeterministic:
        print("output differs between passes: %s" % nondeterministic)
    print("known-answers: %s" % json.dumps(dict(
        info, verdicts_per_pass=len(first), wrong=len(wrong),
        raised=len(passes[0].errors), documented_raises=len(excused),
        nondeterministic=len(nondeterministic))))
    print("wrong_verdict_share: %r ratio (%d of %d verdicts, %d of them "
          "documented raises)" % (wrong_or_raised / attempted,
                                  wrong_or_raised, attempted,
                                  wrong_or_raised - failed))

    if args.trace:
        untraced_walls = [p.wall for p in untraced]
        traced_walls = [p.wall for p in traced]
        values = tracer.metrics(ranges, traced_walls, untraced_walls)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _better, _moves in PER_LAYER}
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, "trace-%s-seed%d.json"
                            % (args.workload, args.seed))
        tracer.dump(path, env)
        print("trace: %d spans written to %s" % (
            len(tracer.spans), os.path.relpath(path, ROOT)))
        print("traced wall s: %s" % _summary(traced_walls))
        print("untraced wall s: %s" % _summary(untraced_walls))
        if values["trace.named_share"] < 0.9:
            print("trace: named layers cover only %.3f of the traced wall "
                  "time" % values["trace.named_share"], file=sys.stderr)
    else:
        print("measured wall s: %s" % _summary([p.wall for p in passes]))
        print("probe scale: %s" % _summary([p.scale for p in passes]))
        print("verdict s in the first pass: p50 %.6f max %.6f (n=%d)" % (
            statistics.median(v.seconds for v in first),
            passes[0].slowest, len(first)))
        print("measured setup s: %s" % _summary(setup_measured))
        metrics = {
            "wall_s": {"value": statistics.median(
                p.wall * p.scale for p in passes), "unit": "s"},
            "slowest_verdict_s": {"value": statistics.median(
                p.slowest * p.scale for p in passes), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
