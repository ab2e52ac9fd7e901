"""Self-check of the doublelie benchmark.

    python3 bench/check.py            # every workload at minimal size
    python3 bench/check.py --full     # real sizes: one command for all
                                      # end-to-end and per-layer metrics

Runs each workload in a fresh process with --trace 0 and --trace 1 (seed 1,
for 1 second, or for run_seconds with --full), prints every metric with its
unit and the known-answer results, and fails unless the last line has
exactly the keys the benchmark contract names, correct is true, no verdict
failed, every metric of BENCHMARK.json is printed with its unit, seed 2
gives the same metric names and verdicts, the named layers cover at least
90% of the traced wall time, and the benchmark refuses to run without the
package.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

from run import WORKLOAD_NAMES  # noqa: E402
from tracing import PER_LAYER  # noqa: E402

DIAGNOSTICS = ("known-answers:", "wrong_verdict_share:")
SEED = 1


def run_workload(workload, trace, full, seconds, seed):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if not full:
        cmd.append("--quick")
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    return done.returncode, done.stdout.splitlines(), done.stderr


def check_result(lines, expected, problems, label):
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("%s: keys %s" % (label, sorted(result)))
    if result.get("correct") is not True:
        problems.append("%s: correct is %r" % (label, result.get("correct")))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1 \
            or not isinstance(result["failed"], int):
        problems.append("%s: attempted/failed %r/%r" % (
            label, result["attempted"], result["failed"]))
    elif result["failed"]:
        problems.append("%s: %d verdicts failed" % (label, result["failed"]))
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        problems.append("%s: metrics %s, expected %s" % (label, got,
                                                          expected))
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            problems.append("%s: %s is not a number" % (label, name))
    for prefix in DIAGNOSTICS:
        if not any(line.startswith(prefix) for line in lines):
            problems.append("%s: no %r line" % (label, prefix))
    return result


def verdict_summary(lines, result):
    """What a second seed must reproduce: metric names, correctness, and
    the number of verdicts per pass."""
    known = json.loads(next(line for line in lines
                            if line.startswith("known-answers:"))
                       .split(":", 1)[1])
    return (sorted(result["metrics"]), result["correct"],
            known["verdicts_per_pass"], known["wrong"])


def check_bare_directory(problems):
    """The benchmark must exit nonzero, printing no result, in a directory
    holding only BENCHMARK.json and the benchmark's own files."""
    bare = os.path.join(BENCH, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "bench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for name in os.listdir(BENCH):
        if name.endswith(".py") or name.endswith(".md"):
            shutil.copy(os.path.join(BENCH, name),
                        os.path.join(bare, "bench"))
    try:
        done = subprocess.run([sys.executable, "bench/run.py", "--workload",
                               "mutants", "--seed", "1", "--seconds", "1",
                               "--trace", "0"], cwd=bare, capture_output=True,
                              text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        problems.append("bare directory: exit %d, stdout %r"
                        % (done.returncode, done.stdout[-200:]))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--full", action="store_true",
                   help="real input sizes instead of minimal ones")
    full = p.parse_args(argv).full
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"] if full else 1
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOAD_NAMES):
        problems.append("BENCHMARK.json workloads differ from run.py")
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if declared != [row[:3] for row in PER_LAYER]:
        problems.append("BENCHMARK.json per_layer differs from tracing.py")
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            label = "%s trace %d" % (workload, trace)
            code, lines, err = run_workload(workload, trace, full, seconds,
                                            SEED)
            if code != 0 or not lines:
                problems.append("%s: exit %d: %s" % (label, code, err[-500:]))
                continue
            result = check_result(lines, expected[trace], problems, label)
            if not trace:
                code2, lines2, err2 = run_workload(workload, trace, full,
                                                   seconds, SEED + 1)
                if code2 != 0 or not lines2 or \
                        verdict_summary(lines, result) != verdict_summary(
                            lines2, json.loads(lines2[-1])):
                    problems.append("%s: seed %d disagrees with seed %d"
                                    % (label, SEED + 1, SEED))
            print("== %s: correct %s, attempted %d, failed %d" % (
                label, result["correct"], result["attempted"],
                result["failed"]))
            for line in lines[:-1]:
                if line.startswith(DIAGNOSTICS) or line.startswith("wrong:"):
                    print("   " + line)
            for name, m in result["metrics"].items():
                print("   %-30s %14.6g %s" % (name, m["value"], m["unit"]))
            if trace and result["metrics"]["trace.named_share"]["value"] \
                    < 0.9:
                problems.append("%s: named layers cover less than 90%%"
                                % label)
    check_bare_directory(problems)
    for line in problems:
        print("PROBLEM: " + line)
    print("self-check %s" % ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
