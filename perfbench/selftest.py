#!/usr/bin/env python3
"""Self-test of the benchmark harness at tiny scale.

    python3 perfbench/selftest.py

Runs every workload BENCHMARK.json lists through run.py with --scale tiny
(the same code paths on inputs small enough for a few seconds each) and
asserts:

  1. every metric BENCHMARK.json names is printed with its unit: the
     end-to-end set untraced, the per-layer set traced, nothing else;
  2. in the traced run, the layer rows plus the unattributed row add up to
     the end-to-end time they reconcile, and the unattributed row matches
     the trace.unattributed_us metric;
  3. a deliberately corrupted output (--corrupt-output) fails the run's
     output check.

Exit status 0 when all assertions hold.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RECONCILE = re.compile(r"reconciliation of .*: e2e .*")


def run(workload, trace, corrupt=False):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--scale", "tiny"]
    if corrupt:
        command.append("--corrupt-output")
    done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT,
                          timeout=600)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, result, done.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            code, result, stderr = run(workload, trace)
            where = "%s trace=%d" % (workload, trace)
            if code != 0 or result is None or not result["correct"]:
                failures.append("%s: run failed (exit %d)\n%s" %
                                (where, code, stderr[-1500:]))
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                wrong = sorted(k for k in got if k in expected[trace] and
                               got[k] != expected[trace][k])
                failures.append("%s: metrics differ: missing %s, extra %s, "
                                "wrong unit %s" % (where, missing, extra, wrong))
            if trace == 1:
                match = RECONCILE.search(stderr)
                if not match:
                    failures.append("%s: no reconciliation printed" % where)
                    continue
                parts = match.group(0).split(" | ")
                e2e = float(parts[0].rsplit(" ", 1)[1])
                rows = [float(part.rsplit(" ", 1)[1]) for part in parts[1:]]
                total = sum(rows)
                if abs(total - e2e) > 1e-6 * max(1.0, abs(e2e)):
                    failures.append("%s: rows sum to %g, e2e is %g" %
                                    (where, total, e2e))
                unattributed = result["metrics"]["trace.unattributed_us"]["value"]
                if abs(rows[-1] - unattributed) > 1e-6 * max(1.0, abs(e2e)):
                    failures.append("%s: unattributed row %g vs metric %g" %
                                    (where, rows[-1], unattributed))
        code, result, _ = run(workload, 0, corrupt=True)
        if code == 0 or result is None or result["correct"]:
            failures.append("%s: corrupted output passed the check" % workload)
        print("%s: checked" % workload, flush=True)
    for failure in failures:
        print("FAIL " + failure)
    print("selftest: %s" % ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
