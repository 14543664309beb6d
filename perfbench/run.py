#!/usr/bin/env python3
"""Builds the system and the benchmark harness, then runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--scale full|tiny] [--corrupt-output]

Run it from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the checkout; scratch files of the run go to
<build dir>/work. The harness's notes and the environment record go to
stderr; the last line of stdout is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exit status: 0 when the run passed its output checks; 1 when a check
failed; 2 when the build failed or the arguments are wrong (no result is
printed then).
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("deep-search", "refresh-data")
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(out_dir):
    """Configures (once) and builds eved and the harness, optimized."""
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(out_dir, "build.lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", out_dir,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        steps.append(["cmake", "--build", out_dir, "-j", jobs])
        for step in steps:
            done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT)
            if done.returncode != 0:
                log.flush()
                with open(log_path) as failed:
                    tail = failed.readlines()[-30:]
                sys.stderr.write("perfbench: build failed:\n" + "".join(tail))
                # A failed configure must not be mistaken for a usable one.
                if step is steps[0] and "-S" in step:
                    cache = os.path.join(out_dir, "CMakeCache.txt")
                    if os.path.exists(cache):
                        os.remove(cache)
                return False
    return True


def git_commit():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if done.returncode != 0:
        return "unknown (not a git checkout)"
    return done.stdout.strip()


def code_digest(out_dir):
    """Digest of the built binaries: the key of the per-seed identity
    records, so that records of one build are never compared with another's."""
    digest = hashlib.sha256()
    for name in ("perfbench", "eved"):
        with open(os.path.join(out_dir, name), "rb") as binary:
            for chunk in iter(lambda: binary.read(1 << 20), b""):
                digest.update(chunk)
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--scale", default="full", choices=("full", "tiny"))
    parser.add_argument("--corrupt-output", action="store_true")
    args = parser.parse_args()

    out_dir = build_dir()
    if not build(out_dir):
        return 2
    work = os.path.join(out_dir, "work", "run")
    command = [os.path.join(out_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--scale", args.scale, "--bin-dir", out_dir,
               "--work-dir", work, "--git-commit", git_commit(),
               "--code-digest", code_digest(out_dir)]
    if args.corrupt_output:
        command.append("--corrupt-output")
    # Its own session, so that a timeout also stops the eved children.
    harness = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        stdout, _ = harness.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(harness.pid, signal.SIGKILL)
        harness.communicate()
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    finally:
        # Keep the traced run's spans; everything else of the run goes.
        trace = os.path.join(work, "trace.jsonl")
        if os.path.exists(trace):
            traces = os.path.join(out_dir, "work", "traces")
            os.makedirs(traces, exist_ok=True)
            shutil.move(trace, os.path.join(
                traces, "%s-%d.jsonl" % (args.workload, args.seed)))
        shutil.rmtree(work, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if harness.returncode not in (0, 1) or not lines:
        sys.stderr.write("perfbench: harness exited with %d\n" %
                         harness.returncode)
        return 2
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.stderr.write("perfbench: malformed result line\n")
        return 1
    print(lines[-1])
    return 0 if result["correct"] and harness.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
