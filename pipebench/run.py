#!/usr/bin/env python3
"""Paper-pipeline benchmark runner.

Usage (from the repository root):

    python3 pipebench/run.py --workload hub-pipeline --seed 1 \
        --seconds 12 --trace 0

Builds liborbis and the benchmark from source into .bench_build/pipebench
(a no-op once built), generates the workload's inputs from --seed in a
scratch directory under .bench_build/work, runs the workload and prints
its report.  The last line of standard output is the JSON result:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
Traced runs also write their spans to .bench_build/traces/.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "pipebench")
BINARY = os.path.join(BUILD, "pipebench")
WORKLOADS = ("hub-pipeline", "flat-pipeline", "svc-session")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark; build output to stderr."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "pipebench"), "-B",
                     BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr,
                       stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)


def run(command, timeout):
    """Runs `command`, returning its stdout; raises on failure or timeout."""
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
        if proc.returncode != 0:
            raise subprocess.CalledProcessError(proc.returncode, command)
        return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    work = os.path.join(BUILD_ROOT, "work",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--dir",
              work]
    try:
        sys.stdout.write(run([BINARY, "gen"] + common, RUN_TIMEOUT_S))
        command = [BINARY, "run"] + common + [
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            traces = os.path.join(BUILD_ROOT, "traces")
            os.makedirs(traces, exist_ok=True)
            command += ["--trace-out", os.path.join(
                traces, f"{args.workload}-seed{args.seed}.json")]
        lines = run(command, RUN_TIMEOUT_S).strip().splitlines()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit("pipebench: malformed result line")
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
