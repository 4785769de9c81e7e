#!/usr/bin/env python3
"""Builds the graphgen benchmark from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The build lands in $CARGO_TARGET_DIR (default .bench_build) under the
checkout root. The last line of standard output is the run's JSON result;
build output goes to standard error. The program is capped at two worker
threads (GRAPHGEN_THREADS=2) so the other half of a 4-vCPU host absorbs
noise. Exits non-zero when the build fails or any check fails.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

WORKLOADS = ("coauthor_exp", "copurchase_exp", "copurchase_auto", "live_append")
THREADS = "2"
RUN_TIMEOUT_S = 170

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out, env):
    """Configures and builds perfbench; returns the binary directory."""
    cmake_dir = os.path.join(out, "cmake")
    os.makedirs(cmake_dir, exist_ok=True)
    # Serialize concurrent runs sharing one build directory.
    with open(os.path.join(out, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            _check([
                "cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", cmake_dir,
                "-DCMAKE_BUILD_TYPE=Release", *generator,
            ], env)
        _check(["cmake", "--build", cmake_dir, "-j", "3"], env)
    return cmake_dir


def _check(cmd, env):
    result = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        sys.stderr.write("build step failed: %s\n" % " ".join(cmd))
        sys.exit(2)


def checkout_env(out):
    """Environment for every child: temporary files stay in the build dir."""
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, GRAPHGEN_THREADS=THREADS, TMPDIR=tmp)


def run(cmd, env, timeout):
    try:
        result = subprocess.run(cmd, env=env, timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.stderr.write("timed out: %s\n" % " ".join(cmd))
        return 3
    return result.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the benchmark's unit and smoke tests")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    out = build_dir()
    os.makedirs(out, exist_ok=True)
    env = checkout_env(out)
    bin_dir = build(out, env)
    if args.selftest:
        workdir = os.path.join(out, "selftest")
        os.makedirs(workdir, exist_ok=True)
        return run([os.path.join(bin_dir, "perfbench_tests"), workdir], env, 600)

    tag = "%s-%d-%d" % (args.workload, args.seed, os.getpid())
    cmd = [
        os.path.join(bin_dir, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--data-dir", os.path.join(out, "data", tag),
    ]
    if args.trace:
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, tag + ".jsonl")]
    sys.stdout.flush()
    return run(cmd, env, RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
