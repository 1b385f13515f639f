#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 perfbench/run.py --workload warm_mix --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call configures and builds the
repository's libraries and the benchmark with CMake (Release) into
.bench_build/perfbench; later calls rebuild only what changed. Build output
goes to stderr, so the last line of stdout is the benchmark's JSON result.

Each run gets a private directory under .bench_build/tmp for its index,
removed when the run ends however it ends. Traced runs write their spans
to .bench_build/traces/<workload>-seed<n>.jsonl. This script is made the
reaper of its orphans, so a shard process left by a crashed run is reaped
here before it returns.
"""
import argparse
import ctypes
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

SOURCE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(SOURCE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TMP = os.path.join(ROOT, ".bench_build", "tmp")
TRACES = os.path.join(ROOT, ".bench_build", "traces")
PR_SET_CHILD_SUBREAPER = 36


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", SOURCE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr) != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", BUILD, "-j", "4"]
    return subprocess.call(cmd, stdout=sys.stderr) == 0


def reap_orphans(timeout_s=10.0):
    """Waits for children re-parented to this process (shards whose
    benchmark process died; they are killed by their parent-death signal)."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            time.sleep(0.02)


def on_signal(signum, _frame):
    raise SystemExit(128 + signum)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the checks' self-tests on a tiny dataset")
    args = parser.parse_args()
    if not args.selftest and (args.workload is None or args.seed is None):
        parser.error("--workload and --seed are required")

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    if sys.platform.startswith("linux"):
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 3

    os.makedirs(TMP, exist_ok=True)
    name = "selftest" if args.selftest else args.workload
    workdir = tempfile.mkdtemp(prefix=name + "-", dir=TMP)
    if args.selftest:
        cmd = [os.path.join(BUILD, "perfbench_selftest"), workdir]
    else:
        cmd = [os.path.join(BUILD, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir]
        if args.trace:
            os.makedirs(TRACES, exist_ok=True)
            cmd += ["--trace-out", os.path.join(
                TRACES, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    child = None
    try:
        sys.stdout.flush()
        child = subprocess.Popen(cmd)
        return child.wait()
    finally:
        if child is not None and child.poll() is None:
            child.kill()
            child.wait()
        reap_orphans()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
