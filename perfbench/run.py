#!/usr/bin/env python3
"""Build and run one workload of the fdks benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The first call configures and
builds the fdks_perfbench binary (perfbench/CMakeLists.txt, which compiles
the library from ../src) into .bench_build/perfbench; later calls reuse it.
Build output goes to stderr. The last line of stdout is the binary's JSON
result; the full record of the run is written under .bench_build/results.
Exits non-zero, printing no result, when the build fails, the run fails
its correctness gate, or it overruns its time limit.
"""
import argparse
import fcntl
import os
import subprocess
import sys

WORKLOADS = ("train_cv", "train_hybrid", "serve_open", "serve_burst")
RUN_TIMEOUT_S = 170  # A run must end within 180 s.
# OpenMP team size. One thread: on the shared 4-core reference host the
# library's OpenMP regions gave no speed-up and tripled the run-to-run
# spread (README.md, "Threads").
THREADS = 1


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # One build at a time per checkout.
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            cfg = subprocess.run(
                ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                stdout=sys.stderr, stderr=sys.stderr)
            if cfg.returncode != 0:
                fail("configure failed")
        jobs = str(max(1, os.cpu_count() or 1))
        b = subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                           stdout=sys.stderr, stderr=sys.stderr)
        if b.returncode != 0:
            fail("build failed")
    exe = os.path.join(build_dir, "fdks_perfbench")
    if not os.access(exe, os.X_OK):
        fail(f"no benchmark binary at {exe}")
    return exe


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail(f"no library sources under {root}/src")
    exe = build(root, os.path.join(root, ".bench_build", "perfbench"))
    results = os.path.join(root, ".bench_build", "results")
    os.makedirs(results, exist_ok=True)

    env = dict(os.environ, OMP_NUM_THREADS=str(THREADS), OMP_DYNAMIC="false")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--results-dir", results]
    try:
        run = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                             stderr=sys.stderr, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} overran {RUN_TIMEOUT_S} s")
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        fail(f"{args.workload} failed (exit {run.returncode})")
    print(lines[-1])


if __name__ == "__main__":
    main()
