#!/usr/bin/env python3
"""Self-test of the fdks benchmark.

    python3 perfbench/selftest.py [--seed N] [--seconds S] [workload ...]

Run from the root of a source checkout (it calls perfbench/run.py, which
builds the benchmark on first use). For every workload named (default: all)
it checks that

  * an untraced run reports every end-to-end metric of BENCHMARK.json and
    a traced run every per-layer metric, each as a finite number;
  * the work counts (flops.*, gsks.kernel_evals, skeleton.rank_sum,
    gmres.iterations, verify.checks) of two traced runs with the same seed
    are identical;
  * the traced spans' self times cover at least 90% of the traced phase;
  * every request-latency percentile a serving run reports has at least
    ten samples beyond it.

Exits 0 when every check passes; prints one line per check either way.
"""
import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(ROOT, ".bench_build", "results")
WORKLOADS = ("train_cv", "train_hybrid", "serve_open", "serve_burst")
SERVING = ("serve_open", "serve_burst")


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} trace={trace} exited {out.returncode}")
    line = json.loads(out.stdout.strip().splitlines()[-1])
    path = os.path.join(RESULTS, f"{workload}-seed{seed}-trace{trace}.json")
    with open(path) as f:
        return line, json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=int, default=12)
    ap.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = [m["name"] for m in spec["end_to_end"]]
    layers = [m["name"] for m in spec["per_layer"]]

    failures = 0

    def check(ok, what):
        nonlocal failures
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)

    for w in args.workloads:
        line, plain = run(w, args.seed, args.seconds, 0)
        got = line["metrics"]
        check(line["correct"] and sorted(got) == sorted(e2e) and
              all(math.isfinite(got[k]["value"]) for k in got),
              f"{w}: every end-to-end metric, finite")
        if w in SERVING:
            beyond = int(plain["config"]["p99_beyond"])
            check(beyond >= 10, f"{w}: {beyond} latency samples beyond p99")

        traced = []
        for _ in range(2):
            line, record = run(w, args.seed, args.seconds, 1)
            traced.append(record)
            got = line["metrics"]
            check(line["correct"] and sorted(got) == sorted(layers) and
                  all(math.isfinite(got[k]["value"]) for k in got),
                  f"{w}: every per-layer metric, finite")
            cover = record["samples"]["trace.coverage"][0]
            check(cover >= 0.9, f"{w}: spans cover {cover:.1%} of the traced phase")
        a, b = traced[0]["counts"], traced[1]["counts"]
        check(a == b, f"{w}: work counts repeat for seed {args.seed}: {a}")
        if w == "serve_open":
            beyond = int(traced[0]["config"]["p99_beyond"])
            check(beyond >= 10, f"{w}: {beyond} lateness samples beyond p99")

    print("selftest:", "passed" if failures == 0 else f"{failures} check(s) failed")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
