#!/usr/bin/env bash
# Build the tree under ThreadSanitizer and run the fault-tolerance test
# suite (everything labeled "fault": the mpisim runtime, the fault
# injection tests, and both distributed solvers). The test preset pins
# one OpenMP thread: libgomp's barriers are invisible to TSan, which
# would report false races inside every OpenMP region (the kNN and GSKS
# loops); the suites' own concurrency uses std::thread, which TSan sees.
#
# Equivalent to:
#   cmake --preset tsan-fault && cmake --build --preset tsan-fault -j
#   ctest --preset tsan-fault -j
set -euo pipefail

cd "$(dirname "$0")/.."

cmake --preset tsan-fault
cmake --build --preset tsan-fault -j "$(nproc)"
ctest --preset tsan-fault -j "$(nproc)"
