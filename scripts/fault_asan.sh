#!/usr/bin/env bash
# Build the tree under AddressSanitizer and UndefinedBehaviorSanitizer
# and run the fault-tolerance test suite (everything labeled "fault").
# The ASan counterpart to scripts/fault_tsan.sh: TSan finds the races,
# ASan finds the use-after-frees and overflows in the
# retransmit/checkpoint paths, and UBSan (halting on the first report)
# finds undefined behaviour such as a memcpy from a null pointer.
#
# Equivalent to:
#   cmake --preset asan-fault && cmake --build --preset asan-fault -j
#   ctest --preset asan-fault -j
set -euo pipefail

cd "$(dirname "$0")/.."

cmake --preset asan-fault
cmake --build --preset asan-fault -j "$(nproc)"
ctest --preset asan-fault -j "$(nproc)"
