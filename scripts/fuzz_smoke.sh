#!/usr/bin/env bash
# Differential fuzz smoke: run bench/fuzz_driver for a modest seed batch.
# Every seed expands into a randomized
# scenario run under the per-event invariant sweep, with trajectories
# compared bitwise across incremental-vs-scratch reservation and
# 1-vs-N threads. Exit status is the driver's (0 = clean).
#
# Usage: scripts/fuzz_smoke.sh [--faults] [build-dir] [seeds]
#   --faults   additionally draw a random fault schedule per seed
#              (link/station outages, message loss)
#   build-dir  existing configured build tree (default: build)
#   seeds      number of scenario seeds      (default: 200)
set -euo pipefail

cd "$(dirname "$0")/.."
FAULT_FLAGS=()
if [[ "${1:-}" == "--faults" ]]; then
  FAULT_FLAGS=(--faults)
  shift
fi
BUILD_DIR="${1:-build}"
SEEDS="${2:-200}"
JOBS="$(nproc 2>/dev/null || echo 2)"

cmake --build "$BUILD_DIR" -j "$JOBS" --target fuzz_driver
"$BUILD_DIR/bench/fuzz_driver" --seeds "$SEEDS" --threads "$JOBS" \
  ${FAULT_FLAGS[@]+"${FAULT_FLAGS[@]}"}
echo "fuzz_smoke.sh: $SEEDS seeds clean${FAULT_FLAGS[0]:+ (fault schedules on)}"
