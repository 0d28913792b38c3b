#!/usr/bin/env bash
# Guided-fuzz smoke: exercise the coverage-guided genome fuzzer end to
# end.
#
#   1. replay the checked-in tests/corpus reproducers (oracles clean),
#      then continue a short guided hunt from them — exit 0 expected
#   2. mutation-testing self-check: with the planted off-by-one armed
#      (--inject-bug) the guided hunt must FIND the bug within the
#      budget and --minimize must shrink the reproducer to <= 3 cells
#      and <= 10 connection requests; a blind random-genome baseline
#      with the same budget must NOT find it
#   3. determinism: the same guided run at --threads 1 and --threads 4
#      must grow byte-identical corpora
#
# Usage: scripts/guided_fuzz_smoke.sh [build-dir] [execs]
#   build-dir  existing configured build tree (default: build)
#   execs      guided/blind execution budget  (default: 600)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
EXECS="${2:-600}"
JOBS="$(nproc 2>/dev/null || echo 2)"
DRIVER="$BUILD_DIR/bench/fuzz_driver"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/pabr_guided_smoke.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

cmake --build "$BUILD_DIR" -j "$JOBS" --target fuzz_driver

echo "== 1/3 corpus replay + clean guided hunt ($EXECS execs) =="
mkdir -p "$WORK/corpus"
cp tests/corpus/*.pabrfuzz "$WORK/corpus/"
"$DRIVER" --guided --corpus-dir "$WORK/corpus" --max-execs "$EXECS" \
  --faults --threads "$JOBS"

echo "== 2/3 planted-bug self-check =="
LOG="$WORK/guided_bug.log"
if "$DRIVER" --guided --inject-bug --minimize --max-execs "$EXECS" \
     --corpus-dir "$WORK/bug_corpus" --repro-dir "$WORK/repro" \
     --threads "$JOBS" > "$LOG"; then
  echo "FAIL: guided hunt missed the planted bug in $EXECS execs" >&2
  exit 1
fi
tail -n +1 "$LOG" | grep "VIOLATION" | head -1
MIN_LINE="$(grep "minimized in" "$LOG" || true)"
if [[ -z "$MIN_LINE" ]]; then
  echo "FAIL: violation found but no minimized reproducer reported" >&2
  exit 1
fi
echo "$MIN_LINE"
CELLS="$(sed -n 's/.*cells=\([0-9]*\).*/\1/p' <<<"$MIN_LINE")"
REQS="$(sed -n 's/.*requests=\([0-9]*\).*/\1/p' <<<"$MIN_LINE")"
if (( CELLS > 3 || REQS > 10 )); then
  echo "FAIL: reproducer not minimal enough (cells=$CELLS requests=$REQS," \
       "want <=3 cells and <=10 requests)" >&2
  exit 1
fi
ls "$WORK/repro"/*.pabrfuzz > /dev/null  # reproducer artifact exists

if ! "$DRIVER" --inject-bug --max-execs "$EXECS" --threads "$JOBS" \
     > "$WORK/blind_bug.log"; then
  echo "FAIL: blind baseline found the planted bug — coverage guidance" \
       "is not earning its keep (or the bug got easier)" >&2
  exit 1
fi
echo "guided found+minimized (cells=$CELLS requests=$REQS); blind missed — OK"

echo "== 3/3 thread-count determinism =="
mkdir -p "$WORK/det1" "$WORK/det4"
"$DRIVER" --guided --corpus-dir "$WORK/det1" --max-execs 48 --threads 1 \
  > /dev/null
"$DRIVER" --guided --corpus-dir "$WORK/det4" --max-execs 48 --threads 4 \
  > /dev/null
diff -r "$WORK/det1" "$WORK/det4"
echo "corpora identical at --threads 1 and 4 — OK"

echo "guided fuzz smoke: all checks passed"
