#!/usr/bin/env bash
# Snapshot checkpoint/resume smoke (invariant I10, DESIGN.md §13).
#
# Exercises the whole snapshot surface end to end:
#   1. run a pinned sharded torus uninterrupted for the reference digest;
#   2. run it again with a checkpoint cadence — writing checkpoints must
#      not perturb the trajectory;
#   3. pabr-snapshot --validate the emitted file, and require a
#      bit-flipped copy to be REJECTED; a copy with a corrupted count and
#      recomputed checksums must validate, and resuming it must exit 1;
#   4. resume the checkpoint under a DIFFERENT shard count and require
#      the end-state digest to equal the uninterrupted run's bitwise;
#   5. fuzz resume smoke: fuzz_driver replays every seed three ways
#      (incremental, scratch, snapshot-resumed) and exits non-zero on
#      any digest divergence — run with and without fault schedules.
#
# Usage: scripts/snapshot_smoke.sh [build-dir] [fuzz-seeds]
#   build-dir   existing configured build tree (default: build)
#   fuzz-seeds  seeds for the fuzz resume smoke (default: 50)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
SEEDS="${2:-50}"
JOBS="$(nproc 2>/dev/null || echo 2)"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

cmake --build "$BUILD_DIR" -j "$JOBS" \
  --target scale_sweep fuzz_driver pabr_snapshot

SWEEP=("$BUILD_DIR/bench/scale_sweep" --rows 8 --cols 8 --duration 120)

# 1. Uninterrupted reference run of the pinned 64-cell point.
"${SWEEP[@]}" --shards 2 --json "$TMP/straight.json"

# 2. Same point with a checkpoint cadence.
"${SWEEP[@]}" --shards 2 --checkpoint-every 40 \
  --checkpoint-path "$TMP/smoke.pabrsnap" --json "$TMP/ckpt.json"
SNAP="$TMP/smoke.pabrsnap-64c2s"
test -s "$SNAP"

# 3. Structural validation passes on the emitted file and fails on a
#    copy with one payload bit flipped.
"$BUILD_DIR/bench/pabr_snapshot" "$SNAP" --validate
python3 - "$SNAP" "$TMP/corrupt.pabrsnap" <<'EOF'
import sys
data = bytearray(open(sys.argv[1], 'rb').read())
data[len(data) // 2] ^= 0x01
open(sys.argv[2], 'wb').write(data)
EOF
if "$BUILD_DIR/bench/pabr_snapshot" "$TMP/corrupt.pabrsnap" --validate; then
  echo "snapshot_smoke.sh: FAIL — corrupted snapshot passed validation" >&2
  exit 1
fi
echo "snapshot_smoke.sh: corrupted snapshot rejected as expected"

#    Semantic corruption behind valid checksums: the calendar's event
#    count becomes 2^32-1 and every FNV-1a section checksum is recomputed,
#    so --validate accepts the copy and only the decoders can refuse it.
python3 - "$SNAP" "$TMP/resealed.pabrsnap" <<'EOF'
import struct, sys

def fnv1a(data):
    h = 0xcbf29ce484222325
    for b in data:
        h = ((h ^ b) * 0x100000001b3) & 0xFFFFFFFFFFFFFFFF
    return h

data = open(sys.argv[1], 'rb').read()
pos = 8 + 4 + 4  # magic, format version, system kind
for _ in range(2):  # git sha, build type
    pos += 4 + struct.unpack_from('<I', data, pos)[0]
pos += 8 + 8 + 8  # config digest, sim time, run seed
(n_sections,) = struct.unpack_from('<I', data, pos)
pos += 4
out = bytearray(data[:pos])
for _ in range(n_sections):
    (name_len,) = struct.unpack_from('<I', data, pos)
    name = data[pos + 4:pos + 4 + name_len]
    pos += 4 + name_len
    (size,) = struct.unpack_from('<Q', data, pos)
    pos += 16  # size, checksum
    payload = bytearray(data[pos:pos + size])
    pos += size
    if name == b'calendar':
        struct.pack_into('<I', payload, 0, 0xFFFFFFFF)
    out += struct.pack('<I', name_len) + name
    out += struct.pack('<QQ', size, fnv1a(payload)) + payload
open(sys.argv[2], 'wb').write(out)
EOF
"$BUILD_DIR/bench/pabr_snapshot" "$TMP/resealed.pabrsnap" --validate
status=0
"${SWEEP[@]}" --shards 2 --resume-from "$TMP/resealed.pabrsnap" \
  > "$TMP/resealed.log" 2>&1 || status=$?
if [ "$status" -ne 1 ] || ! grep -q "cannot resume from" "$TMP/resealed.log"
then
  cat "$TMP/resealed.log" >&2
  echo "snapshot_smoke.sh: FAIL — resealed bad-count snapshot was not" \
       "refused with exit 1 (exit $status)" >&2
  exit 1
fi
echo "snapshot_smoke.sh: resealed bad-count snapshot refused as expected"

# 4. Resume under a different shard count; every digest must agree.
"${SWEEP[@]}" --shards 4 --resume-from "$SNAP" --json "$TMP/resumed.json"
python3 - "$TMP/straight.json" "$TMP/ckpt.json" "$TMP/resumed.json" <<'EOF'
import json, sys

def digests(path):
    report = json.load(open(path))
    i = report["columns"].index("digest")
    return [row[i] for row in report["rows"]]

straight, ckpt, resumed = (digests(p) for p in sys.argv[1:4])
assert len(straight) == 1, straight
assert straight == ckpt == resumed, (
    f"digest mismatch: straight={straight} ckpt={ckpt} resumed={resumed}")
print(f"snapshot_smoke.sh: resumed digest matches uninterrupted "
      f"({straight[0]})")
EOF

# 5. Fuzz resume smoke: the I10 probe inside fuzz_driver snapshots each
#    scenario at a seed-derived fraction and replays to the end.
"$BUILD_DIR/bench/fuzz_driver" --seeds "$SEEDS" --threads "$JOBS"
"$BUILD_DIR/bench/fuzz_driver" --seeds "$SEEDS" --threads "$JOBS" --faults
echo "snapshot_smoke.sh: clean ($SEEDS fuzz seeds, faults on and off)"
