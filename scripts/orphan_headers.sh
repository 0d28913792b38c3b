#!/usr/bin/env bash
# Fails when a src/ header has no production consumer: nothing in src/,
# bench/, examples/ or perfbench/ includes it other than its own .cc.
# Tests do not count — code that only tests reach is code to delete.
#
#   scripts/orphan_headers.sh      # prints each orphan, exits 1 if any
set -u
cd "$(dirname "$0")/.."

status=0
for header in $(find src -name '*.h' | sort); do
  own=${header%.h}.cc
  users=$(grep -rlF --include='*.h' --include='*.cc' --include='*.cpp' \
            "#include \"${header#src/}\"" src bench examples perfbench |
          grep -vxF "$own")
  if [ -z "$users" ]; then
    echo "orphan header (no production include): $header"
    status=1
  fi
done
exit "$status"
