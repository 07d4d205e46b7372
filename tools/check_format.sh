#!/usr/bin/env sh
# Check-only clang-format gate over the files under the formatting contract
# (.clang-format).  The list is an explicit allowlist so the pre-existing
# hand-formatted code is not churned retroactively; add new files here as
# they are written.
#
# Usage:  tools/check_format.sh
#   CLANG_FORMAT=clang-format-15   override the binary
set -eu

SRC="$(cd "$(dirname "$0")/.." && pwd)"
CLANG_FORMAT="${CLANG_FORMAT:-clang-format}"

FILES="
src/obs/obs.hpp
src/obs/obs.cpp
bench/obs_writer.hpp
tests/obs_test.cpp
tests/obs_counters_test.cpp
"

if ! command -v "$CLANG_FORMAT" >/dev/null 2>&1; then
  echo "check_format: $CLANG_FORMAT not found; skipping (install clang-format to run locally)"
  exit 0
fi

"$CLANG_FORMAT" --version
status=0
for f in $FILES; do
  if ! "$CLANG_FORMAT" --dry-run --Werror --style=file "$SRC/$f"; then
    status=1
  fi
done
if [ "$status" -ne 0 ]; then
  echo "check_format: run $CLANG_FORMAT -i on the files above to fix"
fi
exit $status
