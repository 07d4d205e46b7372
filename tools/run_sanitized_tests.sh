#!/usr/bin/env sh
# Builds every test binary under ThreadSanitizer (or AddressSanitizer with
# SAN=address, or UBSan with SAN=undefined — the undefined build compiles
# with -fno-sanitize-recover=all so any report aborts the test) and runs
# each tests/test_* binary.  The rule is every test binary: the thread
# pool's lock-lean parallel_for, the routing table's snapshot pins, the obs
# relaxed atomics, the input readers' refusals and the fuzzed engines all
# run under the same sanitizer, and a new test binary joins without an edit
# here.  The one filter: test_baselines_delta skips PaperScaleDelta.*,
# whose paper-scale differential cases take minutes under a sanitizer's
# slowdown; its small-family and fuzz cases exercise the same parallel
# scans.
#
# Usage:  tools/run_sanitized_tests.sh [build-dir]
#   SAN=address|thread|undefined   sanitizer to use (default: thread)
set -eu

SAN="${SAN:-thread}"
BUILD="${1:-build-${SAN}san}"
SRC="$(cd "$(dirname "$0")/.." && pwd)"

cmake -B "$BUILD" -S "$SRC" \
  -DAGTRAM_SANITIZE="$SAN" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DAGTRAM_BUILD_BENCH=OFF \
  -DAGTRAM_BUILD_EXAMPLES=OFF
cmake --build "$BUILD" -j "$(nproc)"

status=0
for test in "$BUILD"/tests/test_*; do
  # The directory also holds gtest's discovery scripts.
  [ -f "$test" ] && [ -x "$test" ] || continue
  t="$(basename "$test")"
  echo "== $SAN-sanitized $t =="
  filter=""
  [ "$t" = test_baselines_delta ] && filter="--gtest_filter=-PaperScaleDelta.*"
  if ! "$test" $filter; then
    status=1
  fi
done
exit $status
