#!/usr/bin/env sh
# Builds the concurrency-sensitive and input-parsing test binaries under
# ThreadSanitizer (or AddressSanitizer with SAN=address, or UBSan with
# SAN=undefined — the undefined build compiles with
# -fno-sanitize-recover=all so any report aborts the test) and runs them.
# The thread-pool's lock-lean parallel_for is the main target: chunk
# claiming, the completion latch, and the stack-job entrants drain are all
# bare atomics, exactly what TSan is for.  The observability layer is
# compiled into every build, so the relaxed counter atomics and the
# trace-sink pointer are under the same sanitizers as the pool.
# test_net runs the metric closure's per-source Dijkstras on the pool, and
# its refusals cross the pool's exception hand-off.  test_horizon scores
# placements bound to the online engine's Problem while apply_events
# rewrites its demand in place — a lifetime ASan should watch.  Every
# mechanism run builds its agents in one parallel_for (the rounds run on
# the caller's thread), so test_mechanism and test_online fork agent
# construction on every solve and repair.  The online engine also re-prices
# a batch's demand-touched objects in one parallel_for; test_online forks
# that re-price over a thousand objects, and test_serving runs it on every
# fold; test_serving also pins routing snapshots on reader threads while
# another thread installs, and soaks the table's reclamation, so a snapshot
# freed under a pin shows.  test_regional runs the tiled engine's shard
# jobs on the shared pool, and run_regional builds its agents there.
# test_baselines and test_extended_baselines run every other caller of the
# sealed-bid round and the lazy greedy (DA/EA, the one-shot audit, Greedy,
# Aε-Star, the cooperative engines), whose agent builds and seed scans fork
# on the pool.  test_runtime times the protocol on the bus over flat and
# regional runs.  test_layout checks the by-server transpose that writes
# the slots those agents read.  test_obs_counters runs each instrumented
# layer once and checks that its counters moved.  test_trace and test_drp
# feed the day-log and placement readers malformed lines, which they must
# refuse without reading past a field.  test_graph_stats runs the topology
# generators on their fixed cost band, and test_edge_cases and
# test_coverage_gaps the degenerate instances and configuration corners of
# the mechanism, the regional engine, the bus, the pipeline and the builder.
# test_sim runs sim::replay, whose read-latency summary is the one
# request-weighted summary (common::summarize_read_costs) the serving bench
# shares.
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
cmake --build "$BUILD" -j "$(nproc)" \
  --target test_common test_net test_mechanism test_runtime \
           test_baselines test_baselines_delta test_extended_baselines \
           test_kernels test_online test_obs \
           test_obs_counters test_regional test_serving \
           test_strategic test_glauber test_tree_placement test_horizon \
           test_layout test_trace test_drp \
           test_graph_stats test_edge_cases test_coverage_gaps test_sim

status=0
for t in test_common test_net test_mechanism test_runtime \
         test_baselines test_baselines_delta test_extended_baselines \
         test_kernels test_online test_obs \
         test_obs_counters test_regional test_serving \
         test_strategic test_glauber test_tree_placement test_horizon \
         test_layout test_trace test_drp \
         test_graph_stats test_edge_cases test_coverage_gaps test_sim; do
  echo "== $SAN-sanitized $t =="
  # The paper-scale differential cases take minutes under a sanitizer's
  # slowdown; the small-family + fuzz cases exercise the same parallel scans
  # (the Greedy, GRA and Aε-Star cases check that their scans forked, and
  # the best-add fuzz case forks the server axis on an 1100-server instance).
  filter=""
  [ "$t" = test_baselines_delta ] && filter="--gtest_filter=-PaperScaleDelta.*"
  if ! "$BUILD/tests/$t" $filter; then
    status=1
  fi
done
exit $status
