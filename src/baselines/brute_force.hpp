// Exhaustive optimal solver for tiny instances — the test oracle.
//
// The DRP is NP-complete (Eswaran 1974 via the paper's Section 6), so this
// enumerates every feasible replication matrix X.  Feasible only for
// M * N around 20; tests use it to confirm that the heuristics land within
// a bounded factor of the true optimum and that Greedy/AGT-RAM are exact on
// instances engineered to be easy.
#pragma once

#include <cstddef>

#include "drp/placement.hpp"
#include "drp/problem.hpp"

namespace agtram::baselines {

struct BruteForceResult {
  drp::ReplicaPlacement placement;
  double cost;
  std::size_t schemes_evaluated;
};

/// Throws std::invalid_argument if M * N exceeds `max_cells` (guard against
/// accidental exponential blow-ups in tests).
BruteForceResult run_brute_force(const drp::Problem& problem,
                                 std::size_t max_cells = 24);
/// The result's placement keeps a pointer to the Problem: a temporary one
/// is refused.
BruteForceResult run_brute_force(drp::Problem&&,
                                 std::size_t = 24) = delete;

}  // namespace agtram::baselines
