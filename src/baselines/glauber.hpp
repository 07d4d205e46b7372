// Glauber-dynamics placement (Etesami, "Distributed Computation for the
// Non-metric Data Placement Problem using Glauber Dynamics and Auctions",
// arXiv:2210.07461) — the seventh baseline: a distributed heat-bath chain
// rather than a centralized loop.
//
// Protocol: in each of 64 sweeps every server with demand proposes flipping its
// membership in one randomly drawn object's replica set (add if it has the
// capacity, drop if it is a non-primary replicator).  The server prices the
// flip locally through drp::DeltaEvaluator — O(affected readers), the exact
// cost delta bit for bit — and sends (object, flip, delta) to the
// coordinator, which accepts with the heat-bath probability
//
//   P(accept) = 1 / (1 + exp(delta / T))
//
// under a geometric annealing schedule T_s = T_0 * 0.85^s, with T_0 at 2e-5
// of the primaries-only OTC, and answers with an accept/reject decision.
// So the chain's traffic is one proposal up and one decision back per
// evaluated flip: GlauberResult::proposals (and the glauber.proposals obs
// counter) counts it.
//
// Determinism: a single common::Rng stream drawn in (sweep, server id)
// order; identical seeds give identical trajectories.  A flip is a MoveSpec
// add or drop, priced as LocalSearch and SA price theirs
// (baselines/moves.hpp): EvalPath::Naive applies it, measures the object's
// cost change and undoes it on reject — the deltas are bit-identical
// (DeltaEvaluator's core invariant), so the naive oracle walks the exact
// same accept/reject sequence and lands on the exact same placement (tests
// assert this).
#pragma once

#include <cstdint>

#include "baselines/eval_path.hpp"
#include "drp/placement.hpp"
#include "drp/problem.hpp"

namespace agtram::baselines {

struct GlauberConfig {
  std::uint64_t seed = 1;
  /// Delta: flips priced read-only by drp::DeltaEvaluator.  Naive: each
  /// flip applied and measured, undone on reject (the differential oracle;
  /// bit-identical trajectory).
  EvalPath eval = EvalPath::Delta;
};

struct GlauberResult {
  drp::ReplicaPlacement placement;
  double final_cost = 0.0;  ///< OTC of `placement` (bit-exact total)
  /// Evaluated flips: one proposal up and one decision back each.
  std::size_t proposals = 0;
  std::size_t accepted = 0;
};

GlauberResult run_glauber(const drp::Problem& problem,
                          const GlauberConfig& config = {});

}  // namespace agtram::baselines
