// Uniform access to all six replica-placement methods, in the paper's
// comparison order.  The bench harness sweeps this list to regenerate every
// figure/table.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "baselines/eval_path.hpp"
#include "drp/placement.hpp"
#include "drp/problem.hpp"

namespace agtram::baselines {

/// The evaluation path applied to every baseline that has one (AGT-RAM and
/// the auction mechanisms have their own runtime policy and ignore it).
struct AlgoOptions {
  /// Naive forces the full-recomputation oracle paths; Delta (default) the
  /// incremental engine.  Placements and costs are bit-identical either way.
  EvalPath eval = EvalPath::Delta;
};

struct AlgorithmEntry {
  std::string name;  ///< paper label: GRA, Aε-Star, Greedy, AGT-RAM, DA, EA
  /// Runs the method to completion; `seed` feeds the stochastic methods
  /// (GRA, DA, EA) and is ignored by the deterministic ones.
  std::function<drp::ReplicaPlacement(const drp::Problem&, std::uint64_t seed)>
      run;
};

/// All six methods.  Order matches the paper's tables:
/// Greedy, GRA, Aε-Star, AGT-RAM, DA, EA.
std::vector<AlgorithmEntry> all_algorithms(const AlgoOptions& options = {});

/// The paper's six plus the extended comparison set from the citation
/// lineage: Glauber (Etesami's distributed heat-bath dynamics),
/// Selfish (Chun et al. best-response Nash), LocalSearch, SA.
std::vector<AlgorithmEntry> extended_algorithms(
    const AlgoOptions& options = {});

/// Lookup by name over the extended set (throws std::invalid_argument on
/// unknown names).
AlgorithmEntry find_algorithm(const std::string& name,
                              const AlgoOptions& options = {});

}  // namespace agtram::baselines
