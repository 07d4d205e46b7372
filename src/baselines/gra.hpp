// GRA — Genetic Replication Algorithm (comparison baseline; Loukopoulos &
// Ahmad, "Static and Adaptive Distributed Data Replication using Genetic
// Algorithms", JPDC 64(11), 2004).
//
// A chromosome is a full replication scheme (per-server sets of extra
// replicas on top of the primaries).  Fitness is the OTC of Equation 4.
// Selection is 3-tournament with elitism; crossover swaps whole server rows
// between parents (one-point over server ids) followed by a capacity-repair
// pass; mutation flips random replicas in or out.
//
// The paper's observations reproduce naturally from this design: GRA's
// quality depends heavily on the initial gene population and it keeps a
// "localized network perception" (row-level recombination never reasons
// about global read routing), so it trails the other methods — while paying
// population x generations full-cost evaluations, making it the slowest.
#pragma once

#include <cstdint>

#include "baselines/eval_path.hpp"
#include "drp/placement.hpp"
#include "drp/problem.hpp"

namespace agtram::baselines {

struct GraConfig {
  std::uint32_t population = 20;
  std::uint32_t generations = 40;
  std::uint64_t seed = 1;
  /// Delta: genome fitness evaluated straight off the chromosome rows
  /// (object_cost_with_replicators over the per-object replicator sets,
  /// untouched objects priced from the precomputed primaries-only base) —
  /// no placement materialisation, elites keep their scores.  Naive: the
  /// original materialise + total_cost per genome.  Same bits either way.
  /// The delta path scores the population on the shared pool.
  EvalPath eval = EvalPath::Delta;
};

drp::ReplicaPlacement run_gra(const drp::Problem& problem,
                              const GraConfig& config = {});

}  // namespace agtram::baselines
