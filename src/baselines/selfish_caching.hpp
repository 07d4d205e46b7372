// Selfish caching — best-response dynamics without a mechanism (Chun,
// Chaudhuri, Wee, Barreno, Papadimitriou & Kubiatowicz, "Selfish Caching in
// Distributed Systems: A Game-Theoretic Analysis", PODC 2004 — the paper's
// reference [8] and its closest game-theoretic relative).
//
// Every server unilaterally best-responds to the current configuration:
// replicate the object with the highest positive private benefit (the same
// Eq.-5 valuation AGT-RAM elicits), in randomised round-robin order, until
// no server wants to move — a pure Nash equilibrium.  The contrast with
// AGT-RAM isolates what the *mechanism* adds on top of the game: ordered
// (value-priority) convergence, payments, and the centre's single point of
// truth — the equilibrium itself is reachable without any of it, only more
// slowly and with no truthfulness story.
#pragma once

#include <cstdint>

#include "baselines/eval_path.hpp"
#include "drp/placement.hpp"
#include "drp/problem.hpp"

namespace agtram::baselines {

struct SelfishCachingConfig {
  /// Order in which servers take best-response turns is reshuffled each
  /// sweep with this seed.
  std::uint64_t seed = 1;
  /// Delta: each turn gathers agent benefits once and walks them in sorted
  /// order (benefits of a server's other objects are invariant under its own
  /// adds, so the naive per-add rescan re-derives the same numbers).  Naive:
  /// the original full rescan after every placement.  Same bits either way.
  EvalPath eval = EvalPath::Delta;
};

/// Best responses only ever add replicas and capacity is finite, so the
/// dynamics always reach the equilibrium: `placement` is one.
struct SelfishCachingResult {
  drp::ReplicaPlacement placement;
  std::size_t sweeps = 0;          ///< sweeps until quiescence
  std::size_t moves = 0;           ///< replicas placed by best responses
};

SelfishCachingResult run_selfish_caching(
    const drp::Problem& problem, const SelfishCachingConfig& config = {});
/// The result's placement keeps a pointer to the Problem: a temporary one
/// is refused.
SelfishCachingResult run_selfish_caching(
    drp::Problem&&, const SelfishCachingConfig& = {}) = delete;

}  // namespace agtram::baselines
