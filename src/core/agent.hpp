// The computational agent of the mechanism (Axiom 2).
//
// Each server is represented by an agent that privately knows its demand
// (and therefore its valuations CoR_ik) and exposes only a *report*: the
// object it most wants to replicate and the claimed valuation.  The heavy
// per-round work of Figure 2's first PARFOR loop — "each agent recursively
// calculates the true data of every object in list L_i" — happens here.
//
// Implementation note: valuations B_ik only ever *decrease* as replicas are
// placed (the nearest-neighbour distance is monotonically non-increasing
// and the broadcast price is constant), so each agent keeps a lazy max-heap
// over its candidate objects: pop, recompute, and re-insert until the top
// entry is current.  This keeps a full mechanism run near-linear instead of
// the naive O(M * N^2) worst case of Theorem 4.
//
// The same monotonicity powers the mechanism's dirty-set protocol
// (agt_ram.hpp): the heap keeps stored >= current for every entry and drops
// only entries dead for good, so a report is the argmax of current value
// over the feasible candidates (ties to the lowest object) — a function of
// the placement alone.  Placing a replica of k* lowers no value but
// v(i, k*) and shrinks no capacity but the winner's, whose report names
// k*.  So agent i's report can only change if it named k*; every other
// agent's previous report remains valid verbatim, and the centre re-polls
// only the live readers of k* whose standing report names k*.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <vector>

#include "drp/cost_model.hpp"
#include "drp/placement.hpp"

namespace agtram::core {

/// A report can be distorted by a strategy (ablation hook; Axiom 3 audits).
/// Maps (agent, true value) -> claimed value.  Truthful agents use identity.
using ReportStrategy = std::function<double(drp::ServerId, double)>;

/// What an agent tells the centre in one round.
struct Report {
  drp::ObjectIndex object = 0;
  double claimed_value = 0.0;  ///< possibly distorted
  double true_value = 0.0;     ///< the agent's real valuation (for audits)
  bool has_candidate = false;
  /// Candidate evaluations the lazy heap performed to produce this report
  /// (drives the compute model of the protocol simulator).
  std::uint32_t evaluations = 0;
};

class Agent {
 public:
  /// Builds agent i's candidate list L_i: every object it reads, except
  /// those whose primary it already hosts.  Initial valuations are upper
  /// bounds against the primaries-only scheme.
  Agent(const drp::Problem& problem, drp::ServerId id);
  /// The agent keeps a pointer to the Problem: a temporary one is refused.
  Agent(drp::Problem&&, drp::ServerId) = delete;

  /// Warm-start variant: candidate valuations are computed against an
  /// existing placement (online repair, regional mechanisms).
  /// Objects the agent already replicates are excluded.
  Agent(const drp::ReplicaPlacement& placement, drp::ServerId id);

  drp::ServerId id() const noexcept { return id_; }

  /// Computes this round's report against the current placement.  Entries
  /// that became infeasible (capacity) or worthless (value <= 0) are
  /// discarded permanently — both conditions are monotone.
  Report make_report(const drp::ReplicaPlacement& placement,
                     const ReportStrategy& strategy);

  /// True when the candidate heap is exhausted (the agent leaves LS).
  bool retired() const noexcept { return heap_.empty(); }

  std::size_t remaining_candidates() const noexcept { return heap_.size(); }

 private:
  struct Entry {
    double value;
    drp::ObjectIndex object;
    /// This agent's slot in accessors(object) — fixed for the lifetime of
    /// the instance, copied from the by-server transpose at construction so
    /// every revaluation is a direct load from the flat demand/NN pools.
    std::uint32_t slot;
    bool operator<(const Entry& other) const noexcept {
      if (value != other.value) return value < other.value;
      return object > other.object;  // deterministic tie-break: low id first
    }
  };

  const drp::Problem* problem_;
  drp::ServerId id_;
  std::priority_queue<Entry> heap_;
};

}  // namespace agtram::core
