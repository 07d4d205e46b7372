// AGT-RAM — the Axiomatic Game Theoretical Replica Allocation Mechanism
// (paper Section 4, Figure 2).  This is the paper's primary contribution.
//
// Round structure:
//   1. PARFOR each live agent: compute its best candidate and report
//      (object, valuation) to the centre.  Here each agent's list is priced
//      on the thread pool once per run, when the agent is built; the
//      per-round reports are lazy-heap pops and run on the centre's thread,
//      where they cost less than a fork/join (DESIGN.md §7).
//   2. The centre picks the globally dominant report (argmax), decides the
//      binary "replicate", pays the winner per the payment rule (Axiom 5),
//      and broadcasts the allocation.
//   3. The winner replicates; every agent's NN table for that object is
//      refreshed (done incrementally by drp::ReplicaPlacement).
// The loop ends when no agent has a positive-valued feasible candidate.
//
// Incremental (dirty-set) evaluation: because one round allocates exactly
// one replica of one object k*, an agent's report can only change if its
// standing report names k*.  The report is the argmax of current value over
// the agent's feasible candidates; the allocation lowers no value but
// v(i, k*) (its NN distance for k* may drop) and shrinks no capacity but the
// winner's, whose own report names k*.  With `ReportMode::Incremental` (the
// default) the centre caches every agent's standing report, re-polls only
// the live readers of k* whose report names k* each round, and selects the
// winner from a lazy max-heap over the cached claimed values — O(|dirty|
// log M) per round instead of O(Σ|L_i|).  The allocation, payments, and
// round sequence are byte-identical to the naive sweep (tests assert this);
// the naive path is kept as a differential-testing oracle.  See DESIGN.md
// "Dirty-set incremental evaluation".
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/agent.hpp"
#include "core/payments.hpp"
#include "drp/placement.hpp"
#include "drp/problem.hpp"

namespace agtram::core {

/// Instrumentation hook, and the one per-round view of a run: the
/// semi-distributed runtime (runtime::MessageBus) uses it to account and
/// time the protocol's messages, tests use it to audit the axioms round by
/// round, run_hierarchical's top centre prices rounds with it, and
/// bench::JsonlTrace writes table1_exec_time's --obs-trace from it.
/// core::run_regional calls it too, once per epoch, with every live region's
/// reports and committed winners.  A run calls its observer on the thread
/// that runs its rounds, so an observer needs no locking; the tiled
/// engine's shards, which solve on pool workers, take none.
class MechanismObserver {
 public:
  virtual ~MechanismObserver() = default;
  virtual void on_round_begin(std::size_t /*round*/) {}
  /// Called for every live agent's *standing* report each round (including
  /// empty ones).  `fresh` is true when the report was recomputed this round
  /// — a wire message in the semi-distributed deployment — and false when
  /// the centre served it from its cache (incremental mode only; the naive
  /// sweep recomputes everything, so every report is fresh).
  virtual void on_report(drp::ServerId /*agent*/, const Report& /*report*/,
                         bool /*fresh*/) {}
  virtual void on_allocation(drp::ServerId /*winner*/,
                             drp::ObjectIndex /*object*/,
                             double /*payment*/) {}
  /// Centre broadcasts the winning (object, server) to the agents in
  /// `notified`: under the naive sweep the bidders that stay in LS (the
  /// winner among them), under the incremental protocol the next round's
  /// dirty set (the live agents whose standing report names the object, the
  /// winner among them — the only reports the allocation made stale).
  virtual void on_broadcast(drp::ServerId /*winner*/,
                            drp::ObjectIndex /*object*/,
                            std::span<const drp::ServerId> /*notified*/) {}
};

/// The bids of one sealed-bid round, in ascending agent id.
struct SealedBids {
  std::vector<drp::ServerId> bidders;
  std::vector<double> claims;   ///< the bidders' claimed values
  std::vector<Report> reports;  ///< the bidders' reports

  bool empty() const noexcept { return bidders.empty(); }
  void clear() noexcept {
    bidders.clear();
    claims.clear();
    reports.clear();
  }
  /// Appends `agent`'s bid; agents arrive in ascending id.
  void add(drp::ServerId agent, const Report& report) {
    bidders.push_back(agent);
    claims.push_back(report.claimed_value);
    reports.push_back(report);
  }
  /// The slot of the first highest claim (ties go to the lowest id); the
  /// bids must not be empty.
  std::size_t best() const;
};

/// Figure 2's PARFOR, once per run: one agent per server, built on the
/// shared pool against the primaries-only scheme.  The agents keep a
/// pointer to the Problem, so a temporary one is refused.
std::vector<Agent> build_agents(const drp::Problem& problem);
std::vector<Agent> build_agents(drp::Problem&&) = delete;

/// The same for the servers in `ids` (ascending) against a warm-start
/// placement.
std::vector<Agent> build_agents(const drp::ReplicaPlacement& start,
                                std::span<const drp::ServerId> ids);

/// Indices of the agents whose candidate lists are not empty: the live set
/// LS a run starts from.
std::vector<std::uint32_t> live_agents(const std::vector<Agent>& agents);

/// One sealed-bid round of Figure 2: every agent in `live`
/// (indices into `agents`, ascending id) reports against `placement` under
/// `strategy`, and `observer`, if set, receives each report as fresh.  The
/// bidders, the agents with a candidate, are written to `bids` and stay in
/// `live`; the others retire from it (an empty report from an agent whose
/// candidate heap is not drained throws std::logic_error).  Returns the
/// candidate evaluations the reports performed.  The flat mechanism's naive
/// sweep, run_regional's regional centres, the DA/EA baselines and the
/// one-shot truthfulness audit all run this round; DA/EA keep their own
/// winner rule, the others take best().
std::uint64_t poll_round(std::vector<Agent>& agents,
                         std::vector<std::uint32_t>& live,
                         const drp::ReplicaPlacement& placement,
                         const ReportStrategy& strategy,
                         MechanismObserver* observer, SealedBids& bids);

/// How the centre gathers per-round reports.  Both produce byte-identical
/// allocations; they differ only in work per round.
enum class ReportMode {
  /// Full sweep: every live agent re-evaluates its heap every round, as in
  /// the paper's Figure 2.  Kept as the differential-testing oracle and as
  /// the protocol model of Figure 2's traffic (runtime::MessageBus).
  Naive,
  /// Dirty-set evaluation (see the header comment): re-poll only the live
  /// agents whose standing report names k* and select from a lazy max-heap.
  /// The default.
  Incremental,
};

struct AgtRamConfig {
  PaymentRule payment_rule = PaymentRule::SecondPrice;
  /// Report evaluation policy (see ReportMode).  Note: a *stateful*
  /// ReportStrategy (one whose output depends on call history rather than
  /// only on (agent, value)) is only well-defined under Naive, because the
  /// incremental path reuses cached reports instead of re-invoking it.
  ReportMode report_mode = ReportMode::Incremental;
  /// Optional distortion of agent reports (Axiom 3 ablations).
  ReportStrategy strategy;
  /// Optional instrumentation.
  MechanismObserver* observer = nullptr;
  /// Safety valve for pathological configs; 0 = unlimited.
  std::size_t max_rounds = 0;
};

/// Per-agent game-theoretic outcome.
///
/// Sign convention: `payments` is the Vickrey *clearing charge* of each won
/// round — the second-best report, which the winner is charged against its
/// hosting gain.  The paper's Axiom 5 text phrases this as a compensation,
/// but its own Theorem 5 proof evaluates a deviating winner's utility as
/// t_i - d_{3-i} (value minus the second declaration), i.e. the standard
/// second-price form u_i = v_i - p_i; that is the convention audited here.
struct AgentOutcome {
  double payments = 0.0;        ///< sum of second-price charges (Axiom 5)
  double true_value = 0.0;      ///< sum of true valuations of objects won
  std::uint32_t objects_won = 0;
  /// u_i = v_i(t_i, x) - p_i, per the Theorem 5 proof.
  double utility() const noexcept { return true_value - payments; }
};

struct RoundRecord {
  drp::ServerId winner;
  drp::ObjectIndex object;
  double claimed_value;  ///< the winning report
  double true_value;     ///< the winner's actual valuation
  double payment;
};

/// A run's record is its rounds: the per-agent outcomes and the total
/// charge are folded from them where they are read (agent_outcomes).
struct MechanismResult {
  drp::ReplicaPlacement placement;
  std::vector<RoundRecord> rounds;

  /// Work diagnostics (not part of the allocation, and the one place the
  /// incremental and naive paths legitimately differ): candidate heap
  /// evaluations performed and reports computed across the whole run.
  std::uint64_t candidate_evaluations = 0;
  std::uint64_t reports_computed = 0;
  /// True when the round loop ended because no agent had a positive feasible
  /// candidate left (the mechanism's natural fixpoint); false only when
  /// `max_rounds` cut it short, in which case live agents may still hold
  /// bids.  The online and serving engines refuse an initial solve that did
  /// not drain, and the online engine's oracle an undrained re-solve.
  bool drained = true;

  /// The charges of agent_outcomes(*this), summed in server-id order.
  double total_payments() const;
  std::size_t replicas_placed() const noexcept { return rounds.size(); }
};

/// Folds `result.rounds`, in round order, into one outcome per server the
/// run's placement spans (indexed by server id; agents that won nothing are
/// zero).  It reads no Problem, so a result may outlive the instance it
/// solved.
std::vector<AgentOutcome> agent_outcomes(const MechanismResult& result);

/// Runs the mechanism to completion on `problem`, starting from the
/// primaries-only scheme with every server participating.
MechanismResult run_agt_ram(const drp::Problem& problem,
                            const AgtRamConfig& config = {});
/// The result's placement keeps a pointer to the Problem, so a temporary
/// one would dangle once the call's statement ends.
MechanismResult run_agt_ram(drp::Problem&&, const AgtRamConfig& = {}) = delete;

/// Warm-start / restricted variant: continues allocating on top of `start`
/// and (optionally) lets only `participants` act as agents.  This powers
/// the online engine's dirty-set repair runs and the regional mechanisms of
/// the paper's future-work section (src/core/online.hpp, regional.hpp).
MechanismResult run_agt_ram_from(const drp::Problem& problem,
                                 const AgtRamConfig& config,
                                 drp::ReplicaPlacement start,
                                 const std::vector<drp::ServerId>* participants
                                 = nullptr);
MechanismResult run_agt_ram_from(drp::Problem&&, const AgtRamConfig&,
                                 drp::ReplicaPlacement,
                                 const std::vector<drp::ServerId>* = nullptr)
    = delete;

}  // namespace agtram::core
