// Discrete-event simulation of the AGT-RAM wire protocol.
//
// The paper deployed AGT-RAM on Ada + GLADE over a real network; we
// substitute a discrete-event simulator of the same protocol (Figure 2):
//
//   round r:
//     centre   --(poll)-->            every live agent          [latency]
//     agent i  computes its report                              [compute]
//     agent i  --(report)-->          centre                    [latency]
//     centre   waits for all reports (a barrier), decides       [decide]
//     centre   --(allocate)-->        winner                    [latency]
//     centre   --(broadcast OMAX)-->  every live agent          [latency]
//
// Per-message latency is distance-proportional plus a fixed overhead;
// per-agent compute time scales with the candidate evaluations the lazy
// heap actually performs.  Optional straggler inflation and message loss
// (with timeout + retransmit) model real-network misbehaviour.  The output
// is the protocol *makespan* and its critical-path breakdown — the
// quantity behind the paper's "solutions converge in a fast turn-around
// time" claim — for both the flat mechanism and the regional variant
// (whose regions progress independently and therefore overlap).
#pragma once

#include <cstdint>
#include <random>
#include <vector>

#include "core/online.hpp"
#include "drp/problem.hpp"

namespace agtram::runtime {

struct ProtocolModel {
  /// Seconds per metric-closure cost unit of distance.
  double seconds_per_cost_unit = 1e-4;
  /// Fixed per-message overhead (serialisation, kernel, queueing).
  double message_overhead = 2e-4;
  /// Seconds per candidate evaluation inside an agent.
  double seconds_per_evaluation = 5e-7;
  /// Centre decision time per received report (scalar comparison).
  double seconds_per_report_at_centre = 1e-7;

  /// Each (agent, round) compute step is inflated by a factor drawn
  /// uniformly from [1, 1 + straggler_factor].
  double straggler_factor = 0.0;
  /// Probability that any message is lost; lost messages are retransmitted
  /// after `retransmit_timeout` seconds.
  double loss_probability = 0.0;
  double retransmit_timeout = 0.05;

  std::uint64_t seed = 1;
};

struct ProtocolTrace {
  double makespan_seconds = 0.0;    ///< simulated end-to-end protocol time
  double network_seconds = 0.0;     ///< critical-path share spent in flight
  double compute_seconds = 0.0;     ///< critical-path share spent computing
  double centre_seconds = 0.0;      ///< critical-path share at the centre
  std::size_t rounds = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_lost = 0;
  std::uint64_t retransmissions = 0;
  std::size_t replicas_placed = 0;
  /// Mean round makespan (seconds).
  double mean_round_seconds() const {
    return rounds ? makespan_seconds / static_cast<double>(rounds) : 0.0;
  }
};

/// Simulates the flat (single-centre) protocol to quiescence.  The
/// allocation decisions are exactly those of core::run_agt_ram — the DES
/// wraps the same agents — so quality is unchanged and only time is
/// modelled.  `centre < 0` picks the metric medoid.
ProtocolTrace simulate_protocol(const drp::Problem& problem,
                                const ProtocolModel& model = {},
                                std::int64_t centre = -1);

/// Simulates the regional variant: each region runs the same protocol
/// against its medoid, and an epoch lasts as long as its slowest region's
/// round.  Within an epoch the regions run in ascending order on one shared
/// placement, and each commits its winner before the next region polls, so
/// a region sees the allocations of lower-numbered regions in the same
/// epoch.  core::run_regional instead polls every region against the
/// epoch-start placement.
ProtocolTrace simulate_regional_protocol(const drp::Problem& problem,
                                         std::uint32_t regions,
                                         const ProtocolModel& model = {});

/// Free-running regional simulation: a true event-queue DES in which each
/// region starts its next round the moment its previous one finishes — no
/// global epoch barrier.  Placement state is shared and mutated in event
/// (simulated-time) order, so fast nearby regions are never held hostage
/// by a distant straggler region; the makespan is a lower envelope of the
/// barrier variant's (tested).  Note: with overlapping rounds the
/// network/compute/centre fields accumulate *per-round* critical paths and
/// may exceed the wall-clock makespan.
ProtocolTrace simulate_regional_protocol_async(const drp::Problem& problem,
                                               std::uint32_t regions,
                                               const ProtocolModel& model = {});

/// Mean-field event model for the online engine (DESIGN.md §12), after the
/// stochastic replication dynamics of Sun et al. (arXiv:1701.00335): per
/// step every surviving extra replica is lost independently with a small
/// rate, servers fail and recover as a two-state Markov chain, and demand
/// drifts by moving read volume between an object's readers (with
/// occasional flash crowds and object churn).  Rates are per generated
/// batch.
struct OnlineEventModel {
  /// P(any one extra replica is lost this step).
  double replica_loss_rate = 0.002;
  /// P(a live server's replica storage fails this step).
  double server_fail_rate = 0.0005;
  /// P(a failed server recovers this step).
  double server_recover_rate = 0.25;
  /// Read-drift moves per step: each picks an object and shifts a fraction
  /// of one reader's read volume onto another structural reader.
  std::size_t demand_drift_moves = 8;
  /// Fraction of the source cell's reads moved per drift (at least 1 unit).
  double drift_fraction = 0.25;
  /// P(one drift move also shifts write volume between two accessor cells) —
  /// write deltas reprice every reader, the expensive-dirty case.
  double write_drift_probability = 0.25;
  /// P(a flash crowd this step): one object's readers multiply their reads.
  double flash_crowd_probability = 0.05;
  double flash_crowd_multiplier = 4.0;
  /// P(one active object is deleted this step) and P(one previously deleted
  /// object is recreated this step).
  double object_churn_probability = 0.02;
  std::uint64_t seed = 1;
};

/// Deterministic (seeded) generator of valid event batches against the live
/// engine state.  Events inside a batch are ordered so each is valid when
/// the engine applies them sequentially: demand deltas, then replica
/// losses, then server fails, joins, object deletes, creates.  Batches may
/// be empty (a quiet step — the engine's no-op path).
class OnlineEventSource {
 public:
  OnlineEventSource(const core::OnlineMechanism& engine,
                    OnlineEventModel model);

  std::vector<core::OnlineEvent> next_batch();

 private:
  const core::OnlineMechanism* engine_;
  OnlineEventModel model_;
  std::mt19937_64 rng_;
};

}  // namespace agtram::runtime
