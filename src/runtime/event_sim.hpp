// Online event streams: the mean-field event model the online engine
// (core::OnlineMechanism, DESIGN.md §12) and sim::run_horizon consume.
// (The protocol's timing model lives on runtime::MessageBus.)
#pragma once

#include <cstdint>
#include <random>
#include <vector>

#include "core/online.hpp"
#include "drp/problem.hpp"

namespace agtram::runtime {

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
  /// A drift move also shifts this fraction of one accessor cell's writes
  /// onto another with probability 0.25: write deltas reprice every reader,
  /// the expensive-dirty case.
  double drift_fraction = 0.25;
  /// P(a flash crowd this step): one object's readers multiply their reads
  /// by four.
  double flash_crowd_probability = 0.05;
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
