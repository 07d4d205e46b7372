// SIMD/SoA kernel engine for the benefit and delta hot loops (DESIGN.md §10).
//
// Every cost the system computes is one of four inner-loop shapes swept over
// the CSR pools of AccessMatrix / ReplicaPlacement:
//
//   1. object_cost_accumulate — the weighted primary-cost walk of
//      CostModel::object_cost / DeltaEvaluator::refresh: two chained adds per
//      accessor slot, fed by three dense SoA streams plus a distance gather.
//   2. nn_min / nn_min_excluding / min_with_row — the nearest-replica
//      min-reduce over a distance row.
//   3. read_savings_accumulate / best_add_read_pass / broadcast_price_pass —
//      the masked read-savings accumulates behind CostModel::global_benefit
//      and DeltaEvaluator::best_add_for_object.
//   4. The replica-min object cost (CostModel::object_cost_with_replicators)
//      is composed from 1 + 2 by the cost model.
//
// Floating-point contract (pinned; tests/kernels_test.cpp): every kernel
// produces hexfloat-identical results to the scalar reference loop it
// replaced.  Summation order is part of the contract: any chained double sum
// is evaluated in the original slot order.  No FMA contraction anywhere (the
// kernel TUs compile with -ffp-contract=off; the AVX2 arm uses separate
// mul/add intrinsics), so SIMD-on and SIMD-off builds — and the pre-change
// goldens — agree bit for bit.
//
// Dispatch: one kernel, best_add_read_pass, has an AVX2 arm, compiled into a
// separate TU (kernels_avx2.cpp, -mavx2) only when the build enables
// AGTRAM_SIMD and the target is x86-64.  At runtime it takes the arm iff the
// CPU reports AVX2, the AGTRAM_SIMD environment variable is not "0",
// set_simd_enabled has not forced scalar, and the range holds at least
// kMinSimdServers candidates.  Everything else — the other kernels, other
// architectures, old CPUs, AGTRAM_SIMD=OFF builds — runs the portable
// std::span loops, which are written to auto-vectorize where the contract
// allows.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "drp/access_matrix.hpp"
#include "net/shortest_paths.hpp"

namespace agtram::drp::kernels {

// ---------------------------------------------------------------------------
// Dispatch state

/// True when this binary contains the AVX2 kernel TU (-DAGTRAM_SIMD=ON on an
/// x86-64 target).
bool simd_compiled() noexcept;

/// True when the running CPU supports AVX2 (always false off x86-64).
bool simd_supported() noexcept;

/// True when the vector arm will actually run: compiled in, CPU-supported,
/// not disabled by AGTRAM_SIMD=0 in the environment, and not forced scalar
/// by set_simd_enabled(false).
bool simd_active() noexcept;

/// Runtime toggle (bench/test hook): force the portable loop even when the
/// vector arm is available.  Enabling has no effect unless
/// simd_compiled() && simd_supported().  Not intended to be flipped while
/// kernels are running on other threads.
void set_simd_enabled(bool on) noexcept;

/// Shortest candidate range for which best_add_read_pass takes its vector
/// arm: below it the arm's setup costs more than the scalar walk.
/// Correctness never depends on it (both arms are bit-identical).  Public so
/// obs decision blocks can report the cutoff the dispatch compared against.
inline constexpr std::size_t kMinSimdServers = 16;

// ---------------------------------------------------------------------------
// Membership mask

/// mask[slot] = 1 iff servers[slot] ∈ reps, else 0.  Both inputs ascending
/// (the AccessMatrix / ReplicaPlacement invariants).  One O(|servers|+|reps|)
/// merge replaces a per-slot is_replicator probe (linear or binary search).
void member_mask(std::span<const ServerId> servers,
                 std::span<const ServerId> reps, std::uint8_t* mask) noexcept;

// ---------------------------------------------------------------------------
// Kernel 1: weighted primary-cost accumulate

struct CostAccum {
  double cost = 0.0;
  double saving = 0.0;
};

/// Replays the accessor walk of CostModel::object_cost term for term over the
/// SoA streams; per slot, with cp = double(primary_row[servers[slot]]):
///
///   cost += writes[slot] * o * cp;
///   cost += member[slot] ? (w_total - writes[slot]) * o * cp
///                        : reads[slot] * o * double(nn[slot]);
///   if (!member[slot] && reads[slot] != 0)
///     saving += reads[slot] * o * double(nn[slot]);
///
/// `cost` is the accessor-sweep part of the object cost (the caller adds the
/// demandless-replicator spur terms); `saving` is DeltaEvaluator's
/// optimistic-saving bound, folded into the same walk.  All spans are
/// parallel and slot-indexed; `nn` may hold any value at member slots (the
/// masked branch never reads it into the sum).
CostAccum object_cost_accumulate(std::span<const ServerId> servers,
                                 std::span<const double> reads,
                                 std::span<const double> writes,
                                 std::span<const net::Cost> nn,
                                 std::span<const net::Cost> primary_row,
                                 const std::uint8_t* member, double o,
                                 double w_total) noexcept;

// ---------------------------------------------------------------------------
// Kernel 2: nearest-replica min-reduce

/// min over r ∈ reps of row[r] (kUnreachable when reps is empty).
net::Cost nn_min(std::span<const net::Cost> row,
                 std::span<const ServerId> reps) noexcept;

/// Same, skipping every occurrence of `excluded`.
net::Cost nn_min_excluding(std::span<const net::Cost> row,
                           std::span<const ServerId> reps,
                           ServerId excluded) noexcept;

/// out[slot] = min(nn[slot], row[servers[slot]]) — the "effective NN if the
/// candidate also held a replica" precompute of cost_if_added/swapped.
/// `out` may alias `nn.data()`.
void min_with_row(std::span<const net::Cost> nn,
                  std::span<const ServerId> servers,
                  std::span<const net::Cost> row, net::Cost* out) noexcept;

// ---------------------------------------------------------------------------
// Kernel 3: read-savings masked accumulates

/// CostModel::global_benefit's read-savings sweep: over slots with
/// reads[slot] != 0 && !member[slot], in slot order,
///
///   benefit += (reads[slot] * o) *
///              (double(nn[slot]) - double(min(nn[slot], i_row[servers[slot]])))
double read_savings_accumulate(std::span<const ServerId> servers,
                               std::span<const double> reads,
                               std::span<const net::Cost> nn,
                               std::span<const net::Cost> i_row,
                               const std::uint8_t* member, double o) noexcept;

/// One active reader's contribution to the per-server benefit array of
/// DeltaEvaluator::best_add_for_object, for candidate servers [first, last):
///
///   benefit[i] += ro * (double(current) - double(min(current, a_row[i])))
///
/// Each benefit[i] is an independent accumulator, so lanes never reassociate
/// a chain — vectorizing over i is bit-exact by construction.  Precondition:
/// no benefit entry in [first, last) is -0.0 (call sites accumulate
/// nonnegative read savings from a +0.0 fill, so this holds by
/// construction); under it the vector arm may skip blocks whose addends
/// are all +0.0 bit-identically.
void best_add_read_pass(double ro, net::Cost current,
                        std::span<const net::Cost> a_row, std::size_t first,
                        std::size_t last, double* benefit) noexcept;

/// The broadcast-price pass of the same scan, w_dense[i] = w_ik as a double
/// (zero for non-writers), for candidate servers [first, last):
///
///   benefit[i] -= ((w_total - w_dense[i]) * o) * double(primary_row[i])
void broadcast_price_pass(double w_total, double o,
                          std::span<const double> w_dense,
                          std::span<const net::Cost> primary_row,
                          std::size_t first, std::size_t last,
                          double* benefit) noexcept;

// ---------------------------------------------------------------------------
// Shared per-thread scratch for mask / effective-NN staging buffers, so the
// cost-model and delta-evaluator entry points stay allocation-free per call
// (they are invoked from pool workers; thread_local keeps chunks disjoint).
struct Scratch {
  std::vector<std::uint8_t> mask;
  std::vector<net::Cost> nn;
};
Scratch& tls_scratch() noexcept;

}  // namespace agtram::drp::kernels
