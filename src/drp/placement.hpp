// Replication-scheme state: the boolean matrix X of the paper, held
// incrementally.
//
// For every object we keep the replicator set R_k and — for each server with
// demand on the object — the cached nearest-replica distance NN_ik that the
// cost model and all placement algorithms consume.  Adding a replica updates
// the caches in O(|accessors(k)|); removing one (used by the genetic
// baseline) rebuilds the object's cache in O(|accessors(k)| * |R_k|).
//
// Memory layout (DESIGN.md §7): the NN caches live in two flat arrays
// indexed by AccessMatrix::accessor_base(k) + slot — the same slot scheme as
// the accessor pool, so one round's cost walk touches two parallel
// contiguous ranges.  Replicator sets are small inline buffers
// (kInlineReplicators entries in place); the rare hot object that outgrows
// its buffer spills to a chunked arena whose blocks never move, so
// `replicators(k)` spans stay valid across mutations of *other* objects.
// A span for object k itself is invalidated by add_replica(_, k) — the same
// contract the nested-vector layout had.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "drp/problem.hpp"
#include "net/shortest_paths.hpp"

namespace agtram::drp {

class ReplicaPlacement {
 public:
  /// Primaries-only scheme (X_{P_k,k} = 1, everything else 0) — the paper's
  /// "initial" network against which OTC savings are measured.
  explicit ReplicaPlacement(const Problem& problem);
  /// The placement keeps a pointer to `problem`; a temporary would dangle.
  explicit ReplicaPlacement(Problem&&) = delete;

  ReplicaPlacement(const ReplicaPlacement& other);
  ReplicaPlacement& operator=(const ReplicaPlacement& other);
  ReplicaPlacement(ReplicaPlacement&&) noexcept = default;
  ReplicaPlacement& operator=(ReplicaPlacement&&) noexcept = default;
  ~ReplicaPlacement() = default;

  const Problem& problem() const noexcept { return *problem_; }

  /// Replicators of object k (always contains the primary), sorted.  The
  /// span is invalidated by add_replica/remove_replica on the *same* object;
  /// mutations of other objects leave it valid.
  std::span<const ServerId> replicators(ObjectIndex k) const {
    const RepSet& rs = reps_[k];
    return {rep_data(rs), rs.count};
  }

  bool is_replicator(ServerId i, ObjectIndex k) const;

  /// Servers the placement spans (its problem's M), read from its own
  /// per-server ledger.
  std::size_t server_count() const noexcept { return used_.size(); }

  /// Storage units consumed on server i (primaries + replicas).
  std::uint64_t used_capacity(ServerId i) const { return used_[i]; }
  std::uint64_t free_capacity(ServerId i) const {
    return problem_->capacity[i] - used_[i];
  }

  /// Whether adding a replica of k on i is legal: not already a replicator
  /// and enough free capacity.
  bool can_replicate(ServerId i, ObjectIndex k) const;

  /// Adds a replica; precondition: can_replicate(i, k).
  void add_replica(ServerId i, ObjectIndex k);

  /// Removes a replica; precondition: is_replicator(i,k) and i != primary.
  void remove_replica(ServerId i, ObjectIndex k);

  /// Nearest-replica distance from server i for object k (0 if i is itself
  /// a replicator).  O(1) for accessors, O(|R_k|) otherwise.
  net::Cost nn_distance(ServerId i, ObjectIndex k) const;

  /// Identity of the nearest replicator (ties: lowest distance found first).
  ServerId nn_server(ServerId i, ObjectIndex k) const;

  /// Cached NN distance by accessor slot (see AccessMatrix::accessor_slot).
  net::Cost nn_distance_by_slot(ObjectIndex k, std::size_t slot) const {
    return nn_dist_[problem_->access.accessor_base(k) + slot];
  }

  /// Object k's whole NN-distance row, parallel to access.accessors(k).
  /// Hot-loop variant of nn_distance_by_slot: one base lookup per row.
  std::span<const net::Cost> nn_row(ObjectIndex k) const {
    const std::size_t base = problem_->access.accessor_base(k);
    return {nn_dist_.data() + base,
            problem_->access.accessor_base(k + 1) - base};
  }

  /// Object k's cached nearest-replicator identities, parallel to nn_row(k).
  /// Which of several equidistant replicators a slot records depends on
  /// mutation history, but the cached *distance* never does; DeltaEvaluator
  /// uses the identity only to decide whether a hypothetical drop can
  /// change the slot's NN distance at all (it cannot when the recorded node
  /// survives the drop).
  std::span<const ServerId> nn_node_row(ObjectIndex k) const {
    const std::size_t base = problem_->access.accessor_base(k);
    return {nn_node_.data() + base,
            problem_->access.accessor_base(k + 1) - base};
  }

  /// Total replica count including primaries.
  std::size_t replica_count() const;

  /// Replicas beyond the primaries (what the algorithms actually placed).
  std::size_t extra_replica_count() const {
    return replica_count() - problem_->object_count();
  }

  /// Checks every invariant (capacity, primary membership, NN cache
  /// consistency, replicator-set layout); throws std::logic_error on
  /// violation.  Test hook — O(M*N).
  void check_invariants() const;

  /// Replicator sets up to this size live inside RepSet itself; bigger sets
  /// spill to the arena.  8 covers the overwhelming majority of objects at
  /// every shipped scale (mean extra replicas per object is ~1).
  static constexpr std::uint32_t kInlineReplicators = 8;

 private:
  static constexpr std::size_t kSpillBlockEntries = 4096;

  struct RepSet {
    std::uint32_t count = 0;
    std::uint32_t capacity = kInlineReplicators;
    std::uint32_t block = 0;   ///< arena block index (capacity > inline only)
    std::uint32_t offset = 0;  ///< offset inside that block
    ServerId inline_buf[kInlineReplicators];
  };

  const ServerId* rep_data(const RepSet& rs) const {
    return rs.capacity <= kInlineReplicators
               ? rs.inline_buf
               : spill_blocks_[rs.block].get() + rs.offset;
  }
  ServerId* rep_data(RepSet& rs) {
    return rs.capacity <= kInlineReplicators
               ? rs.inline_buf
               : spill_blocks_[rs.block].get() + rs.offset;
  }

  /// Bump-allocates `n` entries from the spill arena (blocks never move).
  ServerId* spill_alloc(std::uint32_t n, std::uint32_t& block,
                        std::uint32_t& offset);
  /// Doubles rs's storage via the arena; the old chunk is abandoned in
  /// place (bounded garbage: every entry is copied at most once per
  /// doubling, so waste < total allocated).  Copy construction compacts.
  void grow(RepSet& rs);

  void rebuild_nn(ObjectIndex k);

  const Problem* problem_;
  std::vector<RepSet> reps_;                ///< one per object, never resized
  std::vector<std::unique_ptr<ServerId[]>> spill_blocks_;
  std::size_t spill_block_cap_ = 0;   ///< capacity of spill_blocks_.back()
  std::size_t spill_block_used_ = 0;  ///< bump cursor in spill_blocks_.back()

  /// Flat NN caches, indexed by access.accessor_base(k) + slot (one entry
  /// per nonzero demand cell, shared slot scheme with the accessor pool).
  std::vector<net::Cost> nn_dist_;
  std::vector<ServerId> nn_node_;
  std::vector<std::uint64_t> used_;
};

}  // namespace agtram::drp
