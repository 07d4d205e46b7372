// Sparse read/write demand matrices r_ik / w_ik.
//
// At paper scale (M=3718, N=25000) a dense pair of M x N matrices would cost
// ~750 MB; the trace-driven demand is sparse, so we store CSR-style rows
// both by object (driving cost evaluation and nearest-neighbour updates) and
// by server (driving each agent's candidate list in the mechanism).
//
// Layout: every view is a single contiguous pool plus an offset table —
// `cells_` holds all by-object rows back to back, `obj_row_[k]` is where
// object k's row starts.  The mechanism's inner loop walks accessor rows
// millions of times per run; one flat arena keeps those walks on sequential
// cache lines instead of chasing a pointer per object, and `obj_row_` doubles
// as the slot base for ReplicaPlacement's equally flat NN cache.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace agtram::drp {

using ServerId = std::uint32_t;
using ObjectIndex = std::uint32_t;

/// One server's demand for one object.
struct Access {
  ServerId server;
  std::uint64_t reads;
  std::uint64_t writes;
};

/// A (object, demand) pair as seen from one server's side.
struct ServerSideAccess {
  ObjectIndex object;
  /// This server's slot in accessors(object) — what accessor_slot would
  /// return, resolved once by the build's transpose (structure is fixed).
  std::uint32_t slot;
  std::uint64_t reads;
  std::uint64_t writes;
};
// The slot rides in what was padding after `object`.
static_assert(sizeof(ServerSideAccess) == 24);

class AccessMatrix {
 public:
  AccessMatrix() = default;

  /// Builds both views from per-object rows.  Rows may be unsorted and may
  /// contain duplicate servers (demand is summed); zero-demand entries are
  /// dropped.
  static AccessMatrix build(std::size_t servers, std::size_t objects,
                            std::vector<std::vector<Access>> by_object);

  std::size_t server_count() const noexcept { return srv_row_.empty() ? 0 : srv_row_.size() - 1; }
  std::size_t object_count() const noexcept { return obj_row_.empty() ? 0 : obj_row_.size() - 1; }

  /// All servers with nonzero demand for object k, sorted by server id.
  std::span<const Access> accessors(ObjectIndex k) const {
    return {cells_.data() + obj_row_[k], obj_row_[k + 1] - obj_row_[k]};
  }

  /// Offset of object k's accessor row in the shared pool: the global index
  /// of (k, slot 0).  ReplicaPlacement indexes its flat NN cache with
  /// accessor_base(k) + slot, so both structures share one slot scheme.
  std::size_t accessor_base(ObjectIndex k) const { return obj_row_[k]; }

  /// SoA mirror of accessors(k) (DESIGN.md §10): three dense streams parallel
  /// to the AoS row, slot for slot, so the kernels read sequential lanes
  /// instead of strided Access fields.  Demand is converted to double once at
  /// build time; the stored value is exactly the static_cast<double> the
  /// scalar loops performed per use, so kernels fed from these streams
  /// reproduce the AoS arithmetic bit for bit.
  std::span<const ServerId> accessor_servers(ObjectIndex k) const {
    return {soa_server_.data() + obj_row_[k], obj_row_[k + 1] - obj_row_[k]};
  }
  std::span<const double> accessor_reads_d(ObjectIndex k) const {
    return {soa_reads_.data() + obj_row_[k], obj_row_[k + 1] - obj_row_[k]};
  }
  std::span<const double> accessor_writes_d(ObjectIndex k) const {
    return {soa_writes_.data() + obj_row_[k], obj_row_[k + 1] - obj_row_[k]};
  }

  /// Servers with nonzero *read* demand for object k, sorted by server id.
  /// Pure writers are excluded: a new replica of k can only change the
  /// valuation of servers whose NN distance for k may drop, i.e. readers.
  /// The incremental mechanism walks it to find a round's dirty set, the
  /// live readers whose standing report names k.
  std::span<const ServerId> readers(ObjectIndex k) const {
    return {readers_.data() + reader_row_[k], reader_row_[k + 1] - reader_row_[k]};
  }

  /// All objects server i touches, sorted by object index.
  std::span<const ServerSideAccess> server_objects(ServerId i) const {
    return {srv_cells_.data() + srv_row_[i], srv_row_[i + 1] - srv_row_[i]};
  }

  /// Position of object k's accessor slot `slot` in the row
  /// server_objects(accessor_servers(k)[slot]) — the mirror of
  /// ServerSideAccess::slot, recorded by the build's transpose (structure
  /// is fixed).
  std::size_t server_slot(ObjectIndex k, std::size_t slot) const {
    const std::size_t cell = obj_row_[k] + slot;
    return srv_index_[cell] - srv_row_[soa_server_[cell]];
  }

  /// Point lookups (binary search in the object row); 0 if absent.
  std::uint64_t reads(ServerId i, ObjectIndex k) const;
  std::uint64_t writes(ServerId i, ObjectIndex k) const;

  /// Checked in-place demand mutation on an *existing* cell (the online
  /// engine's fixed-universe event model, DESIGN.md §12).  The structural
  /// support — which (i, k) cells exist, and which servers appear in
  /// readers(k) — is fixed at build; deltas may move demand anywhere inside
  /// it, including down to zero and back up.  Throws std::invalid_argument
  /// on anything that would change structure or corrupt an invariant:
  ///   * no cell (i, k) exists (accessor_slot == npos),
  ///   * a delta that would drive reads or writes negative,
  ///   * a read delta that would turn a structural non-reader (a pure-writer
  ///     cell, absent from readers(k)) into a reader — the readers list
  ///     bounds the incremental mechanism's dirty set and is never
  ///     re-laid-out.
  /// On success every view stays exact: the AoS cell, the SoA double streams
  /// (re-converted with the same static_cast the build performed, so they
  /// remain bitwise-consistent), the by-server transpose cell (reached
  /// through the build's recorded index, no row search), and the
  /// per-object / grand demand totals.
  void apply_demand_delta(ServerId i, ObjectIndex k, std::int64_t delta_reads,
                          std::int64_t delta_writes);

  /// Slot of server i in accessors(k), or npos if i has no demand for k.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t accessor_slot(ServerId i, ObjectIndex k) const;

  /// Aggregate demand per object: w_k = sum_i w_ik (and likewise reads).
  std::uint64_t total_writes(ObjectIndex k) const { return object_writes_[k]; }
  std::uint64_t total_reads(ObjectIndex k) const { return object_reads_[k]; }

  std::uint64_t grand_total_reads() const noexcept { return grand_reads_; }
  std::uint64_t grand_total_writes() const noexcept { return grand_writes_; }

  /// Number of stored nonzero (server, object) cells.
  std::size_t nonzeros() const noexcept { return cells_.size(); }

  /// Total (object, reader) pairs — sum of |readers(k)| over all objects.
  std::size_t total_reader_entries() const noexcept { return readers_.size(); }

 private:
  // CSR by object: rows of `cells_` delimited by `obj_row_` (size N+1).
  std::vector<std::size_t> obj_row_;
  std::vector<Access> cells_;
  // SoA mirror of cells_, same slot scheme (demand pre-widened to double).
  std::vector<ServerId> soa_server_;
  std::vector<double> soa_reads_;
  std::vector<double> soa_writes_;
  // Reader ids per object, same row scheme (size N+1 offsets).
  std::vector<std::size_t> reader_row_;
  std::vector<ServerId> readers_;
  // CSR by server: rows of `srv_cells_` delimited by `srv_row_` (size M+1).
  std::vector<std::size_t> srv_row_;
  std::vector<ServerSideAccess> srv_cells_;
  // Per by-object cell (slot scheme): its index in srv_cells_, so a demand
  // delta updates the transpose without searching the server's row.
  std::vector<std::uint32_t> srv_index_;

  std::vector<std::uint64_t> object_reads_;
  std::vector<std::uint64_t> object_writes_;
  std::uint64_t grand_reads_ = 0;
  std::uint64_t grand_writes_ = 0;
};

}  // namespace agtram::drp
