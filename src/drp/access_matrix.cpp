#include "drp/access_matrix.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

namespace agtram::drp {

AccessMatrix AccessMatrix::build(std::size_t servers, std::size_t objects,
                                 std::vector<std::vector<Access>> by_object) {
  if (by_object.size() != objects) {
    throw std::invalid_argument("AccessMatrix::build: row count != objects");
  }
  AccessMatrix m;
  m.obj_row_.assign(objects + 1, 0);
  m.reader_row_.assign(objects + 1, 0);
  m.object_reads_.assign(objects, 0);
  m.object_writes_.assign(objects, 0);

  // First pass: dedupe each row in place, then lay the merged rows into the
  // two flat by-object pools.
  std::size_t total_cells = 0;
  for (std::size_t k = 0; k < objects; ++k) {
    auto& row = by_object[k];
    std::sort(row.begin(), row.end(), [](const Access& a, const Access& b) {
      return a.server < b.server;
    });
    std::size_t out = 0;
    for (const Access& a : row) {
      if (a.server >= servers) {
        throw std::invalid_argument("AccessMatrix::build: server out of range");
      }
      if (a.reads == 0 && a.writes == 0) continue;
      if (out > 0 && row[out - 1].server == a.server) {
        row[out - 1].reads += a.reads;
        row[out - 1].writes += a.writes;
      } else {
        row[out++] = a;
      }
    }
    row.resize(out);
    total_cells += out;
  }
  // The transpose index (srv_index_) stores cell positions in 32 bits.
  if (total_cells > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("AccessMatrix::build: more than 2^32 - 1 cells");
  }

  m.cells_.reserve(total_cells);
  m.soa_server_.reserve(total_cells);
  m.soa_reads_.reserve(total_cells);
  m.soa_writes_.reserve(total_cells);
  m.readers_.reserve(total_cells);
  std::vector<std::size_t> srv_count(servers, 0);
  for (std::size_t k = 0; k < objects; ++k) {
    m.obj_row_[k] = m.cells_.size();
    m.reader_row_[k] = m.readers_.size();
    for (const Access& a : by_object[k]) {
      m.cells_.push_back(a);
      m.soa_server_.push_back(a.server);
      m.soa_reads_.push_back(static_cast<double>(a.reads));
      m.soa_writes_.push_back(static_cast<double>(a.writes));
      m.object_reads_[k] += a.reads;
      m.object_writes_[k] += a.writes;
      if (a.reads > 0) m.readers_.push_back(a.server);
      ++srv_count[a.server];
    }
    m.grand_reads_ += m.object_reads_[k];
    m.grand_writes_ += m.object_writes_[k];
  }
  m.obj_row_[objects] = m.cells_.size();
  m.reader_row_[objects] = m.readers_.size();

  // Second pass: transpose into the by-server CSR view.  Walking objects in
  // ascending k keeps each server row sorted by object index; each cell
  // records its slot in the object row it came from, and each object-row
  // cell records where its transposed twin landed.
  m.srv_row_.assign(servers + 1, 0);
  for (std::size_t i = 0; i < servers; ++i) {
    m.srv_row_[i + 1] = m.srv_row_[i] + srv_count[i];
  }
  m.srv_cells_.resize(total_cells);
  m.srv_index_.resize(total_cells);
  std::vector<std::size_t> cursor(m.srv_row_.begin(), m.srv_row_.end() - 1);
  for (std::size_t k = 0; k < objects; ++k) {
    const auto& row = by_object[k];
    for (std::size_t slot = 0; slot < row.size(); ++slot) {
      const Access& a = row[slot];
      const std::size_t at = cursor[a.server]++;
      m.srv_index_[m.obj_row_[k] + slot] = static_cast<std::uint32_t>(at);
      m.srv_cells_[at] =
          ServerSideAccess{static_cast<ObjectIndex>(k),
                           static_cast<std::uint32_t>(slot), a.reads, a.writes};
    }
  }
  return m;
}

std::size_t AccessMatrix::accessor_slot(ServerId i, ObjectIndex k) const {
  const auto row = accessors(k);
  const auto it = std::lower_bound(
      row.begin(), row.end(), i,
      [](const Access& a, ServerId target) { return a.server < target; });
  if (it == row.end() || it->server != i) return npos;
  return static_cast<std::size_t>(it - row.begin());
}

std::uint64_t AccessMatrix::reads(ServerId i, ObjectIndex k) const {
  const std::size_t slot = accessor_slot(i, k);
  return slot == npos ? 0 : cells_[obj_row_[k] + slot].reads;
}

std::uint64_t AccessMatrix::writes(ServerId i, ObjectIndex k) const {
  const std::size_t slot = accessor_slot(i, k);
  return slot == npos ? 0 : cells_[obj_row_[k] + slot].writes;
}

namespace {

// new = old + delta with the checked semantics of apply_demand_delta:
// rejects negative results (and, implicitly, u64 wrap) before any state is
// touched.
std::uint64_t checked_apply(std::uint64_t old_value, std::int64_t delta,
                            const char* what) {
  if (delta < 0) {
    const auto drop = static_cast<std::uint64_t>(-delta);
    if (drop > old_value) {
      throw std::invalid_argument(
          std::string("AccessMatrix::apply_demand_delta: ") + what +
          " would go negative");
    }
    return old_value - drop;
  }
  return old_value + static_cast<std::uint64_t>(delta);
}

}  // namespace

void AccessMatrix::apply_demand_delta(ServerId i, ObjectIndex k,
                                      std::int64_t delta_reads,
                                      std::int64_t delta_writes) {
  const std::size_t slot = accessor_slot(i, k);
  if (slot == npos) {
    throw std::invalid_argument(
        "AccessMatrix::apply_demand_delta: no demand cell for (server " +
        std::to_string(i) + ", object " + std::to_string(k) + ")");
  }
  Access& cell = cells_[obj_row_[k] + slot];
  const std::uint64_t new_reads =
      checked_apply(cell.reads, delta_reads, "reads");
  const std::uint64_t new_writes =
      checked_apply(cell.writes, delta_writes, "writes");
  if (cell.reads == 0 && new_reads > 0) {
    // readers(k) is structural (laid out once at build); a pure-writer cell
    // gaining reads would need a reader-list splice the flat layout cannot
    // do, and would silently break the mechanism's dirty-set superset
    // invariant.  Cells that *were* readers at build stay in readers(k)
    // through a zero-demand dip, so they may re-heat freely.
    const auto rs = readers(k);
    if (!std::binary_search(rs.begin(), rs.end(), i)) {
      throw std::invalid_argument(
          "AccessMatrix::apply_demand_delta: read demand on (server " +
          std::to_string(i) + ", object " + std::to_string(k) +
          ") would add a reader outside the structural readers(k) list");
    }
  }

  // All checks passed; commit to every view in lockstep.
  cell.reads = new_reads;
  cell.writes = new_writes;
  soa_reads_[obj_row_[k] + slot] = static_cast<double>(new_reads);
  soa_writes_[obj_row_[k] + slot] = static_cast<double>(new_writes);

  object_reads_[k] = checked_apply(object_reads_[k], delta_reads, "reads");
  object_writes_[k] = checked_apply(object_writes_[k], delta_writes, "writes");
  grand_reads_ = checked_apply(grand_reads_, delta_reads, "reads");
  grand_writes_ = checked_apply(grand_writes_, delta_writes, "writes");

  ServerSideAccess& srv_cell = srv_cells_[srv_index_[obj_row_[k] + slot]];
  srv_cell.reads = new_reads;
  srv_cell.writes = new_writes;
}

}  // namespace agtram::drp
