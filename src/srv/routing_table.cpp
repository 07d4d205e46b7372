#include "srv/routing_table.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/obs.hpp"

namespace agtram::srv {

RoutingSnapshot::RoutingSnapshot(const drp::ReplicaPlacement& placement,
                                 std::uint64_t epoch)
    : problem_(&placement.problem()),
      epoch_(epoch),
      replica_count_(placement.replica_count()) {
  const std::size_t nnz = problem_->access.nonzeros();
  nn_dist_.resize(nnz);
  nn_node_.resize(nnz);
  write_units_.resize(nnz);
  const std::size_t n = problem_->object_count();
  for (drp::ObjectIndex k = 0; k < n; ++k) fill(placement, k);
  AGTRAM_OBS_COUNT("srv.snapshot_builds", 1);
}

RoutingSnapshot::RoutingSnapshot(const RoutingSnapshot& previous,
                                 const drp::ReplicaPlacement& placement,
                                 std::span<const drp::ObjectIndex> changed,
                                 std::uint64_t epoch)
    : problem_(&placement.problem()),
      epoch_(epoch),
      replica_count_(placement.replica_count()),
      nn_dist_(previous.nn_dist_),
      nn_node_(previous.nn_node_),
      write_units_(previous.write_units_) {
  if (previous.problem_ != problem_) {
    throw std::invalid_argument(
        "RoutingSnapshot: patching across different Problems");
  }
  const std::size_t n = problem_->object_count();
  for (const drp::ObjectIndex k : changed) {
    if (k >= n) {
      throw std::out_of_range("RoutingSnapshot: changed object " +
                              std::to_string(k) + " out of range");
    }
    fill(placement, k);
  }
  AGTRAM_OBS_COUNT("srv.snapshot_patches", 1);
  AGTRAM_OBS_COUNT("srv.snapshot_patched_objects", changed.size());
}

void RoutingSnapshot::fill(const drp::ReplicaPlacement& placement,
                           drp::ObjectIndex k) {
  const drp::AccessMatrix& access = problem_->access;
  const std::size_t base = access.accessor_base(k);
  const auto dist_row = placement.nn_row(k);
  const auto node_row = placement.nn_node_row(k);
  std::copy(dist_row.begin(), dist_row.end(), nn_dist_.begin() + base);
  std::copy(node_row.begin(), node_row.end(), nn_node_.begin() + base);

  // Version-broadcast base: the primary pushes each update to every other
  // replicator.  A writer that itself replicates k does not ship its own
  // incoming copy, so its per-cell cost subtracts that leg below.
  const drp::ServerId primary = problem_->primary[k];
  const auto closure_row = problem_->distances->row(primary);
  double broadcast = 0.0;
  for (const drp::ServerId r : placement.replicators(k)) {
    if (r != primary) broadcast += static_cast<double>(closure_row[r]);
  }

  const double units = static_cast<double>(problem_->object_units[k]);
  const auto servers = access.accessor_servers(k);
  for (std::size_t slot = 0; slot < servers.size(); ++slot) {
    const drp::ServerId writer = servers[slot];
    const double ship = static_cast<double>(closure_row[writer]);
    double cost = ship + broadcast;
    if (writer != primary && placement.is_replicator(writer, k)) {
      cost -= ship;  // closure_row[writer] == c(P_k, writer), symmetric
    }
    write_units_[base + slot] = units * cost;
  }
}

RoutingTable::RoutingTable(std::shared_ptr<const RoutingSnapshot> initial) {
  install(std::move(initial));
}

std::shared_ptr<const RoutingSnapshot> RoutingTable::pin() const {
  const std::lock_guard<std::mutex> lock(install_mu_);
  return live_;
}

void RoutingTable::install(std::shared_ptr<const RoutingSnapshot> next) {
  std::shared_ptr<const RoutingSnapshot> replaced;
  {
    const std::lock_guard<std::mutex> lock(install_mu_);
    replaced = std::exchange(live_, std::move(next));
    current_.store(live_.get(), std::memory_order_release);
  }
  installs_.fetch_add(1, std::memory_order_relaxed);
  AGTRAM_OBS_COUNT("srv.snapshot_installs", 1);
  // `replaced` drops here, outside the lock: freed unless a reader pinned it.
}

}  // namespace agtram::srv
