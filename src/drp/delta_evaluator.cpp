#include "drp/delta_evaluator.hpp"

#include <algorithm>
#include <cassert>

#include "common/thread_pool.hpp"
#include "drp/kernels.hpp"
#include "obs/obs.hpp"

namespace agtram::drp {

DeltaEvaluator::DeltaEvaluator(ReplicaPlacement placement)
    : placement_(std::move(placement)) {
  const std::size_t n = placement_.problem().object_count();
  obj_cost_.resize(n);
  opt_saving_.resize(n);
  AGTRAM_OBS_COUNT("delta_eval.refreshes", n);
  common::ThreadPool::shared().parallel_for(
      0, n,
      [&](std::size_t first, std::size_t last) {
        for (std::size_t k = first; k < last; ++k) {
          reprice(static_cast<ObjectIndex>(k));
        }
      },
      /*min_grain=*/128);
}

void DeltaEvaluator::refresh(ObjectIndex k) {
  AGTRAM_OBS_COUNT("delta_eval.refreshes", 1);
  reprice(k);
}

void DeltaEvaluator::reprice(ObjectIndex k) {
  // Mirrors CostModel::object_cost term for term (the `cost` accumulator
  // sees the identical op sequence — DESIGN.md §8), folding the optimistic
  // saving bound into the same accessor walk.
  const Problem& p = placement_.problem();
  const double o = static_cast<double>(p.object_units[k]);
  const ServerId primary = p.primary[k];
  const double w_total = static_cast<double>(p.access.total_writes(k));

  const auto servers = p.access.accessor_servers(k);
  kernels::Scratch& scratch = kernels::tls_scratch();
  scratch.mask.resize(servers.size());
  kernels::member_mask(servers, placement_.replicators(k),
                       scratch.mask.data());
  const kernels::CostAccum acc = kernels::object_cost_accumulate(
      servers, p.access.accessor_reads_d(k), p.access.accessor_writes_d(k),
      placement_.nn_row(k), p.distances->row(primary), scratch.mask.data(), o,
      w_total);
  double cost = acc.cost;
  for (ServerId r : placement_.replicators(k)) {
    if (r == primary) continue;
    if (p.access.accessor_slot(r, k) == AccessMatrix::npos) {
      cost += w_total * o * static_cast<double>(p.distance(primary, r));
    }
  }
  obj_cost_[k] = cost;
  opt_saving_[k] = acc.saving;
}

double DeltaEvaluator::optimistic_saving() const {
  double total = 0.0;
  for (const double v : opt_saving_) total += v;
  return total;
}

double DeltaEvaluator::total() const {
  if (!total_valid_) {
    AGTRAM_OBS_COUNT("delta_eval.total_resums", 1);
    double total = 0.0;
    for (const double v : obj_cost_) total += v;
    total_ = total;
    total_valid_ = true;
  } else {
    AGTRAM_OBS_COUNT("delta_eval.total_cached", 1);
  }
  return total_;
}

double DeltaEvaluator::cost_if_added(ServerId i, ObjectIndex k) const {
  AGTRAM_OBS_COUNT("delta_eval.hypo_add", 1);
  const Problem& p = placement_.problem();
  assert(placement_.can_replicate(i, k));
  const double o = static_cast<double>(p.object_units[k]);
  const ServerId primary = p.primary[k];
  const double w_total = static_cast<double>(p.access.total_writes(k));

  // Stage the post-add state: membership gains i (when i has a demand
  // slot), and every slot's effective NN becomes min(nn, i_row) — an
  // integral min, so the staged values equal what a real add would cache.
  // The accumulate kernel then replays object_cost's exact double sequence.
  const auto servers = p.access.accessor_servers(k);
  kernels::Scratch& scratch = kernels::tls_scratch();
  scratch.mask.resize(servers.size());
  kernels::member_mask(servers, placement_.replicators(k),
                       scratch.mask.data());
  const std::size_t slot_i = p.access.accessor_slot(i, k);
  if (slot_i != AccessMatrix::npos) scratch.mask[slot_i] = 1;
  scratch.nn.resize(servers.size());
  kernels::min_with_row(placement_.nn_row(k), servers, p.distances->row(i),
                        scratch.nn.data());
  double cost =
      kernels::object_cost_accumulate(
          servers, p.access.accessor_reads_d(k), p.access.accessor_writes_d(k),
          scratch.nn, p.distances->row(primary), scratch.mask.data(), o,
          w_total)
          .cost;
  // Spur loop over the virtual set replicators(k) ∪ {i}, merged in sorted
  // order — the order a real add would leave the set in.
  bool placed_i = false;
  const auto spur = [&](ServerId r) {
    if (r == primary) return;
    if (p.access.accessor_slot(r, k) == AccessMatrix::npos) {
      cost += w_total * o * static_cast<double>(p.distance(primary, r));
    }
  };
  for (ServerId r : placement_.replicators(k)) {
    if (!placed_i && i < r) {
      spur(i);
      placed_i = true;
    }
    spur(r);
  }
  if (!placed_i) spur(i);
  return cost;
}

double DeltaEvaluator::cost_if_dropped(ServerId i, ObjectIndex k) const {
  AGTRAM_OBS_COUNT("delta_eval.hypo_drop", 1);
  const Problem& p = placement_.problem();
  assert(placement_.is_replicator(i, k) && i != p.primary[k]);
  const double o = static_cast<double>(p.object_units[k]);
  const ServerId primary = p.primary[k];
  const double w_total = static_cast<double>(p.access.total_writes(k));
  const auto reps = placement_.replicators(k);

  // Stage the post-drop state: clear i's membership, and re-min the slots
  // whose cached distance cannot survive the drop — i's own slot, plus any
  // slot whose recorded nearest node was i (kernels::nn_min_excluding over
  // the surviving set equals whatever rebuild_nn would cache).  Every other
  // cached distance survives verbatim.
  const auto servers = p.access.accessor_servers(k);
  const auto nn = placement_.nn_row(k);
  const auto nn_node = placement_.nn_node_row(k);
  kernels::Scratch& scratch = kernels::tls_scratch();
  scratch.mask.resize(servers.size());
  kernels::member_mask(servers, reps, scratch.mask.data());
  const std::size_t slot_i = p.access.accessor_slot(i, k);
  if (slot_i != AccessMatrix::npos) scratch.mask[slot_i] = 0;
  scratch.nn.assign(nn.begin(), nn.end());
  for (std::size_t slot = 0; slot < servers.size(); ++slot) {
    if (scratch.mask[slot]) continue;
    if (servers[slot] == i || nn_node[slot] == i) {
      scratch.nn[slot] =
          kernels::nn_min_excluding(p.distances->row(servers[slot]), reps, i);
    }
  }
  double cost =
      kernels::object_cost_accumulate(
          servers, p.access.accessor_reads_d(k), p.access.accessor_writes_d(k),
          scratch.nn, p.distances->row(primary), scratch.mask.data(), o,
          w_total)
          .cost;
  for (ServerId r : reps) {
    if (r == i || r == primary) continue;
    if (p.access.accessor_slot(r, k) == AccessMatrix::npos) {
      cost += w_total * o * static_cast<double>(p.distance(primary, r));
    }
  }
  return cost;
}

double DeltaEvaluator::cost_if_swapped(ServerId from, ServerId to,
                                       ObjectIndex k) const {
  AGTRAM_OBS_COUNT("delta_eval.hypo_swap", 1);
  const Problem& p = placement_.problem();
  assert(placement_.is_replicator(from, k) && from != p.primary[k]);
  assert(from != to && !placement_.is_replicator(to, k));
  const double o = static_cast<double>(p.object_units[k]);
  const ServerId primary = p.primary[k];
  const double w_total = static_cast<double>(p.access.total_writes(k));
  const auto reps = placement_.replicators(k);

  // Stage the post-swap state: membership loses `from` and gains `to`; slots
  // whose cached distance depended on `from` re-min over the surviving set,
  // then every slot takes min(base, to_row) — all integral minima, equal to
  // what a real remove+add would cache.
  const auto servers = p.access.accessor_servers(k);
  const auto nn = placement_.nn_row(k);
  const auto nn_node = placement_.nn_node_row(k);
  const auto to_row = p.distances->row(to);
  kernels::Scratch& scratch = kernels::tls_scratch();
  scratch.mask.resize(servers.size());
  kernels::member_mask(servers, reps, scratch.mask.data());
  const std::size_t slot_from = p.access.accessor_slot(from, k);
  if (slot_from != AccessMatrix::npos) scratch.mask[slot_from] = 0;
  const std::size_t slot_to = p.access.accessor_slot(to, k);
  if (slot_to != AccessMatrix::npos) scratch.mask[slot_to] = 1;
  scratch.nn.assign(nn.begin(), nn.end());
  for (std::size_t slot = 0; slot < servers.size(); ++slot) {
    if (scratch.mask[slot]) continue;
    if (servers[slot] == from || nn_node[slot] == from) {
      scratch.nn[slot] = kernels::nn_min_excluding(
          p.distances->row(servers[slot]), reps, from);
    }
  }
  kernels::min_with_row(scratch.nn, servers, to_row, scratch.nn.data());
  double cost =
      kernels::object_cost_accumulate(
          servers, p.access.accessor_reads_d(k), p.access.accessor_writes_d(k),
          scratch.nn, p.distances->row(primary), scratch.mask.data(), o,
          w_total)
          .cost;
  // Virtual set: (replicators \ {from}) ∪ {to}, merged sorted.
  bool placed_to = false;
  const auto spur = [&](ServerId r) {
    if (r == primary) return;
    if (p.access.accessor_slot(r, k) == AccessMatrix::npos) {
      cost += w_total * o * static_cast<double>(p.distance(primary, r));
    }
  };
  for (ServerId r : reps) {
    if (r == from) continue;
    if (!placed_to && to < r) {
      spur(to);
      placed_to = true;
    }
    spur(r);
  }
  if (!placed_to) spur(to);
  return cost;
}

void DeltaEvaluator::add_replica(ServerId i, ObjectIndex k) {
  placement_.add_replica(i, k);
  refresh(k);
  total_valid_ = false;
}

void DeltaEvaluator::remove_replica(ServerId i, ObjectIndex k) {
  placement_.remove_replica(i, k);
  refresh(k);
  total_valid_ = false;
}

void DeltaEvaluator::refresh_after_demand_change(ObjectIndex k) {
  refresh(k);
  total_valid_ = false;
}

void DeltaEvaluator::refresh_after_demand_change(
    std::span<const ObjectIndex> objects) {
  if (objects.empty()) return;
  AGTRAM_OBS_COUNT("delta_eval.refreshes", objects.size());
  common::ThreadPool::shared().parallel_for(
      0, objects.size(),
      [&](std::size_t first, std::size_t last) {
        for (std::size_t e = first; e < last; ++e) reprice(objects[e]);
      },
      /*min_grain=*/64);
  total_valid_ = false;
}

void DeltaEvaluator::attach_placement(ReplicaPlacement placement,
                                      std::span<const ObjectIndex> touched) {
  placement_ = std::move(placement);
  for (const ObjectIndex k : touched) refresh(k);
  if (!touched.empty()) total_valid_ = false;
}

DeltaEvaluator::BestAdd DeltaEvaluator::best_add_for_object(
    ObjectIndex k, const std::vector<bool>* allowed_sites,
    ScanScratch& scratch, bool parallel) const {
  const Problem& p = placement_.problem();
  const std::size_t m = p.server_count();
  const double o = static_cast<double>(p.object_units[k]);
  const double w_total = static_cast<double>(p.access.total_writes(k));
  const auto servers = p.access.accessor_servers(k);
  const auto reads_d = p.access.accessor_reads_d(k);
  const auto writes_d = p.access.accessor_writes_d(k);
  const auto nn = placement_.nn_row(k);
  const auto primary_row = p.distances->row(p.primary[k]);

  std::vector<double>& benefit = scratch.benefit;
  benefit.assign(m, 0.0);
  // Shared per-scan staging, built once before the (possibly parallel)
  // chunks: the replicator mask for the slot skip test, and the dense w_ik
  // scatter that replaces the two-pointer merge.  (w_total − 0.0) == w_total
  // exactly, so defaulting non-writers to 0.0 keeps the broadcast product
  // bit-identical per server.
  scratch.member.resize(servers.size());
  kernels::member_mask(servers, placement_.replicators(k),
                       scratch.member.data());
  scratch.w_dense.assign(m, 0.0);
  for (std::size_t slot = 0; slot < servers.size(); ++slot) {
    scratch.w_dense[servers[slot]] = writes_d[slot];
  }

  const auto scan = [&](std::size_t first, std::size_t last) {
    // Read-savings terms, slot-outer/server-inner: each active reader's
    // distance row is walked sequentially, and every server accumulates its
    // terms in slot order — the op sequence global_benefit uses.  Per-server
    // accumulators are independent, so the kernel's lanes never reassociate
    // a chain (kernels.hpp kernel 3b).
    for (std::size_t slot = 0; slot < servers.size(); ++slot) {
      if (reads_d[slot] == 0.0 || scratch.member[slot]) continue;
      const auto a_row = p.distances->row(servers[slot]);
      const double ro = reads_d[slot] * o;
      kernels::best_add_read_pass(ro, nn[slot], a_row, first, last,
                                  benefit.data());
    }
    // Broadcast price as one (w_total − w_ik)·o·d product per server, the
    // grouping global_benefit's final subtraction uses (kernel 3c).
    kernels::broadcast_price_pass(w_total, o, scratch.w_dense, primary_row,
                                  first, last, benefit.data());
  };

  AGTRAM_OBS_COUNT("delta_eval.scans", 1);
  if (parallel && m >= kParallelMinServers) {
    AGTRAM_OBS_COUNT("delta_eval.scans_parallel", 1);
    common::ThreadPool::shared().parallel_for(0, m, scan, /*min_grain=*/256);
  } else {
    AGTRAM_OBS_COUNT("delta_eval.scans_inline", 1);
    scan(0, m);
  }

  // Argmax with can_replicate unrolled into its two parts: the replicator
  // membership test becomes one merged walk over the sorted replica list
  // (O(m + |R_k|) instead of m binary searches over the spilled set), and
  // the capacity test reads the free-capacity arrays directly.  Same skip
  // conditions, same server order, same strict >, so the same winner.
  BestAdd best;
  const auto reps = placement_.replicators(k);
  const std::uint64_t units = p.object_units[k];
  std::size_t rp = 0;
  for (std::size_t i = 0; i < m; ++i) {
    const auto server = static_cast<ServerId>(i);
    while (rp < reps.size() && reps[rp] < server) ++rp;
    if (rp < reps.size() && reps[rp] == server) continue;
    if (allowed_sites && !(*allowed_sites)[i]) continue;
    if (placement_.free_capacity(server) < units) continue;
    if (benefit[i] > best.benefit) {
      best.benefit = benefit[i];
      best.server = server;
    }
  }
  return best;
}

}  // namespace agtram::drp
