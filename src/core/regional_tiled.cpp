#include "core/regional_tiled.hpp"

#include <algorithm>
#include <limits>

#include "common/thread_pool.hpp"
#include "drp/cost_model.hpp"
#include "drp/delta_evaluator.hpp"
#include "drp/lazy_greedy.hpp"
#include "obs/obs.hpp"

namespace agtram::core {

namespace {

/// Runs `body(r)` once per region r < region_count: one job per region on
/// the shared pool under Sharded, in ascending order under Serial.  Bodies
/// may only write region-owned state and read shared state, so the two
/// orders are byte-identical.
template <typename Body>
void for_each_region(RegionalExecution execution, std::size_t region_count,
                     const Body& body) {
  if (execution == RegionalExecution::Sharded) {
    common::ThreadPool::shared().parallel_for(
        0, region_count,
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t r = begin; r < end; ++r) {
            body(static_cast<std::uint32_t>(r));
          }
        },
        /*min_grain=*/1);
  } else {
    for (std::size_t r = 0; r < region_count; ++r) {
      body(static_cast<std::uint32_t>(r));
    }
  }
}

/// Objects each region's shard must carry: those a member reads/writes plus
/// those whose primary lives in the region.  One pass over the nonzeros.
/// noinline: GCC 12's -Wfree-nonheap-object misfires on the stamp vector
/// when this inlines into the caller's frame.
[[gnu::noinline]] std::vector<std::vector<drp::ObjectIndex>> objects_per_region(
    const drp::Problem& base, const net::Clustering& clustering) {
  const std::size_t region_count = clustering.region_count();
  std::vector<std::vector<drp::ObjectIndex>> result(region_count);
  constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> stamp(region_count, kNone);
  for (drp::ObjectIndex k = 0; k < base.object_count(); ++k) {
    const std::uint32_t home = clustering.assignment[base.primary[k]];
    stamp[home] = k;
    result[home].push_back(k);
    for (const drp::Access& a : base.access.accessors(k)) {
      const std::uint32_t region = clustering.assignment[a.server];
      if (stamp[region] != k) {
        stamp[region] = k;
        result[region].push_back(k);
      }
    }
  }
  return result;
}

/// One region's subproblem over its tiled distance block.  Local server ids
/// 0..n-1 are the members (ascending global id); n+q is region q's gateway.
struct ShardProblem {
  drp::Problem sub;
  const std::vector<drp::ObjectIndex>* global_objects = nullptr;
};

ShardProblem build_shard_problem(
    const drp::SparseInstance& instance, const TiledPartition& partition,
    std::uint32_t r, const std::vector<drp::ObjectIndex>& objects) {
  const drp::Problem& base = instance.base;
  const net::Clustering& clustering = partition.clustering;
  const std::vector<net::NodeId>& members = partition.tiles.members(r);
  const std::size_t n = members.size();
  const std::size_t region_count = clustering.region_count();
  const std::size_t side = n + region_count;

  constexpr std::uint32_t kNoLocal = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> local(base.server_count(), kNoLocal);
  for (std::uint32_t i = 0; i < n; ++i) local[members[i]] = i;

  ShardProblem shard;
  shard.global_objects = &objects;
  drp::Problem& sub = shard.sub;
  sub.distances = partition.tiles.block(r);
  sub.object_units.reserve(objects.size());
  sub.primary.reserve(objects.size());

  std::vector<std::uint64_t> gateway_load(region_count, 0);
  std::vector<std::vector<drp::Access>> by_object;
  by_object.reserve(objects.size());
  for (const drp::ObjectIndex k : objects) {
    sub.object_units.push_back(base.object_units[k]);
    const std::uint32_t home = clustering.assignment[base.primary[k]];
    if (home == r) {
      sub.primary.push_back(local[base.primary[k]]);
    } else {
      sub.primary.push_back(static_cast<drp::ServerId>(n + home));
      gateway_load[home] += base.object_units[k];
    }

    std::vector<drp::Access> row;
    std::uint64_t member_writes = 0;
    for (const drp::Access& a : base.access.accessors(k)) {
      if (local[a.server] == kNoLocal) continue;
      row.push_back(drp::Access{local[a.server], a.reads, a.writes});
      member_writes += a.writes;
    }
    // Non-member writers aggregate onto the home gateway so the shard's
    // total write volume (and hence broadcast pricing) matches the global
    // instance; non-member reads stay with the readers' own regions.
    const std::uint64_t foreign_writes =
        base.access.total_writes(k) - member_writes;
    if (foreign_writes > 0) {
      row.push_back(drp::Access{static_cast<drp::ServerId>(n + home), 0,
                                foreign_writes});
    }
    by_object.push_back(std::move(row));
  }
  sub.access =
      drp::AccessMatrix::build(side, objects.size(), std::move(by_object));

  // Members keep their global capacity (their in-shard primary load equals
  // their global one: member-homed objects are always included).  Gateways
  // get exactly their primary load — zero headroom, so they never
  // replicate and retire from the auction immediately.
  sub.capacity.resize(side);
  for (std::uint32_t i = 0; i < n; ++i) {
    sub.capacity[i] = base.capacity[members[i]];
  }
  for (std::uint32_t q = 0; q < region_count; ++q) {
    sub.capacity[n + q] = gateway_load[q];
  }
  sub.validate();
  return shard;
}

struct ShardRun {
  TiledShardOutcome outcome;
  std::vector<std::pair<drp::ServerId, drp::ObjectIndex>> allocations;
};

/// Extracts the shard's extra replicas as global (server, object) pairs.
void collect_allocations(const drp::ReplicaPlacement& placement,
                         const std::vector<net::NodeId>& members,
                         const std::vector<drp::ObjectIndex>& objects,
                         ShardRun& run) {
  const drp::Problem& sub = placement.problem();
  const std::size_t n = members.size();
  for (drp::ObjectIndex lk = 0; lk < sub.object_count(); ++lk) {
    for (const drp::ServerId s : placement.replicators(lk)) {
      if (s < n && s != sub.primary[lk]) {
        run.allocations.emplace_back(members[s], objects[lk]);
      }
    }
  }
  std::sort(run.allocations.begin(), run.allocations.end());
}

/// Cooperative shard: Greedy's delta loop on a per-region DeltaEvaluator
/// under the member mask (gateways never host).  Inside a Sharded job the
/// loop's pool forks run inline.
void run_cooperative_shard(const ShardProblem& shard,
                           const std::vector<net::NodeId>& members,
                           ShardRun& run) {
  const drp::Problem& sub = shard.sub;
  drp::DeltaEvaluator eval{drp::ReplicaPlacement(sub)};
  std::vector<bool> allowed(sub.server_count(), false);
  std::fill_n(allowed.begin(), members.size(), true);
  const drp::GreedyCounts counts =
      drp::run_greedy_delta(eval, &allowed, /*max_replicas=*/0);
  run.outcome.rounds = counts.placed;
  run.outcome.replicas_placed = counts.placed;
  // One best-add scan seeds each object, re-prices each pop, and re-queues
  // each placed object.
  run.outcome.reports_computed =
      sub.object_count() + counts.pops + counts.placed;
  run.outcome.final_cost = eval.total();
  collect_allocations(std::move(eval).take_placement(), members,
                      *shard.global_objects, run);
}

void run_auction_shard(const ShardProblem& shard,
                       const TiledRegionalConfig& config,
                       const std::vector<net::NodeId>& members,
                       ShardRun& run) {
  AgtRamConfig mech_cfg;
  mech_cfg.payment_rule = config.payment_rule;
  const MechanismResult result = run_agt_ram(shard.sub, mech_cfg);
  run.outcome.rounds = result.rounds.size();
  run.outcome.replicas_placed = result.replicas_placed();
  run.outcome.charges = result.total_payments();
  run.outcome.reports_computed = result.reports_computed;
  run.outcome.final_cost = drp::CostModel::total_cost(result.placement);
  collect_allocations(result.placement, members, *shard.global_objects, run);
}

}  // namespace

TiledPartition make_tiled_partition(const drp::SparseInstance& instance,
                                    const TiledRegionalConfig& config) {
  AGTRAM_OBS_SPAN("regional.tiled_partition");
  const std::uint32_t servers =
      static_cast<std::uint32_t>(instance.base.server_count());
  net::SampledClusteringConfig clustering_cfg;
  clustering_cfg.regions = config.regions;
  clustering_cfg.seed = config.seed;
  clustering_cfg.refine_iterations = config.refine_iterations;
  // Twice the balanced share: bounds the largest block on skewed
  // (power-law) topologies.
  clustering_cfg.max_members =
      2 * ((servers + config.regions - 1) / config.regions);

  TiledPartition partition;
  partition.clustering =
      net::cluster_servers_sampled(instance.graph, clustering_cfg);
  partition.tile_bytes =
      net::TiledDistances::estimate_bytes(partition.clustering);
  if (partition.tile_bytes > config.distance_budget_bytes) {
    partition.within_budget = false;  // refused: nothing materialised
    return partition;
  }
  partition.tiles =
      net::TiledDistances::build(instance.graph, partition.clustering);
  partition.within_budget = true;
  return partition;
}

TiledRegionalResult run_regional_tiled(const drp::SparseInstance& instance,
                                       const TiledPartition& partition,
                                       const TiledRegionalConfig& config) {
  TiledRegionalResult result;
  result.tile_bytes = partition.tile_bytes;
  if (!partition.within_budget) return result;
  result.within_budget = true;

  AGTRAM_OBS_SPAN("regional.tiled_run");
  const std::size_t region_count = partition.clustering.region_count();
  const std::vector<std::vector<drp::ObjectIndex>> region_objects =
      objects_per_region(instance.base, partition.clustering);

  // Shards share no mutable state (each builds and solves its own
  // subproblem), so Serial and Sharded execution are byte-identical.
  std::vector<ShardRun> runs(region_count);
  for_each_region(config.execution, region_count, [&](std::uint32_t r) {
    ShardRun& run = runs[r];
    const std::vector<net::NodeId>& members = partition.tiles.members(r);
    const ShardProblem shard =
        build_shard_problem(instance, partition, r, region_objects[r]);
    run.outcome.centre = partition.clustering.medoids[r];
    run.outcome.member_count = static_cast<std::uint32_t>(members.size());
    run.outcome.object_count =
        static_cast<std::uint32_t>(shard.sub.object_count());
    run.outcome.initial_cost = drp::CostModel::initial_cost(shard.sub);
    if (config.cooperative) {
      run_cooperative_shard(shard, members, run);
    } else {
      run_auction_shard(shard, config, members, run);
    }
    AGTRAM_OBS_COUNT("regional.tiled_shards", 1);
    AGTRAM_OBS_COUNT("regional.reports_polled", run.outcome.reports_computed);
    AGTRAM_OBS_COUNT("regional.replicas_placed", run.outcome.replicas_placed);
  });

  result.shards.reserve(region_count);
  for (const ShardRun& run : runs) {
    result.shards.push_back(run.outcome);
    result.initial_cost += run.outcome.initial_cost;
    result.final_cost += run.outcome.final_cost;
    result.allocations.insert(result.allocations.end(),
                              run.allocations.begin(), run.allocations.end());
  }
  std::sort(result.allocations.begin(), result.allocations.end());
  return result;
}

TiledRegionalResult run_regional_tiled(const drp::SparseInstance& instance,
                                       const TiledRegionalConfig& config) {
  const TiledPartition partition = make_tiled_partition(instance, config);
  return run_regional_tiled(instance, partition, config);
}

}  // namespace agtram::core
