// Google-benchmark microbenchmarks for the performance-critical primitives:
// the metric closure, the incremental cost engine, NN maintenance, and a
// full mechanism round.  These guard the complexity claims behind Table 1
// (AGT-RAM's near-linear rounds via the lazy heaps and the dirty-set
// incremental evaluation).  After the registered benchmarks run, main()
// times the report-evaluation paths head to head on two instance families —
// the largest shipped configuration and the paper-scale M=3000, N=25600
// family — and writes the numbers to BENCH_mechanism.json so the perf
// trajectory is machine-readable across PRs.
//
// Scale flags (stripped before google-benchmark sees argv):
//   --mech-servers=N / --mech-objects=N    base trajectory instance (256x2560)
//   --paper-servers=N / --paper-objects=N  paper-scale instance (3000x25600)
//   --paper-scale=0                        skip the paper-scale family
//   --reps=N / --paper-reps=N              timing repetitions (best-of)
//   --kernels=0                            skip the kernel-engine family
//   --regional=0                           skip the regional family
//   --regional-servers=10000,50000,100000  tiled large-M sweep sizes
//   --regional-regions=8,32,128            tiled region counts
//   --regional-budget-mb=4096              tiled distance-state budget
//   --regional-reps=N                      regional timing repetitions
//   --online=0                             skip the online re-convergence
//                                          family
//   --online-batches=N                     event batches per timed stream
//   --online-oracle-batches=N              batches in the oracle-ON pass
//   --online-reps=N                        stream timing repetitions
//   --serving=0                            skip the serving-layer family
//   --serving-batches=N                    request batches per policy stream
//   --serving-reps=N                       serving timing repetitions
//   --strategic=0                          skip the strategic-audit family
//   --glauber=0                            skip the Glauber baseline family
//   --glauber-sweeps=N                     Glauber annealing sweeps
//   --tree=0                               skip the tree-placement family
//   --json=PATH                            output path
//   --obs-trace=PATH                       per-round JSONL from an untimed
//                                          Auto-mode run per family
//
// The trajectory run *enforces* the parallel execution policy: if any
// emitted mechanism_full_run row shows parallel_agents=true slower than its
// serial twin by more than the noise tolerance, the process exits nonzero.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "baselines/glauber.hpp"
#include "baselines/registry.hpp"
#include "baselines/strategic_damage.hpp"
#include "baselines/tree_placement.hpp"
#include "bench_common.hpp"
#include "core/audit.hpp"
#include "core/strategy.hpp"
#include "common/timer.hpp"
#include "core/agent.hpp"
#include "core/agt_ram.hpp"
#include "core/online.hpp"
#include "core/regional.hpp"
#include "core/regional_tiled.hpp"
#include "drp/builder.hpp"
#include "drp/cost_model.hpp"
#include "drp/delta_evaluator.hpp"
#include "drp/kernels.hpp"
#include "net/shortest_paths.hpp"
#include "net/topology.hpp"
#include "obs_writer.hpp"
#include "percentiles.hpp"
#include "runtime/event_sim.hpp"
#include "runtime/message_bus.hpp"
#include "srv/serving_engine.hpp"
#include "srv/workload.hpp"

namespace {

using namespace agtram;

const drp::Problem& cached_instance(std::uint32_t servers,
                                    std::uint32_t objects) {
  static std::map<std::pair<std::uint32_t, std::uint32_t>, drp::Problem>
      cache;
  const auto key = std::make_pair(servers, objects);
  auto it = cache.find(key);
  if (it == cache.end()) {
    drp::InstanceSpec spec;
    spec.servers = servers;
    spec.objects = objects;
    spec.seed = 42;
    if (servers > 1000) spec.topology = net::TopologyKind::PowerLaw;
    spec.instance.capacity_fraction = 0.01;
    spec.instance.rw_ratio = 0.9;
    it = cache.emplace(key, drp::make_instance(spec)).first;
  }
  return it->second;
}

void BM_DijkstraSingleSource(benchmark::State& state) {
  net::TopologyConfig cfg;
  cfg.nodes = static_cast<std::uint32_t>(state.range(0));
  cfg.edge_probability = 0.1;
  cfg.seed = 7;
  const net::Graph g = net::generate_topology(cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::dijkstra(g, 0));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DijkstraSingleSource)->Arg(128)->Arg(512)->Arg(1024)->Complexity();

void BM_MetricClosure(benchmark::State& state) {
  net::TopologyConfig cfg;
  cfg.nodes = static_cast<std::uint32_t>(state.range(0));
  cfg.edge_probability = 0.1;
  cfg.seed = 7;
  const net::Graph g = net::generate_topology(cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::DistanceMatrix::compute(g));
  }
}
BENCHMARK(BM_MetricClosure)->Arg(128)->Arg(512)->Unit(benchmark::kMillisecond);

void BM_TotalCost(benchmark::State& state) {
  const drp::Problem& p =
      cached_instance(128, static_cast<std::uint32_t>(state.range(0)));
  const drp::ReplicaPlacement placement(p);
  for (auto _ : state) {
    benchmark::DoNotOptimize(drp::CostModel::total_cost(placement));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_TotalCost)->Arg(500)->Arg(1000)->Arg(2000)->Complexity();

void BM_AgentBenefit(benchmark::State& state) {
  const drp::Problem& p = cached_instance(128, 1000);
  const drp::ReplicaPlacement placement(p);
  drp::ObjectIndex k = 0;
  for (auto _ : state) {
    const auto accessors = p.access.accessors(k);
    if (!accessors.empty() &&
        !placement.is_replicator(accessors[0].server, k)) {
      benchmark::DoNotOptimize(
          drp::CostModel::agent_benefit(placement, accessors[0].server, k));
    }
    k = (k + 1) % static_cast<drp::ObjectIndex>(p.object_count());
  }
}
BENCHMARK(BM_AgentBenefit);

// Slot-resolved fast path the mechanism's inner loop actually takes.
void BM_AgentBenefitAt(benchmark::State& state) {
  const drp::Problem& p = cached_instance(128, 1000);
  const drp::ReplicaPlacement placement(p);
  drp::ObjectIndex k = 0;
  for (auto _ : state) {
    const auto accessors = p.access.accessors(k);
    if (!accessors.empty() &&
        !placement.is_replicator(accessors[0].server, k)) {
      benchmark::DoNotOptimize(drp::CostModel::agent_benefit_at(
          placement, accessors[0].server, k, 0));
    }
    k = (k + 1) % static_cast<drp::ObjectIndex>(p.object_count());
  }
}
BENCHMARK(BM_AgentBenefitAt);

void BM_GlobalBenefit(benchmark::State& state) {
  const drp::Problem& p = cached_instance(128, 1000);
  const drp::ReplicaPlacement placement(p);
  drp::ObjectIndex k = 0;
  for (auto _ : state) {
    const auto accessors = p.access.accessors(k);
    if (!accessors.empty() &&
        !placement.is_replicator(accessors[0].server, k)) {
      benchmark::DoNotOptimize(
          drp::CostModel::global_benefit(placement, accessors[0].server, k));
    }
    k = (k + 1) % static_cast<drp::ObjectIndex>(p.object_count());
  }
}
BENCHMARK(BM_GlobalBenefit);

void BM_AddReplicaNnUpdate(benchmark::State& state) {
  const drp::Problem& p = cached_instance(128, 1000);
  for (auto _ : state) {
    state.PauseTiming();
    drp::ReplicaPlacement placement(p);
    state.ResumeTiming();
    for (drp::ObjectIndex k = 0; k < 64; ++k) {
      const auto accessors = p.access.accessors(k);
      if (accessors.empty()) continue;
      if (placement.can_replicate(accessors[0].server, k)) {
        placement.add_replica(accessors[0].server, k);
      }
    }
  }
}
BENCHMARK(BM_AddReplicaNnUpdate)->Unit(benchmark::kMicrosecond);

void BM_FullMechanism(benchmark::State& state) {
  const drp::Problem& p =
      cached_instance(static_cast<std::uint32_t>(state.range(0)),
                      static_cast<std::uint32_t>(state.range(0)) * 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::run_agt_ram(p));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_FullMechanism)->Arg(64)->Arg(128)->Arg(256)
    ->Unit(benchmark::kMillisecond)->Complexity();

void BM_MechanismRoundsParallel(benchmark::State& state) {
  const drp::Problem& p = cached_instance(256, 2560);
  core::AgtRamConfig cfg;
  cfg.parallel_agents = state.range(0) != 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::run_agt_ram(p, cfg));
  }
  state.SetLabel(cfg.parallel_agents ? "parallel" : "serial");
}
BENCHMARK(BM_MechanismRoundsParallel)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

// Dispersed-demand variant of the 256 x 2560 instance: every server stays
// live with its own candidate list while each object's reader set stays
// small — the paper's large-M regime, and the one the dirty-set incremental
// path is built for (see DESIGN.md).
const drp::Problem& dispersed_instance(std::uint32_t servers,
                                       std::uint32_t objects) {
  static std::map<std::pair<std::uint32_t, std::uint32_t>, drp::Problem>
      cache;
  const auto key = std::make_pair(servers, objects);
  auto it = cache.find(key);
  if (it == cache.end()) {
    drp::InstanceSpec spec;
    spec.servers = servers;
    spec.objects = objects;
    spec.seed = 42;
    if (servers > 1000) spec.topology = net::TopologyKind::PowerLaw;
    spec.demand = drp::DemandModel::Dispersed;
    spec.readers_per_object = 8.0;
    spec.instance.capacity_fraction = 0.01;
    spec.instance.rw_ratio = 0.9;
    it = cache.emplace(key, drp::make_instance(spec)).first;
  }
  return it->second;
}

void BM_MechanismIncremental(benchmark::State& state) {
  const drp::Problem& p = state.range(1) != 0 ? dispersed_instance(256, 2560)
                                              : cached_instance(256, 2560);
  core::AgtRamConfig cfg;
  cfg.report_mode = state.range(0) != 0 ? core::ReportMode::Incremental
                                        : core::ReportMode::Naive;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::run_agt_ram(p, cfg));
  }
  state.SetLabel(std::string(bench::report_mode_name(cfg.report_mode)) +
                 (state.range(1) != 0 ? "/dispersed" : "/trace"));
}
BENCHMARK(BM_MechanismIncremental)
    ->Args({0, 0})->Args({1, 0})->Args({0, 1})->Args({1, 1})
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Machine-readable trajectory: the report-evaluation paths head to head on
// the base (256 x 2560) and paper-scale (3000 x 25600) families, one record
// per (mode, parallel) combination, plus speedup / auto-mode / policy-check
// rows.  The parallel execution policy is *enforced* here: the run fails if
// any full-run row has the parallel twin slower than serial beyond noise.

struct TrajectoryOptions {
  std::uint32_t mech_servers = 256;
  std::uint32_t mech_objects = 2560;
  std::uint32_t paper_servers = 3000;
  std::uint32_t paper_objects = 25600;
  bool paper_scale = true;
  int reps = 3;
  int paper_reps = 2;
  /// Baseline naive-vs-delta family (Greedy, GRA, Aε-Star, Selfish,
  /// LocalSearch, SA at the base scale; Greedy + GRA at paper scale).
  bool baselines = true;
  int baseline_reps = 2;
  /// Kernel-engine family: the DESIGN.md §10 kernels timed aos / scalar /
  /// simd at both scales, with a bitwise cross-variant identity check.
  bool kernels = true;
  /// Regional family: the shared-placement engines (regional / cooperative
  /// / hierarchical) serial-vs-sharded at the mech and paper scales, plus
  /// the tiled large-M engine over regional_servers x regional_regions.
  bool regional = true;
  std::vector<std::uint32_t> regional_servers = {10000, 50000, 100000};
  std::vector<std::uint32_t> regional_regions = {8, 32, 128};
  double regional_budget_mb = 4096.0;
  int regional_reps = 2;
  /// Online family: a long-lived OnlineMechanism absorbing a seeded
  /// mean-field event stream; the per-event re-convergence cost is gated
  /// against the from-scratch re-solve a system without the engine must pay
  /// (>= 20x at mech scale, >= 50x at paper scale), and a second oracle-ON
  /// pass enforces byte-identity against full-participation re-solves.
  bool online = true;
  int online_batches = 64;
  int online_oracle_batches = 12;
  int online_reps = 2;
  /// Serving family: srv::ServingEngine replaying one drifting synthetic
  /// request stream under all three re-convergence policies.  OnDrift's
  /// total re-convergence wall time is gated >= 10x cheaper than re-solving
  /// after every batch (mech scale), and the final routing snapshot is
  /// checked cell for cell against the naive nearest-replica scan.
  bool serving = true;
  int serving_batches = 48;
  int serving_reps = 2;
  /// Strategic family: core::strategic_audit sweeping misreports over the
  /// truthful run's top winners on both demand families.  The per-round
  /// dominance invariant (Lemma 1 / Theorem 5) is *enforced* — any round
  /// where a misreporting agent's bid beat truth exits nonzero — and the
  /// same lies are replayed against the demand-consuming baselines, where
  /// at least one must show measurable allocation damage.
  bool strategic = true;
  /// Glauber family: the distributed heat-bath baseline timed Delta vs the
  /// naive mutate-measure-undo oracle.  Enforced: bit-identical trajectories
  /// across pricing paths, determinism per seed, and every proposal /
  /// decision accounted on the MessageBus with nonzero wire bytes.
  bool glauber = true;
  int glauber_sweeps = 48;
  /// Tree family: Benoit–Rehn–Robert exact-DP vs greedy placement on a
  /// TopologyKind::Tree instance, with AGT-RAM on the same instance for
  /// quality context.  Enforced: the exact DP never loses to greedy.
  bool tree = true;
  std::string json_path = bench::kMechanismJsonPath;
  /// Per-round JSONL sink (--obs-trace=PATH): one meta line per traced
  /// Auto-mode run, then one line per mechanism round.  Round lines carry
  /// gauges only when the binary was built with -DAGTRAM_OBS=ON.
  std::string obs_trace_path;
};

/// Parallel-vs-serial noise tolerance.  With the round-size cutoff in place
/// the two paths execute identical code below the crossover, so the only
/// differences left are scheduler noise; 10% of wall time bounds that
/// comfortably at best-of-N timing.  Millisecond-scale rows additionally
/// get the same absolute floor the bench gate uses: a ~1 ms swing on a
/// 5 ms row is jitter (especially on single-core runners, where parallel
/// is serial plus the fork handshake), not a policy violation — the rows
/// the check exists for take seconds and clear the floor easily.
constexpr double kParallelTolerance = 1.10;
constexpr double kParallelMinDelta = 0.02;  // seconds

bool parallel_within_policy(double serial, double parallel) {
  // On a single-worker pool every parallel_for degrades to the identical
  // inline code path, so the two timings measure the same instructions and
  // their ratio is pure container noise (multi-second rows swing 10-25%
  // run to run on shared 1-CPU runners, in either direction).  The policy
  // is only meaningful — and only enforced — when the pool can actually
  // overlap work; the identity checks keep holding regardless.
  if (common::ThreadPool::shared().thread_count() <= 1) return true;
  return parallel <= serial * kParallelTolerance ||
         parallel - serial <= kParallelMinDelta;
}

struct ModeOutcome {
  double seconds = 0.0;
  std::uint64_t rounds = 0;
  std::uint64_t evaluations = 0;
  std::uint64_t reports = 0;
  core::ReportMode resolved = core::ReportMode::Naive;
};

ModeOutcome time_mechanism(const drp::Problem& p, core::ReportMode mode,
                           bool parallel, int repetitions) {
  core::AgtRamConfig cfg;
  cfg.report_mode = mode;
  cfg.parallel_agents = parallel;
  ModeOutcome best;
  best.seconds = 1e30;
  for (int rep = 0; rep < repetitions; ++rep) {
    common::Timer timer;
    const core::MechanismResult result = core::run_agt_ram(p, cfg);
    const double seconds = timer.seconds();
    if (seconds < best.seconds) {
      best.seconds = seconds;
      best.rounds = result.rounds.size();
      best.evaluations = result.candidate_evaluations;
      best.reports = result.reports_computed;
      best.resolved = result.resolved_mode;
    }
  }
  return best;
}

struct FamilyReport {
  bool parallel_ok = true;
};

FamilyReport run_family(bench::JsonWriter& json, const drp::Problem& p,
                        const char* demand, std::uint32_t servers,
                        std::uint32_t objects, int reps,
                        bench::JsonlTrace* trace) {
  FamilyReport family;
  ModeOutcome outcomes[2][2];  // [incremental][parallel]
  for (const bool incremental : {false, true}) {
    const core::ReportMode mode = incremental ? core::ReportMode::Incremental
                                              : core::ReportMode::Naive;
    for (const bool parallel : {false, true}) {
      core::AgtRamConfig cfg;
      cfg.report_mode = mode;
      cfg.parallel_agents = parallel;
      const bench::ObsSnapshot obs_before = bench::ObsSnapshot::take();
      const ModeOutcome o = time_mechanism(p, mode, parallel, reps);
      const bench::ObsSnapshot obs_after = bench::ObsSnapshot::take();
      outcomes[incremental ? 1 : 0][parallel ? 1 : 0] = o;
      bench::JsonWriter::Record record;
      record.field("benchmark", "mechanism_full_run")
          .field("servers", static_cast<std::uint64_t>(servers))
          .field("objects", static_cast<std::uint64_t>(objects))
          .field("demand", demand)
          .field("layout", "flat")
          .field("incremental_reports", incremental)
          .field("parallel_agents", parallel)
          .field("seconds", o.seconds)
          .field("rounds", o.rounds)
          .field("candidate_evaluations", o.evaluations)
          .field("reports_computed", o.reports)
          .object_field("obs",
                        bench::obs_block(bench::mechanism_decisions(p, cfg),
                                         obs_before, obs_after,
                                         static_cast<std::uint64_t>(reps)));
      json.add(std::move(record));
      std::printf("mechanism %ux%u %s/%s/%s: %.4fs, %llu rounds, %llu reports\n",
                  servers, objects, demand,
                  bench::report_mode_name(mode),
                  parallel ? "parallel" : "serial", o.seconds,
                  static_cast<unsigned long long>(o.rounds),
                  static_cast<unsigned long long>(o.reports));
    }
  }

  // Enforced execution policy: parallel must not lose to serial on any
  // emitted row (the round-size cutoff makes sub-crossover rounds take the
  // identical inline path, so anything beyond tolerance is a real
  // regression).
  for (const bool incremental : {false, true}) {
    const double serial = outcomes[incremental ? 1 : 0][0].seconds;
    const double parallel = outcomes[incremental ? 1 : 0][1].seconds;
    const bool ok = parallel_within_policy(serial, parallel);
    family.parallel_ok = family.parallel_ok && ok;
    bench::JsonWriter::Record record;
    record.field("benchmark", "parallel_vs_serial_check")
        .field("servers", static_cast<std::uint64_t>(servers))
        .field("objects", static_cast<std::uint64_t>(objects))
        .field("demand", demand)
        .field("incremental_reports", incremental)
        .field("serial_seconds", serial)
        .field("parallel_seconds", parallel)
        .field("tolerance", kParallelTolerance)
        .field("ok", ok);
    json.add(std::move(record));
    if (!ok) {
      std::fprintf(stderr,
                   "FAIL: parallel (%.4fs) slower than serial (%.4fs) on "
                   "%ux%u %s incremental=%d\n",
                   parallel, serial, servers, objects, demand,
                   incremental ? 1 : 0);
    }
  }

  for (const bool parallel : {false, true}) {
    const double naive = outcomes[0][parallel ? 1 : 0].seconds;
    const double incremental = outcomes[1][parallel ? 1 : 0].seconds;
    const double speedup = incremental > 0.0 ? naive / incremental : 0.0;
    bench::JsonWriter::Record record;
    record.field("benchmark", "mechanism_incremental_speedup")
        .field("servers", static_cast<std::uint64_t>(servers))
        .field("objects", static_cast<std::uint64_t>(objects))
        .field("demand", demand)
        .field("parallel_agents", parallel)
        .field("naive_seconds", naive)
        .field("incremental_seconds", incremental)
        .field("speedup", speedup);
    json.add(std::move(record));
    std::printf("speedup (%s, %s): %.2fx\n", demand,
                parallel ? "parallel" : "serial", speedup);
  }

  // ReportMode::Auto must land on the winning path for the family.
  {
    core::AgtRamConfig auto_cfg;
    auto_cfg.report_mode = core::ReportMode::Auto;
    auto_cfg.parallel_agents = false;
    const bench::ObsSnapshot before = bench::ObsSnapshot::take();
    const ModeOutcome o =
        time_mechanism(p, core::ReportMode::Auto, /*parallel=*/false, reps);
    const bench::ObsSnapshot after = bench::ObsSnapshot::take();
    const double naive = outcomes[0][0].seconds;
    const double incr = outcomes[1][0].seconds;
    const char* picked = bench::report_mode_name(o.resolved);
    const char* winner = naive <= incr ? "naive" : "incremental";
    bench::JsonWriter::Record record;
    record.field("benchmark", "mechanism_auto_mode")
        .field("servers", static_cast<std::uint64_t>(servers))
        .field("objects", static_cast<std::uint64_t>(objects))
        .field("demand", demand)
        .field("picked", picked)
        .field("measured_winner", winner)
        .field("seconds", o.seconds)
        .field("naive_seconds", naive)
        .field("incremental_seconds", incr)
        .object_field("obs",
                      bench::obs_block(bench::mechanism_decisions(p, auto_cfg),
                                       before, after,
                                       static_cast<std::uint64_t>(reps)));
    json.add(std::move(record));
    std::printf("auto mode (%s): picked %s, measured winner %s (%.4fs)\n",
                demand, picked, winner, o.seconds);
  }

  // Per-round trace: one untimed Auto-mode run under the JSONL sink.  Kept
  // outside the timing loops above so tracing never perturbs the numbers.
  if (trace != nullptr) {
    core::AgtRamConfig cfg;
    cfg.report_mode = core::ReportMode::Auto;
    bench::JsonWriter::Record meta;
    meta.field("benchmark", "mechanism_obs_trace")
        .field("servers", static_cast<std::uint64_t>(servers))
        .field("objects", static_cast<std::uint64_t>(objects))
        .field("demand", demand)
        .field("obs_enabled", bench::obs_enabled())
        .object_field("decisions", bench::mechanism_decisions(p, cfg));
    trace->meta(meta);
    const core::MechanismResult result = [&] {
      bench::ScopedTrace scoped(*trace);
      return core::run_agt_ram(p, cfg);
    }();
    trace->close();
    std::printf("obs trace (%ux%u %s): %zu rounds traced\n", servers, objects,
                demand, result.rounds.size());
  }
  return family;
}

// ---------------------------------------------------------------------------
// Baseline naive-vs-delta family.
//
// Each baseline is run three ways — naive oracle, delta serial, delta
// parallel — through the same registry entries the table binaries use.  The
// delta paths are bit-identical reformulations, so beyond the before/after
// timing rows the family asserts (nonzero exit) that every variant lands on
// the same placement cost and replica count, and that parallel scans never
// lose to serial beyond kParallelTolerance.
// ---------------------------------------------------------------------------

struct BaselineOutcome {
  double seconds = 0.0;
  double cost = 0.0;
  std::uint64_t replicas = 0;
};

BaselineOutcome time_baseline(const drp::Problem& p,
                              const baselines::AlgorithmEntry& algo,
                              int repetitions) {
  BaselineOutcome best;
  best.seconds = 1e30;
  for (int rep = 0; rep < repetitions; ++rep) {
    common::Timer timer;
    const drp::ReplicaPlacement placement = algo.run(p, /*seed=*/1);
    const double seconds = timer.seconds();
    if (seconds < best.seconds) {
      best.seconds = seconds;
      best.cost = drp::CostModel::total_cost(placement);
      best.replicas = placement.extra_replica_count();
    }
  }
  return best;
}

bool run_baseline_family(bench::JsonWriter& json, const drp::Problem& p,
                         const char* demand, std::uint32_t servers,
                         std::uint32_t objects,
                         const std::vector<std::string>& names, int reps) {
  struct Variant {
    const char* eval;
    bool parallel;
    baselines::AlgoOptions options;
  };
  const Variant variants[3] = {
      {"naive", false, {baselines::EvalPath::Naive, false}},
      {"delta", false, {baselines::EvalPath::Delta, false}},
      {"delta", true, {baselines::EvalPath::Delta, true}},
  };
  bool ok = true;
  for (const std::string& name : names) {
    BaselineOutcome out[3];
    for (int v = 0; v < 3; ++v) {
      const baselines::AlgorithmEntry algo =
          baselines::find_algorithm(name, variants[v].options);
      const bench::ObsSnapshot before = bench::ObsSnapshot::take();
      out[v] = time_baseline(p, algo, reps);
      const bench::ObsSnapshot after = bench::ObsSnapshot::take();
      bench::JsonWriter::Record record;
      record.field("benchmark", "baseline_run")
          .field("algorithm", name)
          .field("servers", static_cast<std::uint64_t>(servers))
          .field("objects", static_cast<std::uint64_t>(objects))
          .field("demand", demand)
          .field("eval", variants[v].eval)
          .field("parallel_scan", variants[v].parallel)
          .field("seconds", out[v].seconds)
          .field("total_cost", out[v].cost)
          .field("extra_replicas", out[v].replicas)
          .object_field(
              "obs",
              bench::obs_block(
                  bench::baseline_decisions(
                      p,
                      variants[v].options.eval == baselines::EvalPath::Delta,
                      variants[v].parallel),
                  before, after, static_cast<std::uint64_t>(reps)));
      json.add(std::move(record));
      std::printf("baseline %-11s %ux%u %s %s/%s: %.4fs, %llu replicas\n",
                  name.c_str(), servers, objects, demand, variants[v].eval,
                  variants[v].parallel ? "parallel" : "serial", out[v].seconds,
                  static_cast<unsigned long long>(out[v].replicas));
    }

    // The delta engine is a bit-identical reformulation of the naive oracle:
    // same placement, same total cost (bitwise), for every baseline.
    bool identical = true;
    for (int v = 1; v < 3; ++v) {
      if (out[v].cost != out[0].cost || out[v].replicas != out[0].replicas) {
        identical = false;
        std::fprintf(stderr,
                     "FAIL: %s %s/%s diverged from naive: cost %.17g vs "
                     "%.17g, replicas %llu vs %llu\n",
                     name.c_str(), variants[v].eval,
                     variants[v].parallel ? "parallel" : "serial", out[v].cost,
                     out[0].cost,
                     static_cast<unsigned long long>(out[v].replicas),
                     static_cast<unsigned long long>(out[0].replicas));
      }
    }
    ok = ok && identical;
    bench::JsonWriter::Record identity;
    identity.field("benchmark", "baseline_identity_check")
        .field("algorithm", name)
        .field("servers", static_cast<std::uint64_t>(servers))
        .field("objects", static_cast<std::uint64_t>(objects))
        .field("demand", demand)
        .field("ok", identical);
    json.add(std::move(identity));

    const double serial_speedup =
        out[1].seconds > 0.0 ? out[0].seconds / out[1].seconds : 0.0;
    const double parallel_speedup =
        out[2].seconds > 0.0 ? out[0].seconds / out[2].seconds : 0.0;
    bench::JsonWriter::Record speedup;
    speedup.field("benchmark", "baseline_speedup")
        .field("algorithm", name)
        .field("servers", static_cast<std::uint64_t>(servers))
        .field("objects", static_cast<std::uint64_t>(objects))
        .field("demand", demand)
        .field("naive_seconds", out[0].seconds)
        .field("delta_serial_seconds", out[1].seconds)
        .field("delta_parallel_seconds", out[2].seconds)
        .field("serial_speedup", serial_speedup)
        .field("parallel_speedup", parallel_speedup);
    json.add(std::move(speedup));
    std::printf("  %s delta speedup: %.2fx serial, %.2fx parallel\n",
                name.c_str(), serial_speedup, parallel_speedup);

    // Same execution policy as the mechanism rows: parallel candidate scans
    // must never lose to serial (the round-size cutoffs degrade them to the
    // identical inline path below the crossover).
    const bool parallel_ok =
        parallel_within_policy(out[1].seconds, out[2].seconds);
    ok = ok && parallel_ok;
    bench::JsonWriter::Record check;
    check.field("benchmark", "baseline_parallel_check")
        .field("algorithm", name)
        .field("servers", static_cast<std::uint64_t>(servers))
        .field("objects", static_cast<std::uint64_t>(objects))
        .field("demand", demand)
        .field("serial_seconds", out[1].seconds)
        .field("parallel_seconds", out[2].seconds)
        .field("tolerance", kParallelTolerance)
        .field("ok", parallel_ok);
    json.add(std::move(check));
    if (!parallel_ok) {
      std::fprintf(stderr,
                   "FAIL: %s parallel scan (%.4fs) slower than serial "
                   "(%.4fs) on %ux%u %s\n",
                   name.c_str(), out[2].seconds, out[1].seconds, servers,
                   objects, demand);
    }
  }
  return ok;
}

// ---------------------------------------------------------------------------
// Kernel-engine family (--kernels=0 skips).
//
// The kernel shapes of DESIGN.md §10 timed three ways over one seeded
// placement per scale:
//
//   aos    — the pre-change AoS loops (per-slot is_replicator probes,
//            per-use static_casts, the two-pointer w_ik merge), transcribed
//            verbatim below; the capture the issue's >= 1.5x acceptance
//            speedup is measured against,
//   scalar — the shipped kernel entry points with the vector paths forced
//            off (kernels::set_simd_enabled(false)): SoA streams + member
//            masks, portable loops,
//   simd   — the same entry points with the vector paths on; rows emitted
//            only when the binary carries the AVX2 TU and the CPU runs it.
//
// Each row reports best-of wall seconds plus ns per processed item
// (accessor slots for the sweeps, rep entries for the min-reduce, benefit
// cells for the candidate scan) under the shared ns_per_accessor field.
// The family asserts — nonzero exit — that every variant lands on
// bit-identical checksums: the FP contract, enforced at the exact
// workloads where the speedup is claimed.

struct KernelWork {
  double checksum = 0.0;    ///< primary bitwise-compared accumulator
  double checksum2 = 0.0;   ///< secondary accumulator (savings / winners)
  std::uint64_t items = 0;  ///< ns_per_accessor denominator
};

bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Deterministic replica seeding for the kernel workloads: each object's
/// first two accessor servers (so the member branches of the sweeps fire),
/// then a strided probe over all servers — most reader slots stay active,
/// keeping the read-savings loops the scan kernels exist for on the hot
/// path.  Round-robin across objects so the capacity budget spreads instead
/// of draining on the first objects; depth 24 pushes typical rep lists past
/// the SIMD min-reduce cutoff wherever capacity allows.
drp::ReplicaPlacement seeded_placement(const drp::Problem& p) {
  constexpr std::uint32_t kDepth = 24;
  const auto m = static_cast<std::uint32_t>(p.server_count());
  drp::ReplicaPlacement placement(p);
  for (std::uint32_t depth = 0; depth < kDepth; ++depth) {
    for (drp::ObjectIndex k = 0; k < p.object_count(); ++k) {
      const auto accessors = p.access.accessors(k);
      const drp::ServerId i =
          depth < 2 && depth < accessors.size()
              ? accessors[depth].server
              : static_cast<drp::ServerId>((k * 61u + depth * 97u + 1u) % m);
      if (placement.can_replicate(i, k)) placement.add_replica(i, k);
    }
  }
  return placement;
}

/// Pre-change accessor sweep of CostModel::object_cost /
/// DeltaEvaluator::refresh (the loop kernels::object_cost_accumulate
/// replaced), minus the demandless-replicator spur both code paths still
/// share.
void aos_object_cost_sweep(const drp::ReplicaPlacement& placement,
                           drp::ObjectIndex k, double& cost, double& saving) {
  const drp::Problem& p = placement.problem();
  const double o = static_cast<double>(p.object_units[k]);
  const double w_total = static_cast<double>(p.access.total_writes(k));
  const auto accessors = p.access.accessors(k);
  const auto nn = placement.nn_row(k);
  const auto primary_row = p.distances->row(p.primary[k]);
  for (std::size_t slot = 0; slot < accessors.size(); ++slot) {
    const drp::Access& a = accessors[slot];
    const double c_primary = static_cast<double>(primary_row[a.server]);
    cost += static_cast<double>(a.writes) * o * c_primary;
    if (placement.is_replicator(a.server, k)) {
      cost += (w_total - static_cast<double>(a.writes)) * o * c_primary;
    } else {
      cost += static_cast<double>(a.reads) * o * static_cast<double>(nn[slot]);
      if (a.reads != 0) {
        saving +=
            static_cast<double>(a.reads) * o * static_cast<double>(nn[slot]);
      }
    }
  }
}

/// Pre-change CostModel::global_benefit: per-slot is_replicator probes over
/// the AoS cells, then the broadcast-price subtraction off a per-call
/// writes(i, k) lookup.
double aos_global_benefit(const drp::ReplicaPlacement& placement,
                          drp::ServerId i, drp::ObjectIndex k) {
  const drp::Problem& p = placement.problem();
  const double o = static_cast<double>(p.object_units[k]);
  double benefit = 0.0;
  const auto accessors = p.access.accessors(k);
  const auto nn = placement.nn_row(k);
  const auto i_row = p.distances->row(i);
  for (std::size_t slot = 0; slot < accessors.size(); ++slot) {
    const drp::Access& a = accessors[slot];
    if (a.reads == 0 || placement.is_replicator(a.server, k)) continue;
    const net::Cost current = nn[slot];
    const net::Cost with_i = std::min(current, i_row[a.server]);
    benefit += static_cast<double>(a.reads) * o *
               (static_cast<double>(current) - static_cast<double>(with_i));
  }
  benefit -= (static_cast<double>(p.access.total_writes(k)) -
              static_cast<double>(p.access.writes(i, k))) *
             o * static_cast<double>(p.distance(p.primary[k], i));
  return benefit;
}

/// Pre-change DeltaEvaluator::best_add_for_object, inline scan: per-slot
/// is_replicator probes, scalar row walks, and the two-pointer w_ik merge
/// for the broadcast pass.
drp::DeltaEvaluator::BestAdd aos_best_add(
    const drp::ReplicaPlacement& placement, drp::ObjectIndex k,
    std::vector<double>& benefit) {
  const drp::Problem& p = placement.problem();
  const std::size_t m = p.server_count();
  const double o = static_cast<double>(p.object_units[k]);
  const double w_total = static_cast<double>(p.access.total_writes(k));
  const auto accessors = p.access.accessors(k);
  const auto nn = placement.nn_row(k);
  const auto primary_row = p.distances->row(p.primary[k]);
  benefit.assign(m, 0.0);
  for (std::size_t slot = 0; slot < accessors.size(); ++slot) {
    const drp::Access& a = accessors[slot];
    if (a.reads == 0 || placement.is_replicator(a.server, k)) continue;
    const auto a_row = p.distances->row(a.server);
    const net::Cost current = nn[slot];
    const double ro = static_cast<double>(a.reads) * o;
    for (std::size_t i = 0; i < m; ++i) {
      const net::Cost with_i = std::min(current, a_row[i]);
      benefit[i] +=
          ro * (static_cast<double>(current) - static_cast<double>(with_i));
    }
  }
  std::size_t ptr = 0;
  for (std::size_t i = 0; i < m; ++i) {
    while (ptr < accessors.size() && accessors[ptr].server < i) ++ptr;
    const double w_i = (ptr < accessors.size() && accessors[ptr].server == i)
                           ? static_cast<double>(accessors[ptr].writes)
                           : 0.0;
    benefit[i] -= (w_total - w_i) * o * static_cast<double>(primary_row[i]);
  }
  drp::DeltaEvaluator::BestAdd best;
  for (std::size_t i = 0; i < m; ++i) {
    const auto server = static_cast<drp::ServerId>(i);
    if (!placement.can_replicate(server, k)) continue;
    if (benefit[i] > best.benefit) {
      best.benefit = benefit[i];
      best.server = server;
    }
  }
  return best;
}

bool run_kernel_family(bench::JsonWriter& json, const drp::Problem& p,
                       const char* demand, std::uint32_t servers,
                       std::uint32_t objects, int reps, int passes) {
  const std::size_t n = p.object_count();
  const std::size_t m = p.server_count();
  const drp::ReplicaPlacement placement = seeded_placement(p);
  const drp::DeltaEvaluator eval{drp::ReplicaPlacement(placement)};
  std::printf("kernels %ux%u %s: seeded placement, %zu extra replicas\n",
              servers, objects, demand, placement.extra_replica_count());

  // One non-replicator benefit candidate per object, fixed up front so every
  // variant prices the identical (i, k) set.
  std::vector<drp::ServerId> candidate(n);
  for (drp::ObjectIndex k = 0; k < n; ++k) {
    auto i = static_cast<drp::ServerId>((k * 7919u + 3u) % m);
    while (placement.is_replicator(i, k)) {
      i = static_cast<drp::ServerId>((i + 1u) % m);
    }
    candidate[k] = i;
  }

  const auto object_cost_work = [&](bool aos) {
    KernelWork w;
    for (int pass = 0; pass < passes; ++pass) {
      double cost = 0.0;
      double saving = 0.0;
      for (drp::ObjectIndex k = 0; k < n; ++k) {
        if (aos) {
          aos_object_cost_sweep(placement, k, cost, saving);
        } else {
          const auto srv = p.access.accessor_servers(k);
          drp::kernels::Scratch& scratch = drp::kernels::tls_scratch();
          scratch.mask.resize(srv.size());
          drp::kernels::member_mask(srv, placement.replicators(k),
                                    scratch.mask.data());
          const drp::kernels::CostAccum acc =
              drp::kernels::object_cost_accumulate(
                  srv, p.access.accessor_reads_d(k),
                  p.access.accessor_writes_d(k), placement.nn_row(k),
                  p.distances->row(p.primary[k]), scratch.mask.data(),
                  static_cast<double>(p.object_units[k]),
                  static_cast<double>(p.access.total_writes(k)));
          cost += acc.cost;
          saving += acc.saving;
        }
      }
      w.checksum = cost;
      w.checksum2 = saving;
    }
    w.items = static_cast<std::uint64_t>(passes) * p.access.nonzeros();
    return w;
  };

  const auto nn_min_work = [&](bool aos) {
    KernelWork w;
    double sum = 0.0;
    for (int pass = 0; pass < passes; ++pass) {
      sum = 0.0;
      for (drp::ObjectIndex k = 0; k < n; ++k) {
        const auto reps_k = placement.replicators(k);
        for (std::uint32_t j = 0; j < 4; ++j) {
          const auto probe =
              static_cast<drp::ServerId>((k * 2654435761u + 40503u * j) % m);
          const auto row = p.distances->row(probe);
          net::Cost v;
          if (aos) {
            v = net::kUnreachable;
            for (const drp::ServerId r : reps_k) v = std::min(v, row[r]);
          } else {
            v = drp::kernels::nn_min(row, reps_k);
          }
          sum += static_cast<double>(v);
        }
        if (pass == 0) w.items += 4ull * reps_k.size();
      }
    }
    w.checksum = sum;
    w.items *= static_cast<std::uint64_t>(passes);
    return w;
  };

  const auto global_benefit_work = [&](bool aos) {
    KernelWork w;
    double sum = 0.0;
    for (int pass = 0; pass < passes; ++pass) {
      sum = 0.0;
      for (drp::ObjectIndex k = 0; k < n; ++k) {
        sum += aos ? aos_global_benefit(placement, candidate[k], k)
                   : drp::CostModel::global_benefit(placement, candidate[k], k);
      }
    }
    w.checksum = sum;
    w.items = static_cast<std::uint64_t>(passes) * p.access.nonzeros();
    return w;
  };

  // Candidate-scan subset: ~512 objects, strided so the subset spans the
  // catalogue.  Each scanned object prices all M servers.
  const std::size_t stride = std::max<std::size_t>(1, n / 512);
  drp::DeltaEvaluator::ScanScratch scan_scratch;
  std::vector<double> aos_benefit;
  const auto best_add_work = [&](bool aos) {
    KernelWork w;
    double bsum = 0.0;
    double ssum = 0.0;
    std::uint64_t scanned = 0;
    for (int pass = 0; pass < passes; ++pass) {
      bsum = 0.0;
      ssum = 0.0;
      scanned = 0;
      for (drp::ObjectIndex k = 0; k < n; k += stride) {
        const drp::DeltaEvaluator::BestAdd best =
            aos ? aos_best_add(placement, k, aos_benefit)
                : eval.best_add_for_object(k, nullptr, scan_scratch,
                                           /*parallel=*/false);
        bsum += best.benefit;
        ssum += static_cast<double>(best.server);
        ++scanned;
      }
    }
    w.checksum = bsum;
    w.checksum2 = ssum;
    w.items = static_cast<std::uint64_t>(passes) * scanned * m;
    return w;
  };

  struct VariantRun {
    bool ran = false;
    double seconds = 0.0;
    KernelWork work;
  };
  static constexpr const char* kVariantName[3] = {"aos", "scalar", "simd"};

  const auto measure = [&](const char* row_name, auto&& work_fn) {
    VariantRun runs[3];
    for (int v = 0; v < 3; ++v) {
      if (v == 1) drp::kernels::set_simd_enabled(false);
      if (v == 2) {
        drp::kernels::set_simd_enabled(true);
        if (!drp::kernels::simd_active()) {
          std::printf("  %-21s simd  : unavailable in this build/CPU\n",
                      row_name);
          continue;
        }
      }
      VariantRun& run = runs[v];
      run.ran = true;
      run.seconds = 1e30;
      for (int rep = 0; rep < reps; ++rep) {
        common::Timer timer;
        const KernelWork work = work_fn(v == 0);
        const double s = timer.seconds();
        if (s < run.seconds) {
          run.seconds = s;
          run.work = work;
        }
      }
      const double ns = run.work.items > 0
                            ? run.seconds * 1e9 /
                                  static_cast<double>(run.work.items)
                            : 0.0;
      bench::JsonWriter::Record record;
      record.field("benchmark", row_name)
          .field("servers", static_cast<std::uint64_t>(servers))
          .field("objects", static_cast<std::uint64_t>(objects))
          .field("demand", demand)
          .field("variant", kVariantName[v])
          .field("seconds", run.seconds)
          .field("items", run.work.items)
          .field("ns_per_accessor", ns);
      json.add(std::move(record));
      std::printf("  %-21s %-6s: %.4fs, %.3f ns/item\n", row_name,
                  kVariantName[v], run.seconds, ns);
    }
    drp::kernels::set_simd_enabled(true);

    // FP contract, enforced on the timed workload itself: scalar and simd
    // must land bit for bit on the aos capture's checksums.
    bool identical = true;
    for (int v = 1; v < 3; ++v) {
      if (!runs[v].ran) continue;
      if (!bits_equal(runs[v].work.checksum, runs[0].work.checksum) ||
          !bits_equal(runs[v].work.checksum2, runs[0].work.checksum2) ||
          runs[v].work.items != runs[0].work.items) {
        identical = false;
        std::fprintf(stderr,
                     "FAIL: %s %s diverged from aos: %a/%a vs %a/%a\n",
                     row_name, kVariantName[v], runs[v].work.checksum,
                     runs[v].work.checksum2, runs[0].work.checksum,
                     runs[0].work.checksum2);
      }
    }
    bench::JsonWriter::Record identity;
    identity.field("benchmark", "kernel_identity_check")
        .field("kernel", row_name)
        .field("servers", static_cast<std::uint64_t>(servers))
        .field("objects", static_cast<std::uint64_t>(objects))
        .field("demand", demand)
        .field("ok", identical);
    json.add(std::move(identity));

    bench::JsonWriter::Record speedup;
    speedup.field("benchmark", "kernel_speedup")
        .field("kernel", row_name)
        .field("servers", static_cast<std::uint64_t>(servers))
        .field("objects", static_cast<std::uint64_t>(objects))
        .field("demand", demand)
        .field("aos_seconds", runs[0].seconds)
        .field("scalar_seconds", runs[1].seconds);
    const double scalar_vs_aos =
        runs[1].seconds > 0.0 ? runs[0].seconds / runs[1].seconds : 0.0;
    speedup.field("scalar_vs_aos", scalar_vs_aos);
    if (runs[2].ran) {
      const double simd_vs_aos =
          runs[2].seconds > 0.0 ? runs[0].seconds / runs[2].seconds : 0.0;
      const double simd_vs_scalar =
          runs[2].seconds > 0.0 ? runs[1].seconds / runs[2].seconds : 0.0;
      speedup.field("simd_seconds", runs[2].seconds)
          .field("simd_vs_aos", simd_vs_aos)
          .field("simd_vs_scalar", simd_vs_scalar);
      std::printf("  %-21s speedup: %.2fx scalar, %.2fx simd vs aos\n",
                  row_name, scalar_vs_aos, simd_vs_aos);
    } else {
      std::printf("  %-21s speedup: %.2fx scalar vs aos (no simd)\n",
                  row_name, scalar_vs_aos);
    }
    json.add(std::move(speedup));
    return identical;
  };

  bool ok = true;
  ok = measure("kernel_object_cost", object_cost_work) && ok;
  ok = measure("kernel_nn_min", nn_min_work) && ok;
  ok = measure("kernel_global_benefit", global_benefit_work) && ok;
  ok = measure("kernel_best_add_scan", best_add_work) && ok;
  return ok;
}

// ---------------------------------------------------------------------------
// Regional family (--regional=0 skips).
//
// Two halves.  (1) The shared-placement engines — regional auction,
// cooperative coalitions, two-level hierarchy — timed serial vs sharded on
// the mech- and paper-scale dispersed instances.  Serial and Sharded are
// byte-identical by construction (snapshot-epoch polling, commits in region
// order), so beyond the timing rows the family asserts — nonzero exit —
// that both executions land on the same allocations, charges, and epochs,
// and that the sharded run never loses to serial beyond the same noise
// policy the mechanism rows enforce.  (2) The tiled large-M engine at
// M = 10k-100k: per-(M, R) cell the partition (sampled clustering + tiled
// distance blocks) is built once and reused by the timed serial/sharded
// runs; cells whose distance state would blow the memory budget emit a
// regional_budget_skip row instead of silently capping.
// ---------------------------------------------------------------------------

const char* execution_name(core::RegionalExecution execution) {
  return execution == core::RegionalExecution::Sharded ? "sharded" : "serial";
}

using AllocationList = std::vector<std::pair<drp::ServerId, drp::ObjectIndex>>;

AllocationList extra_allocations(const drp::ReplicaPlacement& placement) {
  AllocationList out;
  const drp::Problem& p = placement.problem();
  for (drp::ObjectIndex k = 0; k < p.object_count(); ++k) {
    for (const drp::ServerId s : placement.replicators(k)) {
      if (s != p.primary[k]) out.emplace_back(s, k);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

struct RegionalEngineOutcome {
  double seconds = 0.0;
  std::size_t epochs = 0;
  std::size_t replicas = 0;
  double charges = 0.0;
  double final_cost = 0.0;
  std::uint64_t reports = 0;
  std::uint64_t wire_bytes = 0;
  AllocationList allocations;
};

RegionalEngineOutcome time_regional_engine(const drp::Problem& p,
                                           const char* variant,
                                           const core::RegionalConfig& cfg,
                                           int repetitions) {
  RegionalEngineOutcome best;
  best.seconds = 1e30;
  for (int rep = 0; rep < repetitions; ++rep) {
    common::Timer timer;
    RegionalEngineOutcome out;
    if (std::strcmp(variant, "hierarchical") == 0) {
      const core::HierarchicalResult result = core::run_hierarchical(p, cfg);
      out.seconds = timer.seconds();
      out.epochs = result.rounds.size();
      out.charges = result.total_charges;
      out.reports = result.top_level_reports;
      out.final_cost = drp::CostModel::total_cost(result.placement);
      out.allocations = extra_allocations(result.placement);
      out.replicas = out.allocations.size();
    } else {
      const core::RegionalResult result =
          std::strcmp(variant, "cooperative") == 0
              ? core::run_regional_cooperative(p, cfg)
              : core::run_regional(p, cfg);
      out.seconds = timer.seconds();
      out.epochs = result.epochs;
      out.replicas = result.replicas_placed();
      for (const core::RegionOutcome& region : result.regions) {
        out.charges += region.charges;
        out.reports += region.reports_polled;
        out.wire_bytes += region.wire_bytes;
      }
      out.final_cost = drp::CostModel::total_cost(result.placement);
      out.allocations = extra_allocations(result.placement);
    }
    if (out.seconds < best.seconds) best = std::move(out);
  }
  return best;
}

bool run_regional_engine_family(bench::JsonWriter& json, const drp::Problem& p,
                                const char* demand, std::uint32_t servers,
                                std::uint32_t objects,
                                bool include_hierarchical, int reps) {
  const double initial = drp::CostModel::initial_cost(p);
  const std::uint32_t regions =
      std::min<std::uint32_t>(32, std::max<std::uint32_t>(2, servers / 8));
  bool ok = true;
  std::vector<const char*> variants = {"regional", "cooperative"};
  if (include_hierarchical) variants.push_back("hierarchical");
  for (const char* variant : variants) {
    RegionalEngineOutcome out[2];  // [serial, sharded]
    for (int e = 0; e < 2; ++e) {
      core::RegionalConfig cfg;
      cfg.regions = regions;
      cfg.seed = 42;
      cfg.execution = e != 0 ? core::RegionalExecution::Sharded
                             : core::RegionalExecution::Serial;
      cfg.parallel_agents = e != 0;
      const bench::ObsSnapshot before = bench::ObsSnapshot::take();
      out[e] = time_regional_engine(p, variant, cfg, reps);
      const bench::ObsSnapshot after = bench::ObsSnapshot::take();
      const double savings =
          initial > 0.0 ? (initial - out[e].final_cost) / initial : 0.0;
      bench::JsonWriter::Record record;
      record.field("benchmark", "regional_engine_run")
          .field("servers", static_cast<std::uint64_t>(servers))
          .field("objects", static_cast<std::uint64_t>(objects))
          .field("demand", demand)
          .field("variant", variant)
          .field("regions", static_cast<std::uint64_t>(regions))
          .field("execution", execution_name(cfg.execution))
          .field("seconds", out[e].seconds)
          .field("epochs", static_cast<std::uint64_t>(out[e].epochs))
          .field("replicas", static_cast<std::uint64_t>(out[e].replicas))
          .field("charges", out[e].charges)
          .field("savings", savings)
          .field("reports_polled", out[e].reports)
          .field("wire_bytes", out[e].wire_bytes)
          .object_field(
              "obs",
              bench::obs_block(
                  bench::regional_decisions(regions, cfg.execution,
                                            std::strcmp(variant,
                                                        "cooperative") == 0,
                                            cfg.parallel_agents),
                  before, after, static_cast<std::uint64_t>(reps)));
      json.add(std::move(record));
      std::printf("regional %ux%u %s R=%u %s/%s: %.4fs, %zu epochs, "
                  "%zu replicas\n",
                  servers, objects, demand, regions, variant,
                  execution_name(cfg.execution), out[e].seconds,
                  out[e].epochs, out[e].replicas);
    }

    // Sharded must reproduce the serial engine byte for byte.
    const bool identical = out[0].allocations == out[1].allocations &&
                           out[0].charges == out[1].charges &&
                           out[0].epochs == out[1].epochs &&
                           out[0].reports == out[1].reports;
    ok = ok && identical;
    bench::JsonWriter::Record identity;
    identity.field("benchmark", "regional_identity_check")
        .field("servers", static_cast<std::uint64_t>(servers))
        .field("objects", static_cast<std::uint64_t>(objects))
        .field("demand", demand)
        .field("variant", variant)
        .field("regions", static_cast<std::uint64_t>(regions))
        .field("ok", identical);
    json.add(std::move(identity));
    if (!identical) {
      std::fprintf(stderr,
                   "FAIL: regional %s sharded diverged from serial on %ux%u "
                   "(%zu vs %zu allocations)\n",
                   variant, servers, objects, out[1].allocations.size(),
                   out[0].allocations.size());
    }

    const bool parallel_ok =
        parallel_within_policy(out[0].seconds, out[1].seconds);
    ok = ok && parallel_ok;
    bench::JsonWriter::Record check;
    check.field("benchmark", "regional_parallel_check")
        .field("servers", static_cast<std::uint64_t>(servers))
        .field("objects", static_cast<std::uint64_t>(objects))
        .field("demand", demand)
        .field("variant", variant)
        .field("regions", static_cast<std::uint64_t>(regions))
        .field("serial_seconds", out[0].seconds)
        .field("parallel_seconds", out[1].seconds)
        .field("tolerance", kParallelTolerance)
        .field("ok", parallel_ok);
    json.add(std::move(check));
    if (!parallel_ok) {
      std::fprintf(stderr,
                   "FAIL: regional %s sharded (%.4fs) slower than serial "
                   "(%.4fs) on %ux%u\n",
                   variant, out[1].seconds, out[0].seconds, servers, objects);
    }
  }

  if (include_hierarchical) {
    // The two-level mechanism is allocation-equivalent to the flat one; pin
    // it on the bench instance, against the sharded execution.
    const auto flat = core::run_agt_ram(p);
    core::RegionalConfig cfg;
    cfg.regions = regions;
    cfg.seed = 42;
    cfg.execution = core::RegionalExecution::Sharded;
    const core::HierarchicalResult hier = core::run_hierarchical(p, cfg);
    bool identical = flat.rounds.size() == hier.rounds.size();
    for (std::size_t r = 0; identical && r < flat.rounds.size(); ++r) {
      identical = flat.rounds[r].winner == hier.rounds[r].winner &&
                  flat.rounds[r].object == hier.rounds[r].object;
    }
    ok = ok && identical;
    bench::JsonWriter::Record identity;
    identity.field("benchmark", "regional_identity_check")
        .field("servers", static_cast<std::uint64_t>(servers))
        .field("objects", static_cast<std::uint64_t>(objects))
        .field("demand", demand)
        .field("variant", "hierarchical_vs_flat")
        .field("regions", static_cast<std::uint64_t>(regions))
        .field("ok", identical);
    json.add(std::move(identity));
    if (!identical) {
      std::fprintf(stderr,
                   "FAIL: hierarchical allocation sequence diverged from the "
                   "flat mechanism on %ux%u\n",
                   servers, objects);
    }
  }
  return ok;
}

struct TiledTimedRun {
  double seconds = 0.0;
  core::TiledRegionalResult result;
};

TiledTimedRun time_regional_tiled(const drp::SparseInstance& instance,
                                  const core::TiledPartition& partition,
                                  const core::TiledRegionalConfig& cfg,
                                  int repetitions) {
  TiledTimedRun best;
  best.seconds = 1e30;
  for (int rep = 0; rep < repetitions; ++rep) {
    common::Timer timer;
    core::TiledRegionalResult result =
        core::run_regional_tiled(instance, partition, cfg);
    const double seconds = timer.seconds();
    if (seconds < best.seconds) {
      best.seconds = seconds;
      best.result = std::move(result);
    }
  }
  return best;
}

bool run_regional_tiled_family(bench::JsonWriter& json,
                               const TrajectoryOptions& opts) {
  const auto budget = static_cast<std::uint64_t>(opts.regional_budget_mb *
                                                 1024.0 * 1024.0);
  const std::uint32_t smallest = *std::min_element(
      opts.regional_servers.begin(), opts.regional_servers.end());
  bool ok = true;
  for (const std::uint32_t servers : opts.regional_servers) {
    const std::uint32_t objects = servers * 2;
    common::Timer build_timer;
    drp::InstanceSpec spec;
    spec.servers = servers;
    spec.objects = objects;
    spec.seed = 42;
    if (servers > 1000) spec.topology = net::TopologyKind::PowerLaw;
    spec.demand = drp::DemandModel::Dispersed;
    spec.readers_per_object = 8.0;
    spec.instance.capacity_fraction = 0.01;
    spec.instance.rw_ratio = 0.9;
    const drp::SparseInstance instance = drp::make_sparse_instance(spec);
    std::printf("tiled instance %ux%u built in %.1fs (no dense closure)\n",
                servers, objects, build_timer.seconds());

    for (const std::uint32_t regions : opts.regional_regions) {
      if (regions >= servers) continue;
      core::TiledRegionalConfig base_cfg;
      base_cfg.regions = regions;
      base_cfg.seed = 42;
      base_cfg.distance_budget_bytes = budget;
      common::Timer partition_timer;
      const core::TiledPartition partition =
          core::make_tiled_partition(instance, base_cfg);
      const double partition_seconds = partition_timer.seconds();
      if (!partition.within_budget) {
        bench::JsonWriter::Record skip;
        skip.field("benchmark", "regional_budget_skip")
            .field("servers", static_cast<std::uint64_t>(servers))
            .field("objects", static_cast<std::uint64_t>(objects))
            .field("regions", static_cast<std::uint64_t>(regions))
            .field("tile_bytes", partition.tile_bytes)
            .field("budget_bytes", budget);
        json.add(std::move(skip));
        std::printf("tiled %ux%u R=%u: SKIPPED — distance tiles need "
                    "%.2f GiB, budget %.2f GiB\n",
                    servers, objects, regions,
                    static_cast<double>(partition.tile_bytes) / (1u << 30),
                    static_cast<double>(budget) / (1u << 30));
        continue;
      }

      // Cooperative shards only at the smallest M (the coalition scan is a
      // full member x object sweep per region — quadratic where the auction
      // is round-bounded); logged so the cap is visible.
      const bool with_cooperative =
          servers == smallest && regions == opts.regional_regions.front();
      for (const bool cooperative : {false, true}) {
        if (cooperative && !with_cooperative) continue;
        const char* variant = cooperative ? "cooperative" : "auction";
        TiledTimedRun out[2];  // [serial, sharded]
        for (int e = 0; e < 2; ++e) {
          core::TiledRegionalConfig cfg = base_cfg;
          cfg.cooperative = cooperative;
          cfg.execution = e != 0 ? core::RegionalExecution::Sharded
                                 : core::RegionalExecution::Serial;
          const bench::ObsSnapshot before = bench::ObsSnapshot::take();
          out[e] =
              time_regional_tiled(instance, partition, cfg, opts.regional_reps);
          const bench::ObsSnapshot after = bench::ObsSnapshot::take();
          const core::TiledRegionalResult& result = out[e].result;
          std::uint64_t reports = 0;
          std::uint64_t wire_bytes = 0;
          std::uint32_t largest = 0;
          for (const core::TiledShardOutcome& shard : result.shards) {
            reports += shard.reports_computed;
            wire_bytes += shard.wire_bytes;
            largest = std::max(largest, shard.member_count);
          }
          bench::JsonWriter::Record record;
          record.field("benchmark", "regional_tiled_run")
              .field("servers", static_cast<std::uint64_t>(servers))
              .field("objects", static_cast<std::uint64_t>(objects))
              .field("demand", "dispersed")
              .field("variant", variant)
              .field("regions", static_cast<std::uint64_t>(regions))
              .field("execution", execution_name(cfg.execution))
              .field("seconds", out[e].seconds)
              .field("partition_seconds", partition_seconds)
              .field("tile_bytes", result.tile_bytes)
              .field("largest_region", static_cast<std::uint64_t>(largest))
              .field("replicas",
                     static_cast<std::uint64_t>(result.replicas_placed()))
              .field("savings", result.savings())
              .field("reports_computed", reports)
              .field("wire_bytes", wire_bytes)
              .object_field(
                  "obs",
                  bench::obs_block(
                      bench::regional_decisions(regions, cfg.execution,
                                                cooperative,
                                                cfg.parallel_agents),
                      before, after,
                      static_cast<std::uint64_t>(opts.regional_reps)));
          json.add(std::move(record));
          std::printf("tiled %ux%u R=%u %s/%s: %.3fs (+%.1fs partition), "
                      "%zu replicas, %.1f%% savings, %.2f GiB tiles\n",
                      servers, objects, regions, variant,
                      execution_name(cfg.execution), out[e].seconds,
                      partition_seconds, result.replicas_placed(),
                      result.savings() * 100.0,
                      static_cast<double>(result.tile_bytes) / (1u << 30));
        }

        const bool identical =
            out[0].result.allocations == out[1].result.allocations &&
            out[0].result.final_cost == out[1].result.final_cost &&
            out[0].result.initial_cost == out[1].result.initial_cost;
        ok = ok && identical;
        bench::JsonWriter::Record identity;
        identity.field("benchmark", "regional_identity_check")
            .field("servers", static_cast<std::uint64_t>(servers))
            .field("objects", static_cast<std::uint64_t>(objects))
            .field("demand", "dispersed")
            .field("variant", std::string("tiled_") + variant)
            .field("regions", static_cast<std::uint64_t>(regions))
            .field("ok", identical);
        json.add(std::move(identity));
        if (!identical) {
          std::fprintf(stderr,
                       "FAIL: tiled %s sharded diverged from serial on %ux%u "
                       "R=%u\n",
                       variant, servers, objects, regions);
        }

        const bool parallel_ok =
            parallel_within_policy(out[0].seconds, out[1].seconds);
        ok = ok && parallel_ok;
        bench::JsonWriter::Record check;
        check.field("benchmark", "regional_parallel_check")
            .field("servers", static_cast<std::uint64_t>(servers))
            .field("objects", static_cast<std::uint64_t>(objects))
            .field("demand", "dispersed")
            .field("variant", std::string("tiled_") + variant)
            .field("regions", static_cast<std::uint64_t>(regions))
            .field("serial_seconds", out[0].seconds)
            .field("parallel_seconds", out[1].seconds)
            .field("tolerance", kParallelTolerance)
            .field("ok", parallel_ok);
        json.add(std::move(check));
        if (!parallel_ok) {
          std::fprintf(stderr,
                       "FAIL: tiled %s sharded (%.3fs) slower than serial "
                       "(%.3fs) on %ux%u R=%u\n",
                       variant, out[1].seconds, out[0].seconds, servers,
                       objects, regions);
        }
      }
    }
  }
  return ok;
}

// ---------------------------------------------------------------------------
// Online re-convergence family (DESIGN.md §12): a long-lived OnlineMechanism
// absorbs a seeded mean-field event stream (demand drift, replica loss,
// server fail/join, object churn) and repairs incrementally after each
// batch.  Three comparisons per scale, all emitted as rows:
//
//  * online_event_run       — wall time of apply_events across the stream
//                             (steady state: the initial solve is excluded
//                             and reported separately on the row),
//  * online_fromscratch_run — one cold run_agt_ram on the drifted instance:
//                             what a system without the engine pays per
//                             event to stay converged,
//  * online_speedup         — from-scratch seconds over online seconds per
//                             event, gated >= 20x at mech scale and >= 50x
//                             at paper scale (skipped below mech scale),
//  * online_identity_check  — a second, untimed pass with the differential
//                             oracle ON: every drained batch re-solved with
//                             full participation and compared byte for byte.

/// Speedup floors, applied only at the scales they were calibrated for;
/// smoke-scale runs record the speedup without gating it.
constexpr double kOnlineSpeedupFloorMech = 20.0;
constexpr double kOnlineSpeedupFloorPaper = 50.0;

struct OnlineStreamOutcome {
  double seconds = 0.0;          ///< sum of apply_events wall time
  double initial_seconds = 0.0;  ///< constructor (initial full solve)
  std::uint64_t batches = 0;
  std::uint64_t events = 0;
  std::uint64_t dirty_agents = 0;
  std::uint64_t max_dirty_agents = 0;
  std::uint64_t repair_rounds = 0;
  std::uint64_t replicas_added = 0;
  std::uint64_t replicas_lost = 0;
  std::uint64_t reports_computed = 0;
  std::uint64_t candidate_evaluations = 0;
  double final_cost = 0.0;
};

/// One full pass over a fresh engine + fresh source (the stream is
/// deterministic per seed, so repetitions re-time identical work).  Returns
/// the engine so the caller can re-solve the drifted instance from scratch.
std::unique_ptr<core::OnlineMechanism> run_online_pass(
    const drp::Problem& p, const core::OnlineConfig& cfg,
    const runtime::OnlineEventModel& model, int batches,
    OnlineStreamOutcome& out) {
  common::Timer initial_timer;
  auto engine = std::make_unique<core::OnlineMechanism>(p, cfg);
  out.initial_seconds = initial_timer.seconds();
  runtime::OnlineEventSource source(*engine, model);
  for (int b = 0; b < batches; ++b) {
    const std::vector<core::OnlineEvent> batch = source.next_batch();
    common::Timer timer;
    const core::BatchOutcome res = engine->apply_events(batch);
    out.seconds += timer.seconds();
    ++out.batches;
    out.events += res.events_applied;
    out.dirty_agents += res.dirty_agents;
    out.max_dirty_agents =
        std::max<std::uint64_t>(out.max_dirty_agents, res.dirty_agents);
    out.repair_rounds += res.repair_rounds;
    out.replicas_added += res.replicas_added;
    out.replicas_lost += res.replicas_lost;
    out.reports_computed += res.reports_computed;
    out.candidate_evaluations += res.candidate_evaluations;
    out.final_cost = res.total_cost;
  }
  return engine;
}

bool run_online_family(bench::JsonWriter& json, const drp::Problem& p,
                       std::uint32_t servers, std::uint32_t objects,
                       int batches, int oracle_batches, int reps,
                       double speedup_floor) {
  core::OnlineConfig cfg;  // unbounded repair, oracle off for the timed pass
  runtime::OnlineEventModel model;
  model.seed = 42;

  const bench::ObsSnapshot before = bench::ObsSnapshot::take();
  OnlineStreamOutcome best;
  best.seconds = 1e30;
  std::unique_ptr<core::OnlineMechanism> engine;
  for (int rep = 0; rep < reps; ++rep) {
    OnlineStreamOutcome out;
    std::unique_ptr<core::OnlineMechanism> e =
        run_online_pass(p, cfg, model, batches, out);
    if (out.seconds < best.seconds) {
      best = out;
      engine = std::move(e);
    }
  }
  const bench::ObsSnapshot after = bench::ObsSnapshot::take();

  const double per_batch =
      best.batches > 0 ? best.seconds / static_cast<double>(best.batches) : 0.0;
  const double per_event =
      best.events > 0 ? best.seconds / static_cast<double>(best.events) : 0.0;
  bench::JsonWriter::Record stream;
  stream.field("benchmark", "online_event_run")
      .field("servers", static_cast<std::uint64_t>(servers))
      .field("objects", static_cast<std::uint64_t>(objects))
      .field("demand", "dispersed")
      .field("seconds", best.seconds)
      .field("initial_solve_seconds", best.initial_seconds)
      .field("batches", best.batches)
      .field("events", best.events)
      .field("seconds_per_batch", per_batch)
      .field("seconds_per_event", per_event)
      .field("dirty_agents", best.dirty_agents)
      .field("max_dirty_agents", best.max_dirty_agents)
      .field("repair_rounds", best.repair_rounds)
      .field("replicas_added", best.replicas_added)
      .field("replicas_lost", best.replicas_lost)
      .field("reports_computed", best.reports_computed)
      .field("candidate_evaluations", best.candidate_evaluations)
      .field("final_cost", best.final_cost)
      .object_field("obs",
                    bench::obs_block(bench::online_decisions(
                                         cfg, static_cast<std::uint64_t>(
                                                  batches)),
                                     before, after,
                                     static_cast<std::uint64_t>(reps)));
  json.add(std::move(stream));
  std::printf("online %ux%u: %llu events in %llu batches, %.4fs total "
              "(%.2f us/event), %llu repair rounds, %llu dirty agents\n",
              servers, objects, static_cast<unsigned long long>(best.events),
              static_cast<unsigned long long>(best.batches), best.seconds,
              per_event * 1e6,
              static_cast<unsigned long long>(best.repair_rounds),
              static_cast<unsigned long long>(best.dirty_agents));

  // The cost baseline: one cold run_agt_ram on the drifted instance — what
  // every event would cost without the engine.  Not a placement oracle (the
  // greedy round sequence is path-dependent and the mechanism never
  // evicts); the byte-identity oracle below is the correctness check.
  const drp::Problem& drifted = engine->problem();
  ModeOutcome scratch;
  scratch.seconds = 1e30;
  for (int rep = 0; rep < reps; ++rep) {
    common::Timer timer;
    const core::MechanismResult result =
        core::run_agt_ram(drifted, cfg.mechanism);
    const double seconds = timer.seconds();
    if (seconds < scratch.seconds) {
      scratch.seconds = seconds;
      scratch.rounds = result.rounds.size();
      scratch.evaluations = result.candidate_evaluations;
      scratch.reports = result.reports_computed;
      scratch.resolved = result.resolved_mode;
    }
  }
  bench::JsonWriter::Record fromscratch;
  fromscratch.field("benchmark", "online_fromscratch_run")
      .field("servers", static_cast<std::uint64_t>(servers))
      .field("objects", static_cast<std::uint64_t>(objects))
      .field("demand", "dispersed")
      .field("seconds", scratch.seconds)
      .field("rounds", scratch.rounds)
      .field("candidate_evaluations", scratch.evaluations)
      .field("reports_computed", scratch.reports)
      .field("report_mode_resolved",
             bench::report_mode_name(scratch.resolved));
  json.add(std::move(fromscratch));
  std::printf("online %ux%u from-scratch re-solve: %.4fs, %llu rounds\n",
              servers, objects, scratch.seconds,
              static_cast<unsigned long long>(scratch.rounds));

  const double speedup_event =
      per_event > 0.0 ? scratch.seconds / per_event : 0.0;
  const double speedup_batch =
      per_batch > 0.0 ? scratch.seconds / per_batch : 0.0;
  const bool gated = speedup_floor > 0.0;
  const bool speedup_ok = !gated || speedup_event >= speedup_floor;
  bench::JsonWriter::Record speedup;
  speedup.field("benchmark", "online_speedup")
      .field("servers", static_cast<std::uint64_t>(servers))
      .field("objects", static_cast<std::uint64_t>(objects))
      .field("demand", "dispersed")
      .field("fromscratch_seconds", scratch.seconds)
      .field("online_seconds_per_event", per_event)
      .field("online_seconds_per_batch", per_batch)
      .field("speedup_per_event", speedup_event)
      .field("speedup_per_batch", speedup_batch)
      .field("floor", speedup_floor)
      .field("gated", gated)
      .field("ok", speedup_ok);
  json.add(std::move(speedup));
  std::printf("online %ux%u speedup: %.0fx/event, %.0fx/batch (floor %s%.0fx)\n",
              servers, objects, speedup_event, speedup_batch,
              gated ? "" : "ungated ", speedup_floor);
  if (!speedup_ok) {
    std::fprintf(stderr,
                 "FAIL: online re-convergence on %ux%u only %.1fx cheaper "
                 "per event than from-scratch (floor %.0fx)\n",
                 servers, objects, speedup_event, speedup_floor);
  }

  // Byte-identity pass: oracle ON, fresh engine, fresh stream (different
  // seed so the two passes don't share a trajectory).  apply_events throws
  // std::logic_error on the first byte that differs from the
  // full-participation re-solve.
  bool identity_ok = true;
  std::string identity_why;
  std::uint64_t oracle_events = 0;
  std::uint64_t oracle_checks = 0;
  try {
    core::OnlineConfig oracle_cfg = cfg;
    oracle_cfg.differential_oracle = true;
    runtime::OnlineEventModel oracle_model = model;
    oracle_model.seed = 43;
    core::OnlineMechanism oracle_engine(p, oracle_cfg);
    runtime::OnlineEventSource oracle_source(oracle_engine, oracle_model);
    for (int b = 0; b < oracle_batches; ++b) {
      const std::vector<core::OnlineEvent> batch = oracle_source.next_batch();
      const core::BatchOutcome res = oracle_engine.apply_events(batch);
      oracle_events += res.events_applied;
      if (res.oracle_checked) ++oracle_checks;
    }
  } catch (const std::exception& e) {
    identity_ok = false;
    identity_why = e.what();
  }
  bench::JsonWriter::Record identity;
  identity.field("benchmark", "online_identity_check")
      .field("servers", static_cast<std::uint64_t>(servers))
      .field("objects", static_cast<std::uint64_t>(objects))
      .field("demand", "dispersed")
      .field("batches", static_cast<std::uint64_t>(oracle_batches))
      .field("events", oracle_events)
      .field("oracle_checks", oracle_checks)
      .field("ok", identity_ok);
  json.add(std::move(identity));
  if (identity_ok) {
    std::printf("online %ux%u identity: %llu oracle re-solves, all "
                "byte-identical\n",
                servers, objects,
                static_cast<unsigned long long>(oracle_checks));
  } else {
    std::fprintf(stderr,
                 "FAIL: online engine diverged from the full-participation "
                 "re-solve on %ux%u: %s\n",
                 servers, objects, identity_why.c_str());
  }
  return speedup_ok && identity_ok;
}

// ---------------------------------------------------------------------------
// Serving-layer family (DESIGN.md §13): srv::ServingEngine replays the same
// drifting synthetic request stream — millions of routed reads/writes — under
// each re-convergence policy and reports what the serving plane observes:
//  * serving_replay_run     — OnDrift: drift-triggered OnlineMechanism
//                             repair + bounded eviction; routing throughput,
//                             sampled query latency, the exact read-cost
//                             distribution, and the wire-byte split,
//  * serving_static_run     — solve once, never re-converge (the
//                             placement-quality floor under drift),
//  * serving_resolve_run    — cold full re-solve after every batch (what
//                             staying converged costs without the engine),
//  * serving_speedup        — resolve re-convergence seconds over OnDrift
//                             re-convergence seconds on identical streams,
//                             gated >= 10x at mech scale,
//  * serving_identity_check — the final OnDrift snapshot scanned cell for
//                             cell against the naive nearest-replica oracle.

/// Speedup floor, applied only at the scale it was calibrated for.
constexpr double kServingSpeedupFloorMech = 10.0;

struct ServingOutcome {
  std::unique_ptr<runtime::MessageBus> bus;
  std::unique_ptr<srv::ServingEngine> engine;
};

srv::ServingConfig serving_config(srv::ReconvergePolicy policy,
                                  runtime::MessageBus* bus) {
  srv::ServingConfig cfg;
  cfg.policy = policy;
  cfg.eviction_limit = 32;
  cfg.bus = bus;
  return cfg;
}

srv::WorkloadConfig serving_workload(std::uint32_t objects) {
  srv::WorkloadConfig w;
  w.requests_per_batch = 4096;
  w.mean_count = 8;
  w.drift_interval = 2;
  w.drift_fraction = 0.5;
  // Redirect 1/4 of the catalogue per step: the trigger's L1 signal scales
  // with the fraction of objects moved, so a fixed count would vanish at
  // mech scale and a mild schedule would sit inside the sampling-noise
  // floor for the whole stream.
  w.drift_objects = std::max<std::size_t>(16, objects / 4);
  w.seed = 1234;
  return w;
}

/// One full stream replay under `policy`; the stream is deterministic per
/// seed, so repetitions re-time identical work.  The bus outlives the engine
/// (the engine charges serving wire kinds to it during run_batch).
ServingOutcome run_serving_pass(const drp::Problem& p,
                                srv::ReconvergePolicy policy, int batches) {
  ServingOutcome out;
  out.bus = std::make_unique<runtime::MessageBus>(
      p, runtime::MessageBus::pick_centre(p));
  out.engine = std::make_unique<srv::ServingEngine>(
      drp::Problem(p), serving_config(policy, out.bus.get()));
  srv::SyntheticWorkload workload(
      out.engine->problem(),
      serving_workload(static_cast<std::uint32_t>(p.object_count())));
  std::vector<srv::Request> batch;
  for (int b = 0; b < batches; ++b) {
    workload.next_batch(batch);
    out.engine->run_batch(batch);
  }
  return out;
}

bool run_serving_family(bench::JsonWriter& json, const drp::Problem& p,
                        std::uint32_t servers, std::uint32_t objects,
                        int batches, int reps, double speedup_floor) {
  const auto run_best = [&](srv::ReconvergePolicy policy) {
    ServingOutcome best;
    for (int rep = 0; rep < reps; ++rep) {
      ServingOutcome out = run_serving_pass(p, policy, batches);
      if (!best.engine || out.engine->stats().total_seconds() <
                              best.engine->stats().total_seconds()) {
        best = std::move(out);
      }
    }
    return best;
  };

  const auto policy_row = [&](const char* name, const ServingOutcome& out,
                              bench::JsonWriter::Record* obs) {
    srv::ServingStats stats = out.engine->stats();  // summaries sort in place
    const bench::PercentileSummary query =
        bench::summarize_samples(stats.query_ns);
    const bench::PercentileSummary cost =
        bench::summarize_histogram(stats.read_cost_histogram);
    const runtime::MessageStats& wire = out.bus->stats();
    bench::JsonWriter::Record row;
    row.field("benchmark", name)
        .field("servers", static_cast<std::uint64_t>(servers))
        .field("objects", static_cast<std::uint64_t>(objects))
        .field("demand", "dispersed")
        .field("batches", stats.batches)
        .field("requests", stats.requests)
        .field("reads", stats.reads)
        .field("writes", stats.writes)
        .field("seconds", stats.total_seconds())
        .field("serve_seconds", stats.serve_seconds)
        .field("reconverge_seconds", stats.reconverge_seconds)
        .field("requests_per_second",
               stats.serve_seconds > 0.0
                   ? static_cast<double>(stats.requests) / stats.serve_seconds
                   : 0.0)
        .field("query_p50_ns", query.p50)
        .field("query_p99_ns", query.p99)
        .field("read_cost_mean", cost.mean)
        .field("read_cost_p99", cost.p99)
        .field("local_read_fraction",
               stats.reads > 0
                   ? static_cast<double>(stats.local_reads) /
                         static_cast<double>(stats.reads)
                   : 0.0)
        .field("units_moved", stats.read_units + stats.write_units)
        .field("installs", stats.installs)
        .field("drift_triggers", stats.drift_triggers)
        .field("reconverges", stats.reconverges)
        .field("repair_rounds", stats.repair_rounds)
        .field("replicas_evicted", stats.replicas_evicted)
        .field("demand_delta_cells", stats.demand_delta_cells)
        .field("route_bytes", wire.route_bytes)
        .field("delta_bytes", wire.delta_bytes)
        .field("install_bytes", wire.install_bytes);
    if (obs != nullptr) row.object_field("obs", *obs);
    json.add(std::move(row));
    std::printf("serving %ux%u %s: %llu requests, %.0f req/s, read cost "
                "%.2f mean / %.0f p99, %llu reconverges (%.3fs), %llu "
                "evicted\n",
                servers, objects, name,
                static_cast<unsigned long long>(stats.requests),
                stats.serve_seconds > 0.0
                    ? static_cast<double>(stats.requests) / stats.serve_seconds
                    : 0.0,
                cost.mean, cost.p99,
                static_cast<unsigned long long>(stats.reconverges),
                stats.reconverge_seconds,
                static_cast<unsigned long long>(stats.replicas_evicted));
  };

  // The system under test, instrumented; keep the best engine alive for the
  // identity scan below.
  const bench::ObsSnapshot before = bench::ObsSnapshot::take();
  const ServingOutcome ondrift = run_best(srv::ReconvergePolicy::OnDrift);
  const bench::ObsSnapshot after = bench::ObsSnapshot::take();
  bench::JsonWriter::Record obs = bench::obs_block(
      bench::serving_decisions(serving_config(srv::ReconvergePolicy::OnDrift,
                                              nullptr),
                               static_cast<std::uint64_t>(batches)),
      before, after, static_cast<std::uint64_t>(reps));
  policy_row("serving_replay_run", ondrift, &obs);

  const ServingOutcome stat = run_best(srv::ReconvergePolicy::Static);
  policy_row("serving_static_run", stat, nullptr);
  const ServingOutcome resolve = run_best(srv::ReconvergePolicy::EveryBatch);
  policy_row("serving_resolve_run", resolve, nullptr);

  // Re-convergence cost head to head on identical streams.  The gate also
  // requires OnDrift to have actually re-converged: a trigger that never
  // fires under this much drift would make the ratio vacuous while read
  // cost silently degrades toward the static floor.
  const double resolve_reconv = resolve.engine->stats().reconverge_seconds;
  const double ondrift_reconv = ondrift.engine->stats().reconverge_seconds;
  const std::uint64_t reconverges = ondrift.engine->stats().reconverges;
  const double speedup =
      ondrift_reconv > 0.0 ? resolve_reconv / ondrift_reconv : 0.0;
  const double total_speedup =
      ondrift.engine->stats().total_seconds() > 0.0
          ? resolve.engine->stats().total_seconds() /
                ondrift.engine->stats().total_seconds()
          : 0.0;
  const bool gated = speedup_floor > 0.0;
  const bool speedup_ok =
      !gated || (reconverges > 0 && speedup >= speedup_floor);
  bench::JsonWriter::Record sp;
  sp.field("benchmark", "serving_speedup")
      .field("servers", static_cast<std::uint64_t>(servers))
      .field("objects", static_cast<std::uint64_t>(objects))
      .field("demand", "dispersed")
      .field("resolve_reconverge_seconds", resolve_reconv)
      .field("ondrift_reconverge_seconds", ondrift_reconv)
      .field("ondrift_reconverges", reconverges)
      .field("speedup", speedup)
      .field("total_speedup", total_speedup)
      .field("floor", speedup_floor)
      .field("gated", gated)
      .field("ok", speedup_ok);
  json.add(std::move(sp));
  std::printf("serving %ux%u speedup: %.0fx re-convergence, %.1fx "
              "end-to-end (floor %s%.0fx)\n",
              servers, objects, speedup, total_speedup,
              gated ? "" : "ungated ", speedup_floor);
  if (!speedup_ok) {
    std::fprintf(stderr,
                 "FAIL: drift-triggered re-convergence on %ux%u only %.1fx "
                 "cheaper than re-solve-every-batch across %llu reconverges "
                 "(floor %.0fx)\n",
                 servers, objects, speedup,
                 static_cast<unsigned long long>(reconverges), speedup_floor);
  }

  // Byte-identity of the routing plane: every structural cell of the final
  // OnDrift snapshot must route exactly like the naive nearest-replica scan
  // over the live placement.
  bool identity_ok = true;
  std::string identity_why;
  std::uint64_t cells = 0;
  {
    const srv::RoutingSnapshot* snap = ondrift.engine->snapshot();
    const drp::ReplicaPlacement& placement = ondrift.engine->placement();
    const drp::Problem& q = ondrift.engine->problem();
    for (drp::ObjectIndex k = 0;
         identity_ok && k < q.object_count(); ++k) {
      const auto cell_servers = q.access.accessor_servers(k);
      for (std::size_t slot = 0; slot < cell_servers.size(); ++slot) {
        const srv::RouteDecision route =
            snap->route_read(k, static_cast<std::uint32_t>(slot));
        net::Cost best = std::numeric_limits<net::Cost>::max();
        for (const drp::ServerId r : placement.replicators(k)) {
          best = std::min(best, q.distance(cell_servers[slot], r));
        }
        if (route.distance != best ||
            !placement.is_replicator(route.server, k) ||
            q.distance(cell_servers[slot], route.server) != route.distance) {
          identity_ok = false;
          identity_why = "object " + std::to_string(k) + " slot " +
                         std::to_string(slot);
          break;
        }
        ++cells;
      }
    }
  }
  bench::JsonWriter::Record identity;
  identity.field("benchmark", "serving_identity_check")
      .field("servers", static_cast<std::uint64_t>(servers))
      .field("objects", static_cast<std::uint64_t>(objects))
      .field("demand", "dispersed")
      .field("cells", cells)
      .field("epoch", ondrift.engine->snapshot()->epoch())
      .field("ok", identity_ok);
  json.add(std::move(identity));
  if (identity_ok) {
    std::printf("serving %ux%u identity: %llu cells match the naive scan\n",
                servers, objects, static_cast<unsigned long long>(cells));
  } else {
    std::fprintf(stderr,
                 "FAIL: serving snapshot diverged from the naive "
                 "nearest-replica scan on %ux%u at %s\n",
                 servers, objects, identity_why.c_str());
  }
  return speedup_ok && identity_ok;
}

// ---------------------------------------------------------------------------
// Strategic family: core::strategic_audit on one instance —
//  * strategic_audit_run       — wall time of the full sweep (truthful run +
//                                one mechanism run per (agent, factor) trial
//                                + the collusion ring and its reversions),
//  * strategic_dominance_check — the exact per-round invariant: in no
//                                audited round did a misreporting agent's
//                                bid beat what truth would have realised
//                                (nonzero exit on violation),
//  * misreport_damage_run      — the same lies aimed at each demand-
//                                consuming baseline (plan on the lie, score
//                                on the truth),
//  * strategic_damage_check    — at least one baseline shows measurable
//                                damage (AGT-RAM rows are context, not
//                                gated: its allocation reacts to lies too,
//                                but lying is irrational under it).

bool run_strategic_family(bench::JsonWriter& json, const drp::Problem& p,
                          const char* demand, std::uint32_t servers,
                          std::uint32_t objects, int reps) {
  core::StrategicAuditConfig cfg;
  cfg.agents_to_probe = 2;
  cfg.inflate_factors = {2.0};
  cfg.deflate_factors = {0.0, 0.5};
  cfg.collusion_size = 3;

  const bench::ObsSnapshot before = bench::ObsSnapshot::take();
  double seconds = 1e30;
  core::StrategicAuditReport report;
  for (int rep = 0; rep < reps; ++rep) {
    common::Timer timer;
    core::StrategicAuditReport r = core::strategic_audit(p, cfg);
    const double s = timer.seconds();
    if (s < seconds) seconds = s;
    if (rep == 0) report = std::move(r);  // deterministic: all reps agree
  }
  const bench::ObsSnapshot after = bench::ObsSnapshot::take();

  std::size_t round_checks = 0;
  double min_round_margin = 0.0;
  for (const core::StrategicTrial& trial : report.trials) {
    round_checks += trial.rounds_checked;
    min_round_margin = std::min(min_round_margin, trial.min_round_margin);
  }
  bench::JsonWriter::Record run;
  run.field("benchmark", "strategic_audit_run")
      .field("servers", static_cast<std::uint64_t>(servers))
      .field("objects", static_cast<std::uint64_t>(objects))
      .field("demand", demand)
      .field("seconds", seconds)
      .field("trials", static_cast<std::uint64_t>(report.trials.size()))
      .field("rounds_checked", static_cast<std::uint64_t>(round_checks))
      .field("round_violations",
             static_cast<std::uint64_t>(report.total_round_violations))
      .field("min_round_margin", min_round_margin)
      .field("min_full_game_margin", report.min_full_game_margin)
      .field("truthful_revenue", report.collusion.truthful_revenue)
      .field("collusive_revenue", report.collusion.collusive_revenue)
      .object_field("obs",
                    bench::obs_block(bench::strategic_decisions(cfg), before,
                                     after, static_cast<std::uint64_t>(reps)));
  json.add(std::move(run));
  std::printf("strategic %ux%u %s: %zu trials, %zu round checks, %zu "
              "violations, %.4fs\n",
              servers, objects, demand, report.trials.size(), round_checks,
              report.total_round_violations, seconds);

  const bool dominance_ok = report.dominance_holds;
  bench::JsonWriter::Record check;
  check.field("benchmark", "strategic_dominance_check")
      .field("servers", static_cast<std::uint64_t>(servers))
      .field("objects", static_cast<std::uint64_t>(objects))
      .field("demand", demand)
      .field("trials", static_cast<std::uint64_t>(report.trials.size()))
      .field("round_violations",
             static_cast<std::uint64_t>(report.total_round_violations))
      .field("ok", dominance_ok);
  json.add(std::move(check));
  if (!dominance_ok) {
    std::fprintf(stderr,
                 "FAIL: per-round dominance violated on %ux%u %s (%zu "
                 "violations across %zu trials)\n",
                 servers, objects, demand, report.total_round_violations,
                 report.trials.size());
  }

  // The same lies aimed at the baselines: zero out every probed agent's
  // demand claim (the strongest misreport the audit swept) and let each
  // demand-consuming algorithm plan on the lie.
  core::StrategyProfile lie;
  {
    std::vector<drp::ServerId> probed;
    for (const core::StrategicTrial& trial : report.trials) {
      if (probed.empty() || probed.back() != trial.agent) {
        probed.push_back(trial.agent);
      }
    }
    for (const drp::ServerId who : probed) {
      lie.deviations.push_back(
          core::Deviation{who, core::DeviationKind::Zero, 1.0});
    }
  }
  const std::vector<std::string> victims = {"Greedy", "GRA", "DA", "EA",
                                            "AGT-RAM"};
  const auto damage_rows =
      baselines::misreport_damage(p, lie, victims, /*seed=*/7);
  double max_damage = 0.0;
  bool any_damage = false;
  for (const auto& row : damage_rows) {
    const bool gated = row.algorithm != "AGT-RAM";
    const double tolerance =
        1e-6 * std::max(1.0, std::abs(row.truthful_savings));
    if (gated && row.damage() > tolerance) {
      any_damage = true;
      max_damage = std::max(max_damage, row.damage());
    }
    bench::JsonWriter::Record damage;
    damage.field("benchmark", "misreport_damage_run")
        .field("algorithm", row.algorithm)
        .field("servers", static_cast<std::uint64_t>(servers))
        .field("objects", static_cast<std::uint64_t>(objects))
        .field("demand", demand)
        .field("truthful_savings", row.truthful_savings)
        .field("misreport_savings", row.misreport_savings)
        .field("damage", row.damage())
        .field("skipped_infeasible",
               static_cast<std::uint64_t>(row.skipped_infeasible))
        .field("gated", gated);
    json.add(std::move(damage));
    std::printf("  misreport damage %-8s: savings %.4f -> %.4f (%.4f lost)\n",
                row.algorithm.c_str(), row.truthful_savings,
                row.misreport_savings, row.damage());
  }
  bench::JsonWriter::Record damage_check;
  damage_check.field("benchmark", "strategic_damage_check")
      .field("servers", static_cast<std::uint64_t>(servers))
      .field("objects", static_cast<std::uint64_t>(objects))
      .field("demand", demand)
      .field("max_damage", max_damage)
      .field("ok", any_damage);
  json.add(std::move(damage_check));
  if (!any_damage) {
    std::fprintf(stderr,
                 "FAIL: no baseline showed measurable misreport damage on "
                 "%ux%u %s\n",
                 servers, objects, demand);
  }
  return dominance_ok && any_damage;
}

// ---------------------------------------------------------------------------
// Glauber family: the distributed heat-bath baseline —
//  * glauber_run            — Delta pricing (timed, wired to a MessageBus)
//                             and the naive mutate-measure-undo oracle,
//  * glauber_identity_check — Delta and Naive walk bit-identical chains,
//                             identical seeds give identical trajectories,
//                             and every proposal/decision is accounted on
//                             the bus with nonzero wire bytes (nonzero exit
//                             when any of the three fails).

bool run_glauber_family(bench::JsonWriter& json, const drp::Problem& p,
                        const char* demand, std::uint32_t servers,
                        std::uint32_t objects, int sweeps, int reps) {
  const double initial = drp::CostModel::initial_cost(p);
  baselines::GlauberConfig cfg;
  cfg.seed = 7;
  cfg.sweeps = static_cast<std::size_t>(sweeps);

  struct Timed {
    double seconds = 1e30;
    double final_cost = 0.0;
    std::size_t proposals = 0;
    std::size_t accepted = 0;
  };
  std::optional<drp::ReplicaPlacement> placements[2];
  Timed timed[2];  // [0] = delta, [1] = naive oracle
  runtime::MessageStats wire_stats;
  for (int v = 0; v < 2; ++v) {
    baselines::GlauberConfig variant = cfg;
    variant.eval =
        v == 0 ? baselines::EvalPath::Delta : baselines::EvalPath::Naive;
    const int runs = v == 0 ? reps : 1;  // the oracle re-prices everything
    const bench::ObsSnapshot before = bench::ObsSnapshot::take();
    for (int rep = 0; rep < runs; ++rep) {
      runtime::MessageBus bus(p, runtime::MessageBus::pick_centre(p));
      variant.bus = &bus;
      common::Timer timer;
      baselines::GlauberResult result = baselines::run_glauber(p, variant);
      const double s = timer.seconds();
      if (s < timed[v].seconds) timed[v].seconds = s;
      if (rep == 0) {  // deterministic: every rep lands on the same chain
        timed[v].final_cost = result.final_cost;
        timed[v].proposals = result.proposals;
        timed[v].accepted = result.accepted;
        placements[v].emplace(std::move(result.placement));
        wire_stats = bus.stats();
      }
    }
    const bench::ObsSnapshot after = bench::ObsSnapshot::take();

    bench::JsonWriter::Record run;
    run.field("benchmark", "glauber_run")
        .field("servers", static_cast<std::uint64_t>(servers))
        .field("objects", static_cast<std::uint64_t>(objects))
        .field("demand", demand)
        .field("eval", v == 0 ? "delta" : "naive")
        .field("seconds", timed[v].seconds)
        .field("sweeps", static_cast<std::uint64_t>(sweeps))
        .field("proposals", static_cast<std::uint64_t>(timed[v].proposals))
        .field("accepted", static_cast<std::uint64_t>(timed[v].accepted))
        .field("final_cost", timed[v].final_cost)
        .field("savings",
               initial > 0.0 ? (initial - timed[v].final_cost) / initial
                             : 0.0)
        .field("wire_proposal_msgs", wire_stats.glauber_proposal_messages)
        .field("wire_proposal_bytes", wire_stats.glauber_proposal_bytes)
        .field("wire_decision_msgs", wire_stats.glauber_decision_messages)
        .field("wire_decision_bytes", wire_stats.glauber_decision_bytes)
        .object_field(
            "obs", bench::obs_block(bench::glauber_decisions(variant), before,
                                    after,
                                    static_cast<std::uint64_t>(runs)));
    json.add(std::move(run));
    std::printf("glauber %ux%u %s %s: %.4fs, %zu proposals, %zu accepted, "
                "cost %.0f\n",
                servers, objects, demand, v == 0 ? "delta" : "naive",
                timed[v].seconds, timed[v].proposals, timed[v].accepted,
                timed[v].final_cost);
  }

  // Identity: the naive oracle consumed the same rng stream, so everything
  // downstream of the pricing must match bit for bit.
  bool identity_ok = timed[0].final_cost == timed[1].final_cost &&
                     timed[0].proposals == timed[1].proposals &&
                     timed[0].accepted == timed[1].accepted;
  for (drp::ObjectIndex k = 0; identity_ok && k < p.object_count(); ++k) {
    const auto a = placements[0]->replicators(k);
    const auto b = placements[1]->replicators(k);
    identity_ok = a.size() == b.size() &&
                  std::equal(a.begin(), a.end(), b.begin());
  }

  // Determinism: a fresh run with the same seed repeats the chain exactly.
  baselines::GlauberConfig repeat = cfg;
  repeat.eval = baselines::EvalPath::Delta;
  const baselines::GlauberResult again = baselines::run_glauber(p, repeat);
  const bool deterministic = again.final_cost == timed[0].final_cost &&
                             again.proposals == timed[0].proposals &&
                             again.accepted == timed[0].accepted;

  // Wire accounting: one proposal up and one decision back per evaluated
  // flip, nonzero per-kind bytes (the baseline runs over the bus, not
  // beside it).
  const bool wire_ok =
      wire_stats.glauber_proposal_messages == timed[1].proposals &&
      wire_stats.glauber_decision_messages == timed[1].proposals &&
      wire_stats.glauber_proposal_bytes > 0 &&
      wire_stats.glauber_decision_bytes > 0;

  const bool ok = identity_ok && deterministic && wire_ok;
  bench::JsonWriter::Record check;
  check.field("benchmark", "glauber_identity_check")
      .field("servers", static_cast<std::uint64_t>(servers))
      .field("objects", static_cast<std::uint64_t>(objects))
      .field("demand", demand)
      .field("identity_ok", identity_ok)
      .field("deterministic", deterministic)
      .field("wire_ok", wire_ok)
      .field("ok", ok);
  json.add(std::move(check));
  if (!ok) {
    std::fprintf(stderr,
                 "FAIL: glauber %ux%u %s: identity=%d deterministic=%d "
                 "wire=%d\n",
                 servers, objects, demand, identity_ok ? 1 : 0,
                 deterministic ? 1 : 0, wire_ok ? 1 : 0);
  }
  return ok;
}

// ---------------------------------------------------------------------------
// Tree family: a TopologyKind::Tree instance at the mech dimensions —
//  * tree_placement_run    — Benoit–Rehn–Robert exact DP and greedy under
//                            the closest-ancestor policy, timed, plus
//                            AGT-RAM on the same instance (strategy
//                            "agt-ram") for quality context,
//  * tree_optimality_check — the exact DP's policy cost never exceeds
//                            greedy's (nonzero exit on violation).

bool run_tree_family(bench::JsonWriter& json, std::uint32_t servers,
                     std::uint32_t objects, int reps) {
  drp::InstanceSpec spec;
  spec.servers = servers;
  spec.objects = objects;
  spec.seed = 42;
  spec.topology = net::TopologyKind::Tree;
  spec.tree_shape = net::TreeShape::Random;
  spec.instance.capacity_fraction = 0.05;
  spec.instance.rw_ratio = 0.9;
  const drp::Problem p = drp::make_instance(spec);
  const net::Graph tree = drp::make_topology(spec);
  const double initial = drp::CostModel::initial_cost(p);

  double policy_cost[2] = {0.0, 0.0};  // [0] = exact, [1] = greedy
  for (const bool exact : {true, false}) {
    const bench::ObsSnapshot before = bench::ObsSnapshot::take();
    double seconds = 1e30;
    double replayed_cost = 0.0;
    std::size_t skipped = 0;
    for (int rep = 0; rep < reps; ++rep) {
      common::Timer timer;
      const baselines::TreePlacementResult result =
          baselines::run_tree_placement(p, tree, {.exact = exact});
      const double s = timer.seconds();
      if (s < seconds) seconds = s;
      policy_cost[exact ? 0 : 1] = result.policy_cost;
      replayed_cost = drp::CostModel::total_cost(result.placement);
      skipped = result.skipped_infeasible;
    }
    const bench::ObsSnapshot after = bench::ObsSnapshot::take();

    bench::JsonWriter::Record run;
    run.field("benchmark", "tree_placement_run")
        .field("servers", static_cast<std::uint64_t>(servers))
        .field("objects", static_cast<std::uint64_t>(objects))
        .field("demand", "tree")
        .field("variant", exact ? "exact" : "greedy")
        .field("seconds", seconds)
        .field("policy_cost", policy_cost[exact ? 0 : 1])
        .field("policy_savings",
               initial > 0.0
                   ? (initial - policy_cost[exact ? 0 : 1]) / initial
                   : 0.0)
        .field("replayed_cost", replayed_cost)
        .field("skipped_infeasible", static_cast<std::uint64_t>(skipped))
        .object_field(
            "obs",
            bench::obs_block(
                bench::tree_decisions(spec.tree_shape, spec.tree_arity,
                                      exact),
                before, after, static_cast<std::uint64_t>(reps)));
    json.add(std::move(run));
    std::printf("tree %ux%u %s: %.4fs, policy cost %.0f (%.1f%% savings)\n",
                servers, objects, exact ? "exact" : "greedy", seconds,
                policy_cost[exact ? 0 : 1],
                initial > 0.0
                    ? 100.0 * (initial - policy_cost[exact ? 0 : 1]) / initial
                    : 0.0);
  }

  // AGT-RAM on the same tree instance: free of the ancestor restriction,
  // so its OTC is the number the policy references contextualise.
  double agt_seconds = 1e30;
  double agt_cost = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    common::Timer timer;
    const core::MechanismResult result = core::run_agt_ram(p);
    const double s = timer.seconds();
    if (s < agt_seconds) agt_seconds = s;
    agt_cost = drp::CostModel::total_cost(result.placement);
  }
  bench::JsonWriter::Record agt;
  agt.field("benchmark", "tree_placement_run")
      .field("servers", static_cast<std::uint64_t>(servers))
      .field("objects", static_cast<std::uint64_t>(objects))
      .field("demand", "tree")
      .field("variant", "agt-ram")
      .field("seconds", agt_seconds)
      .field("policy_cost", agt_cost)
      .field("policy_savings",
             initial > 0.0 ? (initial - agt_cost) / initial : 0.0);
  json.add(std::move(agt));
  std::printf("tree %ux%u agt-ram: %.4fs, cost %.0f\n", servers, objects,
              agt_seconds, agt_cost);

  const bool ok = policy_cost[0] <=
                  policy_cost[1] * (1.0 + 1e-9) + 1e-9;
  bench::JsonWriter::Record check;
  check.field("benchmark", "tree_optimality_check")
      .field("servers", static_cast<std::uint64_t>(servers))
      .field("objects", static_cast<std::uint64_t>(objects))
      .field("demand", "tree")
      .field("exact_policy_cost", policy_cost[0])
      .field("greedy_policy_cost", policy_cost[1])
      .field("agtram_cost", agt_cost)
      .field("ok", ok);
  json.add(std::move(check));
  if (!ok) {
    std::fprintf(stderr,
                 "FAIL: tree exact DP (%.2f) beaten by greedy (%.2f) on "
                 "%ux%u\n",
                 policy_cost[0], policy_cost[1], servers, objects);
  }
  return ok;
}

int write_mechanism_trajectory(const TrajectoryOptions& opts) {
  bench::JsonWriter json;
  bool parallel_ok = true;

  std::unique_ptr<bench::JsonlTrace> trace;
  if (!opts.obs_trace_path.empty()) {
    trace = std::make_unique<bench::JsonlTrace>(opts.obs_trace_path);
    if (!trace->ok()) {
      std::fprintf(stderr, "failed to open obs trace %s\n",
                   opts.obs_trace_path.c_str());
      return 1;
    }
  }

  for (const bool dispersed : {false, true}) {
    const char* demand = dispersed ? "dispersed" : "trace";
    const drp::Problem& p =
        dispersed ? dispersed_instance(opts.mech_servers, opts.mech_objects)
                  : cached_instance(opts.mech_servers, opts.mech_objects);
    const FamilyReport family =
        run_family(json, p, demand, opts.mech_servers, opts.mech_objects,
                   opts.reps, trace.get());
    parallel_ok = parallel_ok && family.parallel_ok;
  }

  if (opts.paper_scale) {
    // The paper's own scale (Section 4: M up to ~3700, N 25000), dispersed
    // demand — |readers(k)| << M, the regime the whole dirty-set +
    // CSR-flat design targets.
    common::Timer build_timer;
    const drp::Problem& p =
        dispersed_instance(opts.paper_servers, opts.paper_objects);
    std::printf("paper-scale instance built in %.1fs: %s\n",
                build_timer.seconds(), p.summary().c_str());
    const FamilyReport family =
        run_family(json, p, "dispersed", opts.paper_servers,
                   opts.paper_objects, opts.paper_reps, trace.get());
    parallel_ok = parallel_ok && family.parallel_ok;
  }

  bool kernels_ok = true;
  if (opts.kernels) {
    // Passes are fixed per scale so seconds stay comparable run to run; the
    // paper-scale family reuses the dispersed instance the mechanism rows
    // just built.
    kernels_ok = run_kernel_family(
        json, cached_instance(opts.mech_servers, opts.mech_objects), "trace",
        opts.mech_servers, opts.mech_objects, opts.reps, /*passes=*/32);
    if (opts.paper_scale) {
      kernels_ok = run_kernel_family(
                       json,
                       dispersed_instance(opts.paper_servers,
                                          opts.paper_objects),
                       "dispersed", opts.paper_servers, opts.paper_objects,
                       opts.paper_reps, /*passes=*/32) &&
                   kernels_ok;
    }
  }

  bool baselines_ok = true;
  if (opts.baselines) {
    const std::vector<std::string> all = {"Greedy",  "GRA",         "Ae-Star",
                                          "Selfish", "LocalSearch", "SA"};
    for (const bool dispersed : {false, true}) {
      const char* demand = dispersed ? "dispersed" : "trace";
      const drp::Problem& p =
          dispersed ? dispersed_instance(opts.mech_servers, opts.mech_objects)
                    : cached_instance(opts.mech_servers, opts.mech_objects);
      baselines_ok = run_baseline_family(json, p, demand, opts.mech_servers,
                                         opts.mech_objects, all,
                                         opts.baseline_reps) &&
                     baselines_ok;
    }
    if (opts.paper_scale) {
      // The issue's acceptance gate: Greedy and GRA delta-vs-naive at the
      // paper's own dimensions.  Naive oracles are slow here, so best-of-1.
      const std::vector<std::string> gate = {"Greedy", "GRA"};
      const drp::Problem& p =
          dispersed_instance(opts.paper_servers, opts.paper_objects);
      baselines_ok = run_baseline_family(json, p, "dispersed",
                                         opts.paper_servers,
                                         opts.paper_objects, gate,
                                         /*reps=*/1) &&
                     baselines_ok;
    }
  }

  bool regional_ok = true;
  if (opts.regional) {
    regional_ok = run_regional_engine_family(
        json, dispersed_instance(opts.mech_servers, opts.mech_objects),
        "dispersed", opts.mech_servers, opts.mech_objects,
        /*include_hierarchical=*/true, opts.reps);
    if (opts.paper_scale) {
      regional_ok = run_regional_engine_family(
                        json,
                        dispersed_instance(opts.paper_servers,
                                           opts.paper_objects),
                        "dispersed", opts.paper_servers, opts.paper_objects,
                        /*include_hierarchical=*/false, opts.regional_reps) &&
                    regional_ok;
    }
    regional_ok = run_regional_tiled_family(json, opts) && regional_ok;
  }

  bool online_ok = true;
  if (opts.online) {
    online_ok = run_online_family(
        json, dispersed_instance(opts.mech_servers, opts.mech_objects),
        opts.mech_servers, opts.mech_objects, opts.online_batches,
        opts.online_oracle_batches, opts.online_reps,
        opts.mech_servers >= 256 ? kOnlineSpeedupFloorMech : 0.0);
    if (opts.paper_scale) {
      // Paper scale: best-of-1 (the stream alone is minutes of repair
      // rounds) and a shorter oracle pass — each oracle check is a full
      // warm re-solve with all M agents polled.
      online_ok = run_online_family(
                      json,
                      dispersed_instance(opts.paper_servers,
                                         opts.paper_objects),
                      opts.paper_servers, opts.paper_objects,
                      opts.online_batches,
                      std::min(opts.online_oracle_batches, 4),
                      /*reps=*/1, kOnlineSpeedupFloorPaper) &&
                  online_ok;
    }
  }

  bool serving_ok = true;
  if (opts.serving) {
    // Mech scale only: the resolve baseline pays a cold solve per batch, so
    // paper scale would spend minutes re-measuring what online_fromscratch
    // already pins down.
    serving_ok = run_serving_family(
        json, dispersed_instance(opts.mech_servers, opts.mech_objects),
        opts.mech_servers, opts.mech_objects, opts.serving_batches,
        opts.serving_reps,
        opts.mech_servers >= 256 ? kServingSpeedupFloorMech : 0.0);
  }

  // Mech scale only for the three new families: the strategic audit is
  // O(trials) mechanism runs and the Glauber/naive oracle re-prices every
  // proposal, so paper scale would dominate the whole trajectory.
  bool strategic_ok = true;
  if (opts.strategic) {
    strategic_ok = run_strategic_family(
        json, dispersed_instance(opts.mech_servers, opts.mech_objects),
        "dispersed", opts.mech_servers, opts.mech_objects, opts.reps);
  }

  bool glauber_ok = true;
  if (opts.glauber) {
    glauber_ok = run_glauber_family(
        json, dispersed_instance(opts.mech_servers, opts.mech_objects),
        "dispersed", opts.mech_servers, opts.mech_objects,
        opts.glauber_sweeps, opts.reps);
  }

  bool tree_ok = true;
  if (opts.tree) {
    tree_ok = run_tree_family(json, opts.mech_servers, opts.mech_objects,
                              opts.reps);
  }

  if (trace) {
    trace->close();
    std::printf("obs trace written to %s\n", opts.obs_trace_path.c_str());
  }
  if (json.write_file(opts.json_path, "micro_core")) {
    std::printf("mechanism trajectory written to %s\n",
                opts.json_path.c_str());
  } else {
    std::fprintf(stderr, "failed to write %s\n", opts.json_path.c_str());
    return 1;
  }
  if (!parallel_ok) {
    std::fprintf(stderr,
                 "parallel execution policy violated (see "
                 "parallel_vs_serial_check rows)\n");
    return 1;
  }
  if (!baselines_ok) {
    std::fprintf(stderr,
                 "baseline delta-vs-naive policy violated (see "
                 "baseline_identity_check / baseline_parallel_check rows)\n");
    return 1;
  }
  if (!kernels_ok) {
    std::fprintf(stderr,
                 "kernel FP contract violated (see kernel_identity_check "
                 "rows)\n");
    return 1;
  }
  if (!regional_ok) {
    std::fprintf(stderr,
                 "regional sharded-execution policy violated (see "
                 "regional_identity_check / regional_parallel_check rows)\n");
    return 1;
  }
  if (!online_ok) {
    std::fprintf(stderr,
                 "online re-convergence policy violated (see online_speedup "
                 "/ online_identity_check rows)\n");
    return 1;
  }
  if (!serving_ok) {
    std::fprintf(stderr,
                 "serving-layer policy violated (see serving_speedup / "
                 "serving_identity_check rows)\n");
    return 1;
  }
  if (!strategic_ok) {
    std::fprintf(stderr,
                 "strategic-agent policy violated (see "
                 "strategic_dominance_check / strategic_damage_check rows)\n");
    return 1;
  }
  if (!glauber_ok) {
    std::fprintf(stderr,
                 "glauber baseline policy violated (see "
                 "glauber_identity_check rows)\n");
    return 1;
  }
  if (!tree_ok) {
    std::fprintf(stderr,
                 "tree-placement optimality violated (see "
                 "tree_optimality_check rows)\n");
    return 1;
  }
  return 0;
}

/// Strips `--key=value` scale flags (ours) from argv before google-benchmark
/// parses the rest.  Returns false on a malformed flag.
bool parse_trajectory_args(int& argc, char** argv, TrajectoryOptions& opts) {
  int out = 1;
  bool ok = true;
  const auto value_of = [](const char* arg, const char* key,
                           const char** value) {
    const std::size_t n = std::strlen(key);
    if (std::strncmp(arg, key, n) == 0 && arg[n] == '=') {
      *value = arg + n + 1;
      return true;
    }
    return false;
  };
  const auto parse_u32_list = [](const char* v,
                                 std::vector<std::uint32_t>& list) {
    list.clear();
    while (*v != '\0') {
      char* end = nullptr;
      const unsigned long x = std::strtoul(v, &end, 10);
      if (end == v || x == 0) return false;
      list.push_back(static_cast<std::uint32_t>(x));
      if (*end == ',') {
        v = end + 1;
      } else if (*end == '\0') {
        v = end;
      } else {
        return false;
      }
    }
    return !list.empty();
  };
  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    if (value_of(argv[i], "--mech-servers", &v)) {
      opts.mech_servers = static_cast<std::uint32_t>(std::atoi(v));
    } else if (value_of(argv[i], "--mech-objects", &v)) {
      opts.mech_objects = static_cast<std::uint32_t>(std::atoi(v));
    } else if (value_of(argv[i], "--paper-servers", &v)) {
      opts.paper_servers = static_cast<std::uint32_t>(std::atoi(v));
    } else if (value_of(argv[i], "--paper-objects", &v)) {
      opts.paper_objects = static_cast<std::uint32_t>(std::atoi(v));
    } else if (value_of(argv[i], "--paper-scale", &v)) {
      opts.paper_scale = std::atoi(v) != 0;
    } else if (value_of(argv[i], "--reps", &v)) {
      opts.reps = std::atoi(v);
    } else if (value_of(argv[i], "--paper-reps", &v)) {
      opts.paper_reps = std::atoi(v);
    } else if (value_of(argv[i], "--baselines", &v)) {
      opts.baselines = std::atoi(v) != 0;
    } else if (value_of(argv[i], "--baseline-reps", &v)) {
      opts.baseline_reps = std::atoi(v);
    } else if (value_of(argv[i], "--kernels", &v)) {
      opts.kernels = std::atoi(v) != 0;
    } else if (value_of(argv[i], "--regional", &v)) {
      opts.regional = std::atoi(v) != 0;
    } else if (value_of(argv[i], "--regional-servers", &v)) {
      ok = parse_u32_list(v, opts.regional_servers) && ok;
    } else if (value_of(argv[i], "--regional-regions", &v)) {
      ok = parse_u32_list(v, opts.regional_regions) && ok;
    } else if (value_of(argv[i], "--regional-budget-mb", &v)) {
      opts.regional_budget_mb = std::atof(v);
    } else if (value_of(argv[i], "--regional-reps", &v)) {
      opts.regional_reps = std::atoi(v);
    } else if (value_of(argv[i], "--online", &v)) {
      opts.online = std::atoi(v) != 0;
    } else if (value_of(argv[i], "--online-batches", &v)) {
      opts.online_batches = std::atoi(v);
    } else if (value_of(argv[i], "--online-oracle-batches", &v)) {
      opts.online_oracle_batches = std::atoi(v);
    } else if (value_of(argv[i], "--online-reps", &v)) {
      opts.online_reps = std::atoi(v);
    } else if (value_of(argv[i], "--serving", &v)) {
      opts.serving = std::atoi(v) != 0;
    } else if (value_of(argv[i], "--serving-batches", &v)) {
      opts.serving_batches = std::atoi(v);
    } else if (value_of(argv[i], "--serving-reps", &v)) {
      opts.serving_reps = std::atoi(v);
    } else if (value_of(argv[i], "--strategic", &v)) {
      opts.strategic = std::atoi(v) != 0;
    } else if (value_of(argv[i], "--glauber", &v)) {
      opts.glauber = std::atoi(v) != 0;
    } else if (value_of(argv[i], "--glauber-sweeps", &v)) {
      opts.glauber_sweeps = std::atoi(v);
    } else if (value_of(argv[i], "--tree", &v)) {
      opts.tree = std::atoi(v) != 0;
    } else if (value_of(argv[i], "--json", &v)) {
      opts.json_path = v;
    } else if (value_of(argv[i], "--obs-trace", &v)) {
      opts.obs_trace_path = v;
    } else {
      argv[out++] = argv[i];  // not ours — leave for google-benchmark
      continue;
    }
    if (v == nullptr || *v == '\0') ok = false;
  }
  argc = out;
  return ok && opts.mech_servers > 0 && opts.mech_objects > 0 &&
         opts.reps > 0 && opts.paper_reps > 0 && opts.baseline_reps > 0 &&
         opts.regional_reps > 0 && opts.regional_budget_mb > 0.0 &&
         opts.online_batches > 0 && opts.online_oracle_batches > 0 &&
         opts.online_reps > 0 && opts.serving_batches > 0 &&
         opts.serving_reps > 0 && opts.glauber_sweeps > 0 &&
         (!opts.paper_scale ||
          (opts.paper_servers > 0 && opts.paper_objects > 0));
}

}  // namespace

int main(int argc, char** argv) {
  TrajectoryOptions opts;
  if (!parse_trajectory_args(argc, argv, opts)) {
    std::fprintf(stderr, "malformed trajectory flag (--key=value)\n");
    return 1;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return write_mechanism_trajectory(opts);
}
