#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "core/agt_ram.hpp"
#include "core/online.hpp"
#include "core/regional_tiled.hpp"
#include "drp/builder.hpp"
#include "drp/cost_model.hpp"
#include "net/clustering.hpp"
#include "net/shortest_paths.hpp"
#include "net/tiled_distances.hpp"
#include "net/topology.hpp"
#include "runtime/event_sim.hpp"
#include "runtime/message_bus.hpp"
#include "srv/serving_engine.hpp"
#include "srv/workload.hpp"
#include "trace/pipeline.hpp"
#include "trace/worldcup.hpp"

namespace perfbench {

namespace {

using namespace agtram;

/// Every workload builds this many instances, each from its own sub-seed
/// of --seed, and runs its measured work on each in turn (set-up, measured
/// phase, checks, teardown).  Pooling the samples of several instances
/// shrinks the run-to-run spread that one instance's draw (its topology,
/// client mapping, primaries) puts into every figure, at no extra cost:
/// each set-up is one that the measured work needs.
int instance_count(const Options& o) { return o.small ? 2 : 3; }

/// Independent generator seeds from one seed (splitmix64 finaliser).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (tag + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t instance_seed(const Options& o, int instance) {
  return derive_seed(o.seed, 100 + static_cast<std::uint64_t>(instance));
}

double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

double since(Clock::time_point t0) { return seconds_between(t0, Clock::now()); }

double otc_savings_pct(double initial, double final_cost) {
  return initial > 0.0 ? 100.0 * (initial - final_cost) / initial : 0.0;
}

void add_hex(Digest& d, const std::string& hex) {
  d.add_bytes(hex.data(), hex.size());
}

/// Digest of the inputs and metric closure of a dense instance.
std::string instance_digest(const drp::Problem& problem) {
  Digest d;
  add_hex(d, problem_digest(problem));
  if (problem.distances) {
    const std::size_t m = problem.distances->node_count();
    for (std::size_t i = 0; i < m; ++i) {
      const auto row = problem.distances->row(static_cast<net::NodeId>(i));
      d.add_bytes(row.data(), row.size_bytes());
    }
  }
  return d.hex();
}

/// One check of the correctness gate, recorded once per instance and
/// reported once per run.
class Gate {
 public:
  explicit Gate(std::string name) : name_(std::move(name)) {}

  void record(bool ok, const std::string& detail) {
    ++checked_;
    if (!ok && failed_++ == 0) detail_ = detail;
  }

  /// Records a failure for any exception `check` throws.
  template <typename Fn>
  void guard(Fn&& check) {
    try {
      check();
      record(true, {});
    } catch (const std::exception& e) {
      record(false, e.what());
    }
  }

  void report(Result& r) const {
    r.check(name_, failed_ == 0,
            std::to_string(failed_) + " of " + std::to_string(checked_) +
                " failed" + (failed_ ? "; first: " + detail_ : ""));
  }

 private:
  std::string name_;
  int checked_ = 0;
  int failed_ = 0;
  std::string detail_;
};

/// `total_cost()` of an online engine must equal the cost model's full
/// recomputation bit for bit.
void check_cost_identity(Gate& gate, const core::OnlineMechanism& engine) {
  const double cached = engine.total_cost();
  const double full = drp::CostModel::total_cost(engine.placement());
  gate.record(std::memcmp(&cached, &full, sizeof cached) == 0,
              std::to_string(cached) + " vs " + std::to_string(full));
}

/// The dispersed-demand instance family shared by online-churn, serve-drift
/// and tiled-100k: every server reads, each object from ~8 of them, so the
/// size-biased reader count stays ~10 at any M (Auto picks Incremental).
drp::InstanceSpec dispersed_spec(std::uint32_t servers, std::uint32_t objects,
                                 std::uint64_t seed) {
  drp::InstanceSpec spec;
  spec.servers = servers;
  spec.objects = objects;
  spec.topology = net::TopologyKind::PowerLaw;
  spec.demand = drp::DemandModel::Dispersed;
  spec.readers_per_object = 8.0;
  spec.instance.capacity_fraction = 0.01;
  spec.instance.rw_ratio = 0.9;
  spec.seed = seed;
  return spec;
}

// ---------------------------------------------------------------------------
// Traced-run bookkeeping.

enum class Agg { Median, Sum };

/// A workload detail from the spans named `span`: the median call (for
/// set-up steps and solves) or the total (for per-batch calls).
void add_span_detail(Result& r, const Tracer& tracer, const char* span,
                     const std::string& metric, Agg agg) {
  std::vector<double> durations;
  for (const SpanRecord& s : tracer.spans()) {
    if (std::strcmp(s.name, span) == 0) durations.push_back(s.end - s.start);
  }
  double value = 0.0;
  if (agg == Agg::Sum) {
    for (const double d : durations) value += d;
  } else {
    value = median(durations);
  }
  r.add_detail(metric, value, "s", agg == Agg::Median ? durations.size() : 0);
}

/// Summed duration of every span whose name is in `names`.
double span_total(const Tracer& tracer, std::span<const char* const> names) {
  double total = 0.0;
  for (const SpanRecord& s : tracer.spans()) {
    for (const char* name : names) {
      if (std::strcmp(s.name, name) == 0) total += s.end - s.start;
    }
  }
  return total;
}

bool is_phase(const char* name) {
  for (const char* phase : {"setup", "solve", "serve", "repair"}) {
    if (std::strcmp(name, phase) == 0) return true;
  }
  return false;
}

/// Stage sums and per-span self time of each phase, summed over the
/// phase's spans (one per instance).
void summarize_phases(const Tracer& tracer, Result& r) {
  const std::vector<SpanRecord>& spans = tracer.spans();
  const std::vector<double> covered = tracer.child_seconds();
  std::map<std::string, PhaseSum> phases;
  std::map<std::pair<std::string, std::string>, double> self;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    if (s.parent < 0) {
      if (is_phase(s.name)) {
        PhaseSum& p = phases[s.name];
        p.phase = s.name;
        p.spans += 1;
        p.wall_s += s.end - s.start;
        p.children_s += covered[i];
      }
      continue;
    }
    int root = s.parent;
    while (spans[static_cast<std::size_t>(root)].parent >= 0) {
      root = spans[static_cast<std::size_t>(root)].parent;
    }
    const char* phase = spans[static_cast<std::size_t>(root)].name;
    if (!is_phase(phase)) continue;
    self[{phase, s.name}] += (s.end - s.start) - covered[i];
  }
  for (const auto& [name, p] : phases) r.phases.push_back(p);
  for (const auto& [key, seconds] : self) {
    r.shares.push_back({key.first, key.second, seconds});
  }
}

// ---------------------------------------------------------------------------
// The metrics BENCHMARK.json declares.  Every run reports each of them, so
// they are defined over what the four workloads share: a set-up that builds
// an instance (and on two workloads an engine), and a measured phase of
// repeated operations — a cold solve, an event batch, a request batch, or a
// partition and its solve — part of whose work is the placement mechanism.

/// Spans around the public calls that build an instance.
constexpr const char* kInstanceSpans[] = {
    "trace.synth",       "trace.pipeline",    "net.topology",
    "net.closure",       "drp.build_problem", "drp.make_instance",
    "drp.make_sparse_instance"};
/// Spans that time the placement mechanism inside a measured operation (the
/// serving engine's re-convergence: fold-back, repair, snapshot, install).
constexpr const char* kMechanismSpans[] = {
    "core.agt_ram", "core.apply_events", "srv.reconverge", "core.shard_solve"};

struct Shared {
  std::vector<double> setup_s;  ///< one per instance
  std::vector<double> op_ms;    ///< one per measured operation
  double savings_pct = 0.0;     ///< summed over instances
  std::uint64_t cells = 0;
  std::uint64_t allocations = 0;  ///< replicas the mechanism allocated
};

/// Adds the declared metrics; the per-layer timings only on a traced run.
void add_shared_metrics(Result& r, const Tracer& tr, const Shared& s,
                        int instances) {
  const std::uint64_t n = s.op_ms.size();
  double op_total_ms = 0.0;
  for (const double ms : s.op_ms) op_total_ms += ms;
  double setup_total_s = 0.0;
  for (const double t : s.setup_s) setup_total_s += t;
  r.add_e2e("setup_s", median(s.setup_s), "s", s.setup_s.size());
  r.add_e2e("op_p50_ms", quantile(s.op_ms, 0.5), "ms", n);
  r.add_e2e("op_mean_ms", n > 0 ? op_total_ms / static_cast<double>(n) : 0.0,
            "ms", n);
  r.add_e2e("otc_savings_pct", s.savings_pct / instances, "%");
  r.add_layer("drp.cells", static_cast<double>(s.cells), "count");
  r.add_layer("core.allocations", static_cast<double>(s.allocations),
              "count");
  if (tr.enabled()) {
    const double instance = span_total(tr, kInstanceSpans);
    const double mechanism = span_total(tr, kMechanismSpans);
    r.add_layer("setup.instance_s", instance, "s");
    r.add_layer("setup.engine_s", setup_total_s - instance, "s");
    r.add_layer("op.mechanism_s", mechanism, "s");
    r.add_layer("op.other_s", op_total_ms / 1e3 - mechanism, "s");
  }
}

// ---------------------------------------------------------------------------
// refresh-trace: the paper's regime (M = 3718, N = 25000, World Cup trace
// demand, C = 30%, R/W = 0.9), re-solved cold as a nightly refresh would be.

constexpr std::uint64_t kWorldCupSeed = 1998;
constexpr std::uint64_t kInetSeed = 3718;

Result refresh_trace(const Options& o, Tracer& tr) {
  const std::uint32_t servers = o.small ? 200 : 3718;
  const std::uint32_t objects = o.small ? 1000 : 25000;
  const int solves = o.small ? 2 : 3;  // per instance

  // Sized the way drp::make_instance sizes its trace family (requests per
  // object 150, five day logs, clients M/4, fan-out 2).  The day logs and
  // the Inet-style graph play the part of the paper's fixed datasets (the
  // 1998 World Cup logs, the 1998 AS-level Internet), so their seeds are
  // fixed; the instance seed draws the client-to-server mapping, primaries,
  // capacities and writers.  (Seeding the synthetic logs too moves OTC
  // savings between 34% and 62% across seeds, and seeding the graph doubles
  // the spread of the solve's work, which would make refresh-trace figures
  // measure the draw rather than the code.)
  trace::WorldCupConfig wc;
  wc.core_objects = objects;
  wc.object_universe = objects + std::max<std::uint32_t>(objects / 2, 16);
  wc.clients = std::max<std::uint32_t>(24, servers / 4);
  wc.days = 5;
  wc.requests_per_day = std::max<std::uint64_t>(
      objects, static_cast<std::uint64_t>(150.0 * objects / wc.days));
  wc.seed = kWorldCupSeed;

  Result r;
  Shared shared;
  std::uint64_t trace_requests = 0;
  std::uint64_t reports = 0;
  std::uint64_t evaluations = 0;
  Gate identical("repeated solves identical (rounds, payments, OTC)");
  Gate invariants("placement invariants");
  Digest inputs;
  Digest placements;
  for (int instance = 0; instance < instance_count(o); ++instance) {
    const std::uint64_t seed = instance_seed(o, instance);
    trace::PipelineConfig pipe;
    pipe.servers = servers;
    pipe.top_clients = wc.clients;
    pipe.max_fanout = std::min<std::uint32_t>(2, servers);
    pipe.seed = derive_seed(seed, 2);
    net::TopologyConfig topo;
    topo.kind = net::TopologyKind::PowerLaw;
    topo.nodes = servers;
    topo.seed = kInetSeed;
    drp::InstanceConfig inst;
    inst.capacity_fraction = 0.015;  // C = 30% (bench/bench_common.hpp scale)
    inst.rw_ratio = 0.9;
    inst.seed = derive_seed(seed, 4);

    std::unique_ptr<drp::Problem> problem;
    {
      Scope phase(tr, "setup");
      const auto t0 = Clock::now();
      trace::Workload workload;
      {
        std::vector<trace::DayLog> days;
        {
          Scope s(tr, "trace.synth");
          days = trace::generate_worldcup_trace(wc);
        }
        Scope s(tr, "trace.pipeline");
        workload = trace::run_pipeline(days, pipe);
      }
      // Keep the persistent core, as make_instance does.
      if (workload.object_count() > objects) {
        workload.object_ids.resize(objects);
        workload.object_units.resize(objects);
        workload.size_variance.resize(objects);
        workload.reads.resize(objects);
      }
      trace_requests += workload.total_requests;
      net::DistanceMatrixPtr distances;
      {
        std::optional<net::Graph> graph;
        {
          Scope s(tr, "net.topology");
          graph.emplace(net::generate_topology(topo));
        }
        Scope s(tr, "net.closure");
        distances = std::make_shared<const net::DistanceMatrix>(
            net::DistanceMatrix::compute(*graph));
      }
      {
        Scope s(tr, "drp.build_problem");
        problem = std::make_unique<drp::Problem>(
            drp::build_problem(std::move(distances), workload, inst));
      }
      shared.setup_s.push_back(since(t0));
      Scope s(tr, "bench.teardown");
      workload = {};
    }

    std::optional<core::MechanismResult> first;
    double first_cost = 0.0;
    {
      Scope phase(tr, "solve");
      for (int i = 0; i < solves; ++i) {
        std::optional<core::MechanismResult> res;
        const auto t0 = Clock::now();
        {
          Scope s(tr, "core.agt_ram");
          res.emplace(core::run_agt_ram(*problem));
        }
        shared.op_ms.push_back(since(t0) * 1e3);
        shared.allocations += res->rounds.size();
        ++r.attempted;
        Scope s(tr, "bench.compare");
        if (!res->drained) ++r.failed;  // a solve that did not drain failed
        const double cost = drp::CostModel::total_cost(res->placement);
        if (!first) {
          first = std::move(res);
          first_cost = cost;
          continue;
        }
        const auto same_round = [](const core::RoundRecord& a,
                                   const core::RoundRecord& b) {
          return a.winner == b.winner && a.object == b.object &&
                 a.claimed_value == b.claimed_value && a.payment == b.payment;
        };
        identical.record(
            cost == first_cost &&
                std::equal(res->rounds.begin(), res->rounds.end(),
                           first->rounds.begin(), first->rounds.end(),
                           same_round),
            "instance " + std::to_string(instance) + " solve " +
                std::to_string(i) + " differs from the first");
      }
    }

    Scope check(tr, "bench.check");
    invariants.guard([&] { first->placement.check_invariants(); });
    shared.savings_pct += otc_savings_pct(
        drp::CostModel::initial_cost(*problem), first_cost);
    shared.cells += problem->access.nonzeros();
    reports += first->reports_computed;
    evaluations += first->candidate_evaluations;
    add_hex(inputs, instance_digest(*problem));
    add_hex(placements, placement_digest(first->placement));
    Scope s(tr, "bench.teardown");
    first.reset();
    problem.reset();
  }
  identical.report(r);
  invariants.report(r);

  add_shared_metrics(r, tr, shared, instance_count(o));
  // Per instance, one solve's work (every solve of an instance repeats it).
  r.add_detail("trace.requests", static_cast<double>(trace_requests), "count");
  r.add_detail("core.reports_computed", static_cast<double>(reports), "count");
  r.add_detail("core.candidate_evaluations", static_cast<double>(evaluations),
               "count");
  r.digests["inputs"] = inputs.hex();
  r.digests["placement"] = placements.hex();
  if (tr.enabled()) {
    add_span_detail(r, tr, "trace.synth", "trace.synth_s", Agg::Median);
    add_span_detail(r, tr, "trace.pipeline", "trace.pipeline_s", Agg::Median);
    add_span_detail(r, tr, "net.topology", "net.topology_s", Agg::Median);
    add_span_detail(r, tr, "net.closure", "net.closure_s", Agg::Median);
    add_span_detail(r, tr, "drp.build_problem", "drp.build_problem_s",
                    Agg::Median);
    add_span_detail(r, tr, "core.agt_ram", "core.agt_ram_s", Agg::Median);
  }
  return r;
}

// ---------------------------------------------------------------------------
// online-churn: the online engine under every failure event kind, on
// dispersed demand where Auto resolves to the dirty-set Incremental path.

void digest_event(Digest& d, const core::OnlineEvent& event) {
  d.add(event.index());
  std::visit(
      [&](const auto& e) {
        using E = std::decay_t<decltype(e)>;
        if constexpr (std::is_same_v<E, core::DemandDelta>) {
          d.add(e.server);
          d.add(e.object);
          d.add(e.delta_reads);
          d.add(e.delta_writes);
        } else if constexpr (std::is_same_v<E, core::ReplicaLoss>) {
          d.add(e.server);
          d.add(e.object);
        } else if constexpr (std::is_same_v<E, core::ServerFail> ||
                             std::is_same_v<E, core::ServerJoin>) {
          d.add(e.server);
        } else {
          d.add(e.object);
        }
      },
      event);
}

Result online_churn(const Options& o, Tracer& tr) {
  const std::uint32_t servers = o.small ? 200 : 3000;
  const std::uint32_t objects = o.small ? 2000 : 25600;
  const int batches = o.small ? 30 : 800;  // per instance
  core::OnlineConfig config;
  config.eviction_limit = 32;

  Result r;
  Shared shared;
  double apply_seconds = 0.0;
  core::BatchOutcome sum;
  Gate cost_identity("total_cost() equals CostModel::total_cost bit for bit");
  Gate invariants("placement invariants");
  Digest instances;
  Digest events;
  Digest placements;
  for (int instance = 0; instance < instance_count(o); ++instance) {
    const std::uint64_t seed = instance_seed(o, instance);
    const drp::InstanceSpec spec =
        dispersed_spec(servers, objects, derive_seed(seed, 1));
    runtime::OnlineEventModel model;  // every event kind, default rates
    model.seed = derive_seed(seed, 2);

    std::unique_ptr<core::OnlineMechanism> engine;
    {
      Scope phase(tr, "setup");
      const auto t0 = Clock::now();
      std::optional<drp::Problem> problem;
      {
        Scope s(tr, "drp.make_instance");
        problem.emplace(drp::make_instance(spec));
      }
      {
        Scope s(tr, "core.online_init");
        engine = std::make_unique<core::OnlineMechanism>(std::move(*problem),
                                                         config);
      }
      shared.setup_s.push_back(since(t0));
    }
    {
      Scope s(tr, "bench.digest");
      add_hex(instances, instance_digest(engine->problem()));
    }
    runtime::OnlineEventSource source(*engine, model);

    {
      Scope phase(tr, "repair");
      for (int b = 0; b < batches; ++b) {
        std::vector<core::OnlineEvent> batch;
        {
          Scope s(tr, "gen.events");
          batch = source.next_batch();
        }
        {
          Scope s(tr, "bench.digest");
          for (const core::OnlineEvent& e : batch) digest_event(events, e);
        }
        ++r.attempted;
        const auto t0 = Clock::now();
        try {
          core::BatchOutcome out;
          {
            Scope s(tr, "core.apply_events");
            out = engine->apply_events(batch);
          }
          const double dt = since(t0);
          apply_seconds += dt;
          shared.op_ms.push_back(dt * 1e3);
          sum.events_applied += out.events_applied;
          sum.dirty_agents += out.dirty_agents;
          sum.reports_saved += out.reports_saved;
          sum.repair_rounds += out.repair_rounds;
          sum.replicas_lost += out.replicas_lost;
          sum.replicas_evicted += out.replicas_evicted;
          sum.reports_computed += out.reports_computed;
          sum.candidate_evaluations += out.candidate_evaluations;
        } catch (const std::exception&) {
          ++r.failed;  // a batch whose apply_events threw failed
        }
      }
    }

    Scope check(tr, "bench.check");
    check_cost_identity(cost_identity, *engine);
    invariants.guard([&] { engine->placement().check_invariants(); });
    shared.savings_pct += otc_savings_pct(
        drp::CostModel::initial_cost(engine->problem()), engine->total_cost());
    shared.cells += engine->problem().access.nonzeros();
    add_hex(placements, placement_digest(engine->placement()));
    Scope s(tr, "bench.teardown");
    engine.reset();
  }
  cost_identity.report(r);
  invariants.report(r);

  shared.allocations = sum.repair_rounds;
  add_shared_metrics(r, tr, shared, instance_count(o));

  const std::uint64_t n = shared.op_ms.size();
  const double saved = static_cast<double>(sum.reports_saved);
  const double dirty = static_cast<double>(sum.dirty_agents);
  r.add_detail("events_per_s",
               apply_seconds > 0.0
                   ? static_cast<double>(sum.events_applied) / apply_seconds
                   : 0.0,
               "events/s");
  r.add_detail("repair_p99_ms", quantile(shared.op_ms, 0.99), "ms", n);
  r.add_detail("core.events", static_cast<double>(sum.events_applied),
               "count");
  r.add_detail("core.event_batches", static_cast<double>(n), "count");
  r.add_detail("core.dirty_agents", dirty, "count");
  r.add_detail("core.poll_skip_ratio",
               saved + dirty > 0.0 ? saved / (saved + dirty) : 0.0, "ratio");
  r.add_detail("core.replicas_lost", static_cast<double>(sum.replicas_lost),
               "count");
  r.add_detail("core.replicas_evicted",
               static_cast<double>(sum.replicas_evicted), "count");
  r.add_detail("core.reports_computed",
               static_cast<double>(sum.reports_computed), "count");
  r.add_detail("core.candidate_evaluations",
               static_cast<double>(sum.candidate_evaluations), "count");
  r.digests["instance"] = instances.hex();
  r.digests["inputs"] = events.hex();
  r.digests["placement"] = placements.hex();
  if (tr.enabled()) {
    add_span_detail(r, tr, "drp.make_instance", "drp.make_instance_s",
                    Agg::Median);
    add_span_detail(r, tr, "core.online_init", "core.online_init_s",
                    Agg::Median);
    add_span_detail(r, tr, "core.apply_events", "core.apply_events_s",
                    Agg::Sum);
    add_span_detail(r, tr, "gen.events", "gen.events_s", Agg::Sum);
  }
  return r;
}

// ---------------------------------------------------------------------------
// serve-drift: one closed-loop client replays drifting request batches into
// the serving engine (OnDrift policy, eviction on, wire accounting).
//
// Re-convergence is scheduled: after every 32nd batch the client calls the
// public reconverge_now(), the same fold-back, repair and install that a
// firing drift trigger runs inline.  On this instance family the trigger's
// own firing rate is bistable in the seed (0, 22 or 31 firings in 1200
// batches at one setting; every batch once drift accumulates), which would
// make op_mean_ms (and the batch tail) measure the seed rather than the
// code.  The trigger is still evaluated on every batch (that scan is most
// of a typical batch); srv.drift_triggers counts any spontaneous firing.

void digest_requests(Digest& d, const std::vector<srv::Request>& batch) {
  for (const srv::Request& q : batch) {
    d.add(q.object);
    d.add(q.slot);
    d.add(q.count);
    d.add(static_cast<std::uint8_t>(q.write));
  }
}

/// The engine, its wire-accounting bus, and the Problem shell the bus was
/// built from.  The bus keeps a pointer to that Problem for its protocol
/// latency model, which serving never consults (serving charges bytes
/// only); the engine owns the moved-out contents.
struct ServingRig {
  drp::Problem shell;
  std::unique_ptr<runtime::MessageBus> bus;
  std::unique_ptr<srv::ServingEngine> engine;
};

Result serve_drift(const Options& o, Tracer& tr) {
  const std::uint32_t servers = o.small ? 200 : 3000;
  const std::uint32_t objects = o.small ? 2000 : 25600;
  const int batches = o.small ? 24 : 544;  // per instance
  const int reconverge_every = o.small ? 8 : 32;

  Result r;
  Shared shared;
  std::vector<double> reconverge_ms;
  double batch_seconds = 0.0;
  double route_seconds = 0.0;
  double reconverge_seconds = 0.0;
  double drift_check_seconds = 0.0;
  double requests = 0.0;
  double units = 0.0;
  std::uint64_t reads = 0;
  std::uint64_t local_reads = 0;
  srv::ServingStats counts;
  std::uint64_t snapshots = 0;
  runtime::MessageStats wire;
  Gate cost_identity("total_cost() equals CostModel::total_cost bit for bit");
  Gate invariants("placement invariants");
  Gate rows("final snapshot rows equal the placement rows");
  Digest instances;
  Digest inputs;
  Digest placements;
  for (int instance = 0; instance < instance_count(o); ++instance) {
    const std::uint64_t seed = instance_seed(o, instance);
    const drp::InstanceSpec spec =
        dispersed_spec(servers, objects, derive_seed(seed, 1));
    srv::WorkloadConfig load;
    load.requests_per_batch = 4096;
    load.mean_count = 8;
    load.drift_interval = 2;
    load.drift_fraction = 0.5;
    load.drift_objects = std::max<std::size_t>(16, objects / 4);
    load.seed = derive_seed(seed, 2);

    std::unique_ptr<ServingRig> rig;
    {
      Scope phase(tr, "setup");
      const auto t0 = Clock::now();
      rig = std::make_unique<ServingRig>();
      {
        Scope s(tr, "drp.make_instance");
        rig->shell = drp::make_instance(spec);
      }
      {
        Scope s(tr, "runtime.bus_init");
        rig->bus = std::make_unique<runtime::MessageBus>(
            rig->shell, runtime::MessageBus::pick_centre(rig->shell));
      }
      srv::ServingConfig config;
      config.policy = srv::ReconvergePolicy::OnDrift;
      config.eviction_limit = 32;
      config.shards = 4;  // fixed split: summation order is machine-independent
      config.bus = rig->bus.get();
      {
        Scope s(tr, "srv.engine_init");
        rig->engine = std::make_unique<srv::ServingEngine>(
            std::move(rig->shell), config);
      }
      shared.setup_s.push_back(since(t0));
    }
    srv::ServingEngine& engine = *rig->engine;
    {
      Scope s(tr, "bench.digest");
      add_hex(instances, instance_digest(engine.problem()));
    }
    srv::SyntheticWorkload workload(engine.problem(), load);
    std::uint64_t epoch = engine.routing().acquire()->epoch();
    std::vector<srv::Request> batch;
    {
      Scope phase(tr, "serve");
      for (int b = 0; b < batches; ++b) {
        {
          Scope s(tr, "gen.requests");
          workload.next_batch(batch);
        }
        {
          Scope s(tr, "bench.digest");
          digest_requests(inputs, batch);
        }
        ++r.attempted;
        const double serve_before = engine.stats().serve_seconds;
        const double reconverge_before = engine.stats().reconverge_seconds;
        const int span = tr.enabled() ? tr.open("srv.batch") : -1;
        const double span_start = tr.enabled() ? tr.now() : 0.0;
        const auto t0 = Clock::now();
        try {
          engine.run_batch(batch);
          if ((b + 1) % reconverge_every == 0) engine.reconverge_now();
        } catch (const std::exception&) {
          ++r.failed;  // a batch that threw failed
        }
        const double dt = since(t0);
        const srv::RoutingSnapshot* snap = engine.routing().acquire();
        if (snap->epoch() != epoch) {
          // Re-convergence runs on this thread, so the new epoch is visible
          // as soon as the call that ran it returns.
          reconverge_ms.push_back(since(t0) * 1e3);
          epoch = snap->epoch();
        }
        const double route = engine.stats().serve_seconds - serve_before;
        const double reconverge =
            engine.stats().reconverge_seconds - reconverge_before;
        const double rest = dt - route - reconverge;
        if (span >= 0) {
          // The engine's own timers split the batch: route, then the drift
          // trigger (the remainder), then re-convergence.
          tr.add_closed("srv.route", span_start, span_start + route);
          tr.add_closed("srv.drift_check", span_start + route,
                        span_start + route + rest);
          tr.add_closed("srv.reconverge", span_start + route + rest,
                        span_start + dt);
          tr.close(span);
        }
        shared.op_ms.push_back(dt * 1e3);
        batch_seconds += dt;
        route_seconds += route;
        reconverge_seconds += reconverge;
        drift_check_seconds += rest;
      }
    }

    Scope check(tr, "bench.check");
    check_cost_identity(cost_identity, *engine.online());
    invariants.guard([&] { engine.placement().check_invariants(); });
    {
      const srv::RoutingSnapshot& snap = *engine.routing().acquire();
      const drp::ReplicaPlacement& placement = engine.placement();
      std::size_t bad = 0;
      for (std::size_t k = 0; k < engine.problem().object_count(); ++k) {
        const auto obj = static_cast<drp::ObjectIndex>(k);
        const auto sd = snap.nn_row(obj);
        const auto pd = placement.nn_row(obj);
        const auto sn = snap.nn_node_row(obj);
        const auto pn = placement.nn_node_row(obj);
        if (!std::equal(sd.begin(), sd.end(), pd.begin(), pd.end()) ||
            !std::equal(sn.begin(), sn.end(), pn.begin(), pn.end())) {
          ++bad;
        }
      }
      rows.record(bad == 0, std::to_string(bad) + " objects differ");
    }
    shared.savings_pct +=
        otc_savings_pct(drp::CostModel::initial_cost(engine.problem()),
                        engine.online()->total_cost());
    const srv::ServingStats& stats = engine.stats();
    requests += static_cast<double>(stats.requests);
    units += stats.read_units + stats.write_units;
    reads += stats.reads;
    local_reads += stats.local_reads;
    counts.batches += stats.batches;
    counts.reconverges += stats.reconverges;
    counts.drift_triggers += stats.drift_triggers;
    shared.allocations += stats.repair_rounds;
    counts.replicas_evicted += stats.replicas_evicted;
    counts.demand_delta_cells += stats.demand_delta_cells;
    snapshots += engine.routing().installs();
    wire.route_bytes += rig->bus->stats().route_bytes;
    wire.delta_bytes += rig->bus->stats().delta_bytes;
    wire.install_bytes += rig->bus->stats().install_bytes;
    shared.cells += engine.problem().access.nonzeros();
    add_hex(placements, placement_digest(engine.placement()));
    Scope s(tr, "bench.teardown");
    rig.reset();
  }
  cost_identity.report(r);
  invariants.report(r);
  rows.report(r);
  if (!o.small) {
    r.check("at least 20 re-convergences", reconverge_ms.size() >= 20,
            std::to_string(reconverge_ms.size()) + " re-convergences");
  }

  add_shared_metrics(r, tr, shared, instance_count(o));

  const std::uint64_t n = shared.op_ms.size();
  r.add_detail("serve_mreq_s",
               batch_seconds > 0.0 ? requests / batch_seconds / 1e6 : 0.0,
               "Mreq/s");
  r.add_detail("batch_p99_ms", quantile(shared.op_ms, 0.99), "ms", n);
  r.add_detail("reconverge_p50_ms", quantile(reconverge_ms, 0.5), "ms",
               reconverge_ms.size());
  r.add_detail("units_per_req", requests > 0.0 ? units / requests : 0.0,
               "units/req");
  r.add_detail("srv.route_s", route_seconds, "s");
  r.add_detail("srv.drift_check_s", drift_check_seconds, "s");
  r.add_detail("srv.reconverge_s", reconverge_seconds, "s");
  r.add_detail("srv.reconverges", static_cast<double>(counts.reconverges),
               "count");
  r.add_detail("srv.drift_triggers",
               static_cast<double>(counts.drift_triggers), "count");
  r.add_detail("srv.replicas_evicted",
               static_cast<double>(counts.replicas_evicted), "count");
  r.add_detail("srv.demand_delta_cells",
               static_cast<double>(counts.demand_delta_cells), "count");
  r.add_detail("srv.snapshots_retained", static_cast<double>(snapshots),
               "count");
  r.add_detail("srv.local_read_pct",
               reads > 0 ? 100.0 * static_cast<double>(local_reads) /
                               static_cast<double>(reads)
                         : 0.0,
               "%");
  r.add_detail("srv.requests", requests, "count");
  r.add_detail("srv.batches", static_cast<double>(counts.batches), "count");
  r.add_detail("bus.route_bytes", static_cast<double>(wire.route_bytes),
               "bytes");
  r.add_detail("bus.delta_bytes", static_cast<double>(wire.delta_bytes),
               "bytes");
  r.add_detail("bus.install_bytes", static_cast<double>(wire.install_bytes),
               "bytes");
  r.digests["instance"] = instances.hex();
  r.digests["inputs"] = inputs.hex();
  r.digests["placement"] = placements.hex();
  if (tr.enabled()) {
    add_span_detail(r, tr, "drp.make_instance", "drp.make_instance_s",
                    Agg::Median);
    add_span_detail(r, tr, "runtime.bus_init", "runtime.bus_init_s",
                    Agg::Median);
    add_span_detail(r, tr, "srv.engine_init", "srv.engine_init_s",
                    Agg::Median);
    add_span_detail(r, tr, "gen.requests", "gen.requests_s", Agg::Sum);
  }
  return r;
}

// ---------------------------------------------------------------------------
// tiled-100k: the production tier (M = 100k, N = 200k, R = 128 regions,
// Sharded) on the closure-free instance; the only workload on the
// clustering, tile and shard layers.

Result tiled_100k(const Options& o, Tracer& tr) {
  const std::uint32_t servers = o.small ? 3000 : 100000;
  const std::uint32_t objects = o.small ? 6000 : 200000;

  Result r;
  Shared shared;
  std::vector<double> cluster_times;
  std::vector<double> tiles_times;
  std::vector<double> shard_times;
  std::uint64_t tile_bytes = 0;
  std::uint64_t reports = 0;
  Gate allocations("allocations valid and within capacity");
  Gate improves("final OTC not above initial");
  Digest inputs;
  Digest placements;
  for (int instance = 0; instance < instance_count(o); ++instance) {
    const std::uint64_t seed = instance_seed(o, instance);
    const drp::InstanceSpec spec =
        dispersed_spec(servers, objects, derive_seed(seed, 1));
    core::TiledRegionalConfig config;
    config.regions = o.small ? 8 : 128;
    config.seed = derive_seed(seed, 2);
    config.execution = core::RegionalExecution::Sharded;

    std::unique_ptr<drp::SparseInstance> sparse;
    {
      Scope phase(tr, "setup");
      const auto t0 = Clock::now();
      {
        Scope s(tr, "drp.make_sparse_instance");
        sparse = std::make_unique<drp::SparseInstance>(
            drp::make_sparse_instance(spec));
      }
      shared.setup_s.push_back(since(t0));
    }

    // The partition is composed from the public net calls exactly as
    // core::make_tiled_partition composes it, so each step is timed alone.
    net::SampledClusteringConfig clustering;
    clustering.regions = config.regions;
    clustering.seed = config.seed;
    clustering.refine_iterations = config.refine_iterations;
    clustering.max_members =
        2 * ((servers + config.regions - 1) / config.regions);
    core::TiledPartition partition;
    std::optional<core::TiledRegionalResult> result;
    {
      Scope phase(tr, "solve");
      ++r.attempted;
      const auto t0 = Clock::now();
      {
        Scope s(tr, "net.cluster");
        partition.clustering =
            net::cluster_servers_sampled(sparse->graph, clustering);
      }
      const auto t1 = Clock::now();
      {
        Scope s(tr, "net.tiles");
        partition.tile_bytes =
            net::TiledDistances::estimate_bytes(partition.clustering);
        if (partition.tile_bytes <= config.distance_budget_bytes) {
          partition.tiles =
              net::TiledDistances::build(sparse->graph, partition.clustering);
          partition.within_budget = true;
        }
      }
      const auto t2 = Clock::now();
      {
        Scope s(tr, "core.shard_solve");
        result.emplace(core::run_regional_tiled(*sparse, partition, config));
      }
      const auto t3 = Clock::now();
      shared.op_ms.push_back(seconds_between(t0, t3) * 1e3);
      cluster_times.push_back(seconds_between(t0, t1));
      tiles_times.push_back(seconds_between(t1, t2));
      shard_times.push_back(seconds_between(t2, t3));
      if (!partition.within_budget) ++r.failed;  // refused for its budget
    }

    Scope check(tr, "bench.check");
    {
      // No global ReplicaPlacement exists on this path; check the same
      // invariants on the committed allocation list: in range, not a
      // primary, no duplicates, and every server within its capacity.
      const drp::Problem& base = sparse->base;
      std::vector<std::uint64_t> used = base.primary_load();
      std::size_t bad = 0;
      const auto& alloc = result->allocations;
      for (std::size_t i = 0; i < alloc.size(); ++i) {
        const auto [server, object] = alloc[i];
        if (server >= base.server_count() || object >= base.object_count() ||
            base.primary[object] == server ||
            (i > 0 && alloc[i - 1] >= alloc[i])) {
          ++bad;
          continue;
        }
        used[server] += base.object_units[object];
      }
      for (std::size_t s = 0; s < used.size(); ++s) {
        if (used[s] > base.capacity[s]) ++bad;
      }
      allocations.record(bad == 0, std::to_string(bad) + " violations over " +
                                       std::to_string(alloc.size()) +
                                       " replicas");
    }
    improves.record(result->final_cost <= result->initial_cost,
                    std::to_string(result->final_cost) + " vs " +
                        std::to_string(result->initial_cost));
    shared.savings_pct += 100.0 * result->savings();
    shared.cells += sparse->base.access.nonzeros();
    tile_bytes += partition.tiles.bytes();
    for (const core::TiledShardOutcome& shard : result->shards) {
      shared.allocations += shard.rounds;
      reports += shard.reports_computed;
    }
    {
      Digest d;
      add_hex(d, problem_digest(sparse->base));
      for (std::size_t v = 0; v < sparse->graph.node_count(); ++v) {
        for (const net::Edge& e :
             sparse->graph.neighbors(static_cast<net::NodeId>(v))) {
          d.add(e.to);
          d.add(e.cost);
        }
      }
      add_hex(inputs, d.hex());
      for (const auto& [server, object] : result->allocations) {
        placements.add(server);
        placements.add(object);
      }
    }
    Scope s(tr, "bench.teardown");
    result.reset();
    partition = {};
    sparse.reset();
  }
  allocations.report(r);
  improves.report(r);

  add_shared_metrics(r, tr, shared, instance_count(o));
  r.add_detail("net.cluster_s", median(cluster_times), "s",
               cluster_times.size());
  r.add_detail("net.tiles_s", median(tiles_times), "s", tiles_times.size());
  r.add_detail("net.tile_bytes", static_cast<double>(tile_bytes), "bytes");
  r.add_detail("core.shard_solve_s", median(shard_times), "s",
               shard_times.size());
  r.add_detail("core.reports_computed", static_cast<double>(reports),
               "count");
  r.digests["inputs"] = inputs.hex();
  r.digests["placement"] = placements.hex();
  if (tr.enabled()) {
    add_span_detail(r, tr, "drp.make_sparse_instance",
                    "drp.make_sparse_instance_s", Agg::Median);
  }
  return r;
}

}  // namespace

Result run_workload(const Options& options, Tracer& tracer) {
  Result r;
  if (options.workload == "refresh-trace") {
    r = refresh_trace(options, tracer);
  } else if (options.workload == "online-churn") {
    r = online_churn(options, tracer);
  } else if (options.workload == "serve-drift") {
    r = serve_drift(options, tracer);
  } else if (options.workload == "tiled-100k") {
    r = tiled_100k(options, tracer);
  } else {
    throw std::invalid_argument("unknown workload '" + options.workload + "'");
  }
  r.workload = options.workload;
  r.seed = options.seed;
  r.size = options.small ? "small" : "full";
  r.traced = tracer.enabled();
  r.add_e2e("peak_rss_mb", peak_rss_mb(), "MB");
  if (tracer.enabled()) {
    summarize_phases(tracer, r);
    // One clock, strictly nested spans: a phase's children must explain its
    // wall time to within the stated tolerance.
    for (const PhaseSum& p : r.phases) {
      const double gap = p.wall_s - p.children_s;
      const double tolerance = kStageSumRelTolerance * p.wall_s +
                               kStageSumAbsTolerance * p.spans;
      r.check("stage sum: " + p.phase, gap >= -1e-9 && gap <= tolerance,
              std::to_string(gap) + " s outside child spans, tolerance " +
                  std::to_string(tolerance) + " s");
    }
  }
  // A failed correctness check counts as a failed operation.
  for (const Check& c : r.checks) {
    if (!c.ok) ++r.failed;
  }
  return r;
}

}  // namespace perfbench
