// Adaptive replication ablation: "AGT-RAM is a protocol for automatic
// replication and migration of objects in response to demand changes"
// (paper abstract / Section 7).
//
// Episodes of drifting demand compare three policies on one timeline
// (sim::run_horizon):
//   * stale   — keep the day-0 placement (what the paper's protocol fixes);
//   * adapt   — the online engine's dirty-set repair plus delta-OTC eviction
//               (core::OnlineMechanism);
//   * rebuild — replan from scratch every episode (the quality ceiling, at
//               maximal storage churn).
// Churn is per episode: the storage units that differ between a policy's
// placements on consecutive episodes.
#include "bench_common.hpp"
#include "sim/horizon.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace agtram;

  common::Cli cli("Adaptive migration ablation over demand-drift episodes");
  bench::add_common_flags(cli);
  bench::add_size_flags(cli);
  bench::add_csv_flag(cli);
  cli.add_flag("capacity", "30", "paper C%%");
  cli.add_flag("rw", "0.90", "read fraction");
  cli.add_flag("episodes", "6", "number of drift episodes");
  cli.add_flag("drift", "0.25",
               "per-episode read-drift moves per (object, reader) cell");
  if (!cli.parse(argc, argv)) return cli.help_requested() ? 0 : 1;

  const bench::Dims dims = bench::resolve_dims(cli);
  const auto seed = cli.get_unsigned<std::uint64_t>("seed");
  const double drift = cli.get_double("drift");

  sim::HorizonConfig config;
  config.days = cli.get_unsigned<std::uint32_t>("episodes") + 1;
  config.drift = drift;
  config.seed = seed;
  const sim::HorizonResult result = sim::run_horizon(
      bench::build_instance(dims, cli.get_double("capacity"),
                            cli.get_double("rw"), seed),
      config);

  common::Table table({"episode", "demand moved", "stale savings",
                       "adapted savings", "rebuilt savings",
                       "migration churn (units)", "rebuild churn (units)"});
  table.set_title("savings under drifting demand [M=" +
                  std::to_string(dims.servers) + ", N=" +
                  std::to_string(dims.objects) + ", drift=" +
                  common::Table::num(drift, 2) + "/episode]");
  for (std::size_t e = 0; e < result.adapt.days.size(); ++e) {
    table.add_row({std::to_string(e),
                   common::Table::pct(result.adapt.days[e].demand_moved),
                   common::Table::pct(result.stale.days[e].savings),
                   common::Table::pct(result.adapt.days[e].savings),
                   common::Table::pct(result.rebuild.days[e].savings),
                   std::to_string(result.adapt.days[e].churn_units),
                   std::to_string(result.rebuild.days[e].churn_units)});
  }
  table.add_row({"mean/total", "",
                 common::Table::pct(result.stale.mean_savings),
                 common::Table::pct(result.adapt.mean_savings),
                 common::Table::pct(result.rebuild.mean_savings),
                 std::to_string(result.adapt.total_churn_units),
                 std::to_string(result.rebuild.total_churn_units)});
  bench::emit(cli, table);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return agtram::common::run_main(argc, argv, run);
}
