// Semi-distributed runtime accounting (paper Sections 1 and 7): "all the
// heavy processing is done on the servers ... the central body is only
// required to take a binary decision".  This bench quantifies that claim:
// protocol traffic split between centre and agents, the wall time of the
// run, and the protocol's turn-around time under runtime::MessageBus's
// timing model.
#include <iostream>

#include "bench_common.hpp"
#include "core/regional.hpp"
#include "runtime/distributed_mechanism.hpp"

int main(int argc, char** argv) {
  using namespace agtram;

  common::Cli cli("Runtime ablation: semi-distributed traffic and protocol "
                  "turn-around time");
  bench::add_common_flags(cli);
  cli.add_flag("capacity", "30", "paper C%%");
  cli.add_flag("rw", "0.90", "read fraction");
  if (!cli.parse(argc, argv)) return cli.help_requested() ? 0 : 1;

  const bench::Dims dims = bench::resolve_dims(cli);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const drp::Problem problem = bench::build_instance(
      dims, cli.get_double("capacity"), cli.get_double("rw"), seed);

  const auto distributed = runtime::run_distributed(problem);
  const auto& stats = distributed.messages;

  {
    common::Table table({"metric", "value"});
    table.set_title("Semi-distributed AGT-RAM run [M=" +
                    std::to_string(dims.servers) + ", N=" +
                    std::to_string(dims.objects) + "]");
    table.add_row({"rounds", std::to_string(stats.rounds)});
    table.add_row({"replicas placed",
                   std::to_string(distributed.result.replicas_placed())});
    table.add_row({"centre (medoid server)",
                   std::to_string(distributed.centre)});
    table.add_row({"agent->centre reports",
                   std::to_string(stats.report_messages)});
    table.add_row({"centre->winner allocations",
                   std::to_string(stats.allocation_messages)});
    table.add_row({"centre broadcasts (fan-out msgs)",
                   std::to_string(stats.broadcast_messages)});
    table.add_row({"total protocol bytes",
                   std::to_string(stats.total_bytes())});
    table.add_row({"bytes per placed replica",
                   common::Table::num(
                       static_cast<double>(stats.total_bytes()) /
                           static_cast<double>(std::max<std::size_t>(
                               1, distributed.result.replicas_placed())),
                       1)});
    table.add_row({"simulated protocol time, incremental (s)",
                   common::Table::num(stats.simulated_seconds, 3)});
    table.add_row({"wall time (s)",
                   common::Table::num(distributed.wall_seconds, 3)});
    bench::emit(cli, table);
  }

  // --- The binary-decision claim: per round the centre compares scalars;
  // its decision payload is O(1) regardless of N.
  {
    common::Table table({"check", "result"});
    table.set_title("Scalability checks (the centre's work is O(M) scalars "
                    "per round, independent of N)");
    const double reports_per_round =
        static_cast<double>(stats.report_messages) /
        static_cast<double>(std::max<std::size_t>(1, stats.rounds));
    table.add_row({"mean reports per round (<= M)",
                   common::Table::num(reports_per_round, 1)});
    table.add_row({"report payload (bytes)",
                   std::to_string(runtime::kReportWireBytes)});
    table.add_row({"decision payload (bytes)",
                   std::to_string(runtime::kAllocationWireBytes)});
    table.print(std::cout);
  }

  // --- Protocol turn-around time (Figure 2) under clean, straggly, and
  // lossy networks: the bus times the flat mechanism's naive rounds (every
  // live agent polled every round) and the regional engine's epochs (8
  // decision bodies, clustered as ablation_regional clusters them).
  {
    common::Table table({"deployment", "network", "makespan (s)",
                         "rounds/epochs", "network share", "compute share",
                         "msgs", "retransmits"});
    table.set_title("protocol turn-around time (timed rounds)");
    struct Scenario {
      const char* name;
      double straggler;
      double loss;
    };
    const Scenario scenarios[] = {
        {"clean", 0.0, 0.0}, {"stragglers x3", 3.0, 0.0},
        {"2% message loss", 0.0, 0.02}};
    const drp::ServerId centre = runtime::MessageBus::pick_centre(problem);
    core::RegionalConfig regional;
    regional.regions = 8;
    regional.seed = seed;
    const net::Clustering clustering = core::cluster_regions(problem, regional);
    for (const Scenario& s : scenarios) {
      runtime::ProtocolModel model;
      model.straggler_factor = s.straggler;
      model.loss_probability = s.loss;
      const auto add_row = [&](const char* deployment,
                               const runtime::MessageStats& timed) {
        table.add_row(
            {deployment, s.name, common::Table::num(timed.simulated_seconds, 3),
             std::to_string(timed.rounds),
             common::Table::pct(timed.network_seconds /
                                timed.simulated_seconds),
             common::Table::pct(timed.compute_seconds /
                                timed.simulated_seconds),
             std::to_string(timed.total_messages()),
             std::to_string(timed.lost_messages)});
      };

      runtime::MessageBus flat(problem, centre, model);
      core::AgtRamConfig naive;
      naive.report_mode = core::ReportMode::Naive;
      naive.observer = &flat;
      core::run_agt_ram(problem, naive);
      add_row("flat (1 centre)", flat.stats());

      runtime::MessageBus regions(problem, clustering, model);
      regional.observer = &regions;
      core::run_regional(problem, regional);
      add_row("regional (8 centres)", regions.stats());
      std::cerr << "  protocol scenario '" << s.name << "' done\n";
    }
    table.print(std::cout);
  }
  return 0;
}
