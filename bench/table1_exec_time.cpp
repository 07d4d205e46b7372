// Table 1 reproduction: running time of the replica placement methods.
//
// Paper setup: C = 45%, R/W = 0.85, nine problem sizes
// (M in {2500, 3000, 3718} x N in {15k, 20k, 25k}); entries are seconds,
// the fastest method per row in bold, plus AGT-RAM's improvement over the
// slowest.  Observation to reproduce: AGT-RAM terminates fastest, GRA
// slowest; the default bench grid scales both axes by ~10.
#include <algorithm>
#include <iostream>
#include <memory>

#include "bench_common.hpp"
#include "core/agt_ram.hpp"
#include "obs_writer.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace agtram;

  common::Cli cli("Table 1: running time (seconds) of the placement methods "
                  "[C=45%, R/W=0.85 in the paper]");
  bench::add_common_flags(cli);
  bench::add_csv_flag(cli);
  cli.add_flag("capacity", "45", "paper C%%");
  cli.add_flag("rw", "0.85", "read fraction");
  cli.add_flag("m-grid", "250,300,372", "server counts (paper: 2500,3000,3718)");
  cli.add_flag("n-grid", "1500,2000,2500", "object counts (paper: 15k,20k,25k)");
  cli.add_flag("json", "",
               "write per-cell wall times and obs blocks as JSON here "
               "('' disables)");
  cli.add_flag("obs-trace", "",
               "write per-round JSONL from an untimed default-mode "
               "mechanism run per cell to this path ('' disables)");
  bench::add_baseline_eval_flag(cli);
  if (!cli.parse(argc, argv)) return cli.help_requested() ? 0 : 1;

  const double capacity = cli.get_double("capacity");
  const double rw = cli.get_double("rw");
  const auto seed = cli.get_unsigned<std::uint64_t>("seed");
  auto m_grid = cli.get_unsigned_list<std::uint32_t>("m-grid");
  auto n_grid = cli.get_unsigned_list<std::uint32_t>("n-grid");
  if (bench::paper_scale(cli)) {
    m_grid = {2500, 3000, 3718};
    n_grid = {15000, 20000, 25000};
  }
  const baselines::AlgoOptions algo_options = bench::resolve_algo_options(cli);
  const char* eval_name =
      algo_options.eval == baselines::EvalPath::Naive ? "naive" : "delta";
  const auto algorithms = baselines::all_algorithms(algo_options);

  std::vector<std::string> headers{"problem size"};
  for (const auto& a : algorithms) headers.push_back(a.name);
  headers.push_back("AGT-RAM vs slowest");
  common::Table table(std::move(headers));
  table.set_title("Table 1: running time of the replica placement methods "
                  "in seconds [C=" + common::Table::num(capacity, 0) +
                  "%, R/W=" + common::Table::num(rw, 2) + "]");

  std::unique_ptr<bench::JsonlTrace> trace;
  if (!cli.get("obs-trace").empty()) {
    trace = std::make_unique<bench::JsonlTrace>(cli.get("obs-trace"));
    if (!trace->ok()) {
      std::cerr << "failed to open obs trace " << cli.get("obs-trace") << "\n";
      return 1;
    }
  }

  bench::JsonWriter json;
  for (const std::uint32_t m : m_grid) {
    for (const std::uint32_t n : n_grid) {
      const bench::Dims dims{m, n};
      const drp::Problem problem =
          bench::build_instance(dims, capacity, rw, seed);
      const double initial = drp::CostModel::initial_cost(problem);

      std::vector<std::string> row{"M=" + std::to_string(dims.servers) +
                                   ", N=" + std::to_string(dims.objects)};
      double agtram_seconds = 0.0;
      double slowest = 0.0;
      double fastest = 1e30;
      for (const auto& algorithm : algorithms) {
        const bench::ObsSnapshot obs_before = bench::ObsSnapshot::take();
        const auto outcome =
            bench::run_algorithm(algorithm, problem, initial, seed);
        const bench::ObsSnapshot obs_after = bench::ObsSnapshot::take();
        row.push_back(common::Table::num(outcome.seconds, 3));
        slowest = std::max(slowest, outcome.seconds);
        fastest = std::min(fastest, outcome.seconds);
        if (algorithm.name == "AGT-RAM") agtram_seconds = outcome.seconds;
        bench::JsonWriter::Record record;
        record.field("benchmark", "table1_exec_time")
            .field("servers", static_cast<std::uint64_t>(dims.servers))
            .field("objects", static_cast<std::uint64_t>(dims.objects))
            .field("algorithm", algorithm.name)
            .field("eval", eval_name)
            .field("seconds", outcome.seconds)
            .field("savings", outcome.savings)
            .field("replicas", static_cast<std::uint64_t>(outcome.replicas))
            .object_field(
                "obs",
                bench::obs_block(
                    bench::baseline_decisions(
                        problem,
                        algo_options.eval == baselines::EvalPath::Delta),
                    obs_before, obs_after, /*runs=*/1));
        json.add(std::move(record));
      }

      // JSON-only extra: AGT-RAM's report-evaluation paths head to head
      // (the printed table keeps the paper's algorithm columns untouched).
      for (const core::ReportMode mode :
           {core::ReportMode::Naive, core::ReportMode::Incremental}) {
        core::AgtRamConfig cfg;
        cfg.report_mode = mode;
        const bench::ObsSnapshot obs_before = bench::ObsSnapshot::take();
        common::Timer timer;
        const core::MechanismResult result = core::run_agt_ram(problem, cfg);
        const double seconds = timer.seconds();
        const bench::ObsSnapshot obs_after = bench::ObsSnapshot::take();
        bench::JsonWriter::Record record;
        record.field("benchmark", "table1_agt_ram_paths")
            .field("servers", static_cast<std::uint64_t>(dims.servers))
            .field("objects", static_cast<std::uint64_t>(dims.objects))
            .field("report_mode", bench::report_mode_name(mode))
            .field("seconds", seconds)
            .field("rounds", static_cast<std::uint64_t>(result.rounds.size()))
            .field("candidate_evaluations", result.candidate_evaluations)
            .field("reports_computed", result.reports_computed)
            .object_field(
                "obs",
                bench::obs_block(bench::mechanism_decisions(cfg),
                                 obs_before, obs_after, /*runs=*/1));
        json.add(std::move(record));
      }

      // Per-round trace of an untimed default-mode run for this cell.
      if (trace) {
        core::AgtRamConfig cfg;
        cfg.observer = trace.get();
        bench::JsonWriter::Record meta;
        meta.field("benchmark", "table1_obs_trace")
            .field("servers", static_cast<std::uint64_t>(dims.servers))
            .field("objects", static_cast<std::uint64_t>(dims.objects))
            .object_field("decisions", bench::mechanism_decisions(cfg));
        trace->meta(meta);
        core::run_agt_ram(problem, cfg);
      }

      // The paper reports the % improvement AGT-RAM brings over the row.
      row.push_back(common::Table::pct(
          (slowest - agtram_seconds) / slowest, 1));
      table.add_row(std::move(row));
      std::cerr << "  M=" << dims.servers << " N=" << dims.objects << " done\n";
    }
  }
  bench::emit(cli, table);
  if (trace) {
    trace->close();
    std::cout << "obs trace written to " << cli.get("obs-trace") << "\n";
  }
  const std::string json_path = cli.get("json");
  if (!json_path.empty()) {
    if (json.write_file(json_path, "table1_exec_time")) {
      std::cout << "json written to " << json_path << "\n";
    } else {
      std::cerr << "failed to write " << json_path << "\n";
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return agtram::common::run_main(argc, argv, run);
}
