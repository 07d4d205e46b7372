// agtram_tracegen — synthesise World-Cup-'98-style day logs to disk and,
// optionally, verify the round trip through the log-processing pipeline.
//
//   agtram_tracegen --out /tmp/trace --days 5 --objects 2000
//   agtram_tracegen --out /tmp/trace --verify true
//
// Files are written as <out>/day_<n>.log in the text format of
// trace/access_log.hpp, so external tooling (or a real trace converted to
// the same shape) can feed the pipeline interchangeably.
#include <filesystem>
#include <fstream>
#include <iostream>

#include "common/cli.hpp"
#include "trace/pipeline.hpp"
#include "trace/worldcup.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace agtram;
  namespace fs = std::filesystem;

  common::Cli cli("generate synthetic World Cup '98 day logs");
  cli.add_flag("out", "trace_out", "output directory");
  cli.add_flag("days", "13", "number of day logs");
  cli.add_flag("objects", "2000", "object universe size");
  cli.add_flag("core", "1400", "objects guaranteed present every day");
  cli.add_flag("clients", "500", "distinct clients");
  cli.add_flag("requests", "100000", "requests per day (before ramp)");
  cli.add_flag("zipf", "1.1", "popularity exponent");
  cli.add_flag("seed", "1998", "generator seed");
  cli.add_flag("verify", "false",
               "read the files back and print the pipeline summary");
  if (!cli.parse(argc, argv)) return cli.help_requested() ? 0 : 1;

  trace::WorldCupConfig cfg;
  cfg.days = cli.get_unsigned<std::uint32_t>("days");
  cfg.object_universe = cli.get_unsigned<std::uint32_t>("objects");
  cfg.core_objects = cli.get_unsigned<std::uint32_t>("core");
  cfg.clients = cli.get_unsigned<std::uint32_t>("clients");
  cfg.requests_per_day = cli.get_unsigned<std::uint64_t>("requests");
  cfg.popularity_exponent = cli.get_double("zipf");
  cfg.seed = cli.get_unsigned<std::uint64_t>("seed");
  const bool verify = cli.get_bool("verify");

  const auto days = trace::generate_worldcup_trace(cfg);
  const fs::path out(cli.get("out"));
  fs::create_directories(out);
  std::uint64_t total = 0;
  for (const trace::DayLog& day : days) {
    const fs::path file = out / ("day_" + std::to_string(day.day_index) + ".log");
    std::ofstream os(file);
    if (!os) {
      std::cerr << "cannot write " << file << "\n";
      return 1;
    }
    trace::write_day_log(os, day);
    total += day.requests.size();
  }
  std::cout << "wrote " << days.size() << " day logs (" << total
            << " requests) to " << out << "\n";

  if (verify) {
    std::vector<trace::DayLog> loaded;
    for (std::uint32_t d = 0; d < cfg.days; ++d) {
      std::ifstream is(out / ("day_" + std::to_string(d) + ".log"));
      loaded.push_back(trace::read_day_log(is));
    }
    trace::PipelineConfig pipe;
    pipe.servers = 100;
    pipe.top_clients = cfg.clients;
    const trace::Workload workload = trace::run_pipeline(loaded, pipe);
    std::cout << "verify: pipeline kept " << workload.object_count()
              << " objects present in all days, " << workload.total_requests
              << " requests from the top " << pipe.top_clients
              << " clients\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return agtram::common::run_main(argc, argv, run);
}
