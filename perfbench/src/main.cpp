// perfbench: one workload of the end-to-end benchmark in one process.
//
//   perfbench --workload NAME --seed N [--size full|small] [--trace 0|1]
//             [--spans FILE]
//
// Writes one JSON object (metrics, counts, checks, digests, provenance and,
// when traced, stage sums and per-span self times) as the last line of
// standard output.  Exits 1 when any operation failed or any check of the
// correctness gate failed, 2 on bad arguments.  perfbench/run.py is the
// command that builds this binary and turns its output into the report.
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>

#include "report.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N [--size "
               "full|small] [--trace 0|1] [--spans FILE]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool traced = false;
  bool have_seed = false;
  std::string spans_path;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      char* end = nullptr;
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return usage("--seed takes an integer");
      have_seed = true;
    } else if (flag == "--size") {
      if (value != "full" && value != "small") return usage("bad --size");
      options.small = value == "small";
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      traced = value == "1";
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.workload.empty() || !have_seed) {
    return usage("--workload and --seed are required");
  }

  try {
    perfbench::Tracer tracer(traced);
    const perfbench::Result result = perfbench::run_workload(options, tracer);
    if (!spans_path.empty() && tracer.enabled()) tracer.write_json(spans_path);
    for (const perfbench::Check& c : result.checks) {
      if (!c.ok) {
        std::cerr << "perfbench: check failed: " << c.name << ": " << c.detail
                  << "\n";
      }
    }
    perfbench::write_result_json(result, std::cout);
    std::cout.flush();
    return result.failed == 0 && result.all_checks_pass() ? 0 : 1;
  } catch (const std::invalid_argument& e) {
    return usage(e.what());
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
