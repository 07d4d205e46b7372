// Shared support for the figure/table reproduction harness.
//
// Scale calibration (see DESIGN.md "Substitutions" and EXPERIMENTS.md):
//
//  * Dimensions.  The paper runs M = 3718 servers x N = 25000 objects; the
//    default bench scale divides both by ~10-15 so the full suite finishes
//    in minutes on a laptop.  Every binary takes --servers/--objects (and
//    --scale paper to restore the full size).
//
//  * Capacity axis.  The paper's C% is relative to its trace's per-server
//    demand density; in our synthetic instances the capacity constraint
//    stops binding at a much smaller fraction of the total object bytes
//    (each server's profitable set is ~1-2% of the catalogue).  The bench
//    therefore maps the paper's C% axis linearly onto the binding region:
//    capacity_fraction = C% * kCapacityPerPercent, which reproduces the
//    figure shapes (steep rise, then plateau) over the same 10%..45% axis.
#pragma once

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "baselines/registry.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "core/agt_ram.hpp"
#include "drp/builder.hpp"
#include "drp/cost_model.hpp"

namespace agtram::bench {

/// Minimal JSON emitter for bench results: a flat array of records under a
/// top-level object.  No external dependency, string values escaped, numbers
/// rendered with %.9g (doubles survive a round-trip at bench precision).
class JsonWriter {
 public:
  class Record {
   public:
    Record& field(const std::string& key, const std::string& value) {
      append_key(key);
      body_ += '"';
      body_ += escape(value);
      body_ += '"';
      return *this;
    }
    Record& field(const std::string& key, const char* value) {
      return field(key, std::string(value));
    }
    Record& field(const std::string& key, double value) {
      char buf[48];
      std::snprintf(buf, sizeof(buf), "%.9g", value);
      append_key(key);
      body_ += buf;
      return *this;
    }
    Record& field(const std::string& key, std::uint64_t value) {
      append_key(key);
      body_ += std::to_string(value);
      return *this;
    }
    Record& field(const std::string& key, bool value) {
      append_key(key);
      body_ += value ? "true" : "false";
      return *this;
    }
    /// Nests another record as an object value (e.g. a row's `obs` block).
    Record& object_field(const std::string& key, const Record& nested) {
      append_key(key);
      body_ += nested.body_.empty() ? "{" : nested.body_;
      body_ += '}';
      return *this;
    }
    /// The record as one standalone JSON object (used by the --obs-trace
    /// JSONL writer, which emits records outside a JsonWriter array).
    std::string json() const {
      return body_.empty() ? std::string("{}") : body_ + "}";
    }

   private:
    friend class JsonWriter;
    static std::string escape(const std::string& raw) {
      std::string out;
      out.reserve(raw.size());
      for (const char c : raw) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) < 0x20) continue;  // drop control
        out += c;
      }
      return out;
    }
    void append_key(const std::string& key) {
      body_ += body_.empty() ? "{" : ", ";
      body_ += '"';
      body_ += escape(key);
      body_ += "\": ";
    }
    std::string body_;
  };

  void add(Record record) { records_.push_back(std::move(record)); }
  std::size_t size() const noexcept { return records_.size(); }

  /// Writes {"source": ..., "results": [...]} to `path`; returns success.
  bool write_file(const std::string& path, const std::string& source) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\n  \"source\": \"" << Record::escape(source)
        << "\",\n  \"results\": [\n";
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const std::string& body = records_[i].body_;
      out << "    " << (body.empty() ? "{" : body.c_str()) << "}"
          << (i + 1 < records_.size() ? ",\n" : "\n");
    }
    out << "  ]\n}\n";
    return static_cast<bool>(out);
  }

 private:
  std::vector<Record> records_;
};

inline const char* report_mode_name(core::ReportMode mode) {
  switch (mode) {
    case core::ReportMode::Naive: return "naive";
    case core::ReportMode::Incremental: return "incremental";
    case core::ReportMode::Auto: return "auto";
  }
  return "?";
}

inline constexpr double kCapacityPerPercent = 0.0005;

/// Paper C% (e.g. 25.0) -> builder capacity fraction.
inline double capacity_fraction(double paper_percent) {
  return paper_percent * kCapacityPerPercent;
}

// Each binary registers exactly the flags it reads, so common::Cli refuses
// any other as an unknown flag.

/// Registers --scale and --seed, which every reproduction binary reads.
inline void add_common_flags(common::Cli& cli) {
  cli.add_flag("scale", "default",
               "'default' keeps this binary's sizes; 'paper' restores the "
               "paper's full sizes, up to M=3718, N=25000 (slow!)");
  cli.add_flag("seed", "2007", "experiment seed");
}

/// Registers --servers and --objects, the sizes resolve_dims reads.
inline void add_size_flags(common::Cli& cli) {
  cli.add_flag("servers", "160", "number of servers M (paper: 3718)");
  cli.add_flag("objects", "1600", "number of objects N (paper: 25000)");
}

/// Registers --csv, the path emit also writes its table to.
inline void add_csv_flag(common::Cli& cli) {
  cli.add_flag("csv", "", "also write results as CSV to this file path");
}

/// Flag shared by the binaries that sweep the baseline registry: which
/// evaluation path the baselines use.  Both paths produce bit-identical
/// placements (enforced by tests/baselines_delta_test.cpp); 'naive' exists
/// to re-measure the oracle.
inline void add_baseline_eval_flag(common::Cli& cli) {
  cli.add_flag("baseline-eval", "delta",
               "baseline evaluation path: 'delta' (incremental engine) or "
               "'naive' (full-recompute oracle; identical results)");
}

inline baselines::AlgoOptions resolve_algo_options(const common::Cli& cli) {
  baselines::AlgoOptions options;
  options.eval = cli.get_choice("baseline-eval", {"delta", "naive"}) == "naive"
                     ? baselines::EvalPath::Naive
                     : baselines::EvalPath::Delta;
  return options;
}

struct Dims {
  std::uint32_t servers;
  std::uint32_t objects;
};

/// --scale paper: the paper's full experiment sizes.
inline bool paper_scale(const common::Cli& cli) {
  return cli.get_choice("scale", {"default", "paper"}) == "paper";
}

inline Dims resolve_dims(const common::Cli& cli) {
  if (paper_scale(cli)) return Dims{3718, 25000};
  return Dims{cli.get_unsigned<std::uint32_t>("servers"),
              cli.get_unsigned<std::uint32_t>("objects")};
}

/// Builds the experiment instance for a (C%, R/W) cell.
///
/// Topology choice mirrors the paper: GT-ITM-style flat random graphs at
/// bench scale, but the Inet-style power-law family once M reaches
/// AS-level size (the paper itself sizes M = 3718 with Inet; a dense
/// G(M, 0.5) of that order would also make the metric closure needlessly
/// expensive).
inline drp::Problem build_instance(Dims dims, double paper_capacity_percent,
                                   double rw, std::uint64_t seed) {
  drp::InstanceSpec spec;
  spec.servers = dims.servers;
  spec.objects = dims.objects;
  spec.seed = seed;
  if (dims.servers > 1000) spec.topology = net::TopologyKind::PowerLaw;
  spec.instance.capacity_fraction = capacity_fraction(paper_capacity_percent);
  spec.instance.rw_ratio = rw;
  return drp::make_instance(spec);
}

struct RunOutcome {
  double savings;       ///< OTC saved vs. primaries-only, fraction
  double seconds;       ///< wall time of the placement algorithm
  std::size_t replicas; ///< replicas placed beyond the primaries
};

inline RunOutcome run_algorithm(const baselines::AlgorithmEntry& algorithm,
                                const drp::Problem& problem,
                                double initial_cost, std::uint64_t seed) {
  common::Timer timer;
  const drp::ReplicaPlacement placement = algorithm.run(problem, seed);
  const double seconds = timer.seconds();
  const double cost = drp::CostModel::total_cost(placement);
  return RunOutcome{(initial_cost - cost) / initial_cost, seconds,
                    placement.extra_replica_count()};
}

/// Mean savings of `algorithm` over `trials` instances built by `make`.
/// `make(seed)` must return a fresh Problem per trial seed.
template <typename MakeInstance>
RunOutcome run_trials(const baselines::AlgorithmEntry& algorithm,
                      const MakeInstance& make, std::uint64_t base_seed,
                      std::uint32_t trials) {
  RunOutcome mean{0.0, 0.0, 0};
  for (std::uint32_t t = 0; t < trials; ++t) {
    const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(t);
    const drp::Problem problem = make(seed);
    const double initial = drp::CostModel::initial_cost(problem);
    const RunOutcome outcome = run_algorithm(algorithm, problem, initial, seed);
    mean.savings += outcome.savings / static_cast<double>(trials);
    mean.seconds += outcome.seconds / static_cast<double>(trials);
    mean.replicas += outcome.replicas / static_cast<std::size_t>(trials);
  }
  return mean;
}

/// Prints the table and honours --csv.
inline void emit(const common::Cli& cli, const common::Table& table) {
  table.print(std::cout);
  const std::string csv_path = cli.get("csv");
  if (!csv_path.empty()) {
    std::ofstream out(csv_path);
    table.write_csv(out);
    std::cout << "csv written to " << csv_path << "\n";
  }
}

}  // namespace agtram::bench
