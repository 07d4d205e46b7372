#include "drp/placement_io.hpp"

#include <cstdint>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "common/parse.hpp"

namespace agtram::drp {

void write_placement(std::ostream& os, const ReplicaPlacement& placement) {
  const Problem& p = placement.problem();
  os << "# agtram replica scheme: " << placement.extra_replica_count()
     << " extra replicas over " << p.object_count() << " objects\n";
  for (ObjectIndex k = 0; k < p.object_count(); ++k) {
    const auto replicators = placement.replicators(k);
    if (replicators.size() <= 1) continue;  // primary only
    os << k << ':';
    for (const ServerId i : replicators) {
      if (i != p.primary[k]) os << ' ' << i;
    }
    os << '\n';
  }
}

ReplicaPlacement read_placement(std::istream& is, const Problem& problem) {
  ReplicaPlacement placement(problem);
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(is, line)) {
    ++line_number;
    const auto fail = [&](const std::string& what) {
      throw std::runtime_error("placement line " + std::to_string(line_number) +
                               ": " + what);
    };
    // Strip comments and whitespace-only lines.
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    if (line.find_first_not_of(" \t") == std::string::npos) continue;

    const auto colon = line.find(':');
    if (colon == std::string::npos) fail("missing ':'");
    // The whole field, blanks aside, must be the index and fit in 64 bits,
    // so "0x", "0.5", "-0" and an overflowing index are refused rather than
    // read as object 0.
    const auto first = line.find_first_not_of(" \t");
    if (first >= colon) fail("bad object index");
    const std::size_t last = line.find_last_not_of(" \t", colon - 1);
    std::uint64_t object = 0;
    if (!common::parse_unsigned(
            std::string_view(line).substr(first, last + 1 - first), object)) {
      fail("bad object index");
    }
    if (object >= problem.object_count()) fail("object index out of range");

    std::istringstream servers(line.substr(colon + 1));
    std::string token;
    while (servers >> token) {
      std::uint64_t server = 0;
      if (!common::parse_unsigned(token, server)) fail("bad server id");
      if (server >= problem.server_count()) fail("server id out of range");
      const auto i = static_cast<ServerId>(server);
      const auto k = static_cast<ObjectIndex>(object);
      if (placement.is_replicator(i, k)) fail("duplicate replica");
      if (!placement.can_replicate(i, k)) fail("capacity violated");
      placement.add_replica(i, k);
    }
  }
  return placement;
}

}  // namespace agtram::drp
