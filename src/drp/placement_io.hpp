// Replica-scheme serialisation: lets the CLI tools and deployments persist
// a placement and reload it against the same instance (e.g. the nightly
// refresh of examples/cdn_worldcup writing the scheme the CDN's control
// plane consumes).
//
// Format: one line per object with at least one extra replica —
//   <object-index>: <server> <server> ...
// (primaries are implicit; '#' starts a comment).
#pragma once

#include <iosfwd>

#include "drp/placement.hpp"

namespace agtram::drp {

/// Writes the extra replicas (beyond primaries) of `placement`.
void write_placement(std::ostream& os, const ReplicaPlacement& placement);

/// Reconstructs a placement for `problem` from a stream produced by
/// write_placement.  Throws std::runtime_error on malformed input,
/// out-of-range ids, duplicate replicas, or capacity violations.
ReplicaPlacement read_placement(std::istream& is, const Problem& problem);
/// The placement keeps a pointer to the Problem: a temporary one is refused.
ReplicaPlacement read_placement(std::istream&, Problem&&) = delete;

}  // namespace agtram::drp
