// Network topology generators.
//
// The paper's experimental setup (Section 5) draws topologies from GT-ITM
// ("a random graph G(M, P(edge=p)) with p in {0.4 ... 0.8}") and uses the
// Inet generator to size the AS-level Internet of 1998 at M = 3718 nodes.
// Neither tool is redistributable here, so this module implements the same
// graph families from their published definitions:
//
//  * FlatRandom     — GT-ITM "pure random" model: every edge independently
//                     present with probability p; uniform link costs.
//  * Waxman         — GT-ITM's distance-biased random model on a unit square:
//                     P(u,v) = a * exp(-d(u,v) / (b * L)).
//  * TransitStub    — GT-ITM's hierarchical Internet model: a small transit
//                     core, each transit node sponsoring stub domains; intra-
//                     domain links cheap, transit links expensive.
//  * PowerLaw       — Inet-style AS topology: preferential attachment
//                     (Barabási–Albert) producing a power-law degree
//                     distribution.
//
// All generators guarantee a connected result (components are patched with
// max-cost edges, mirroring GT-ITM's resample-until-connected behaviour
// without unbounded retries) and reverse-map Euclidean/hop distance onto the
// integer cost of transferring one data unit, as described in the paper
// ("the distance between two servers was reverse mapped to the communication
// cost of transmitting 1 kB").
#pragma once

#include <cstdint>
#include <string>

#include "common/prng.hpp"
#include "net/graph.hpp"

namespace agtram::net {

enum class TopologyKind { FlatRandom, Waxman, TransitStub, PowerLaw, Tree };

/// Shape of the Tree family (the replica-placement-on-trees setting of
/// Benoit–Rehn–Robert, cs/0611034):
///  * Random      — uniform recursive tree: node v attaches to a uniformly
///                  random earlier node (expected depth O(log n)).
///  * Balanced    — complete `tree_arity`-ary tree (minimal depth).
///  * Caterpillar — a path spine with the remaining nodes as legs hanging
///                  off it round-robin (depth Θ(n): the worst case for the
///                  closest-ancestor placement policy).
enum class TreeShape { Random, Balanced, Caterpillar };

/// Parse "random" | "waxman" | "transit-stub" | "power-law" | "tree" |
/// "tree-balanced" | "tree-caterpillar" (throws on junk).  The tree aliases
/// select the kind only; the shape lives in TopologyConfig::tree_shape.
TopologyKind parse_topology_kind(const std::string& name);
std::string to_string(TopologyKind kind);

struct TopologyConfig {
  TopologyKind kind = TopologyKind::FlatRandom;
  std::uint32_t nodes = 100;
  std::uint64_t seed = 1;

  /// FlatRandom: independent edge probability.
  double edge_probability = 0.5;

  /// Tree family: shape and (Balanced only) the branching factor.
  TreeShape tree_shape = TreeShape::Random;
  std::uint32_t tree_arity = 3;
};

/// Link costs are drawn uniformly from [kMinCost, kMaxCost] and scaled by
/// the model-specific distance factor.
inline constexpr Cost kMinCost = 1;
inline constexpr Cost kMaxCost = 10;

/// Builds a connected topology per the config.  Deterministic in (config).
Graph generate_topology(const TopologyConfig& config);

}  // namespace agtram::net
