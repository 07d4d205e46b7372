// Glauber-dynamics baseline: determinism per seed, the Delta-vs-Naive
// pricing identity (bit-identical trajectories), and registry integration
// as the seventh baseline.
#include <gtest/gtest.h>

#include <cmath>

#include "baselines/glauber.hpp"
#include "baselines/registry.hpp"
#include "drp/cost_model.hpp"
#include "test_helpers.hpp"

namespace agtram {
namespace {

bool same_placement(const drp::ReplicaPlacement& a,
                    const drp::ReplicaPlacement& b,
                    drp::ObjectIndex objects) {
  for (drp::ObjectIndex k = 0; k < objects; ++k) {
    const auto ra = a.replicators(k);
    const auto rb = b.replicators(k);
    if (ra.size() != rb.size()) return false;
    for (std::size_t i = 0; i < ra.size(); ++i) {
      if (ra[i] != rb[i]) return false;
    }
  }
  return true;
}

TEST(Glauber, DeterministicPerSeed) {
  const drp::Problem p = testutil::small_instance(61);
  baselines::GlauberConfig cfg;
  cfg.seed = 5;
  const baselines::GlauberResult a = baselines::run_glauber(p, cfg);
  const baselines::GlauberResult b = baselines::run_glauber(p, cfg);

  EXPECT_EQ(a.final_cost, b.final_cost);  // bit-exact, not just close
  EXPECT_EQ(a.proposals, b.proposals);
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_TRUE(same_placement(a.placement, b.placement, p.object_count()));
}

TEST(Glauber, DeltaAndNaivePricingWalkTheSameChain) {
  const drp::Problem p = testutil::small_instance(67, 14, 36);
  baselines::GlauberConfig delta_cfg;
  delta_cfg.seed = 9;
  delta_cfg.eval = baselines::EvalPath::Delta;
  baselines::GlauberConfig naive_cfg = delta_cfg;
  naive_cfg.eval = baselines::EvalPath::Naive;

  const baselines::GlauberResult fast = baselines::run_glauber(p, delta_cfg);
  const baselines::GlauberResult oracle = baselines::run_glauber(p, naive_cfg);

  // Identical deltas mean the shared rng stream is consumed identically, so
  // the accept/reject sequence — and hence everything downstream — matches.
  EXPECT_EQ(fast.proposals, oracle.proposals);
  EXPECT_EQ(fast.accepted, oracle.accepted);
  EXPECT_EQ(fast.final_cost, oracle.final_cost);
  EXPECT_TRUE(
      same_placement(fast.placement, oracle.placement, p.object_count()));
}

TEST(Glauber, AnnealsDownFromPrimariesOnly) {
  const drp::Problem p = testutil::small_instance(71);
  baselines::GlauberConfig cfg;
  cfg.seed = 3;
  const baselines::GlauberResult result = baselines::run_glauber(p, cfg);

  EXPECT_GT(result.proposals, 0u);
  // The near-zero starting temperature makes the chain effectively greedy:
  // it never ends above the primaries-only cost it started from.
  EXPECT_LE(result.final_cost, drp::CostModel::initial_cost(p) + 1e-9);
  EXPECT_DOUBLE_EQ(result.final_cost,
                   drp::CostModel::total_cost(result.placement));
}

TEST(Glauber, RegisteredAsSeventhBaseline) {
  const auto entries = baselines::extended_algorithms({});
  bool found = false;
  for (const auto& entry : entries) found |= entry.name == "Glauber";
  EXPECT_TRUE(found);

  const drp::Problem p = testutil::small_instance(79, 12, 30);
  const auto entry = baselines::find_algorithm("Glauber");
  const drp::ReplicaPlacement placement = entry.run(p, /*seed=*/2);
  EXPECT_GE(drp::CostModel::savings(placement), 0.0);
}

}  // namespace
}  // namespace agtram
