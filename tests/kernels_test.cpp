// Proof obligations for the SIMD/SoA kernel engine (DESIGN.md §10):
//
//  * reference parity — every kernel reproduces its scalar reference loop
//    (the pre-kernel AoS code, transcribed verbatim below) bit for bit over
//    randomized inputs covering empty rows, single-accessor objects, lane
//    remainders, and sizes straddling the dispatch cutoff;
//  * dispatch parity — best_add_read_pass, the one kernel with a vector arm,
//    agrees bit for bit with its portable loop: it runs under
//    set_simd_enabled(true) and (false) and must produce identical bits (on
//    non-AVX2 hosts both arms are the portable loop and the check is
//    trivially green);
//  * engine parity — the candidate scan built on it produces identical bits
//    with SIMD on and off on generated instances, including placements
//    pushed through the inline -> spill-arena crossover at
//    kInlineReplicators.
//
// Failures print hexfloats so a single-ULP drift is visible.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <random>
#include <vector>

#include "drp/access_matrix.hpp"
#include "drp/cost_model.hpp"
#include "drp/delta_evaluator.hpp"
#include "drp/kernels.hpp"
#include "drp/placement.hpp"
#include "test_helpers.hpp"

namespace {

using namespace agtram;
using drp::ServerId;
namespace kernels = drp::kernels;

std::string hex(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

#define EXPECT_BITEQ(a, b)                                                 \
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b)) \
      << hex(a) << " vs " << hex(b)

/// Restores the dispatch toggle on scope exit.
struct SimdGuard {
  bool was = kernels::simd_active();
  ~SimdGuard() { kernels::set_simd_enabled(was); }
};

/// One randomized flat "accessor row" plus the distance rows the kernels
/// gather from.  Servers ascending (the CSR invariant); reads/writes are
/// u64-valued doubles exactly as AccessMatrix::build widens them.
struct RowFixture {
  std::vector<ServerId> servers;
  std::vector<double> reads;
  std::vector<double> writes;
  std::vector<net::Cost> nn;
  std::vector<net::Cost> primary_row;  // size m, indexed by server id
  std::vector<std::uint8_t> member;
  std::size_t m = 0;

  static RowFixture make(std::mt19937_64& rng, std::size_t n, std::size_t m) {
    RowFixture f;
    f.m = m;
    std::vector<ServerId> ids(m);
    for (std::size_t i = 0; i < m; ++i) ids[i] = static_cast<ServerId>(i);
    std::shuffle(ids.begin(), ids.end(), rng);
    ids.resize(std::min(n, m));
    std::sort(ids.begin(), ids.end());
    std::uniform_int_distribution<std::uint64_t> demand(0, 1u << 20);
    std::uniform_int_distribution<net::Cost> dist(0, 5000);
    std::bernoulli_distribution mem(0.3);
    std::bernoulli_distribution zero(0.2);
    for (const ServerId id : ids) {
      f.servers.push_back(id);
      f.reads.push_back(
          static_cast<double>(zero(rng) ? 0 : demand(rng)));
      f.writes.push_back(
          static_cast<double>(zero(rng) ? 0 : demand(rng)));
      f.nn.push_back(dist(rng));
      f.member.push_back(mem(rng) ? 1 : 0);
    }
    f.primary_row.resize(m);
    for (auto& c : f.primary_row) c = dist(rng);
    return f;
  }
};

// Sizes straddling the vector arm's lane width (8) and its dispatch cutoff
// (kernels::kMinSimdServers, 16), plus empty and single-entry rows.
constexpr std::size_t kSizes[] = {0, 1, 2,  3,  4,  5,  7,  8,
                                  9, 15, 16, 17, 31, 32, 63, 257};

// ---------------------------------------------------------------------------
// Reference loops: verbatim transcriptions of the pre-kernel scalar code.

kernels::CostAccum ref_object_cost_accumulate(const RowFixture& f, double o,
                                              double w_total) {
  kernels::CostAccum acc;
  for (std::size_t s = 0; s < f.servers.size(); ++s) {
    const double cp = static_cast<double>(f.primary_row[f.servers[s]]);
    acc.cost += f.writes[s] * o * cp;
    if (f.member[s]) {
      acc.cost += (w_total - f.writes[s]) * o * cp;
    } else {
      acc.cost += f.reads[s] * o * static_cast<double>(f.nn[s]);
      if (f.reads[s] != 0.0) {
        acc.saving += f.reads[s] * o * static_cast<double>(f.nn[s]);
      }
    }
  }
  return acc;
}

double ref_read_savings(const RowFixture& f,
                        const std::vector<net::Cost>& i_row, double o) {
  double benefit = 0.0;
  for (std::size_t s = 0; s < f.servers.size(); ++s) {
    if (f.reads[s] == 0.0 || f.member[s]) continue;
    const net::Cost current = f.nn[s];
    const net::Cost with_i = std::min(current, i_row[f.servers[s]]);
    benefit += f.reads[s] * o *
               (static_cast<double>(current) - static_cast<double>(with_i));
  }
  return benefit;
}

TEST(KernelReference, ObjectCostAccumulateMatchesScalarLoop) {
  std::mt19937_64 rng(7);
  for (const std::size_t n : kSizes) {
    RowFixture f = RowFixture::make(rng, n, 300);
    const double o = 3.0;
    double w_total = 0.0;
    for (const double w : f.writes) w_total += w;
    const kernels::CostAccum want = ref_object_cost_accumulate(f, o, w_total);
    const kernels::CostAccum got = kernels::object_cost_accumulate(
        f.servers, f.reads, f.writes, f.nn, f.primary_row, f.member.data(), o,
        w_total);
    EXPECT_BITEQ(got.cost, want.cost) << "n=" << n;
    EXPECT_BITEQ(got.saving, want.saving) << "n=" << n;
  }
}

TEST(KernelReference, ReadSavingsAccumulateMatchesScalarLoop) {
  std::mt19937_64 rng(8);
  std::uniform_int_distribution<net::Cost> dist(0, 5000);
  for (const std::size_t n : kSizes) {
    RowFixture f = RowFixture::make(rng, n, 300);
    std::vector<net::Cost> i_row(f.m);
    for (auto& c : i_row) c = dist(rng);
    const double o = 5.0;
    const double want = ref_read_savings(f, i_row, o);
    const double got = kernels::read_savings_accumulate(
        f.servers, f.reads, f.nn, i_row, f.member.data(), o);
    EXPECT_BITEQ(got, want) << "n=" << n;
  }
}

TEST(KernelReference, NnMinFamilyMatchesScalarLoop) {
  std::mt19937_64 rng(9);
  std::uniform_int_distribution<net::Cost> dist(0, 1u << 30);
  const std::size_t m = 600;
  std::vector<net::Cost> row(m);
  for (auto& c : row) c = dist(rng);
  for (const std::size_t n : kSizes) {
    std::vector<ServerId> all(m);
    for (std::size_t i = 0; i < m; ++i) all[i] = static_cast<ServerId>(i);
    std::vector<ServerId> reps;
    std::sample(all.begin(), all.end(), std::back_inserter(reps), n, rng);
    net::Cost want = net::kUnreachable;
    for (const ServerId r : reps) want = std::min(want, row[r]);
    const ServerId excluded = reps.empty() ? 0 : reps[reps.size() / 2];
    net::Cost want_ex = net::kUnreachable;
    for (const ServerId r : reps) {
      if (r != excluded) want_ex = std::min(want_ex, row[r]);
    }
    EXPECT_EQ(kernels::nn_min(row, reps), want) << "n=" << n;
    EXPECT_EQ(kernels::nn_min_excluding(row, reps, excluded), want_ex)
        << "n=" << n;
  }
}

TEST(KernelReference, MinWithRowMatchesScalarLoopAndAliases) {
  std::mt19937_64 rng(10);
  std::uniform_int_distribution<net::Cost> dist(0, 1u << 30);
  for (const std::size_t n : kSizes) {
    RowFixture f = RowFixture::make(rng, n, 300);
    std::vector<net::Cost> row(f.m);
    for (auto& c : row) c = dist(rng);
    std::vector<net::Cost> want(f.servers.size());
    for (std::size_t s = 0; s < f.servers.size(); ++s) {
      want[s] = std::min(f.nn[s], row[f.servers[s]]);
    }
    std::vector<net::Cost> out(f.servers.size(), 0);
    kernels::min_with_row(f.nn, f.servers, row, out.data());
    EXPECT_EQ(out, want) << "n=" << n;
    std::vector<net::Cost> in_place = f.nn;  // out may alias the input
    kernels::min_with_row(in_place, f.servers, row, in_place.data());
    EXPECT_EQ(in_place, want) << "n=" << n;
  }
}

TEST(KernelReference, BestAddPassesMatchScalarLoops) {
  SimdGuard guard;
  std::mt19937_64 rng(11);
  std::uniform_int_distribution<net::Cost> dist(0, 5000);
  const double o = 2.0;
  for (const std::size_t m : kSizes) {
    std::vector<net::Cost> a_row(m), primary_row(m);
    std::vector<double> w_dense(m);
    for (auto& c : a_row) c = dist(rng);
    for (auto& c : primary_row) c = dist(rng);
    std::uniform_int_distribution<std::uint64_t> demand(0, 1u << 20);
    for (auto& w : w_dense) w = static_cast<double>(demand(rng));
    const net::Cost current = 2500;
    const double ro = 17.0 * o;
    const double w_total = 1.0e6;
    // References accumulate on top of a nonzero benefit array, as the scan
    // does from the second active reader on.
    std::vector<double> want(m, 0.125);
    for (std::size_t i = 0; i < m; ++i) {
      const net::Cost with_i = std::min(current, a_row[i]);
      want[i] += ro * (static_cast<double>(current) -
                       static_cast<double>(with_i));
    }
    for (const bool simd : {true, false}) {
      kernels::set_simd_enabled(simd);
      std::vector<double> got(m, 0.125);
      kernels::best_add_read_pass(ro, current, a_row, 0, m, got.data());
      for (std::size_t i = 0; i < m; ++i) {
        EXPECT_BITEQ(got[i], want[i])
            << "m=" << m << " i=" << i << " simd=" << simd;
      }
      // Partial [first, last) ranges leave everything else untouched.
      if (m >= 8) {
        std::vector<double> part(m, 0.0);
        kernels::best_add_read_pass(ro, current, a_row, 3, m - 2,
                                    part.data());
        EXPECT_EQ(part[0], 0.0);
        EXPECT_EQ(part[m - 1], 0.0);
      }
      // Skip-heavy regimes: when few (or no) candidates beat `current`,
      // the vector arm may skip whole all-+0.0 blocks — results must
      // still match the always-add scalar loop bit for bit.
      for (const net::Cost sparse_current : {net::Cost{0}, net::Cost{3}}) {
        std::vector<double> sparse_want(m, 0.125);
        for (std::size_t i = 0; i < m; ++i) {
          const net::Cost with_i = std::min(sparse_current, a_row[i]);
          sparse_want[i] += ro * (static_cast<double>(sparse_current) -
                                  static_cast<double>(with_i));
        }
        std::vector<double> sparse_got(m, 0.125);
        kernels::best_add_read_pass(ro, sparse_current, a_row, 0, m,
                                    sparse_got.data());
        for (std::size_t i = 0; i < m; ++i) {
          EXPECT_BITEQ(sparse_got[i], sparse_want[i])
              << "m=" << m << " i=" << i << " current=" << sparse_current;
        }
      }
    }
    // broadcast_price_pass has one path, priced on top of the read pass.
    std::vector<double> got = want;
    kernels::broadcast_price_pass(w_total, o, w_dense, primary_row, 0, m,
                                  got.data());
    for (std::size_t i = 0; i < m; ++i) {
      want[i] -=
          (w_total - w_dense[i]) * o * static_cast<double>(primary_row[i]);
      EXPECT_BITEQ(got[i], want[i]) << "m=" << m << " i=" << i;
    }
  }
}

TEST(KernelReference, MemberMaskMatchesBinarySearch) {
  std::mt19937_64 rng(12);
  for (const std::size_t n : kSizes) {
    RowFixture f = RowFixture::make(rng, n, 300);
    std::vector<ServerId> reps;
    std::bernoulli_distribution pick(0.4);
    for (ServerId i = 0; i < 300; ++i) {
      if (pick(rng)) reps.push_back(i);
    }
    std::vector<std::uint8_t> mask(f.servers.size(), 2);
    kernels::member_mask(f.servers, reps, mask.data());
    for (std::size_t s = 0; s < f.servers.size(); ++s) {
      const bool want =
          std::binary_search(reps.begin(), reps.end(), f.servers[s]);
      EXPECT_EQ(mask[s], want ? 1 : 0) << "slot " << s;
    }
  }
}

// ---------------------------------------------------------------------------
// Dispatch state

TEST(KernelDispatch, ToggleRoundTripsAndNeverEnablesUnsupported) {
  SimdGuard guard;
  kernels::set_simd_enabled(false);
  EXPECT_FALSE(kernels::simd_active());
  kernels::set_simd_enabled(true);
  // Enabling is a no-op unless the vector TU is compiled in AND the CPU
  // supports it.
  EXPECT_EQ(kernels::simd_active(),
            kernels::simd_compiled() && kernels::simd_supported());
}

// ---------------------------------------------------------------------------
// Engine parity: the rewired call sites, and the candidate scan under SIMD on
// vs off.

TEST(KernelEngineParity, SoaStreamsMirrorAosCells) {
  const drp::Problem p = testutil::small_instance(21, 48, 120);
  for (drp::ObjectIndex k = 0; k < p.object_count(); ++k) {
    const auto aos = p.access.accessors(k);
    const auto servers = p.access.accessor_servers(k);
    const auto reads = p.access.accessor_reads_d(k);
    const auto writes = p.access.accessor_writes_d(k);
    ASSERT_EQ(servers.size(), aos.size());
    for (std::size_t s = 0; s < aos.size(); ++s) {
      EXPECT_EQ(servers[s], aos[s].server);
      EXPECT_BITEQ(reads[s], static_cast<double>(aos[s].reads));
      EXPECT_BITEQ(writes[s], static_cast<double>(aos[s].writes));
    }
  }
}

TEST(KernelEngineParity, BestAddForObjectBitIdenticalSimdOnOff) {
  SimdGuard guard;
  const drp::Problem p = testutil::small_instance(33, 64, 150, 0.2);
  drp::DeltaEvaluator eval{drp::ReplicaPlacement(p)};
  std::mt19937_64 rng(34);
  std::uniform_int_distribution<ServerId> pick_server(
      0, static_cast<ServerId>(p.server_count() - 1));
  // Grow some replica sets (through the inline -> arena crossover on the
  // busiest objects) so the scan and the replica-min cost have real sets to
  // stage against.
  for (int step = 0; step < 400; ++step) {
    const auto k =
        static_cast<drp::ObjectIndex>(rng() % p.object_count());
    const ServerId i = pick_server(rng);
    if (eval.can_replicate(i, k)) eval.add_replica(i, k);
  }
  bool crossed = false;
  for (drp::ObjectIndex k = 0; k < p.object_count(); ++k) {
    crossed |= eval.placement().replicators(k).size() >
               drp::ReplicaPlacement::kInlineReplicators;
  }
  EXPECT_TRUE(crossed) << "fixture never reached the spill-arena crossover";

  drp::DeltaEvaluator::ScanScratch scratch;
  for (drp::ObjectIndex k = 0; k < p.object_count(); ++k) {
    const double cost = drp::CostModel::object_cost(eval.placement(), k);
    const double with_reps = drp::CostModel::object_cost_with_replicators(
        p, k, eval.placement().replicators(k));
    EXPECT_BITEQ(with_reps, cost) << "k=" << k;
    kernels::set_simd_enabled(true);
    const auto on = eval.best_add_for_object(k, nullptr, scratch, false);
    kernels::set_simd_enabled(false);
    const auto off = eval.best_add_for_object(k, nullptr, scratch, false);
    EXPECT_BITEQ(off.benefit, on.benefit) << "k=" << k;
    EXPECT_EQ(off.server, on.server) << "k=" << k;
  }
}

TEST(KernelEngineParity, EmptyAndSingleAccessorObjects) {
  // Hand-built matrix with an empty row and a single-accessor row.
  drp::Problem p;
  p.distances = std::make_shared<const net::DistanceMatrix>(
      net::DistanceMatrix::from_rows(3, {0, 1, 3,  //
                                         1, 0, 2,  //
                                         3, 2, 0}));
  p.object_units = {2, 3, 1};
  p.primary = {0, 2, 1};
  p.capacity = {10, 10, 10};
  std::vector<std::vector<drp::Access>> rows(3);
  rows[0] = {};                // nobody touches object 0
  rows[1] = {{0, 6, 2}};       // single accessor
  rows[2] = {{0, 1, 0}, {2, 5, 4}};
  p.access = drp::AccessMatrix::build(3, 3, std::move(rows));
  p.validate();

  drp::ReplicaPlacement placement(p);
  EXPECT_BITEQ(drp::CostModel::object_cost(placement, 0), 0.0);
  const double c1 = drp::CostModel::object_cost(placement, 1);
  const double c1_reps = drp::CostModel::object_cost_with_replicators(
      p, 1, placement.replicators(1));
  EXPECT_BITEQ(c1, c1_reps);
  EXPECT_GT(drp::CostModel::object_cost(placement, 2), 0.0);
}

}  // namespace
