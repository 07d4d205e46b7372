// Unit tests for src/trace: the synthetic World Cup generator, log
// serialisation, and the log-processing pipeline.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <unordered_set>

#include "trace/access_log.hpp"
#include "trace/pipeline.hpp"
#include "trace/worldcup.hpp"

namespace {

using namespace agtram::trace;

WorldCupConfig tiny_config() {
  WorldCupConfig cfg;
  cfg.days = 3;
  cfg.object_universe = 50;
  cfg.core_objects = 20;
  cfg.clients = 15;
  cfg.requests_per_day = 2000;
  cfg.seed = 99;
  return cfg;
}

// ----------------------------------------------------------- generator

TEST(WorldCup, ProducesRequestedDayCount) {
  const auto days = generate_worldcup_trace(tiny_config());
  ASSERT_EQ(days.size(), 3u);
  for (std::uint32_t d = 0; d < 3; ++d) EXPECT_EQ(days[d].day_index, d);
}

TEST(WorldCup, CoreObjectsPresentEveryDay) {
  const auto cfg = tiny_config();
  const auto days = generate_worldcup_trace(cfg);
  for (const DayLog& day : days) {
    std::unordered_set<ObjectId> seen;
    for (const Request& r : day.requests) seen.insert(r.object);
    for (ObjectId k = 0; k < cfg.core_objects; ++k) {
      EXPECT_TRUE(seen.contains(k)) << "day " << day.day_index << " object " << k;
    }
  }
}

TEST(WorldCup, TrafficRampsAcrossDays) {
  auto cfg = tiny_config();
  cfg.day_ramp = 0.5;
  const auto days = generate_worldcup_trace(cfg);
  EXPECT_GT(days.back().requests.size(), days.front().requests.size());
}

TEST(WorldCup, DeterministicInSeed) {
  const auto a = generate_worldcup_trace(tiny_config());
  const auto b = generate_worldcup_trace(tiny_config());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t d = 0; d < a.size(); ++d) {
    ASSERT_EQ(a[d].requests.size(), b[d].requests.size());
    for (std::size_t i = 0; i < a[d].requests.size(); ++i) {
      EXPECT_EQ(a[d].requests[i].client, b[d].requests[i].client);
      EXPECT_EQ(a[d].requests[i].object, b[d].requests[i].object);
      EXPECT_EQ(a[d].requests[i].units, b[d].requests[i].units);
    }
  }
}

TEST(WorldCup, AllFieldsInRange) {
  const auto cfg = tiny_config();
  for (const DayLog& day : generate_worldcup_trace(cfg)) {
    for (const Request& r : day.requests) {
      EXPECT_LT(r.client, cfg.clients);
      EXPECT_LT(r.object, cfg.object_universe);
      EXPECT_GE(r.units, 1u);
    }
  }
}

TEST(WorldCup, ObjectSizesDeterministicAndBounded) {
  const auto cfg = tiny_config();
  const auto a = worldcup_object_sizes(cfg);
  const auto b = worldcup_object_sizes(cfg);
  ASSERT_EQ(a.size(), cfg.object_universe);
  EXPECT_EQ(a, b);
  for (auto s : a) {
    EXPECT_GE(s, 1u);
    EXPECT_LE(s, kMaxObjectUnits);
  }
}

TEST(WorldCup, PopularityIsZipfSkewed) {
  auto cfg = tiny_config();
  cfg.requests_per_day = 20000;
  const auto days = generate_worldcup_trace(cfg);
  std::vector<std::size_t> counts(cfg.object_universe, 0);
  for (const auto& day : days) {
    for (const Request& r : day.requests) ++counts[r.object];
  }
  // Rank 0 should dominate the median object by a wide margin.
  EXPECT_GT(counts[0], 8 * counts[cfg.object_universe / 2]);
}

TEST(WorldCup, InvalidConfigsThrow) {
  auto cfg = tiny_config();
  cfg.days = 0;
  EXPECT_THROW(generate_worldcup_trace(cfg), std::invalid_argument);
  cfg = tiny_config();
  cfg.core_objects = cfg.object_universe + 1;
  EXPECT_THROW(generate_worldcup_trace(cfg), std::invalid_argument);
  cfg = tiny_config();
  cfg.requests_per_day = cfg.core_objects - 1;
  EXPECT_THROW(generate_worldcup_trace(cfg), std::invalid_argument);
}

TEST(WorldCup, DailyFluxRotatesTheHotSet) {
  auto cfg = tiny_config();
  cfg.object_universe = 400;
  cfg.core_objects = 5;
  cfg.requests_per_day = 30000;
  cfg.daily_flux = 0.5;
  const auto days = generate_worldcup_trace(cfg);

  const auto top_object = [&](const DayLog& day) {
    std::vector<std::size_t> counts(cfg.object_universe, 0);
    for (const Request& r : day.requests) ++counts[r.object];
    // Exclude the forced core from the ranking.
    std::size_t best = cfg.core_objects;
    for (std::size_t k = cfg.core_objects; k < counts.size(); ++k) {
      if (counts[k] > counts[best]) best = k;
    }
    return best;
  };
  // With half the universe reshuffled daily, the non-core hot object
  // should differ between day 0 and at least one later day.
  const std::size_t day0 = top_object(days[0]);
  bool rotated = false;
  for (std::size_t d = 1; d < days.size(); ++d) {
    rotated = rotated || top_object(days[d]) != day0;
  }
  EXPECT_TRUE(rotated);
}

TEST(WorldCup, ZeroFluxKeepsTheLawStable) {
  auto cfg = tiny_config();
  cfg.daily_flux = 0.0;
  const auto a = generate_worldcup_trace(cfg);
  cfg.daily_flux = 0.0;
  const auto b = generate_worldcup_trace(cfg);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t d = 0; d < a.size(); ++d) {
    ASSERT_EQ(a[d].requests.size(), b[d].requests.size());
  }
}

// ------------------------------------------------------- serialisation

TEST(AccessLog, RoundTrip) {
  DayLog log;
  log.day_index = 4;
  log.requests = {{1, 2, 30}, {5, 6, 70}};
  std::stringstream ss;
  write_day_log(ss, log);
  const DayLog parsed = read_day_log(ss);
  EXPECT_EQ(parsed.day_index, 4u);
  ASSERT_EQ(parsed.requests.size(), 2u);
  EXPECT_EQ(parsed.requests[1].client, 5u);
  EXPECT_EQ(parsed.requests[1].object, 6u);
  EXPECT_EQ(parsed.requests[1].units, 70u);
}

TEST(AccessLog, MalformedLineThrows) {
  // Each bad line follows a good one, so the refusal must name line 2.
  const auto expect_refused = [](const std::string& bad) {
    std::stringstream ss("4 1 2 3\n" + bad + "\n");
    try {
      read_day_log(ss);
      ADD_FAILURE() << "accepted: " << bad;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
          << e.what();
    }
  };
  expect_refused("4 1 junk");
  expect_refused("4 -1 2 3");   // negative client
  expect_refused("4 1 -2 3");   // negative object
  expect_refused("4 1 2 3.5");  // fractional units
  expect_refused("4 1 2 3 4");  // fifth field
  expect_refused("4 1 2 4294967296");  // units past uint32
}

TEST(AccessLog, MixedDaysThrow) {
  std::stringstream ss("1 1 1 1\n2 1 1 1\n");
  EXPECT_THROW(read_day_log(ss), std::runtime_error);
}

// ------------------------------------------------------------ pipeline

std::vector<DayLog> crafted_days() {
  // day 0: objects {0,1,2}; day 1: objects {0,1}; object 2 misses day 1.
  DayLog d0{0, {{0, 0, 10}, {0, 1, 20}, {1, 2, 30}, {1, 0, 10}}};
  DayLog d1{1, {{0, 0, 10}, {2, 1, 22}, {0, 1, 18}}};
  return {d0, d1};
}

TEST(Pipeline, ObjectsInAllDays) {
  const auto objects = objects_in_all_days(crafted_days());
  EXPECT_EQ(objects, (std::vector<ObjectId>{0, 1}));
}

TEST(Pipeline, ObjectsInAllDaysEmptyInput) {
  EXPECT_TRUE(objects_in_all_days({}).empty());
}

TEST(Pipeline, TopClientsByVolumeWithTieBreak) {
  // client 0: 5 requests, client 1: 2, client 2: 1
  const auto days = crafted_days();
  EXPECT_EQ(top_clients(days, 1), (std::vector<ClientId>{0}));
  EXPECT_EQ(top_clients(days, 2), (std::vector<ClientId>{0, 1}));
  EXPECT_EQ(top_clients(days, 10), (std::vector<ClientId>{0, 1, 2}));
}

TEST(Pipeline, MappingRespectsFanoutBounds) {
  PipelineConfig cfg;
  cfg.servers = 10;
  cfg.min_fanout = 2;
  cfg.max_fanout = 4;
  cfg.seed = 3;
  const std::vector<ClientId> clients{1, 2, 3, 4, 5};
  const auto mapping = map_clients_to_servers(clients, cfg);
  ASSERT_EQ(mapping.size(), clients.size());
  for (const auto& servers : mapping) {
    EXPECT_GE(servers.size(), 2u);
    EXPECT_LE(servers.size(), 4u);
    std::set<std::uint32_t> unique(servers.begin(), servers.end());
    EXPECT_EQ(unique.size(), servers.size());  // distinct servers
    for (auto s : servers) EXPECT_LT(s, 10u);
  }
}

TEST(Pipeline, MappingInvalidConfigThrows) {
  PipelineConfig cfg;
  cfg.servers = 0;
  EXPECT_THROW(map_clients_to_servers({1}, cfg), std::invalid_argument);
  cfg.servers = 4;
  cfg.min_fanout = 3;
  cfg.max_fanout = 2;
  EXPECT_THROW(map_clients_to_servers({1}, cfg), std::invalid_argument);
}

TEST(Pipeline, RunPipelinePreservesDemandVolume) {
  PipelineConfig cfg;
  cfg.servers = 6;
  cfg.top_clients = 10;
  cfg.min_fanout = 1;
  cfg.max_fanout = 2;
  cfg.seed = 8;
  const Workload wl = run_pipeline(crafted_days(), cfg);

  // Objects 0 and 1 survive; object 2 (absent on day 1) is dropped.
  ASSERT_EQ(wl.object_count(), 2u);
  EXPECT_EQ(wl.object_ids, (std::vector<ObjectId>{0, 1}));

  // Total surviving requests: all records touching objects 0/1 = 6.
  EXPECT_EQ(wl.total_requests, 6u);

  // Per-object demand conservation across the client->server split:
  // object 0 has 3 requests, object 1 has 3.
  for (std::size_t k = 0; k < 2; ++k) {
    std::uint64_t reads = 0;
    for (const auto& row : wl.reads[k]) {
      reads += row.reads;
      EXPECT_LT(row.server, 6u);
    }
    EXPECT_EQ(reads, 3u) << "object " << k;
  }
}

TEST(Pipeline, SizeStatistics) {
  PipelineConfig cfg;
  cfg.servers = 4;
  cfg.seed = 9;
  const Workload wl = run_pipeline(crafted_days(), cfg);
  // Object 0 delivered units: 10, 10, 10 -> mean 10, variance 0.
  EXPECT_EQ(wl.object_units[0], 10u);
  EXPECT_EQ(wl.size_variance[0], 0.0);
  // Object 1 delivered units: 20, 22, 18 -> mean 20, variance 4.
  EXPECT_EQ(wl.object_units[1], 20u);
  EXPECT_NEAR(wl.size_variance[1], 4.0, 1e-9);
}

TEST(Pipeline, DeterministicInSeed) {
  PipelineConfig cfg;
  cfg.servers = 8;
  cfg.seed = 10;
  const Workload a = run_pipeline(crafted_days(), cfg);
  const Workload b = run_pipeline(crafted_days(), cfg);
  ASSERT_EQ(a.object_count(), b.object_count());
  for (std::size_t k = 0; k < a.object_count(); ++k) {
    ASSERT_EQ(a.reads[k].size(), b.reads[k].size());
    for (std::size_t r = 0; r < a.reads[k].size(); ++r) {
      EXPECT_EQ(a.reads[k][r].server, b.reads[k][r].server);
      EXPECT_EQ(a.reads[k][r].reads, b.reads[k][r].reads);
    }
  }
}

TEST(Pipeline, EndToEndWithGeneratedTrace) {
  auto cfg = tiny_config();
  const auto days = generate_worldcup_trace(cfg);
  PipelineConfig pipe;
  pipe.servers = 12;
  pipe.top_clients = 10;
  pipe.seed = 5;
  const Workload wl = run_pipeline(days, pipe);
  // The guaranteed core survives the present-in-all-days filter.
  EXPECT_GE(wl.object_count(), cfg.core_objects);
  EXPECT_GT(wl.total_requests, 0u);
  for (std::size_t k = 0; k < wl.object_count(); ++k) {
    EXPECT_GE(wl.object_units[k], 1u);
    for (const auto& row : wl.reads[k]) EXPECT_LT(row.server, 12u);
  }
}

}  // namespace
