// 16-seed byte-identity sweep for the sharded fabric (ISSUE PR 10,
// satellite 3). For every seed the same chaos-enabled surveillance
// campaign runs on 1, 2, and 8 shards plus one repeated run, and the
// merged incident log, merged chrome trace, and merged metrics JSON
// must be byte-identical across all four executions. Runs under TSan
// in the `shard` check stage; each seed is its own ctest entry
// (shard_seed_N) via the GTEST_FILTER pattern in tests/CMakeLists.txt.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "artifact_dump.hpp"
#include "core/usecase_shard.hpp"
#include "fabric/fault.hpp"
#include "shard/fabric.hpp"
#include "util/sim_time.hpp"

namespace sh = osprey::shard;
using osprey::fabric::FaultKind;
using osprey::fabric::FaultPlan;
using osprey::util::kDay;

namespace {

struct RunArtifacts {
  std::string incidents;
  std::string trace;
  std::string metrics;
  std::string prometheus;
};

FaultPlan chaos_for(std::uint64_t seed) {
  // Master plan; each partition forks an independent stream keyed by
  // its stable key hash, so these rates apply per partition.
  // kProcessCrash is exercised by the durability tests, not here: it
  // would require mid-epoch recovery orchestration.
  FaultPlan plan(0xC4A05000 + seed);
  plan.set_rate(FaultKind::kTransferDrop, 0.05);
  plan.set_rate(FaultKind::kTransferStall, 0.05);
  plan.set_rate(FaultKind::kTransferCorrupt, 0.03);
  plan.set_rate(FaultKind::kComputeKill, 0.03);
  plan.set_rate(FaultKind::kSourceOutage, 0.02);
  plan.set_rate(FaultKind::kFlowStall, 0.04);
  return plan;
}

RunArtifacts run_campaign(std::uint64_t seed, std::size_t num_shards) {
  sh::ShardedFabricConfig config;
  config.num_shards = num_shards;
  config.seed = 0x5EED0000 + seed;
  sh::ShardedFabric fabric(config);
  fabric.set_chaos(chaos_for(seed));
  fabric.register_campaign(
      osprey::core::make_surveillance_campaign("sweep", 4, 28));
  fabric.run_until(28 * kDay);
  RunArtifacts out;
  out.incidents = fabric.merged_incident_log();
  out.trace = fabric.merged_chrome_trace();
  out.metrics = fabric.merged_metrics().to_json();
  out.prometheus = fabric.merged_prometheus();
  return out;
}

}  // namespace

class ShardReplayTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShardReplayTest, ByteIdenticalAcrossShardCountsAndReruns) {
  const std::uint64_t seed = GetParam();
  RunArtifacts base = run_campaign(seed, 1);
  osprey::testing::dump_artifacts("shard_seed_" + std::to_string(seed),
                                  {{"incidents.txt", base.incidents},
                                   {"trace.json", base.trace},
                                   {"metrics.json", base.metrics},
                                   {"metrics.prom", base.prometheus}});
  // Chaos at these rates must actually bite, or the sweep proves
  // nothing about fault-path determinism.
  EXPECT_NE(base.incidents.find("[fault]"), std::string::npos)
      << "seed " << seed << " injected no faults";

  RunArtifacts two = run_campaign(seed, 2);
  RunArtifacts eight = run_campaign(seed, 8);
  RunArtifacts again = run_campaign(seed, 8);

  EXPECT_EQ(base.incidents, two.incidents);
  EXPECT_EQ(base.incidents, eight.incidents);
  EXPECT_EQ(base.incidents, again.incidents);

  EXPECT_EQ(base.trace, two.trace);
  EXPECT_EQ(base.trace, eight.trace);
  EXPECT_EQ(base.trace, again.trace);

  EXPECT_EQ(base.metrics, two.metrics);
  EXPECT_EQ(base.metrics, eight.metrics);
  EXPECT_EQ(base.metrics, again.metrics);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardReplayTest,
                         ::testing::Range(std::uint64_t{0}, std::uint64_t{16}));
