// Chaos sweep over the sharded TSDB: 500 seeded fault scenarios against a
// 4-shard metrics store whose shards are the targets of the TSDB fault
// kinds (write errors and stale reads on one shard or on every shard). A shard losing writes or freezing reads degrades the
// scheduler's metrics view — it must never break the chaos invariants:
// the EPC stays uncommitted-bounded on surviving nodes, no pod is lost or
// double-placed, and the cluster reconverges once every fault heals.
//
// Labeled chaos: run explicitly with `ctest -L chaos`.
#include <gtest/gtest.h>

#include <string>

#include "chaos_harness.hpp"

namespace sgxo::exp {
namespace {

void run_shard(std::uint64_t first_seed, std::uint64_t last_seed) {
  chaos::ScenarioConfig config;
  config.tsdb_shards = 4;
  for (std::uint64_t seed = first_seed; seed <= last_seed; ++seed) {
    const chaos::ScenarioResult result = chaos::run_scenario(seed, config);
    for (const std::string& violation : result.violations) {
      ADD_FAILURE() << "seed " << seed << ": " << violation
                    << "\n  plan: " << result.plan;
    }
    EXPECT_GT(result.injected, 0u) << "seed " << seed;
    EXPECT_EQ(result.injected, result.healed)
        << "seed " << seed << " plan: " << result.plan;
  }
}

TEST(ChaosTsdbShardSweep, Seeds001To050) { run_shard(1, 50); }
TEST(ChaosTsdbShardSweep, Seeds051To100) { run_shard(51, 100); }
TEST(ChaosTsdbShardSweep, Seeds101To150) { run_shard(101, 150); }
TEST(ChaosTsdbShardSweep, Seeds151To200) { run_shard(151, 200); }
TEST(ChaosTsdbShardSweep, Seeds201To250) { run_shard(201, 250); }
TEST(ChaosTsdbShardSweep, Seeds251To300) { run_shard(251, 300); }
TEST(ChaosTsdbShardSweep, Seeds301To350) { run_shard(301, 350); }
TEST(ChaosTsdbShardSweep, Seeds351To400) { run_shard(351, 400); }
TEST(ChaosTsdbShardSweep, Seeds401To450) { run_shard(401, 450); }
TEST(ChaosTsdbShardSweep, Seeds451To500) { run_shard(451, 500); }

}  // namespace
}  // namespace sgxo::exp
