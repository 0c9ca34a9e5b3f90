// Chaos property harness, part 3: the shared-state sweep — 500 seeded
// fault scenarios with four *active* scheduler replicas (Omega-style:
// sharded pending queues, work stealing, batched bind transactions) and
// scheduler crashes targeting every replica mixed into every random plan.
// The invariants are the standard three (EPC never over-committed, no pod
// lost or double-placed, reconvergence after the last heal); optimistic
// concurrency must preserve them while replicas race each other and die
// mid-cycle. Every 50th seed also runs twice to pin bit-identical
// same-seed determinism under the multi-scheduler path.
//
// Labeled chaos-shared: run with `ctest -L chaos-shared` or the
// chaos-shared preset.
#include <gtest/gtest.h>

#include <string>

#include "chaos_harness.hpp"

namespace sgxo::exp {
namespace {

chaos::ScenarioConfig shared_config() {
  chaos::ScenarioConfig config;
  config.scheduler_replicas = 4;
  return config;
}

void run_shard(std::uint64_t first_seed, std::uint64_t last_seed) {
  const chaos::ScenarioConfig config = shared_config();
  for (std::uint64_t seed = first_seed; seed <= last_seed; ++seed) {
    const chaos::ScenarioResult result = chaos::run_scenario(seed, config);
    for (const std::string& violation : result.violations) {
      ADD_FAILURE() << "seed " << seed << ": " << violation
                    << "\n  plan: " << result.plan;
    }
    EXPECT_GT(result.injected, 0u) << "seed " << seed;
    EXPECT_EQ(result.injected, result.healed)
        << "seed " << seed << " plan: " << result.plan;
    // The fleet actually scheduled through batch transactions.
    EXPECT_GT(result.batches, 0u) << "seed " << seed;
    if (seed % 50 == 0) {
      const chaos::ScenarioResult rerun = chaos::run_scenario(seed, config);
      EXPECT_EQ(result.event_log, rerun.event_log)
          << "seed " << seed << " is not deterministic";
    }
  }
}

TEST(ChaosSharedSweep, Seeds001To050) { run_shard(1, 50); }
TEST(ChaosSharedSweep, Seeds051To100) { run_shard(51, 100); }
TEST(ChaosSharedSweep, Seeds101To150) { run_shard(101, 150); }
TEST(ChaosSharedSweep, Seeds151To200) { run_shard(151, 200); }
TEST(ChaosSharedSweep, Seeds201To250) { run_shard(201, 250); }
TEST(ChaosSharedSweep, Seeds251To300) { run_shard(251, 300); }
TEST(ChaosSharedSweep, Seeds301To350) { run_shard(301, 350); }
TEST(ChaosSharedSweep, Seeds351To400) { run_shard(351, 400); }
TEST(ChaosSharedSweep, Seeds401To450) { run_shard(401, 450); }
TEST(ChaosSharedSweep, Seeds451To500) { run_shard(451, 500); }

}  // namespace
}  // namespace sgxo::exp
