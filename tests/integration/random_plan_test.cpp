// random_plan over the chaos sweeps' plan configs (base, 4-shard TSDB,
// attesting) and one with no crash or scheduler targets: over seeds
// 1-200 each draws exactly the kinds its config supports, every one of
// them, and names only targets the config lists ("" for every probe or
// every shard).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "chaos_harness.hpp"

namespace sgxo::exp {
namespace {

using sim::FaultKind;

struct Case {
  std::string name;
  sim::RandomPlanConfig config;
  std::set<FaultKind> kinds;  // the kinds the config supports
};

std::vector<Case> cases() {
  const std::string scheduler =
      core::SgxAwareScheduler::default_name(core::PlacementPolicy::kBinpack);
  const std::set<FaultKind> always = {
      FaultKind::kProbeDropout,   FaultKind::kHeapsterDropout,
      FaultKind::kSampleDelay,    FaultKind::kTsdbWriteError,
      FaultKind::kTsdbStaleReads, FaultKind::kWatchDisconnect};
  std::set<FaultKind> crashes = always;
  crashes.insert({FaultKind::kNodeCrash, FaultKind::kSchedulerCrash});
  std::set<FaultKind> attesting = crashes;
  attesting.insert({FaultKind::kAttestationVerifierOutage,
                    FaultKind::kAttestationSlowVerify,
                    FaultKind::kReattestationStorm});

  chaos::ScenarioConfig sharded;
  sharded.tsdb_shards = 4;
  chaos::ScenarioConfig attested;
  attested.attestation = true;
  attested.attestation_faults = true;
  sim::RandomPlanConfig no_crash_targets = chaos::plan_config({}, scheduler);
  no_crash_targets.crash_targets.clear();
  no_crash_targets.scheduler_targets.clear();
  return {
      {"base", chaos::plan_config({}, scheduler), crashes},
      {"4-shard", chaos::plan_config(sharded, scheduler), crashes},
      {"attesting", chaos::plan_config(attested, scheduler), attesting},
      {"no crash targets", no_crash_targets, always},
  };
}

bool listed(const std::vector<std::string>& targets,
            const std::string& target) {
  return std::find(targets.begin(), targets.end(), target) != targets.end();
}

TEST(RandomPlan, DrawsEverySupportedKindAndNoOther) {
  for (const Case& c : cases()) {
    SCOPED_TRACE(c.name);
    std::set<FaultKind> drawn;
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
      Rng rng{seed};
      for (const sim::FaultSpec& fault :
           sim::random_plan(rng, c.config).faults) {
        EXPECT_EQ(c.kinds.count(fault.kind), 1u)
            << "seed " << seed << " drew " << fault.describe();
        drawn.insert(fault.kind);
      }
    }
    EXPECT_EQ(drawn, c.kinds);
  }
}

TEST(RandomPlan, TargetsComeFromTheConfigLists) {
  for (const Case& c : cases()) {
    SCOPED_TRACE(c.name);
    const sim::RandomPlanConfig& config = c.config;
    std::set<std::string> shard_targets;
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
      Rng rng{seed};
      for (const sim::FaultSpec& fault : sim::random_plan(rng, config).faults) {
        const std::string where =
            "seed " + std::to_string(seed) + ": " + fault.describe();
        switch (fault.kind) {
          case FaultKind::kNodeCrash:
            EXPECT_TRUE(listed(config.crash_targets, fault.target)) << where;
            break;
          case FaultKind::kSchedulerCrash:
            EXPECT_TRUE(listed(config.scheduler_targets, fault.target))
                << where;
            break;
          case FaultKind::kProbeDropout:
            EXPECT_TRUE(fault.target.empty() ||
                        listed(config.probe_targets, fault.target))
                << where;
            break;
          case FaultKind::kTsdbWriteError:
          case FaultKind::kTsdbStaleReads:
            EXPECT_TRUE(fault.target.empty() ||
                        listed(config.tsdb_shard_targets, fault.target))
                << where;
            shard_targets.insert(fault.target);
            break;
          default:
            EXPECT_TRUE(fault.target.empty()) << where;
            break;
        }
      }
    }
    // Both every shard ("") and single shards are drawn.
    EXPECT_EQ(shard_targets.count(""), 1u);
    EXPECT_GT(shard_targets.size(), 1u);
  }
}

}  // namespace
}  // namespace sgxo::exp
