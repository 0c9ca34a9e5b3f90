// Chaos property harness, part 3: the attestation sweep — 500 seeded
// fault scenarios with attestation-gated admission on and the attestation
// fault kinds (verifier outage, slow verify, re-attestation storm) mixed
// into every random plan. On top of the standard invariants (EPC never
// over-committed, no pod lost or double-placed, reconvergence after the
// last heal), the 15-second probe asserts that no SGX pod is ever running
// on a node whose verdict is expired or rejected — the property the
// verdict cache, hard-expiry eviction and kubelet fail-closed retries
// exist to uphold. Every 50th seed also runs twice to pin bit-identical
// same-seed determinism through the attestation event paths.
//
// Labeled attest: run with `ctest -L attest` or the chaos-attest preset.
#include <gtest/gtest.h>

#include <string>

#include "chaos_harness.hpp"

namespace sgxo::exp {
namespace {

chaos::ScenarioConfig attest_config() {
  chaos::ScenarioConfig config;
  config.attestation = true;
  config.attestation_faults = true;
  return config;
}

void run_shard(std::uint64_t first_seed, std::uint64_t last_seed) {
  const chaos::ScenarioConfig config = attest_config();
  for (std::uint64_t seed = first_seed; seed <= last_seed; ++seed) {
    const chaos::ScenarioResult result = chaos::run_scenario(seed, config);
    for (const std::string& violation : result.violations) {
      ADD_FAILURE() << "seed " << seed << ": " << violation
                    << "\n  plan: " << result.plan;
    }
    EXPECT_GT(result.injected, 0u) << "seed " << seed;
    EXPECT_EQ(result.injected, result.healed)
        << "seed " << seed << " plan: " << result.plan;
    // The gate actually stood in the bind path: every SGX bind needed a
    // verdict, so verification traffic is never zero.
    EXPECT_GT(result.attestation_verifications, 0u) << "seed " << seed;
    if (seed % 50 == 0) {
      const chaos::ScenarioResult rerun = chaos::run_scenario(seed, config);
      EXPECT_EQ(result.event_log, rerun.event_log)
          << "seed " << seed << " is not deterministic";
    }
  }
}

TEST(ChaosAttestSweep, Seeds001To050) { run_shard(1, 50); }
TEST(ChaosAttestSweep, Seeds051To100) { run_shard(51, 100); }
TEST(ChaosAttestSweep, Seeds101To150) { run_shard(101, 150); }
TEST(ChaosAttestSweep, Seeds151To200) { run_shard(151, 200); }
TEST(ChaosAttestSweep, Seeds201To250) { run_shard(201, 250); }
TEST(ChaosAttestSweep, Seeds251To300) { run_shard(251, 300); }
TEST(ChaosAttestSweep, Seeds301To350) { run_shard(301, 350); }
TEST(ChaosAttestSweep, Seeds351To400) { run_shard(351, 400); }
TEST(ChaosAttestSweep, Seeds401To450) { run_shard(401, 450); }
TEST(ChaosAttestSweep, Seeds451To500) { run_shard(451, 500); }

}  // namespace
}  // namespace sgxo::exp
