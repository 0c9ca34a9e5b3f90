// Targeted attestation chaos scenarios (default suite — the 500-seed
// randomized sweep lives behind the `attest` label). Each test pins one
// hand-written fault plan against the full control plane: a re-attestation
// storm against a healthy verifier must reconverge without churn, a storm
// inside a verifier outage must shed SGX pods and still reconverge after
// the heal, and a seed must replay bit-identically through the attestation
// event paths.
#include <gtest/gtest.h>

#include <string>

#include "chaos_harness.hpp"
#include "cluster/pod.hpp"
#include "exp/fixture.hpp"
#include "sim/fault.hpp"

namespace sgxo::exp {
namespace {

using namespace sgxo::literals;

cluster::PodSpec attested_pod(const std::string& name) {
  cluster::PodBehavior behavior;
  behavior.sgx = true;
  behavior.actual_usage = Pages{100}.as_bytes();
  behavior.duration = Duration::minutes(5);
  return cluster::make_stressor_pod(name, {0_B, Pages{100}},
                                    {0_B, Pages{100}}, behavior);
}

sim::FaultSpec fault(sim::FaultKind kind, Duration at, Duration duration) {
  sim::FaultSpec spec;
  spec.kind = kind;
  spec.at = at;
  spec.duration = duration;
  return spec;
}

/// Attested cluster with a binpack scheduler and four running SGX pods;
/// arms `plan` and returns after the cluster re-quiesced.
struct StormRig {
  StormRig() {
    ClusterConfig config;
    config.attestation = true;
    cluster.emplace(config);
    auto& scheduler =
        cluster->add_sgx_scheduler(core::PlacementPolicy::kBinpack);
    cluster->api().set_default_scheduler(scheduler.name());
    cluster->start_monitoring();
    injector.emplace(cluster->sim());
    cluster->install_fault_handlers(*injector);
    for (int i = 0; i < 4; ++i) {
      cluster->api().submit(attested_pod("enclave-" + std::to_string(i)));
    }
  }

  bool run(const sim::FaultPlan& plan) {
    injector->arm(plan);
    return cluster->run_until_quiescent(4);
  }

  std::optional<SimulatedCluster> cluster;
  std::optional<sim::FaultInjector> injector;
};

/// Runs one scenario and funnels its violations into test failures.
chaos::ScenarioResult expect_clean(std::uint64_t seed,
                                   const chaos::ScenarioConfig& config) {
  const chaos::ScenarioResult result = chaos::run_scenario(seed, config);
  for (const std::string& violation : result.violations) {
    ADD_FAILURE() << "seed " << seed << ": " << violation << "\n  plan: "
                  << result.plan;
  }
  return result;
}

TEST(AttestChaos, AttestedClusterConvergesUnderGeneralFaults) {
  // Attestation on, but only the pre-existing fault kinds in the plan:
  // the gate must be invisible when the verifier is healthy — every job
  // completes, nothing is evicted for attestation reasons.
  chaos::ScenarioConfig config;
  config.attestation = true;
  config.attestation_faults = false;
  const chaos::ScenarioResult result = expect_clean(7, config);
  EXPECT_TRUE(result.converged);
  EXPECT_GT(result.attestation_verifications, 0u);
  EXPECT_EQ(result.attestation_evictions, 0u);
  EXPECT_EQ(result.attestation_storms, 0u);
}

TEST(AttestChaos, AttestationFaultsDriveTheGateAndStillConverge) {
  // Many faults drawn from the full kind set (attestation kinds included):
  // whatever mix the seed yields, the invariants hold and the cluster
  // reconverges after the last heal.
  chaos::ScenarioConfig config;
  config.attestation = true;
  config.attestation_faults = true;
  config.min_faults = 4;
  config.max_faults = 8;
  const chaos::ScenarioResult result = expect_clean(11, config);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.injected, result.healed);
  EXPECT_GT(result.attestation_verifications, 0u);
}

TEST(AttestChaos, StormAgainstAHealthyVerifierCausesNoChurn) {
  StormRig rig;
  sim::FaultPlan plan;
  plan.faults.push_back(fault(sim::FaultKind::kReattestationStorm,
                              Duration::seconds(60), Duration::seconds(1)));
  EXPECT_TRUE(rig.run(plan));
  const orch::AttestationGate& gate = *rig.cluster->attestation_gate();
  EXPECT_EQ(gate.storms(), 1u);
  // The renewal won the race against hard expiry on every node: forced
  // re-verification happened, nothing was evicted, every pod completed.
  EXPECT_EQ(gate.evictions(), 0u);
  for (const orch::PodRecord* record : rig.cluster->api().all_pods()) {
    EXPECT_EQ(record->phase, cluster::PodPhase::kSucceeded)
        << record->spec.name;
    EXPECT_EQ(record->evictions, 0u) << record->spec.name;
  }
}

TEST(AttestChaos, StormDuringAnOutageShedsPodsThenReconverges) {
  StormRig rig;
  sim::FaultPlan plan;
  // The verifier dies, then every verdict is forcibly expired while it is
  // still down: the grace window cannot be renewed, so running SGX pods
  // are shed. After the heal the evicted pods re-place and finish.
  plan.faults.push_back(fault(sim::FaultKind::kAttestationVerifierOutage,
                              Duration::seconds(50), Duration::minutes(2)));
  plan.faults.push_back(fault(sim::FaultKind::kReattestationStorm,
                              Duration::seconds(60), Duration::seconds(1)));
  EXPECT_TRUE(rig.run(plan));
  const orch::AttestationGate& gate = *rig.cluster->attestation_gate();
  EXPECT_EQ(gate.storms(), 1u);
  EXPECT_GT(gate.evictions(), 0u);
  std::uint64_t evicted_pods = 0;
  for (const orch::PodRecord* record : rig.cluster->api().all_pods()) {
    EXPECT_EQ(record->phase, cluster::PodPhase::kSucceeded)
        << record->spec.name;
    if (record->evictions > 0) ++evicted_pods;
  }
  EXPECT_GT(evicted_pods, 0u);
}

TEST(AttestChaos, SameSeedReplaysBitIdentically) {
  chaos::ScenarioConfig config;
  config.attestation = true;
  config.attestation_faults = true;
  const chaos::ScenarioResult first = chaos::run_scenario(23, config);
  const chaos::ScenarioResult second = chaos::run_scenario(23, config);
  EXPECT_EQ(first.event_log, second.event_log);
  EXPECT_EQ(first.plan, second.plan);
  EXPECT_EQ(first.succeeded, second.succeeded);
  EXPECT_EQ(first.attestation_verifications, second.attestation_verifications);
  EXPECT_EQ(first.attestation_evictions, second.attestation_evictions);
}

}  // namespace
}  // namespace sgxo::exp
