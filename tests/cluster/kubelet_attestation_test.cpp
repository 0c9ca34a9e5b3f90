// Kubelet-side re-attestation at bind delivery: the local verdict TTL,
// fail-closed SGX retries with capped deterministic backoff, fail-open
// degradation for non-SGX pods, and definitive rejections failing the pod
// with "AttestationRejected".
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cluster/image_registry.hpp"
#include "cluster/kubelet.hpp"
#include "cluster/node.hpp"
#include "common/hash.hpp"
#include "sgx/attestation_verifier.hpp"
#include "sgx/perf_model.hpp"
#include "sim/simulation.hpp"

namespace sgxo::cluster {
namespace {

using namespace sgxo::literals;

MachineSpec machine(const std::string& name,
                    std::optional<Pages> epc = std::nullopt) {
  MachineSpec spec;
  spec.name = name;
  spec.cpu_cores = 4;
  spec.memory = 64_GiB;
  if (epc.has_value()) spec.epc = sgx::EpcConfig::with_usable(epc->as_bytes());
  return spec;
}

PodSpec sgx_pod(const std::string& name, Pages pages) {
  PodBehavior behavior;
  behavior.sgx = true;
  behavior.actual_usage = pages.as_bytes();
  behavior.duration = Duration::hours(1);
  return make_stressor_pod(name, {0_B, pages}, {0_B, pages}, behavior);
}

PodSpec plain_pod(const std::string& name) {
  PodBehavior behavior;
  behavior.sgx = false;
  behavior.actual_usage = 1_GiB;
  behavior.duration = Duration::hours(1);
  return make_stressor_pod(name, {1_GiB, Pages{0}}, {1_GiB, Pages{0}},
                           behavior);
}

class RecordingListener : public PodLifecycleListener {
 public:
  void on_pod_running(const PodName& pod) override { running.push_back(pod); }
  void on_pod_succeeded(const PodName& pod) override {
    succeeded.push_back(pod);
  }
  void on_pod_failed(const PodName& pod, const std::string& reason) override {
    failed.emplace_back(pod, reason);
  }

  std::vector<PodName> running;
  std::vector<PodName> succeeded;
  std::vector<std::pair<PodName, std::string>> failed;
};

/// One SGX node with its kubelet, verifier and listener stub — the whole
/// stack a kubelet attestation decision touches, and nothing else.
struct Rig {
  Rig()
      : node(machine("sgx-1", Pages{1000})),
        kubelet(sim, node, perf, registry, listener),
        platform(sgx::Platform::for_node("sgx-1")) {
    expected = sgx::measure_enclave("attested-stressor");
    verifier.set_expected(expected);
    verifier.provision(platform);
  }

  void enable() {
    kubelet.enable_attestation(verifier, [this] { return quote(); });
  }

  [[nodiscard]] sgx::Quote quote() {
    sgx::Quote q = sgx::QuotingEnclave{platform}.quote(
        quote_measurement.value_or(expected), fnv1a("sgx-1"));
    if (forge_signature) q.signature ^= 0x1;
    return q;
  }

  void run_for(Duration d) { sim.run_until(sim.now() + d); }

  sim::Simulation sim;
  sgx::PerfModel perf;
  ImageRegistry registry;
  RecordingListener listener;
  Node node;
  Kubelet kubelet;
  sgx::Platform platform;
  sgx::AttestationVerifier verifier;
  sgx::Measurement expected{};
  std::optional<sgx::Measurement> quote_measurement;
  bool forge_signature = false;
};

TEST(KubeletAttestation, VerifiedAdmissionStartsThePod) {
  Rig rig;
  rig.enable();
  rig.kubelet.admit_pod(sgx_pod("a", Pages{100}));
  EXPECT_TRUE(rig.listener.running.empty());  // gated on the round-trip
  rig.run_for(Duration::seconds(5));
  ASSERT_EQ(rig.listener.running.size(), 1u);
  EXPECT_EQ(rig.listener.running.front(), "a");
  EXPECT_EQ(rig.kubelet.attestation_verifications(), 1u);
  EXPECT_EQ(rig.kubelet.attestation_retries(), 0u);
}

TEST(KubeletAttestation, FreshLocalVerdictSkipsTheRoundTrip) {
  Rig rig;
  rig.enable();
  rig.kubelet.admit_pod(sgx_pod("a", Pages{100}));
  rig.run_for(Duration::seconds(5));
  // Second admission inside the 5 min TTL trusts the node-local verdict.
  rig.kubelet.admit_pod(sgx_pod("b", Pages{100}));
  rig.run_for(Duration::seconds(5));
  EXPECT_EQ(rig.listener.running.size(), 2u);
  EXPECT_EQ(rig.kubelet.attestation_verifications(), 1u);
  EXPECT_EQ(rig.verifier.attempts(), 1u);

  // Past the TTL the next admission re-verifies.
  rig.run_for(Duration::minutes(6));
  rig.kubelet.admit_pod(sgx_pod("c", Pages{100}));
  rig.run_for(Duration::seconds(5));
  EXPECT_EQ(rig.kubelet.attestation_verifications(), 2u);
}

TEST(KubeletAttestation, SgxPodFailsClosedAndRecoversAfterHeal) {
  Rig rig;
  rig.enable();
  rig.verifier.set_outage(true);
  rig.kubelet.admit_pod(sgx_pod("a", Pages{100}));
  rig.run_for(Duration::seconds(20));
  // Fail closed: the enclave pod keeps retrying, never starts, never fails.
  EXPECT_TRUE(rig.listener.running.empty());
  EXPECT_TRUE(rig.listener.failed.empty());
  EXPECT_GE(rig.kubelet.attestation_retries(), 3u);
  EXPECT_EQ(rig.kubelet.active_pod_count(), 1u);

  rig.verifier.set_outage(false);
  rig.run_for(Duration::minutes(2));  // next backoff attempt succeeds
  ASSERT_EQ(rig.listener.running.size(), 1u);
  EXPECT_EQ(rig.listener.running.front(), "a");
}

TEST(KubeletAttestation, NonSgxPodFailsOpenWhileVerifierIsDown) {
  Rig rig;
  rig.enable();
  rig.verifier.set_outage(true);
  rig.kubelet.admit_pod(plain_pod("web"));
  rig.run_for(Duration::seconds(10));
  ASSERT_EQ(rig.listener.running.size(), 1u);
  EXPECT_EQ(rig.kubelet.degraded_admissions(), 1u);
  EXPECT_EQ(rig.kubelet.attestation_retries(), 0u);
}

TEST(KubeletAttestation, ForgedQuoteFailsThePodDefinitively) {
  Rig rig;
  rig.enable();
  rig.forge_signature = true;
  rig.kubelet.admit_pod(sgx_pod("a", Pages{100}));
  rig.run_for(Duration::seconds(5));
  EXPECT_TRUE(rig.listener.running.empty());
  ASSERT_EQ(rig.listener.failed.size(), 1u);
  EXPECT_EQ(rig.listener.failed.front().first, "a");
  EXPECT_EQ(rig.listener.failed.front().second, "AttestationRejected");
  EXPECT_EQ(rig.kubelet.attestation_rejected_pods(), 1u);
  // Full local teardown: devices released, nothing active.
  EXPECT_EQ(rig.kubelet.active_pod_count(), 0u);
  EXPECT_EQ(rig.node.device_allocator().allocated(), Pages{0});
}

TEST(KubeletAttestation, RevokedMeasurementFailsThePod) {
  Rig rig;
  rig.enable();
  rig.verifier.revoke(rig.expected);
  rig.kubelet.admit_pod(sgx_pod("a", Pages{100}));
  rig.run_for(Duration::seconds(5));
  ASSERT_EQ(rig.listener.failed.size(), 1u);
  EXPECT_EQ(rig.listener.failed.front().second, "AttestationRejected");
}

TEST(KubeletAttestation, BackoffScheduleIsDeterministic) {
  // Two identical rigs under a permanent outage retry in lockstep: the
  // jitter is a hash of (node, pod, attempt), not wall-clock randomness.
  Rig a;
  Rig b;
  a.enable();
  b.enable();
  a.verifier.set_outage(true);
  b.verifier.set_outage(true);
  a.kubelet.admit_pod(sgx_pod("p", Pages{100}));
  b.kubelet.admit_pod(sgx_pod("p", Pages{100}));
  for (int step = 0; step < 4; ++step) {
    a.run_for(Duration::seconds(30));
    b.run_for(Duration::seconds(30));
    EXPECT_EQ(a.kubelet.attestation_retries(), b.kubelet.attestation_retries());
    EXPECT_EQ(a.kubelet.attestation_verifications(),
              b.kubelet.attestation_verifications());
  }
  EXPECT_GE(a.kubelet.attestation_retries(), 4u);
}

}  // namespace
}  // namespace sgxo::cluster
