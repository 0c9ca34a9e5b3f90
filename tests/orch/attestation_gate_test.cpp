// Attestation-gated admission at the API server: verdict caching with TTL
// expiry, single-flight verification, negative caching, the hostile-quote
// rejections (forged signature, unprovisioned platform, revoked
// measurement), the verdict-expiry race, re-attestation storms and
// hard-expiry eviction enforcement.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "orch/api_server.hpp"

namespace sgxo::orch {
namespace {

using namespace sgxo::literals;

cluster::MachineSpec machine(const std::string& name,
                             std::optional<Pages> epc = std::nullopt,
                             bool master = false) {
  cluster::MachineSpec spec;
  spec.name = name;
  spec.cpu_cores = 4;
  spec.memory = 64_GiB;
  if (epc.has_value()) spec.epc = sgx::EpcConfig::with_usable(epc->as_bytes());
  spec.is_master = master;
  return spec;
}

cluster::PodSpec sgx_pod(const std::string& name, Pages pages) {
  cluster::PodBehavior behavior;
  behavior.sgx = true;
  behavior.actual_usage = pages.as_bytes();
  behavior.duration = Duration::hours(1);
  return cluster::make_stressor_pod(name, {0_B, pages}, {0_B, pages},
                                    behavior);
}

cluster::PodSpec plain_pod(const std::string& name) {
  cluster::PodBehavior behavior;
  behavior.sgx = false;
  behavior.actual_usage = 1_GiB;
  behavior.duration = Duration::hours(1);
  return cluster::make_stressor_pod(name, {1_GiB, Pages{0}}, {1_GiB, Pages{0}},
                                    behavior);
}

/// Two SGX workers plus the verifier; tests call enable() (optionally with
/// hard-expiry eviction off) before binding, and flip the hostile-quote
/// dials to shape what the quote source hands the verifier. Verdicts live
/// for AttestationGate::kVerdictTtl (5 min) in virtual time.
class AttestationGateFixture : public ::testing::Test {
 protected:
  AttestationGateFixture()
      : api_(sim_),
        sgx_1_(machine("sgx-1", Pages{1000})),
        sgx_2_(machine("sgx-2", Pages{1000})),
        kubelet_1_(sim_, sgx_1_, perf_, registry_, api_),
        kubelet_2_(sim_, sgx_2_, perf_, registry_, api_),
        platform_1_(sgx::Platform::for_node("sgx-1")),
        platform_2_(sgx::Platform::for_node("sgx-2")),
        rogue_platform_(sgx::Platform::for_node("rogue")) {
    api_.register_node(sgx_1_, kubelet_1_);
    api_.register_node(sgx_2_, kubelet_2_);
    expected_ = sgx::measure_enclave("attested-stressor");
    quote_measurement_ = expected_;
    verifier_.set_expected(expected_);
    verifier_.provision(platform_1_);
    verifier_.provision(platform_2_);
  }

  void enable(AttestationGate::Config config = {}) {
    api_.enable_attestation(
        verifier_,
        [this](const cluster::NodeName& node) { return make_quote(node); },
        config);
  }

  [[nodiscard]] sgx::Quote make_quote(const cluster::NodeName& node) {
    const sgx::Platform& platform =
        rogue_quotes_ ? rogue_platform_
                      : (node == "sgx-1" ? platform_1_ : platform_2_);
    sgx::Quote quote =
        sgx::QuotingEnclave{platform}.quote(quote_measurement_, fnv1a(node));
    if (forge_signature_) quote.signature ^= 0x1;
    return quote;
  }

  [[nodiscard]] AttestationGate& gate() { return *api_.attestation(); }

  [[nodiscard]] std::uint64_t version(const std::string& pod) const {
    return api_.pod(pod).resource_version;
  }

  /// Advances virtual time by `d` (verification round-trips are 50 ms).
  void run_for(Duration d) { sim_.run_until(sim_.now() + d); }

  sim::Simulation sim_;
  ApiServer api_;
  sgx::PerfModel perf_;
  cluster::ImageRegistry registry_;
  cluster::Node sgx_1_;
  cluster::Node sgx_2_;
  cluster::Kubelet kubelet_1_;
  cluster::Kubelet kubelet_2_;
  sgx::AttestationVerifier verifier_;
  sgx::Platform platform_1_;
  sgx::Platform platform_2_;
  sgx::Platform rogue_platform_;
  sgx::Measurement expected_{};
  // Hostile-quote dials for make_quote.
  sgx::Measurement quote_measurement_{};
  bool forge_signature_ = false;
  bool rogue_quotes_ = false;
};

TEST_F(AttestationGateFixture, FirstBindWaitsThenHitsTheCache) {
  enable();
  api_.submit(sgx_pod("a", Pages{100}));
  // Cold cache: the bind parks pending while one verification flies.
  const auto first = api_.try_bind("a", "sgx-1", version("a"));
  EXPECT_EQ(first, ApiServer::BindStatus::kAttestationPending);
  EXPECT_EQ(gate().misses(), 1u);
  EXPECT_EQ(gate().in_flight(), 1u);
  EXPECT_EQ(api_.pod("a").phase, cluster::PodPhase::kPending);

  run_for(Duration::seconds(1));  // verdict lands (50 ms round-trip)
  EXPECT_EQ(gate().in_flight(), 0u);
  EXPECT_EQ(gate().entries(), 1u);
  const auto second = api_.try_bind("a", "sgx-1", version("a"));
  EXPECT_TRUE(second.bound());
  EXPECT_EQ(gate().hits(), 1u);
  EXPECT_EQ(gate().verifications(), 1u);
}

TEST_F(AttestationGateFixture, ConcurrentBindsCoalesceIntoOneVerification) {
  enable();
  api_.submit(sgx_pod("a", Pages{100}));
  api_.submit(sgx_pod("b", Pages{100}));
  api_.submit(sgx_pod("c", Pages{100}));
  for (const std::string pod : {"a", "b", "c"}) {
    EXPECT_EQ(api_.try_bind(pod, "sgx-1", version(pod)),
              ApiServer::BindStatus::kAttestationPending);
  }
  // One node, one round-trip: the second and third checks coalesced onto
  // the in-flight verification.
  EXPECT_EQ(gate().verifications(), 1u);
  EXPECT_EQ(gate().coalesced(), 2u);
  EXPECT_EQ(verifier_.attempts(), 1u);

  run_for(Duration::seconds(1));
  for (const std::string pod : {"a", "b", "c"}) {
    EXPECT_TRUE(api_.try_bind(pod, "sgx-1", version(pod)).bound());
  }
  EXPECT_EQ(gate().verifications(), 1u);  // all three hits now
}

TEST_F(AttestationGateFixture, NonSgxPodFailsOpenOnAnUnattestedNode) {
  enable();
  api_.submit(plain_pod("web"));
  // No verdict yet, but the pod carries no enclave: it is admitted
  // (degraded) instead of stalling on the verifier.
  const auto outcome = api_.try_bind("web", "sgx-1", version("web"));
  EXPECT_TRUE(outcome.bound());
  EXPECT_EQ(gate().degraded_admissions(), 1u);
}

TEST_F(AttestationGateFixture, ForgedQuoteSignatureIsDefinitivelyRejected) {
  enable();
  forge_signature_ = true;
  api_.submit(sgx_pod("a", Pages{100}));
  EXPECT_EQ(api_.try_bind("a", "sgx-1", version("a")),
            ApiServer::BindStatus::kAttestationPending);
  run_for(Duration::seconds(1));
  const auto outcome = api_.try_bind("a", "sgx-1", version("a"));
  EXPECT_EQ(outcome, ApiServer::BindStatus::kAttestationRejected);
  EXPECT_EQ(verifier_.rejected(), 1u);
  ASSERT_EQ(gate().verdicts().size(), 1u);
  EXPECT_FALSE(gate().verdicts()[0].accepted);
  EXPECT_EQ(api_.pod("a").phase, cluster::PodPhase::kPending);
}

TEST_F(AttestationGateFixture, QuoteFromUnprovisionedPlatformIsRejected) {
  enable();
  rogue_quotes_ = true;  // signed by a platform the service never enrolled
  api_.submit(sgx_pod("a", Pages{100}));
  EXPECT_EQ(api_.try_bind("a", "sgx-1", version("a")),
            ApiServer::BindStatus::kAttestationPending);
  run_for(Duration::seconds(1));
  EXPECT_EQ(api_.try_bind("a", "sgx-1", version("a")),
            ApiServer::BindStatus::kAttestationRejected);
  EXPECT_EQ(verifier_.rejected(), 1u);
}

TEST_F(AttestationGateFixture, RevokedMeasurementIsRejected) {
  enable();
  verifier_.revoke(expected_);
  api_.submit(sgx_pod("a", Pages{100}));
  EXPECT_EQ(api_.try_bind("a", "sgx-1", version("a")),
            ApiServer::BindStatus::kAttestationPending);
  run_for(Duration::seconds(1));
  EXPECT_EQ(api_.try_bind("a", "sgx-1", version("a")),
            ApiServer::BindStatus::kAttestationRejected);
  ASSERT_EQ(gate().verdicts().size(), 1u);
  EXPECT_EQ(gate().verdicts()[0].reason, "measurement revoked");
}

TEST_F(AttestationGateFixture, StaleRevocationListKeepsVouchingUntilRefresh) {
  AttestationGate::Config config;
  config.evict_on_expiry = false;
  enable(config);
  verifier_.set_stale_revocations(true);
  verifier_.revoke(expected_);  // buffered, not yet applied
  api_.submit(sgx_pod("a", Pages{100}));
  EXPECT_EQ(api_.try_bind("a", "sgx-1", version("a")),
            ApiServer::BindStatus::kAttestationPending);
  run_for(Duration::seconds(1));
  // The stale list still vouches for the revoked measurement.
  EXPECT_TRUE(api_.try_bind("a", "sgx-1", version("a")).bound());

  verifier_.set_stale_revocations(false);  // list refresh applies the CRL
  api_.submit(sgx_pod("b", Pages{100}));
  // The renewal at 75% of the TTL (225 s) sees the CRL.
  run_for(AttestationGate::kRenewAfter + Duration::seconds(10));
  EXPECT_EQ(api_.try_bind("b", "sgx-1", version("b")),
            ApiServer::BindStatus::kAttestationRejected);
}

TEST_F(AttestationGateFixture, NegativeCachingShieldsADeadVerifier) {
  enable();
  verifier_.set_outage(true);
  api_.submit(sgx_pod("a", Pages{100}));
  EXPECT_EQ(api_.try_bind("a", "sgx-1", version("a")),
            ApiServer::BindStatus::kAttestationPending);
  run_for(Duration::seconds(2));  // transient verdict cached (negative TTL)
  // Retries inside the negative window are absorbed by the cache — the
  // dead verifier is not hammered every scheduling cycle.
  EXPECT_EQ(api_.try_bind("a", "sgx-1", version("a")),
            ApiServer::BindStatus::kAttestationPending);
  EXPECT_EQ(api_.try_bind("a", "sgx-1", version("a")),
            ApiServer::BindStatus::kAttestationPending);
  EXPECT_EQ(gate().negative_hits(), 2u);
  EXPECT_EQ(verifier_.attempts(), 1u);

  run_for(Duration::seconds(25));  // past negative_ttl (20 s)
  verifier_.set_outage(false);
  EXPECT_EQ(api_.try_bind("a", "sgx-1", version("a")),
            ApiServer::BindStatus::kAttestationPending);
  EXPECT_EQ(verifier_.attempts(), 2u);
  run_for(Duration::seconds(1));
  EXPECT_TRUE(api_.try_bind("a", "sgx-1", version("a")).bound());
}

TEST_F(AttestationGateFixture, BindAtTheExactExpiryTickIsDeterministic) {
  AttestationGate::Config config;
  config.evict_on_expiry = false;
  enable(config);
  api_.submit(sgx_pod("a", Pages{100}));
  EXPECT_EQ(api_.try_bind("a", "sgx-1", version("a")),
            ApiServer::BindStatus::kAttestationPending);
  run_for(Duration::millis(50));  // verdict installs at exactly t=50ms
  const TimePoint decided = gate().verdicts()[0].decided;
  EXPECT_EQ(decided, sim_.now());

  // Break the renewal so the verdict genuinely lapses, then land a bind on
  // the expiry instant itself: `now < expires` is strict, so the verdict
  // is expired — deterministically pending, never a race.
  verifier_.set_outage(true);
  sim_.run_until(decided + AttestationGate::kVerdictTtl);
  EXPECT_EQ(sim_.now(), gate().verdicts()[0].expires);
  EXPECT_EQ(api_.try_bind("a", "sgx-1", version("a")),
            ApiServer::BindStatus::kAttestationPending);
  EXPECT_EQ(gate().expired(), 1u);
  // One tick earlier it would still have been fresh (shown by the counter:
  // the probe above was the only expiry).
  EXPECT_EQ(gate().hits(), 0u);
}

TEST_F(AttestationGateFixture, BackgroundRenewalKeepsAHealthyClusterFresh) {
  enable();
  api_.submit(sgx_pod("a", Pages{100}));
  EXPECT_EQ(api_.try_bind("a", "sgx-1", version("a")),
            ApiServer::BindStatus::kAttestationPending);
  run_for(Duration::seconds(1));
  EXPECT_TRUE(api_.try_bind("a", "sgx-1", version("a")).bound());

  // Many TTLs later the verdict is still fresh: renewals at 75 % of TTL
  // (every 225 s, 16 in the hour) re-verified in the background, and
  // nothing was ever evicted.
  run_for(Duration::hours(1));
  api_.submit(sgx_pod("b", Pages{100}));
  EXPECT_TRUE(api_.try_bind("b", "sgx-1", version("b")).bound());
  EXPECT_GT(gate().verifications(), 10u);
  EXPECT_EQ(gate().evictions(), 0u);
  EXPECT_EQ(gate().expired(), 0u);
}

TEST_F(AttestationGateFixture, StormForcesReverificationWithoutChurn) {
  enable();
  api_.submit(sgx_pod("a", Pages{100}));
  api_.submit(sgx_pod("b", Pages{100}));
  EXPECT_EQ(api_.try_bind("a", "sgx-1", version("a")),
            ApiServer::BindStatus::kAttestationPending);
  EXPECT_EQ(api_.try_bind("b", "sgx-2", version("b")),
            ApiServer::BindStatus::kAttestationPending);
  run_for(Duration::seconds(1));
  EXPECT_TRUE(api_.try_bind("a", "sgx-1", version("a")).bound());
  EXPECT_TRUE(api_.try_bind("b", "sgx-2", version("b")).bound());
  run_for(Duration::seconds(30));  // both pods running

  gate().force_expire_all();
  EXPECT_EQ(gate().storms(), 1u);
  // Soft expiry bites immediately: new binds wait...
  api_.submit(sgx_pod("c", Pages{100}));
  EXPECT_EQ(api_.try_bind("c", "sgx-1", version("c")),
            ApiServer::BindStatus::kAttestationPending);
  // ...but the healthy verifier re-accepts inside the grace window, so no
  // running pod is touched.
  run_for(Duration::seconds(30));
  EXPECT_TRUE(api_.try_bind("c", "sgx-1", version("c")).bound());
  EXPECT_EQ(gate().evictions(), 0u);
  EXPECT_EQ(api_.pod("a").phase, cluster::PodPhase::kRunning);
  EXPECT_EQ(api_.pod("b").phase, cluster::PodPhase::kRunning);
}

TEST_F(AttestationGateFixture, HardExpiryUnderOutageEvictsRunningSgxPods) {
  enable();
  api_.submit(sgx_pod("a", Pages{100}));
  EXPECT_EQ(api_.try_bind("a", "sgx-1", version("a")),
            ApiServer::BindStatus::kAttestationPending);
  run_for(Duration::seconds(5));
  EXPECT_TRUE(api_.try_bind("a", "sgx-1", version("a")).bound());
  run_for(Duration::seconds(10));
  EXPECT_EQ(api_.pod("a").phase, cluster::PodPhase::kRunning);
  EXPECT_TRUE(gate().allows_running("sgx-1", sim_.now()));

  // Verifier dies before the renewal: the verdict lapses, and at hard
  // expiry (TTL + grace, 305 s) the gate sheds the node's SGX pods. The
  // recovery verification kicked there caches a transient verdict, which
  // lapses 20 s later.
  verifier_.set_outage(true);
  run_for(Duration::minutes(6));
  EXPECT_EQ(gate().evictions(), 1u);
  EXPECT_FALSE(gate().allows_running("sgx-1", sim_.now()));
  EXPECT_EQ(api_.pod("a").phase, cluster::PodPhase::kPending);
  EXPECT_EQ(api_.pod("a").evictions, 1u);

  // Heal: the next bind re-triggers verification (the cached transient
  // verdict has lapsed), which re-accepts, and the pod can go back.
  verifier_.set_outage(false);
  EXPECT_EQ(api_.try_bind("a", "sgx-1", version("a")),
            ApiServer::BindStatus::kAttestationPending);
  run_for(Duration::seconds(1));
  EXPECT_TRUE(api_.try_bind("a", "sgx-1", version("a")).bound());
  EXPECT_TRUE(gate().allows_running("sgx-1", sim_.now()));
}

TEST_F(AttestationGateFixture, EnablingAttestationTwiceIsACallerBug) {
  enable();
  EXPECT_THROW(enable(), ContractViolation);
}

}  // namespace
}  // namespace sgxo::orch
