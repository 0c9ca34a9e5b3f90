// Conditional (compare-and-swap) bind tests: resource versions, the
// rejection outcomes, and the race the CAS exists for — two callers acting
// on the same snapshot, racing for the same pod or the last EPC pages of a
// node. Exactly one wins; the loser's pod is neither lost nor duplicated.
#include <gtest/gtest.h>

#include "orch/api_server.hpp"
#include "pod_names.hpp"

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

/// One SGX worker with 1000 usable EPC pages, one master.
class ConditionalBindFixture : public ::testing::Test {
 protected:
  ConditionalBindFixture()
      : api_(sim_),
        sgx_node_(machine("sgx-1", Pages{1000})),
        master_(machine("master", std::nullopt, /*master=*/true)),
        kubelet_sgx_(sim_, sgx_node_, perf_, registry_, api_),
        kubelet_m_(sim_, master_, perf_, registry_, api_) {
    api_.register_node(sgx_node_, kubelet_sgx_);
    api_.register_node(master_, kubelet_m_);
  }

  [[nodiscard]] std::uint64_t version(const std::string& pod) const {
    return api_.pod(pod).resource_version;
  }

  sim::Simulation sim_;
  ApiServer api_;
  sgx::PerfModel perf_;
  cluster::ImageRegistry registry_;
  cluster::Node sgx_node_;
  cluster::Node master_;
  cluster::Kubelet kubelet_sgx_;
  cluster::Kubelet kubelet_m_;
};

TEST_F(ConditionalBindFixture, BindBumpsTheResourceVersion) {
  api_.submit(sgx_pod("p", Pages{100}));
  const std::uint64_t v0 = version("p");
  EXPECT_EQ(api_.try_bind("p", "sgx-1", v0), ApiServer::BindStatus::kBound);
  EXPECT_GT(version("p"), v0);
  EXPECT_EQ(api_.pod("p").phase, cluster::PodPhase::kBound);
}

TEST_F(ConditionalBindFixture, StaleVersionFailsCleanly) {
  api_.submit(sgx_pod("p", Pages{100}));
  const std::uint64_t v0 = version("p");
  EXPECT_EQ(api_.try_bind("p", "sgx-1", v0 + 1),
            ApiServer::BindStatus::kStaleVersion);
  // Nothing changed: still pending, still queued, version untouched.
  EXPECT_EQ(api_.pod("p").phase, cluster::PodPhase::kPending);
  EXPECT_EQ(version("p"), v0);
  EXPECT_EQ(pending_names(api_, api_.default_scheduler()).size(), 1u);
}

TEST_F(ConditionalBindFixture, EvictionInvalidatesOldSnapshots) {
  api_.submit(sgx_pod("p", Pages{100}));
  ASSERT_TRUE(api_.try_bind("p", "sgx-1", version("p")).bound());
  api_.evict("p", "test");
  // The pod is pending again, but any snapshot taken before the eviction
  // carries a dead version.
  const std::uint64_t current = version("p");
  EXPECT_EQ(api_.try_bind("p", "sgx-1", current - 1),
            ApiServer::BindStatus::kStaleVersion);
  EXPECT_EQ(api_.try_bind("p", "sgx-1", current),
            ApiServer::BindStatus::kBound);
}

TEST_F(ConditionalBindFixture, UnknownAndMasterNodesAreUnavailable) {
  api_.submit(sgx_pod("p", Pages{100}));
  const std::uint64_t v0 = version("p");
  EXPECT_EQ(api_.try_bind("p", "ghost", v0),
            ApiServer::BindStatus::kNodeUnavailable);
  EXPECT_EQ(api_.try_bind("p", "master", v0),
            ApiServer::BindStatus::kNodeUnavailable);
  api_.fail_node("sgx-1");
  EXPECT_EQ(api_.try_bind("p", "sgx-1", v0),
            ApiServer::BindStatus::kNodeUnavailable);
  EXPECT_EQ(api_.pod("p").phase, cluster::PodPhase::kPending);
}

TEST_F(ConditionalBindFixture, TwoReplicasRacingForTheSamePod) {
  api_.submit(sgx_pod("p", Pages{100}));
  // Both callers snapshot the same pending queue.
  const std::uint64_t snapshot = version("p");
  // Caller A wins the race.
  EXPECT_EQ(api_.try_bind("p", "sgx-1", snapshot),
            ApiServer::BindStatus::kBound);
  // Caller B's attempt on the same snapshot is a clean conflict: the pod
  // stays exactly where A put it.
  EXPECT_EQ(api_.try_bind("p", "sgx-1", snapshot),
            ApiServer::BindStatus::kNotPending);
  EXPECT_EQ(api_.pod("p").node, "sgx-1");
  EXPECT_EQ(assigned_names(api_, "sgx-1").size(), 1u);
}

TEST_F(ConditionalBindFixture, RaceForTheLastEpcPagesAdmitsExactlyOne) {
  // Each pod fits alone (600 of 1000 pages); together they over-commit.
  api_.submit(sgx_pod("a", Pages{600}));
  api_.submit(sgx_pod("b", Pages{600}));
  const std::uint64_t va = version("a");
  const std::uint64_t vb = version("b");

  // Caller A binds pod a — the CAS passes and the kubelet admits it.
  EXPECT_EQ(api_.try_bind("a", "sgx-1", va), ApiServer::BindStatus::kBound);

  // Caller B, acting on a view that predates A's bind, tries to put pod
  // b on the same node. The pod CAS passes (b itself is unchanged) — only
  // the kubelet admission guard stands between the stale view and an EPC
  // over-commit.
  EXPECT_EQ(api_.try_bind("b", "sgx-1", vb),
            ApiServer::BindStatus::kAdmissionRejected);

  // The loser re-enqueues without duplication: still pending, exactly one
  // queue entry, version untouched, and the rejection is in the event log.
  EXPECT_EQ(api_.pod("b").phase, cluster::PodPhase::kPending);
  const auto pending = pending_names(api_, api_.default_scheduler());
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0], "b");
  EXPECT_EQ(version("b"), vb);
  bool rejection_logged = false;
  for (const Event& event : api_.events()) {
    if (event.pod == "b" &&
        event.message.find("BindRejected") != std::string::npos) {
      rejection_logged = true;
    }
  }
  EXPECT_TRUE(rejection_logged);

  // Once a is gone, b binds normally — no lost pod.
  api_.evict("a", "make room");
  EXPECT_EQ(api_.try_bind("b", "sgx-1", version("b")),
            ApiServer::BindStatus::kBound);
}

TEST_F(ConditionalBindFixture, OutcomeCarriesTheObservedVersion) {
  api_.submit(sgx_pod("p", Pages{100}));
  const std::uint64_t v0 = version("p");

  // A rejection reports the pod's live version: the loser can retry
  // against it without a re-read.
  const ApiServer::BindOutcome stale = api_.try_bind("p", "sgx-1", v0 + 7);
  EXPECT_EQ(stale, ApiServer::BindStatus::kStaleVersion);
  EXPECT_EQ(stale.resource_version, v0);
  const ApiServer::BindOutcome won =
      api_.try_bind("p", "sgx-1", stale.resource_version);
  EXPECT_TRUE(won.bound());
  // Success reports the post-bump version (the bound record's).
  EXPECT_EQ(won.resource_version, version("p"));
  EXPECT_GT(won.resource_version, v0);
}

}  // namespace
}  // namespace sgxo::orch
