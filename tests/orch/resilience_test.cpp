// Failure injection: node loss, pod eviction plumbing, and the restart
// controller that keeps workloads alive across machine failures.
#include <gtest/gtest.h>

#include "exp/fixture.hpp"
#include "orch/pod_restarter.hpp"

namespace sgxo::orch {
namespace {

using namespace sgxo::literals;

cluster::PodSpec sgx_pod(const std::string& name, Pages pages,
                         Duration duration) {
  cluster::PodBehavior behavior;
  behavior.sgx = true;
  behavior.actual_usage = pages.as_bytes();
  behavior.duration = duration;
  return cluster::make_stressor_pod(name, {0_B, pages}, {0_B, pages},
                                    behavior);
}

cluster::PodSpec standard_pod(const std::string& name, Bytes memory,
                              Duration duration) {
  cluster::PodBehavior behavior;
  behavior.actual_usage = memory;
  behavior.duration = duration;
  return cluster::make_stressor_pod(name, {memory, Pages{0}},
                                    {memory, Pages{0}}, behavior);
}

class ResilienceFixture : public ::testing::Test {
 protected:
  ResilienceFixture() {
    scheduler_ = &cluster_.add_sgx_scheduler(core::PlacementPolicy::kBinpack);
    cluster_.api().set_default_scheduler(scheduler_->name());
    cluster_.start_monitoring();
  }

  exp::SimulatedCluster cluster_;
  core::SgxAwareScheduler* scheduler_ = nullptr;
};

TEST_F(ResilienceFixture, NodeFailureKillsItsPods) {
  cluster_.api().submit(sgx_pod("victim", Pages{1000}, Duration::hours(1)));
  cluster_.sim().run_until(TimePoint::epoch() + Duration::seconds(30));
  const cluster::NodeName node = cluster_.api().pod("victim").node;
  ASSERT_FALSE(node.empty());

  cluster_.api().fail_node(node);
  const PodRecord& record = cluster_.api().pod("victim");
  EXPECT_EQ(record.phase, cluster::PodPhase::kFailed);
  EXPECT_EQ(record.failure_reason, "NodeFailure");
  // The node's local state is fully reclaimed.
  cluster::Node* failed = cluster_.find_node(node);
  EXPECT_EQ(failed->driver()->free_epc_pages(),
            failed->driver()->total_epc_pages());
  EXPECT_FALSE(failed->schedulable());
  cluster_.stop_all();
}

TEST_F(ResilienceFixture, FailedNodeReceivesNoNewPods) {
  cluster_.api().fail_node("sgx-1");
  for (int i = 0; i < 4; ++i) {
    cluster_.api().submit(sgx_pod("p" + std::to_string(i), Pages{1000},
                                  Duration::seconds(30)));
  }
  ASSERT_TRUE(cluster_.run_until_quiescent(4, Duration::minutes(20)));
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(cluster_.api().pod("p" + std::to_string(i)).node, "sgx-2");
  }
  cluster_.stop_all();
}

TEST_F(ResilienceFixture, RecoveredNodeServesAgain) {
  cluster_.api().fail_node("sgx-1");
  cluster_.api().fail_node("sgx-2");
  cluster_.api().submit(sgx_pod("waiting", Pages{1000}, Duration::seconds(30)));
  cluster_.sim().run_until(TimePoint::epoch() + Duration::minutes(1));
  EXPECT_EQ(cluster_.api().pod("waiting").phase,
            cluster::PodPhase::kPending);
  cluster_.api().recover_node("sgx-1");
  ASSERT_TRUE(cluster_.run_until_quiescent(1, Duration::minutes(20)));
  EXPECT_EQ(cluster_.api().pod("waiting").node, "sgx-1");
  cluster_.stop_all();
}

TEST_F(ResilienceFixture, RestarterDoesNotDoubleRestart) {
  PodRestarter restarter{cluster_.sim(), cluster_.api()};
  restarter.start();
  cluster_.api().submit(
      standard_pod("svc", 1_GiB, Duration::minutes(10)));
  cluster_.sim().run_until(TimePoint::epoch() + Duration::seconds(30));
  cluster_.api().fail_node(cluster_.api().pod("svc").node);
  cluster_.sim().run_until(TimePoint::epoch() + Duration::minutes(5));
  restarter.stop();
  cluster_.stop_all();
  EXPECT_EQ(restarter.restarts(), 1u);
  EXPECT_FALSE(cluster_.api().has_pod("svc-retry-retry"));
}

TEST_F(ResilienceFixture, EvictReturnsPodToPendingQueue) {
  cluster_.api().submit(sgx_pod("low", Pages{1000}, Duration::minutes(10)));
  cluster_.sim().run_until(TimePoint::epoch() + Duration::seconds(30));
  ASSERT_EQ(cluster_.api().pod("low").phase, cluster::PodPhase::kRunning);

  cluster_.api().evict("low", "test");
  const PodRecord& record = cluster_.api().pod("low");
  EXPECT_EQ(record.phase, cluster::PodPhase::kPending);
  EXPECT_EQ(record.evictions, 1u);
  EXPECT_TRUE(record.node.empty());
  // It reschedules and completes.
  ASSERT_TRUE(cluster_.run_until_quiescent(1, Duration::minutes(30)));
  EXPECT_EQ(cluster_.api().pod("low").phase, cluster::PodPhase::kSucceeded);
  cluster_.stop_all();
}

TEST_F(ResilienceFixture, EvictValidation) {
  cluster_.api().submit(sgx_pod("pending", Pages{1000}, Duration::minutes(1)));
  EXPECT_THROW(cluster_.api().evict("pending", "x"), ContractViolation);
  EXPECT_THROW(cluster_.api().evict("ghost", "x"), ContractViolation);
  EXPECT_THROW(cluster_.api().fail_node("ghost"), ContractViolation);
  cluster_.stop_all();
}

}  // namespace
}  // namespace sgxo::orch
