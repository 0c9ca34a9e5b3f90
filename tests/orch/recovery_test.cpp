// Recovery paths: probe DaemonSet redeployment around node failure and
// recovery, and PodRestarter resilience — watch disconnect/resync and the
// re-list on start.
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

class RecoveryFixture : public ::testing::Test {
 protected:
  RecoveryFixture() {
    scheduler_ = &cluster_.add_sgx_scheduler(core::PlacementPolicy::kBinpack);
    cluster_.api().set_default_scheduler(scheduler_->name());
    cluster_.start_monitoring();
  }

  void run_to(Duration t) {
    cluster_.sim().run_until(TimePoint::epoch() + t);
  }

  exp::SimulatedCluster cluster_;
  core::SgxAwareScheduler* scheduler_ = nullptr;
};

TEST_F(RecoveryFixture, CrashedProbeIsRedeployedWithActiveFaultState) {
  // A dropout on sgx-1's probe and an untargeted delay, both armed through
  // the injector and active during [10 s, 2 min].
  sim::FaultInjector injector{cluster_.sim()};
  cluster_.install_fault_handlers(injector);
  sim::FaultPlan plan;
  sim::FaultSpec dropout;
  dropout.kind = sim::FaultKind::kProbeDropout;
  dropout.at = Duration::seconds(10);
  dropout.duration = Duration::minutes(2) - Duration::seconds(10);
  dropout.target = "sgx-1";
  plan.faults.push_back(dropout);
  sim::FaultSpec delay = dropout;
  delay.kind = sim::FaultKind::kSampleDelay;
  delay.target = "";
  delay.delay = Duration::seconds(5);
  plan.faults.push_back(delay);
  injector.arm(plan);
  run_to(Duration::seconds(15));

  ASSERT_TRUE(cluster_.daemonset().has_probe("sgx-1"));
  cluster_.daemonset().crash_probe("sgx-1");
  EXPECT_FALSE(cluster_.daemonset().has_probe("sgx-1"));

  // The next reconcile (30 s period) redeploys; the fault lives in the
  // node, not the probe process, so the replacement comes up faulted.
  run_to(Duration::minutes(1));
  ASSERT_TRUE(cluster_.daemonset().has_probe("sgx-1"));
  const PodSampleWriter& samples =
      cluster_.daemonset().probe("sgx-1")->samples();
  EXPECT_TRUE(samples.dropping());
  EXPECT_EQ(samples.delay(), Duration::seconds(5));

  run_to(Duration::minutes(3));
  EXPECT_FALSE(samples.dropping());
  EXPECT_EQ(samples.delay(), Duration{});
  cluster_.stop_all();
}

TEST_F(RecoveryFixture, ProbeRedeployAfterNodeRecoveryResumesSampling) {
  cluster_.api().submit(sgx_pod("before", Pages{500}, Duration::hours(1)));
  run_to(Duration::minutes(1));
  const cluster::NodeName node = cluster_.api().pod("before").node;
  ASSERT_FALSE(node.empty());

  // The machine dies and takes its probe process with it.
  cluster_.api().fail_node(node);
  cluster_.daemonset().crash_probe(node);
  run_to(Duration::minutes(2));
  cluster_.api().recover_node(node);

  // Reconcile redeploys the probe on the recovered node; a new pod lands
  // there and its EPC samples reach the TSDB again.
  cluster_.api().submit(sgx_pod("after", Pages{500}, Duration::hours(1)));
  run_to(Duration::minutes(4));
  ASSERT_TRUE(cluster_.daemonset().has_probe(node));
  const auto newest = cluster_.db().newest_time("sgx/epc");
  ASSERT_TRUE(newest.has_value());
  EXPECT_GT(*newest, TimePoint::epoch() + Duration::minutes(3));
  cluster_.stop_all();
}

TEST_F(RecoveryFixture, DisconnectPausesUntilResync) {
  cluster_.api().submit(
      standard_pod("victim", 1_GiB, Duration::hours(1)));
  PodRestarter restarter{cluster_.sim(), cluster_.api()};
  restarter.start();
  run_to(Duration::minutes(1));
  const cluster::NodeName node = cluster_.api().pod("victim").node;
  ASSERT_FALSE(node.empty());

  restarter.disconnect();
  EXPECT_FALSE(restarter.connected());
  cluster_.api().fail_node(node);

  // Minutes pass; the disconnected controller must not react.
  run_to(Duration::minutes(3));
  EXPECT_TRUE(restarter.retry_of("victim").empty());

  restarter.resync();
  EXPECT_TRUE(restarter.connected());
  EXPECT_EQ(restarter.disconnects(), 1u);
  EXPECT_EQ(restarter.resyncs(), 1u);
  // resync reconciles synchronously — the missed failure is caught.
  EXPECT_FALSE(restarter.retry_of("victim").empty());
  restarter.stop();
  cluster_.stop_all();
}

TEST_F(RecoveryFixture, WatchModeDisconnectIsIdempotent) {
  PodRestarter restarter{cluster_.sim(), cluster_.api()};
  restarter.start();
  const std::size_t watches = cluster_.api().watch_count();
  restarter.disconnect();
  restarter.disconnect();  // second disconnect is a no-op
  EXPECT_EQ(restarter.disconnects(), 1u);
  EXPECT_EQ(cluster_.api().watch_count(), watches - 1);
  restarter.resync();
  restarter.resync();  // second resync is a no-op
  EXPECT_EQ(restarter.resyncs(), 1u);
  EXPECT_EQ(cluster_.api().watch_count(), watches);
  restarter.stop();
  cluster_.stop_all();
}

TEST_F(RecoveryFixture, StoppedRestarterIgnoresResync) {
  PodRestarter restarter{cluster_.sim(), cluster_.api()};
  restarter.start();
  restarter.stop();
  const std::size_t watches = cluster_.api().watch_count();
  // A kWatchDisconnect heal after the owner stopped the restarter must not
  // bring it back.
  restarter.resync();
  EXPECT_FALSE(restarter.connected());
  EXPECT_EQ(cluster_.api().watch_count(), watches);
  EXPECT_EQ(restarter.resyncs(), 0u);
  cluster_.stop_all();
}

TEST_F(RecoveryFixture, RestarterStartedAfterANodeFailureResubmitsIt) {
  cluster_.api().submit(standard_pod("victim", 1_GiB, Duration::hours(1)));
  run_to(Duration::minutes(1));
  const cluster::NodeName node = cluster_.api().pod("victim").node;
  ASSERT_FALSE(node.empty());
  cluster_.api().fail_node(node);

  // No watch saw the failure; the list on start does.
  PodRestarter restarter{cluster_.sim(), cluster_.api()};
  restarter.start();
  run_to(Duration::minutes(3));
  EXPECT_EQ(restarter.retry_of("victim"), "victim-retry");
  EXPECT_EQ(restarter.restarts(), 1u);
  EXPECT_EQ(cluster_.api().pod("victim-retry").phase,
            cluster::PodPhase::kRunning);
  restarter.stop();
  cluster_.stop_all();
}

}  // namespace
}  // namespace sgxo::orch
