// Informer-style watches on the API server, and the watch-driven restart
// controller.
#include <gtest/gtest.h>

#include "exp/fixture.hpp"
#include "orch/pod_restarter.hpp"

namespace sgxo::orch {
namespace {

using namespace sgxo::literals;

cluster::PodSpec pod(const std::string& name,
                     Duration duration = Duration::seconds(20)) {
  cluster::PodBehavior behavior;
  behavior.actual_usage = 1_GiB;
  behavior.duration = duration;
  return cluster::make_stressor_pod(name, {1_GiB, Pages{0}},
                                    {1_GiB, Pages{0}}, behavior);
}

class WatchFixture : public ::testing::Test {
 protected:
  WatchFixture() {
    scheduler_ = &cluster_.add_sgx_scheduler(core::PlacementPolicy::kBinpack);
    cluster_.api().set_default_scheduler(scheduler_->name());
    cluster_.start_monitoring();
  }
  exp::SimulatedCluster cluster_;
  core::SgxAwareScheduler* scheduler_ = nullptr;
};

TEST_F(WatchFixture, FullLifecycleDeliversAllTransitions) {
  std::vector<cluster::PodPhase> phases;
  const auto id = cluster_.api().watch_pods(
      [&](const ApiServer::PodUpdate& update) {
        if (update.pod == "p1") phases.push_back(update.phase);
      });
  cluster_.api().submit(pod("p1"));
  ASSERT_TRUE(cluster_.run_until_quiescent(1, Duration::minutes(10)));
  cluster_.api().unwatch(id);
  cluster_.stop_all();
  ASSERT_EQ(phases.size(), 4u);
  EXPECT_EQ(phases[0], cluster::PodPhase::kPending);
  EXPECT_EQ(phases[1], cluster::PodPhase::kBound);
  EXPECT_EQ(phases[2], cluster::PodPhase::kRunning);
  EXPECT_EQ(phases[3], cluster::PodPhase::kSucceeded);
}

TEST_F(WatchFixture, UnwatchStopsDelivery) {
  int updates = 0;
  const auto id = cluster_.api().watch_pods(
      [&](const ApiServer::PodUpdate&) { ++updates; });
  cluster_.api().submit(pod("p1"));
  EXPECT_EQ(updates, 1);
  cluster_.api().unwatch(id);
  cluster_.api().submit(pod("p2"));
  EXPECT_EQ(updates, 1);
  EXPECT_EQ(cluster_.api().watch_count(), 0u);
}

TEST_F(WatchFixture, MultipleWatchersAllNotified) {
  int a = 0;
  int b = 0;
  (void)cluster_.api().watch_pods([&](const auto&) { ++a; });
  (void)cluster_.api().watch_pods([&](const auto&) { ++b; });
  cluster_.api().submit(pod("p1"));
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 1);
}

TEST_F(WatchFixture, NullCallbackRejected) {
  EXPECT_THROW((void)cluster_.api().watch_pods(nullptr), ContractViolation);
}

TEST_F(WatchFixture, EvictionNotifiesPendingAgain) {
  std::vector<cluster::PodPhase> phases;
  (void)cluster_.api().watch_pods([&](const ApiServer::PodUpdate& update) {
    phases.push_back(update.phase);
  });
  cluster_.api().submit(pod("p1", Duration::minutes(10)));
  cluster_.sim().run_until(TimePoint::epoch() + Duration::seconds(30));
  cluster_.api().evict("p1", "test");
  cluster_.stop_all();
  // Pending, Bound, Running, then Pending again after eviction.
  ASSERT_GE(phases.size(), 4u);
  EXPECT_EQ(phases.back(), cluster::PodPhase::kPending);
}

TEST_F(WatchFixture, CallbackMayUnwatchItself) {
  int updates = 0;
  ApiServer::WatchId id = 0;
  id = cluster_.api().watch_pods([&](const ApiServer::PodUpdate&) {
    ++updates;
    cluster_.api().unwatch(id);  // one-shot watch, removed re-entrantly
  });
  cluster_.api().submit(pod("p1"));
  cluster_.api().submit(pod("p2"));
  EXPECT_EQ(updates, 1);
  EXPECT_EQ(cluster_.api().watch_count(), 0u);
}

TEST_F(WatchFixture, CallbackMayUnwatchALaterWatcher) {
  // The first callback removes the second mid-delivery: the second must
  // not fire for the transition being delivered.
  int second_updates = 0;
  ApiServer::WatchId second = 0;
  (void)cluster_.api().watch_pods([&](const ApiServer::PodUpdate&) {
    if (second != 0) {
      cluster_.api().unwatch(second);
      second = 0;
    }
  });
  second = cluster_.api().watch_pods(
      [&](const ApiServer::PodUpdate&) { ++second_updates; });
  cluster_.api().submit(pod("p1"));
  EXPECT_EQ(second_updates, 0);
  EXPECT_EQ(cluster_.api().watch_count(), 1u);
}

TEST_F(WatchFixture, CallbackMayAddWatches) {
  // A watch added during delivery first fires on the *next* transition.
  int late_updates = 0;
  bool added = false;
  (void)cluster_.api().watch_pods([&](const ApiServer::PodUpdate&) {
    if (added) return;
    added = true;
    (void)cluster_.api().watch_pods(
        [&](const ApiServer::PodUpdate&) { ++late_updates; });
  });
  cluster_.api().submit(pod("p1"));
  EXPECT_EQ(late_updates, 0);
  cluster_.api().submit(pod("p2"));
  EXPECT_EQ(late_updates, 1);
}

TEST_F(WatchFixture, ReentrantUnwatchDuringNestedNotification) {
  // A callback that triggers another phase transition (nested delivery)
  // and an unwatch inside that nested delivery: the tombstone sweep must
  // only run after the outermost delivery unwinds.
  std::vector<std::string> log;
  ApiServer::WatchId inner = 0;
  (void)cluster_.api().watch_pods([&](const ApiServer::PodUpdate& update) {
    log.push_back("outer:" + update.pod);
    if (update.pod == "p1" && update.phase == cluster::PodPhase::kPending) {
      cluster_.api().submit(pod("p2"));  // nested notify_watchers
    }
  });
  inner = cluster_.api().watch_pods([&](const ApiServer::PodUpdate& update) {
    log.push_back("inner:" + update.pod);
    cluster_.api().unwatch(inner);
  });
  cluster_.api().submit(pod("p1"));
  // Outer sees p1, submits p2 (nested: outer + inner see p2), then inner's
  // slot for p1 was tombstoned inside the nested delivery and is skipped.
  EXPECT_EQ(log, (std::vector<std::string>{"outer:p1", "outer:p2",
                                           "inner:p2"}));
  EXPECT_EQ(cluster_.api().watch_count(), 1u);
  cluster_.api().submit(pod("p3"));
  EXPECT_EQ(log.back(), "outer:p3");
}

TEST_F(WatchFixture, WatchDrivenRestarterReactsToNodeFailure) {
  PodRestarter restarter{cluster_.sim(), cluster_.api()};
  restarter.start();

  cluster_.api().submit(pod("svc", Duration::minutes(10)));
  cluster_.sim().run_until(TimePoint::epoch() + Duration::seconds(30));
  const TimePoint failure_time = cluster_.sim().now();
  const cluster::NodeName node = cluster_.api().pod("svc").node;
  cluster_.api().fail_node(node);

  // The watch fires within the same virtual instant (deferred one event).
  cluster_.sim().run_until(failure_time + Duration::millis(1));
  ASSERT_TRUE(cluster_.api().has_pod("svc-retry"));
  EXPECT_EQ(cluster_.api().pod("svc-retry").submitted, failure_time);

  cluster_.sim().run_until(TimePoint::epoch() + Duration::minutes(20));
  restarter.stop();
  cluster_.stop_all();
  EXPECT_EQ(cluster_.api().pod("svc-retry").phase,
            cluster::PodPhase::kSucceeded);
  EXPECT_NE(cluster_.api().pod("svc-retry").node, node);  // stays cordoned
  EXPECT_EQ(restarter.restarts(), 1u);
  EXPECT_EQ(restarter.retry_of("svc"), "svc-retry");
}

TEST_F(WatchFixture, WatchRestarterIgnoresPolicyKills) {
  PodRestarter restarter{cluster_.sim(), cluster_.api()};
  restarter.start();
  cluster::PodBehavior behavior;
  behavior.sgx = true;
  behavior.actual_usage = Pages{2000}.as_bytes();
  behavior.duration = Duration::minutes(1);
  cluster_.api().submit(cluster::make_stressor_pod(
      "liar", {0_B, Pages{100}}, {0_B, Pages{100}}, behavior));
  cluster_.sim().run_until(TimePoint::epoch() + Duration::minutes(2));
  restarter.stop();
  cluster_.stop_all();
  EXPECT_EQ(cluster_.api().pod("liar").phase, cluster::PodPhase::kFailed);
  EXPECT_FALSE(cluster_.api().has_pod("liar-retry"));
  EXPECT_EQ(restarter.retry_of("liar"), "");
  EXPECT_EQ(restarter.restarts(), 0u);
}

}  // namespace
}  // namespace sgxo::orch
