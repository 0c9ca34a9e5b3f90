// Tests for the scheduler framework (feasibility filter, fit screen, FCFS
// loop, crash and restart) and the request-based Kubernetes default
// scheduler.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "orch/api_server.hpp"
#include "orch/default_scheduler.hpp"
#include "orch/scheduler_framework.hpp"
#include "pod_names.hpp"

namespace sgxo::orch {
namespace {

using namespace sgxo::literals;

cluster::MachineSpec machine(const std::string& name, Bytes memory,
                             bool sgx = false) {
  cluster::MachineSpec spec;
  spec.name = name;
  spec.cpu_cores = 4;
  spec.memory = memory;
  if (sgx) spec.epc = sgx::EpcConfig::sgx1();
  return spec;
}

cluster::PodSpec standard_pod(const std::string& name, Bytes request,
                              Duration duration = Duration::seconds(30)) {
  cluster::PodBehavior behavior;
  behavior.actual_usage = request;
  behavior.duration = duration;
  return cluster::make_stressor_pod(name, {request, Pages{0}},
                                    {request, Pages{0}}, behavior);
}

cluster::PodSpec sgx_pod(const std::string& name, Pages request,
                         Duration duration = Duration::seconds(30)) {
  cluster::PodBehavior behavior;
  behavior.sgx = true;
  behavior.actual_usage = request.as_bytes();
  behavior.duration = duration;
  return cluster::make_stressor_pod(name, {0_B, request}, {0_B, request},
                                    behavior);
}

NodeView view(const std::string& name, bool sgx, Bytes mem_cap,
              Bytes mem_used, Pages epc_cap = Pages{0},
              Pages epc_used = Pages{0}, Pages epc_requested = Pages{0}) {
  NodeView v;
  v.name = name;
  v.sgx_capable = sgx;
  v.memory_capacity = mem_cap;
  v.memory_used = mem_used;
  v.epc_capacity = epc_cap;
  v.epc_used = epc_used;
  v.epc_requested = epc_requested;
  return v;
}

TEST(Fits, HardwareCompatibility) {
  // SGX-enabled job on a non-SGX node is filtered out (§IV).
  const auto pod = sgx_pod("p", Pages{10});
  EXPECT_FALSE(fits(pod, view("std", false, 64_GiB, 0_B)));
  EXPECT_TRUE(fits(pod, view("sgx", true, 8_GiB, 0_B, Pages{23'936})));
}

TEST(Fits, MemorySaturation) {
  const auto pod = standard_pod("p", 8_GiB);
  EXPECT_TRUE(fits(pod, view("n", false, 64_GiB, 56_GiB)));
  EXPECT_FALSE(fits(pod, view("n", false, 64_GiB, 56_GiB + 1_B)));
}

TEST(Fits, EpcSaturationOnMeasuredUsage) {
  const auto pod = sgx_pod("p", Pages{1000});
  EXPECT_TRUE(fits(pod, view("sgx", true, 8_GiB, 0_B, Pages{23'936},
                             Pages{22'936})));
  EXPECT_FALSE(fits(pod, view("sgx", true, 8_GiB, 0_B, Pages{23'936},
                              Pages{22'937})));
}

TEST(Fits, EpcSaturationOnDeviceRequests) {
  // Even if measured usage looks low, the device plugin's request
  // accounting must also fit — no EPC over-commitment, ever.
  const auto pod = sgx_pod("p", Pages{1000});
  EXPECT_FALSE(fits(pod, view("sgx", true, 8_GiB, 0_B, Pages{23'936},
                              Pages{0}, Pages{23'000})));
  EXPECT_TRUE(fits(pod, view("sgx", true, 8_GiB, 0_B, Pages{23'936},
                             Pages{0}, Pages{22'936})));
}

TEST(Fits, StandardPodIgnoresEpcColumns) {
  const auto pod = standard_pod("p", 1_GiB);
  EXPECT_TRUE(fits(pod, view("sgx", true, 8_GiB, 0_B, Pages{23'936},
                             Pages{23'936}, Pages{23'936})));
}

TEST(NodeViewHelpers, LoadsAndFree) {
  const NodeView v = view("n", true, 64_GiB, 16_GiB, Pages{1000},
                          Pages{250});
  EXPECT_DOUBLE_EQ(v.memory_load(), 0.25);
  EXPECT_DOUBLE_EQ(v.epc_load(), 0.25);
  EXPECT_EQ(v.memory_free(), 48_GiB);
  const NodeView full = view("n", false, 64_GiB, 65_GiB);
  EXPECT_EQ(full.memory_free(), 0_B);
  const NodeView no_epc = view("n", false, 64_GiB, 0_B);
  EXPECT_DOUBLE_EQ(no_epc.epc_load(), 0.0);
}

class SchedulerFixture : public ::testing::Test {
 protected:
  SchedulerFixture()
      : api_(sim_),
        node_a_(machine("node-a", 64_GiB)),
        node_b_(machine("node-b", 64_GiB)),
        sgx_a_(machine("sgx-a", 8_GiB, true)),
        kubelet_a_(sim_, node_a_, perf_, registry_, api_),
        kubelet_b_(sim_, node_b_, perf_, registry_, api_),
        kubelet_s_(sim_, sgx_a_, perf_, registry_, api_) {
    api_.register_node(node_a_, kubelet_a_);
    api_.register_node(node_b_, kubelet_b_);
    api_.register_node(sgx_a_, kubelet_s_);
  }

  sim::Simulation sim_;
  ApiServer api_;
  sgx::PerfModel perf_;
  cluster::ImageRegistry registry_;
  cluster::Node node_a_;
  cluster::Node node_b_;
  cluster::Node sgx_a_;
  cluster::Kubelet kubelet_a_;
  cluster::Kubelet kubelet_b_;
  cluster::Kubelet kubelet_s_;
};

TEST_F(SchedulerFixture, RequestBasedViewsReflectAssignments) {
  DefaultScheduler scheduler{sim_, api_};
  api_.submit(standard_pod("p1", 10_GiB));
  EXPECT_EQ(scheduler.run_once(), 1u);
  const auto views = request_based_views(api_);
  ASSERT_EQ(views.size(), 3u);  // sorted by name: node-a, node-b, sgx-a
  EXPECT_EQ(views[0].name, "node-a");
  // p1 went somewhere; its request shows up in exactly one view.
  Bytes total_used{};
  for (const auto& v : views) total_used += v.memory_used;
  EXPECT_EQ(total_used, 10_GiB);
}

TEST_F(SchedulerFixture, DefaultSchedulerBalancesByRequests) {
  DefaultScheduler scheduler{sim_, api_};
  api_.submit(standard_pod("p1", 10_GiB, Duration::minutes(10)));
  api_.submit(standard_pod("p2", 10_GiB, Duration::minutes(10)));
  scheduler.run_once();
  // Least-requested: the two pods land on different 64 GiB nodes.
  EXPECT_NE(api_.pod("p1").node, api_.pod("p2").node);
}

TEST_F(SchedulerFixture, FcfsOrderWithinCycle) {
  DefaultScheduler scheduler{sim_, api_};
  api_.submit(standard_pod("old", 40_GiB, Duration::minutes(10)));
  api_.submit(standard_pod("new", 40_GiB, Duration::minutes(10)));
  scheduler.run_once();
  // Both fit (on different nodes); the older pod got first pick.
  EXPECT_EQ(api_.pod("old").phase, cluster::PodPhase::kBound);
  EXPECT_EQ(api_.pod("new").phase, cluster::PodPhase::kBound);
}

TEST_F(SchedulerFixture, UnschedulablePodStaysPendingWithoutBlocking) {
  DefaultScheduler scheduler{sim_, api_};
  api_.submit(standard_pod("huge", 100_GiB));  // fits nowhere
  api_.submit(standard_pod("small", 1_GiB));
  EXPECT_EQ(scheduler.run_once(), 1u);
  EXPECT_EQ(api_.pod("huge").phase, cluster::PodPhase::kPending);
  EXPECT_EQ(api_.pod("small").phase, cluster::PodPhase::kBound);
}

TEST_F(SchedulerFixture, CycleLocalAccountingPreventsOverbooking) {
  DefaultScheduler scheduler{sim_, api_};
  // Three 40 GiB pods, two 64 GiB nodes: only two can go in this cycle —
  // the in-cycle view update must stop the third.
  api_.submit(standard_pod("p1", 40_GiB, Duration::minutes(10)));
  api_.submit(standard_pod("p2", 40_GiB, Duration::minutes(10)));
  api_.submit(standard_pod("p3", 40_GiB, Duration::minutes(10)));
  EXPECT_EQ(scheduler.run_once(), 2u);
  EXPECT_EQ(api_.pod("p3").phase, cluster::PodPhase::kPending);
}

TEST_F(SchedulerFixture, SgxPodRoutedToSgxNode) {
  DefaultScheduler scheduler{sim_, api_};
  api_.submit(sgx_pod("enclave", Pages{1000}));
  scheduler.run_once();
  EXPECT_EQ(api_.pod("enclave").node, "sgx-a");
}

TEST_F(SchedulerFixture, SgxRequestAccountingLimitsPacking) {
  DefaultScheduler scheduler{sim_, api_};
  api_.submit(sgx_pod("e1", Pages{12'000}, Duration::minutes(10)));
  api_.submit(sgx_pod("e2", Pages{12'000}, Duration::minutes(10)));
  EXPECT_EQ(scheduler.run_once(), 1u);  // 24 000 > 23 936 pages
  EXPECT_EQ(api_.pod("e2").phase, cluster::PodPhase::kPending);
  // Once e1 finishes, e2 becomes schedulable.
  sim_.run_until(TimePoint::epoch() + Duration::minutes(11));
  EXPECT_EQ(scheduler.run_once(), 1u);
}

TEST_F(SchedulerFixture, PeriodicLoopDrivesQueue) {
  DefaultScheduler scheduler{sim_, api_};
  scheduler.start();
  api_.submit(standard_pod("p1", 1_GiB, Duration::seconds(10)));
  sim_.run_until(TimePoint::epoch() + Duration::seconds(30));
  scheduler.stop();
  EXPECT_EQ(api_.pod("p1").phase, cluster::PodPhase::kSucceeded);
  EXPECT_GE(scheduler.cycles(), 5u);
  EXPECT_EQ(scheduler.total_bound(), 1u);
}

TEST_F(SchedulerFixture, SchedulerOnlyTakesItsOwnPods) {
  DefaultScheduler scheduler{sim_, api_};
  api_.set_default_scheduler("someone-else");
  api_.submit(standard_pod("not-mine", 1_GiB));
  EXPECT_EQ(scheduler.run_once(), 0u);
  EXPECT_EQ(api_.pod("not-mine").phase, cluster::PodPhase::kPending);
}

TEST_F(SchedulerFixture, StrictFcfsBlocksBehindHeadOfLine) {
  DefaultScheduler scheduler{sim_, api_};
  scheduler.set_strict_fcfs(true);
  EXPECT_TRUE(scheduler.strict_fcfs());
  api_.submit(standard_pod("huge", 100_GiB));  // fits nowhere, ever
  api_.submit(standard_pod("small", 1_GiB));
  EXPECT_EQ(scheduler.run_once(), 0u);
  // Head-of-line blocking: the small pod waits behind the impossible one.
  EXPECT_EQ(api_.pod("small").phase, cluster::PodPhase::kPending);
  // Flipping back to skip semantics releases it.
  scheduler.set_strict_fcfs(false);
  EXPECT_EQ(scheduler.run_once(), 1u);
  EXPECT_EQ(api_.pod("small").phase, cluster::PodPhase::kBound);
}

TEST_F(SchedulerFixture, PendingQueuePriorityOrder) {
  api_.set_default_scheduler("s");
  auto low = standard_pod("low", 1_GiB);
  auto high = standard_pod("high", 1_GiB);
  auto mid_a = standard_pod("mid-a", 1_GiB);
  auto mid_b = standard_pod("mid-b", 1_GiB);
  low.priority = 0;
  high.priority = 9;
  mid_a.priority = 5;
  mid_b.priority = 5;
  api_.submit(low);
  api_.submit(mid_a);
  api_.submit(high);
  api_.submit(mid_b);
  // Priority classes descending; FCFS inside the class of 5.
  EXPECT_EQ(pending_names(api_, "s"),
            (std::vector<cluster::PodName>{"high", "mid-a", "mid-b", "low"}));
}

TEST_F(SchedulerFixture, RestartedSchedulerBindsAgain) {
  DefaultScheduler scheduler{sim_, api_};
  scheduler.start();
  sim_.run_until(TimePoint::epoch() + Duration::seconds(12));
  const std::uint64_t cycles_at_crash = scheduler.cycles();
  scheduler.crash();
  EXPECT_TRUE(scheduler.crashed());

  // While crashed, neither the periodic loop nor a direct cycle binds.
  api_.submit(standard_pod("p1", 1_GiB, Duration::minutes(5)));
  sim_.run_until(TimePoint::epoch() + Duration::seconds(40));
  EXPECT_EQ(scheduler.run_once(), 0u);
  EXPECT_EQ(scheduler.cycles(), cycles_at_crash);
  EXPECT_EQ(api_.pod("p1").phase, cluster::PodPhase::kPending);

  // The first cycle after restart, one period later, binds the pod.
  scheduler.restart();
  EXPECT_FALSE(scheduler.crashed());
  sim_.run_until(sim_.now() + Duration::seconds(5));
  EXPECT_EQ(scheduler.cycles(), cycles_at_crash + 1);
  EXPECT_EQ(scheduler.total_bound(), 1u);
  EXPECT_NE(api_.pod("p1").phase, cluster::PodPhase::kPending);
  scheduler.stop();
}

/// The default scheduler's request-based views and a first-fit policy,
/// counting how often a cycle measures its views. With `preempts` set,
/// on_unschedulable acts on every pod and records whether the cycle had
/// measured its views by then.
class ViewCountingScheduler final : public Scheduler {
 public:
  ViewCountingScheduler(sim::Simulation& sim, ApiServer& api)
      : Scheduler(sim, api, DefaultScheduler::kName) {}

  std::size_t measurements = 0;
  bool preempts = false;
  std::size_t unschedulable_calls = 0;
  std::size_t measurements_at_unschedulable = 0;

 protected:
  void measure_views(std::vector<NodeView>& views) override {
    (void)views;
    ++measurements;
  }

  std::optional<cluster::NodeName> select_node(
      const cluster::PodSpec& pod, const std::vector<NodeView>& feasible,
      const std::vector<NodeView>& all) override {
    (void)pod;
    (void)all;
    return feasible.front().name;
  }

  bool acts_on_unschedulable(const cluster::PodSpec& pod) const override {
    (void)pod;
    return preempts;
  }

  void on_unschedulable(const cluster::PodSpec& pod,
                        const std::vector<NodeView>& all) override {
    (void)pod;
    (void)all;
    ++unschedulable_calls;
    measurements_at_unschedulable = measurements;
  }
};

TEST_F(SchedulerFixture, CycleWithNoPendingPodBuildsNoViews) {
  ViewCountingScheduler scheduler{sim_, api_};
  EXPECT_EQ(scheduler.run_once(), 0u);
  EXPECT_EQ(scheduler.measurements, 0u);
  EXPECT_EQ(scheduler.cycles(), 1u);
}

TEST_F(SchedulerFixture, CycleBuildsItsViewsOnceForAllItsPods) {
  ViewCountingScheduler scheduler{sim_, api_};
  for (const std::string name : {"p1", "p2", "p3"}) {
    api_.submit(standard_pod(name, 1_GiB));
  }
  EXPECT_EQ(scheduler.run_once(), 3u);
  EXPECT_EQ(scheduler.measurements, 1u);
}

/// The scheduler fixture plus a second SGX node, so that a pod's EPC
/// request can exceed its selected node's headroom and still be below the
/// cluster's largest.
class ScreenFixture : public SchedulerFixture {
 protected:
  ScreenFixture()
      : sgx_b_(machine("sgx-b", 8_GiB, true)),
        kubelet_sb_(sim_, sgx_b_, perf_, registry_, api_) {
    api_.register_node(sgx_b_, kubelet_sb_);
  }

  /// Binds a long-running SGX pod requesting `pages` to `node`.
  void fill(const std::string& node, Pages pages) {
    const std::string name = "filler-" + node;
    api_.submit(sgx_pod(name, pages, Duration::hours(1)));
    ASSERT_TRUE(
        api_.try_bind(name, node, api_.pod(name).resource_version).bound());
  }

  /// Leaves sgx-a 3,936 pages of request headroom and sgx-b 9,936.
  void fill_sgx_nodes() {
    fill("sgx-a", Pages{20'000});
    fill("sgx-b", Pages{14'000});
  }

  /// Two pods that fail the screen: the first exceeds both headrooms, the
  /// second fits sgx-b's but names sgx-a.
  void submit_screen_failures() {
    fill_sgx_nodes();
    api_.submit(sgx_pod("too-big", Pages{12'000}));
    cluster::PodSpec pinned = sgx_pod("pinned", Pages{5'000});
    pinned.node_selector = "sgx-a";
    api_.submit(pinned);
  }

  cluster::Node sgx_b_;
  cluster::Kubelet kubelet_sb_;
};

TEST_F(ScreenFixture, CycleWhosePodsAllFailTheScreenMeasuresNothing) {
  submit_screen_failures();
  ViewCountingScheduler scheduler{sim_, api_};
  EXPECT_EQ(scheduler.run_once(), 0u);
  EXPECT_EQ(scheduler.measurements, 0u);
  EXPECT_EQ(scheduler.cycles(), 1u);
  EXPECT_EQ(api_.pod("too-big").phase, cluster::PodPhase::kPending);
  EXPECT_EQ(api_.pod("pinned").phase, cluster::PodPhase::kPending);

  // The next cycle screens both pods again and still measures nothing.
  sim_.run_until(sim_.now() + Duration::seconds(5));
  EXPECT_EQ(scheduler.run_once(), 0u);
  EXPECT_EQ(scheduler.measurements, 0u);
  EXPECT_EQ(scheduler.cycles(), 2u);
}

TEST_F(ScreenFixture, StrictFcfsHeadThatFailsTheScreenEndsTheCycle) {
  submit_screen_failures();
  api_.submit(standard_pod("small", 1_GiB));
  ViewCountingScheduler scheduler{sim_, api_};
  scheduler.set_strict_fcfs(true);
  EXPECT_EQ(scheduler.run_once(), 0u);
  EXPECT_EQ(scheduler.measurements, 0u);
  EXPECT_EQ(api_.pod("small").phase, cluster::PodPhase::kPending);
}

TEST_F(ScreenFixture, HeadFailsTheScreenAndTheNextPodMeasuresOnceAndBinds) {
  fill_sgx_nodes();
  api_.submit(sgx_pod("too-big", Pages{12'000}));
  api_.submit(sgx_pod("fits-b", Pages{5'000}));
  ViewCountingScheduler scheduler{sim_, api_};
  EXPECT_EQ(scheduler.run_once(), 1u);
  EXPECT_EQ(scheduler.measurements, 1u);
  EXPECT_EQ(api_.pod("too-big").phase, cluster::PodPhase::kPending);
  EXPECT_EQ(api_.pod("fits-b").node, "sgx-b");
}

TEST_F(ScreenFixture, OnUnschedulableActsOnlyOnMeasuredViews) {
  submit_screen_failures();
  ViewCountingScheduler passive{sim_, api_};
  EXPECT_EQ(passive.run_once(), 0u);
  EXPECT_EQ(passive.unschedulable_calls, 0u);
  EXPECT_EQ(passive.measurements, 0u);

  // A scheduler that may act on the head measures before it is called,
  // once per cycle and for the first pod only.
  ViewCountingScheduler acting{sim_, api_};
  acting.preempts = true;
  EXPECT_EQ(acting.run_once(), 0u);
  EXPECT_EQ(acting.unschedulable_calls, 1u);
  EXPECT_EQ(acting.measurements_at_unschedulable, 1u);
  EXPECT_EQ(acting.measurements, 1u);
}

/// One random view: SGX or not, capacity and accounting both around the
/// pods' requests, so that equality and over-commit both occur.
NodeView random_view(Rng& rng, const std::string& name) {
  NodeView v;
  v.name = name;
  v.sgx_capable = rng.bernoulli(0.6);
  v.memory_capacity = Bytes{static_cast<std::uint64_t>(rng.uniform_int(0, 8))};
  v.memory_used = Bytes{static_cast<std::uint64_t>(rng.uniform_int(0, 10))};
  if (v.sgx_capable) {
    v.epc_capacity = Pages{static_cast<std::uint64_t>(rng.uniform_int(0, 8))};
    v.epc_used = Pages{static_cast<std::uint64_t>(rng.uniform_int(0, 10))};
    v.epc_requested = Pages{static_cast<std::uint64_t>(rng.uniform_int(0, 10))};
  }
  return v;
}

/// One random pod over the same small ranges: SGX or not, with a zero
/// EPC request but an EPC limit at times (still an SGX pod), and a node
/// selector that names a view, an unknown node or nothing.
cluster::PodSpec random_pod(Rng& rng, const std::vector<NodeView>& views) {
  const Bytes memory{static_cast<std::uint64_t>(rng.uniform_int(0, 4))};
  cluster::PodSpec pod;
  switch (rng.uniform_int(0, 2)) {
    case 0:
      pod = standard_pod("p", memory);
      break;
    case 1:
      pod = sgx_pod("p", Pages{static_cast<std::uint64_t>(
                             rng.uniform_int(0, 6))});
      break;
    default:  // EPC limit only: wants SGX with a zero EPC request
      pod = sgx_pod("p", Pages{0});
      pod.containers.front().limits.epc_pages = Pages{1};
      break;
  }
  pod.containers.front().requests.memory = memory;
  const auto selector = rng.uniform_int(0, 3);
  if (selector == 1 && !views.empty()) {
    pod.node_selector =
        views[static_cast<std::size_t>(rng.uniform_int(
                  0, static_cast<std::int64_t>(views.size()) - 1))]
            .name;
  } else if (selector == 2) {
    pod.node_selector = "unknown";
  }
  return pod;
}

TEST(FitScreen, FitsOnAnyViewImpliesTheScreenPasses) {
  // This implication is what makes skipping a screened-out pod's
  // measurements exact. Each round screens pods against fresh views,
  // then charges reservations to the views and screens again, as a cycle
  // does after each bind.
  Rng rng{20181};
  std::size_t fitting = 0;
  std::size_t rejected = 0;
  std::size_t exact_headroom = 0;
  for (int round = 0; round < 2'000; ++round) {
    std::vector<NodeView> views;
    const auto nodes = rng.uniform_int(0, 4);
    for (std::int64_t n = 0; n < nodes; ++n) {
      views.push_back(random_view(rng, "n" + std::to_string(n)));
    }
    FitScreen screen{views};
    for (int reservation = 0; reservation < 3; ++reservation) {
      for (int trial = 0; trial < 10; ++trial) {
        const cluster::PodSpec pod = random_pod(rng, views);
        const cluster::ResourceAmounts request = pod.total_requests();
        const bool passes = screen.may_fit(pod, request, pod.wants_sgx());
        // The screen is exactly fits() on idle views: no usage estimate
        // left to fail on.
        EXPECT_EQ(passes, std::any_of(views.begin(), views.end(),
                                      [&](const NodeView& view) {
                                        NodeView idle = view;
                                        idle.memory_used = Bytes{0};
                                        idle.memory_capacity = Bytes{1'000};
                                        idle.epc_used = Pages{0};
                                        return fits(pod, idle);
                                      }))
            << "round " << round;
        for (const NodeView& view : views) {
          if (!fits(pod, view)) continue;
          ++fitting;
          EXPECT_TRUE(passes) << "round " << round << ", node " << view.name;
          if (pod.wants_sgx() &&
              view.epc_requested + request.epc_pages == view.epc_capacity) {
            ++exact_headroom;
          }
        }
        if (!passes) ++rejected;
      }
      if (views.empty()) break;
      NodeView& reserved = views[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(views.size()) - 1))];
      const auto pages = static_cast<std::uint64_t>(rng.uniform_int(0, 3));
      reserved.epc_used += Pages{pages};
      reserved.epc_requested += Pages{pages};
      screen.refresh();
    }
  }
  // The draws reach every case the implication must survive.
  EXPECT_GT(fitting, 1'000u);
  EXPECT_GT(rejected, 1'000u);
  EXPECT_GT(exact_headroom, 100u);
}

}  // namespace
}  // namespace sgxo::orch
