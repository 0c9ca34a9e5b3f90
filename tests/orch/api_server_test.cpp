#include "orch/api_server.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "pod_names.hpp"

namespace sgxo::orch {
namespace {

using namespace sgxo::literals;

cluster::MachineSpec machine(const std::string& name, bool sgx = false,
                             bool master = false) {
  cluster::MachineSpec spec;
  spec.name = name;
  spec.cpu_cores = 4;
  spec.memory = 64_GiB;
  if (sgx) spec.epc = sgx::EpcConfig::sgx1();
  spec.is_master = master;
  return spec;
}

cluster::PodSpec pod(const std::string& name,
                     const std::string& scheduler = "",
                     Duration duration = Duration::seconds(10)) {
  cluster::PodBehavior behavior;
  behavior.actual_usage = 1_GiB;
  behavior.duration = duration;
  return cluster::make_stressor_pod(name, {1_GiB, Pages{0}},
                                    {1_GiB, Pages{0}}, behavior, scheduler);
}

class ApiServerFixture : public ::testing::Test {
 protected:
  ApiServerFixture()
      : api_(sim_),
        node_a_(machine("node-a")),
        node_b_(machine("node-b", /*sgx=*/true)),
        master_(machine("master", false, /*master=*/true)),
        kubelet_a_(sim_, node_a_, perf_, registry_, api_),
        kubelet_b_(sim_, node_b_, perf_, registry_, api_),
        kubelet_m_(sim_, master_, perf_, registry_, api_) {
    api_.register_node(node_a_, kubelet_a_);
    api_.register_node(node_b_, kubelet_b_);
    api_.register_node(master_, kubelet_m_);
  }

  /// Conditional bind against the pod's current version, asserting success.
  void bind_now(const cluster::PodName& pod, const cluster::NodeName& node) {
    const std::uint64_t version = api_.pod(pod).resource_version;
    ASSERT_TRUE(api_.try_bind(pod, node, version).bound())
        << pod << " -> " << node;
  }

  sim::Simulation sim_;
  ApiServer api_;
  sgx::PerfModel perf_;
  cluster::ImageRegistry registry_;
  cluster::Node node_a_;
  cluster::Node node_b_;
  cluster::Node master_;
  cluster::Kubelet kubelet_a_;
  cluster::Kubelet kubelet_b_;
  cluster::Kubelet kubelet_m_;
};

TEST_F(ApiServerFixture, SchedulableNodesExcludeMaster) {
  EXPECT_EQ(api_.all_nodes().size(), 3u);
  const auto schedulable = api_.schedulable_nodes();
  ASSERT_EQ(schedulable.size(), 2u);
  for (const auto& entry : schedulable) {
    EXPECT_NE(entry.node->name(), "master");
  }
}

TEST_F(ApiServerFixture, DuplicateNodeNameRejected) {
  cluster::Node dup{machine("node-a")};
  cluster::Kubelet kubelet{sim_, dup, perf_, registry_, api_};
  EXPECT_THROW(api_.register_node(dup, kubelet), ContractViolation);
}

TEST_F(ApiServerFixture, FindNode) {
  ASSERT_NE(api_.find_node("node-b"), nullptr);
  EXPECT_TRUE(api_.find_node("node-b")->node->has_sgx());
  EXPECT_EQ(api_.find_node("ghost"), nullptr);
}

TEST_F(ApiServerFixture, SubmitRecordsTimestampAndPhase) {
  sim_.run_until(TimePoint::epoch() + Duration::seconds(42));
  api_.submit(pod("p1"));
  const PodRecord& record = api_.pod("p1");
  EXPECT_EQ(record.phase, cluster::PodPhase::kPending);
  EXPECT_EQ(record.submitted, TimePoint::epoch() + Duration::seconds(42));
  EXPECT_FALSE(record.waiting_time().has_value());
  EXPECT_FALSE(record.turnaround_time().has_value());
}

TEST_F(ApiServerFixture, SubmitRejectsDuplicatesAndUnnamed) {
  api_.submit(pod("p1"));
  EXPECT_THROW(api_.submit(pod("p1")), ContractViolation);
  cluster::PodSpec unnamed = pod("x");
  unnamed.name.clear();
  EXPECT_THROW(api_.submit(unnamed), ContractViolation);
}

TEST_F(ApiServerFixture, PendingQueueIsFcfsPerScheduler) {
  api_.set_default_scheduler("sched-x");
  api_.submit(pod("p1", ""));          // default → sched-x
  api_.submit(pod("p2", "sched-y"));
  api_.submit(pod("p3", "sched-x"));
  EXPECT_EQ(pending_names(api_, "sched-x"),
            (std::vector<cluster::PodName>{"p1", "p3"}));
  EXPECT_EQ(pending_names(api_, "sched-y"),
            (std::vector<cluster::PodName>{"p2"}));
  EXPECT_TRUE(pending_names(api_, "other").empty());
}

TEST_F(ApiServerFixture, BindDeliversToKubeletAndTracksAssignment) {
  api_.submit(pod("p1"));
  bind_now("p1", "node-a");
  EXPECT_EQ(api_.pod("p1").phase, cluster::PodPhase::kBound);
  EXPECT_EQ(api_.pod("p1").node, "node-a");
  EXPECT_EQ(assigned_names(api_, "node-a"),
            std::vector<cluster::PodName>{"p1"});
  EXPECT_TRUE(pending_names(api_, api_.default_scheduler()).empty());
  // The Kubelet actually received it.
  sim_.run();
  EXPECT_EQ(api_.pod("p1").phase, cluster::PodPhase::kSucceeded);
}

TEST_F(ApiServerFixture, BindValidation) {
  api_.submit(pod("p1"));
  const std::uint64_t v1 = api_.pod("p1").resource_version;
  // Unknown pods are a caller bug (there is no version to CAS against);
  // everything else is a clean, value-typed rejection.
  EXPECT_THROW((void)api_.try_bind("ghost", "node-a", 1), ContractViolation);
  EXPECT_EQ(api_.try_bind("p1", "ghost-node", v1),
            ApiServer::BindStatus::kNodeUnavailable);
  EXPECT_EQ(api_.try_bind("p1", "master", v1),
            ApiServer::BindStatus::kNodeUnavailable);
  bind_now("p1", "node-a");
  EXPECT_EQ(api_.try_bind("p1", "node-a", api_.pod("p1").resource_version),
            ApiServer::BindStatus::kNotPending);
}

TEST_F(ApiServerFixture, LifecycleTimestampsProduceMetrics) {
  api_.submit(pod("p1", "", Duration::seconds(30)));
  sim_.run_until(TimePoint::epoch() + Duration::seconds(5));
  bind_now("p1", "node-a");
  sim_.run();
  const PodRecord& record = api_.pod("p1");
  EXPECT_EQ(record.phase, cluster::PodPhase::kSucceeded);
  ASSERT_TRUE(record.waiting_time().has_value());
  ASSERT_TRUE(record.turnaround_time().has_value());
  // Waiting ≥ the 5 s the pod sat pending; turnaround ≥ waiting + 30 s run.
  EXPECT_GE(*record.waiting_time(), Duration::seconds(5));
  EXPECT_GE(*record.turnaround_time(),
            *record.waiting_time() + Duration::seconds(30));
  // Terminal pods are no longer assigned to the node.
  EXPECT_TRUE(assigned_names(api_, "node-a").empty());
}

TEST_F(ApiServerFixture, EventsAreChronological) {
  api_.submit(pod("p1"));
  bind_now("p1", "node-a");
  sim_.run();
  const auto& events = api_.events();
  ASSERT_GE(events.size(), 4u);
  EXPECT_EQ(events[0].message, "Submitted");
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].time, events[i].time);
  }
}

TEST_F(ApiServerFixture, AllPodsInSubmissionOrder) {
  api_.submit(pod("z"));
  api_.submit(pod("a"));
  const auto pods = api_.all_pods();
  ASSERT_EQ(pods.size(), 2u);
  EXPECT_EQ(pods[0]->spec.name, "z");
  EXPECT_EQ(pods[1]->spec.name, "a");
  EXPECT_TRUE(api_.has_pod("z"));
  EXPECT_FALSE(api_.has_pod("nope"));
  EXPECT_THROW((void)api_.pod("nope"), ContractViolation);
}

TEST_F(ApiServerFixture, EventRetentionDropsOldestBeyondCap) {
  api_.set_event_retention(3);
  EXPECT_EQ(api_.event_retention(), 3u);
  api_.submit(pod("p1"));  // 1 event
  api_.submit(pod("p2"));  // 2 events
  bind_now("p1", "node-a");
  bind_now("p2", "node-a");  // 4 events → oldest dropped
  EXPECT_EQ(api_.events().size(), 3u);
  EXPECT_EQ(api_.dropped_events(), 1u);
  // The survivors are the newest three, still chronological.
  EXPECT_EQ(api_.events().front().message, "Submitted");
  EXPECT_EQ(api_.events().front().pod, "p2");
  EXPECT_EQ(api_.events().back().pod, "p2");
}

TEST_F(ApiServerFixture, EventRetentionAppliesRetroactively) {
  api_.submit(pod("p1"));
  api_.submit(pod("p2"));
  api_.submit(pod("p3"));
  ASSERT_EQ(api_.events().size(), 3u);
  api_.set_event_retention(1);
  EXPECT_EQ(api_.events().size(), 1u);
  EXPECT_EQ(api_.dropped_events(), 2u);
  EXPECT_EQ(api_.events().front().pod, "p3");
}

TEST_F(ApiServerFixture, ZeroRetentionMeansUnlimited) {
  api_.set_event_retention(0);
  for (int i = 0; i < 50; ++i) {
    api_.submit(pod("p" + std::to_string(i)));
  }
  EXPECT_EQ(api_.events().size(), 50u);
  EXPECT_EQ(api_.dropped_events(), 0u);
}

TEST_F(ApiServerFixture, FailureRecordsReason) {
  api_.submit(pod("p1"));
  bind_now("p1", "node-a");
  // Simulate a kubelet-reported failure before completion.
  api_.on_pod_failed("p1", "SomethingBroke");
  const PodRecord& record = api_.pod("p1");
  EXPECT_EQ(record.phase, cluster::PodPhase::kFailed);
  EXPECT_EQ(record.failure_reason, "SomethingBroke");
  EXPECT_TRUE(record.turnaround_time().has_value());
  EXPECT_FALSE(record.waiting_time().has_value());
}

}  // namespace
}  // namespace sgxo::orch
