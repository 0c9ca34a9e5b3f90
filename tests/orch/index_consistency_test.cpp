// Property test for the ApiServer's secondary indexes.
//
// list_pods (pending and node filters), pods_on and node_requests are
// served from maintained indexes (the pending queue, pods-by-node with
// per-node request sums).
// This suite drives randomized submit / bind / evict / migrate / fail-node
// / recover / advance-time sequences and after every step cross-checks
// each indexed answer against a reference computed by a full scan of the
// pod store — the index must agree with the scan at all times, including
// ordering.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "orch/api_server.hpp"
#include "pod_names.hpp"
#include "sgx/migration.hpp"

namespace sgxo::orch {
namespace {

using namespace sgxo::literals;

cluster::MachineSpec machine(const std::string& name, bool sgx, bool master) {
  cluster::MachineSpec spec;
  spec.name = name;
  spec.cpu_cores = 4;
  spec.memory = 64_GiB;
  if (sgx) spec.epc = sgx::EpcConfig::sgx1();
  spec.is_master = master;
  return spec;
}

constexpr const char* kSchedulers[] = {"", "sched-a", "sched-b"};

class IndexConsistencyFixture : public ::testing::Test {
 protected:
  IndexConsistencyFixture()
      : api_(sim_),
        node_a_(machine("node-a", false, false)),
        node_b_(machine("node-b", true, false)),
        node_c_(machine("node-c", true, false)),
        kubelet_a_(sim_, node_a_, perf_, registry_, api_),
        kubelet_b_(sim_, node_b_, perf_, registry_, api_),
        kubelet_c_(sim_, node_c_, perf_, registry_, api_) {
    api_.register_node(node_a_, kubelet_a_);
    api_.register_node(node_b_, kubelet_b_);
    api_.register_node(node_c_, kubelet_c_);
  }

  cluster::PodSpec make_pod(Rng& rng) {
    cluster::PodBehavior behavior;
    behavior.actual_usage = 1_GiB;
    behavior.duration = Duration::seconds(rng.uniform_int(5, 120));
    // A third of the pods are SGX: they can bind only to the SGX nodes and
    // can live-migrate between them.
    const bool sgx = rng.bernoulli(1.0 / 3.0);
    const Pages pages{sgx ? static_cast<std::uint64_t>(
                                rng.uniform_int(16, 256))
                          : 0};
    if (sgx) {
      behavior.sgx = true;
      behavior.actual_usage = pages.as_bytes();
    }
    const Bytes memory = sgx ? 256_MiB : 1_GiB;
    cluster::PodSpec spec = cluster::make_stressor_pod(
        "pod-" + std::to_string(next_pod_++), {memory, pages},
        {memory, pages}, behavior, kSchedulers[rng.uniform_int(0, 2)]);
    spec.priority = static_cast<int>(rng.uniform_int(0, 3));
    return spec;
  }

  cluster::PodSpec make_pod_named(const std::string& name,
                                  const std::string& scheduler,
                                  int priority = 0) {
    cluster::PodBehavior behavior;
    behavior.actual_usage = 1_GiB;
    behavior.duration = Duration::minutes(10);
    cluster::PodSpec spec = cluster::make_stressor_pod(
        name, {1_GiB, Pages{0}}, {1_GiB, Pages{0}}, behavior, scheduler);
    spec.priority = priority;
    return spec;
  }

  // ---- reference answers: full scans over the unindexed pod store ---------
  /// The pending pods `scheduler` owns; every pending pod if nullopt.
  [[nodiscard]] std::vector<cluster::PodName> reference_pending(
      const std::optional<std::string>& scheduler) const {
    // The pre-index algorithm: submission-order scan, then a stable sort
    // by priority (descending).
    std::vector<cluster::PodName> out;
    for (const PodRecord* record : api_.all_pods()) {
      if (record->phase != cluster::PodPhase::kPending) continue;
      const std::string& owner = record->spec.scheduler_name.empty()
                                     ? api_.default_scheduler()
                                     : record->spec.scheduler_name;
      if (!scheduler.has_value() || owner == *scheduler) {
        out.push_back(record->spec.name);
      }
    }
    std::stable_sort(out.begin(), out.end(),
                     [this](const cluster::PodName& a,
                            const cluster::PodName& b) {
                       return api_.pod(a).spec.priority >
                              api_.pod(b).spec.priority;
                     });
    return out;
  }

  [[nodiscard]] std::vector<cluster::PodName> reference_assigned(
      const cluster::NodeName& node) const {
    std::vector<cluster::PodName> out;
    for (const PodRecord* record : api_.all_pods()) {
      if (record->node != node) continue;
      if (record->phase == cluster::PodPhase::kBound ||
          record->phase == cluster::PodPhase::kRunning) {
        out.push_back(record->spec.name);
      }
    }
    std::sort(out.begin(), out.end());  // the node index is pod-name ordered
    return out;
  }

  void check_invariants() {
    for (const char* scheduler : {"default-scheduler", "sched-a", "sched-b",
                                  "ghost"}) {
      EXPECT_EQ(pending_names(api_, scheduler), reference_pending(scheduler))
          << "scheduler " << scheduler;
    }
    // The unfiltered pending listing, which the Fig. 7 pending sampler
    // reads: every scheduler's pods together, in scheduling order.
    PodFilter pending;
    pending.phase = cluster::PodPhase::kPending;
    EXPECT_EQ(names(api_, pending), reference_pending(std::nullopt));
    for (const char* node : {"node-a", "node-b", "node-c", "ghost"}) {
      EXPECT_EQ(assigned_names(api_, node), reference_assigned(node))
          << "node " << node;
      // pods_on hands out the node index entry that list_pods reads: the
      // same pods, in name order, each under its own name.
      std::vector<cluster::PodName> in_place;
      for (const auto& [name, record] : api_.pods_on(node)) {
        EXPECT_EQ(name, record->spec.name) << "node " << node;
        in_place.push_back(name);
      }
      EXPECT_EQ(in_place, reference_assigned(node)) << "node " << node;
      // The kept request sum equals a recomputation over the node's pods.
      PodFilter on_node;
      on_node.node = node;
      cluster::ResourceAmounts expected;
      for (const PodRecord* record : api_.list_pods(on_node)) {
        expected = expected + record->spec.total_requests();
      }
      const cluster::ResourceAmounts actual = api_.node_requests(node);
      EXPECT_EQ(expected.memory, actual.memory) << "node " << node;
      EXPECT_EQ(expected.epc_pages, actual.epc_pages) << "node " << node;
    }
    // Combined filters fall out of the same machinery: a phase+node
    // filter must agree with a hand filter of the full scan.
    PodFilter running_b;
    running_b.phase = cluster::PodPhase::kRunning;
    running_b.node = "node-b";
    std::vector<cluster::PodName> expected_running;
    for (const PodRecord* record : api_.all_pods()) {
      if (record->phase == cluster::PodPhase::kRunning &&
          record->node == "node-b") {
        expected_running.push_back(record->spec.name);
      }
    }
    std::sort(expected_running.begin(), expected_running.end());
    std::vector<cluster::PodName> actual_running;
    for (const PodRecord* record : api_.list_pods(running_b)) {
      actual_running.push_back(record->spec.name);
    }
    EXPECT_EQ(expected_running, actual_running);
  }

  [[nodiscard]] std::vector<cluster::PodName> pods_in_phase(
      cluster::PodPhase phase) const {
    std::vector<cluster::PodName> out;
    for (const PodRecord* record : api_.all_pods()) {
      if (record->phase == phase) out.push_back(record->spec.name);
    }
    return out;
  }

  sim::Simulation sim_;
  ApiServer api_;
  sgx::PerfModel perf_;
  cluster::ImageRegistry registry_;
  cluster::Node node_a_;
  cluster::Node node_b_;
  cluster::Node node_c_;
  cluster::Kubelet kubelet_a_;
  cluster::Kubelet kubelet_b_;
  cluster::Kubelet kubelet_c_;
  sgx::MigrationService migration_{perf_};
  int next_pod_ = 0;
};

TEST_F(IndexConsistencyFixture, RandomizedLifecycleAgreesWithFullScan) {
  Rng rng{20260805};
  int migrations = 0;
  const std::vector<std::pair<cluster::Node*, cluster::NodeName>> nodes = {
      {&node_a_, "node-a"}, {&node_b_, "node-b"}, {&node_c_, "node-c"}};

  for (int step = 0; step < 400; ++step) {
    const double roll = rng.next_double();
    if (roll < 0.35) {
      api_.submit(make_pod(rng));
    } else if (roll < 0.55) {
      // Bind the head of a random scheduler's queue to a random ready node.
      const auto pending = pending_names(
          api_, rng.bernoulli(0.5) ? api_.default_scheduler()
                                   : kSchedulers[rng.uniform_int(1, 2)]);
      const auto& [node, name] = nodes[rng.uniform_int(0, 2)];
      if (!pending.empty() && node->schedulable() &&
          (node->has_sgx() ||
           !api_.pod(pending.front()).spec.wants_sgx())) {
        const cluster::PodName target = pending.front();
        ASSERT_TRUE(api_.try_bind(target, name,
                                  api_.pod(target).resource_version)
                        .bound());
      }
    } else if (roll < 0.61) {
      const auto assigned =
          assigned_names(api_, nodes[rng.uniform_int(0, 2)].second);
      if (!assigned.empty()) {
        api_.evict(assigned[rng.uniform_int(
                       0, static_cast<std::int64_t>(assigned.size()) - 1)],
                   "chaos");
      }
    } else if (roll < 0.66) {
      // Live-migrate a running enclave to the other SGX node.
      const bool from_b = rng.bernoulli(0.5);
      const cluster::Kubelet& source = from_b ? kubelet_b_ : kubelet_c_;
      const cluster::NodeName target = from_b ? "node-c" : "node-b";
      PodFilter running;
      running.phase = cluster::PodPhase::kRunning;
      running.node = from_b ? "node-b" : "node-c";
      for (const PodRecord* record : api_.list_pods(running)) {
        if (api_.find_node(target)->node->schedulable() &&
            source.pod_migratable(record->spec.name)) {
          api_.migrate(record->spec.name, target, migration_);
          ++migrations;
          break;
        }
      }
    } else if (roll < 0.72) {
      const auto& [node, name] = nodes[rng.uniform_int(0, 2)];
      if (node->ready()) {
        api_.fail_node(name);
      } else {
        api_.recover_node(name);
      }
    } else if (roll < 0.78) {
      // on_pod_failed carries no phase precondition: re-reporting failure
      // on an already-failed pod must leave every index as it was.
      const auto failed = pods_in_phase(cluster::PodPhase::kFailed);
      if (!failed.empty()) {
        api_.on_pod_failed(failed.front(), "RepeatedReport");
      }
    } else {
      // Let the cluster make progress: pods start, run and complete.
      sim_.run_until(sim_.now() +
                     Duration::seconds(rng.uniform_int(1, 30)));
    }
    check_invariants();
  }

  // The run must have actually exercised the interesting transitions.
  EXPECT_GT(api_.pod_count(), 50u);
  EXPECT_GT(migrations, 0);
  EXPECT_FALSE(pods_in_phase(cluster::PodPhase::kSucceeded).empty());
  EXPECT_FALSE(pods_in_phase(cluster::PodPhase::kFailed).empty());
}

TEST_F(IndexConsistencyFixture, DefaultSchedulerChangeReroutesUnnamedPods) {
  // A pending listing resolves each pod's owner at query time, so
  // flipping the cluster default after submission must re-route unnamed
  // pods without any index rebuild.
  api_.submit(make_pod_named("u1", ""));
  api_.submit(make_pod_named("n1", "sched-a"));
  EXPECT_EQ(pending_names(api_, "default-scheduler"),
            (std::vector<cluster::PodName>{"u1"}));

  api_.set_default_scheduler("sched-a");
  EXPECT_EQ(pending_names(api_, "sched-a"),
            (std::vector<cluster::PodName>{"u1", "n1"}));
  EXPECT_TRUE(pending_names(api_, "default-scheduler").empty());
  check_invariants();
}

TEST_F(IndexConsistencyFixture, PriorityOrderSurvivesEvictionRequeue) {
  api_.submit(make_pod_named("low-1", "", 0));
  api_.submit(make_pod_named("high", "", 5));
  api_.submit(make_pod_named("low-2", "", 0));
  EXPECT_EQ(pending_names(api_, "default-scheduler"),
            (std::vector<cluster::PodName>{"high", "low-1", "low-2"}));

  // An evicted pod re-enters the queue at its original submission
  // position (the legacy submission-order-scan behavior).
  ASSERT_TRUE(api_.try_bind("high", "node-a",
                            api_.pod("high").resource_version)
                  .bound());
  api_.evict("high", "test");
  EXPECT_EQ(pending_names(api_, "default-scheduler"),
            (std::vector<cluster::PodName>{"high", "low-1", "low-2"}));
  ASSERT_TRUE(api_.try_bind("low-1", "node-a",
                            api_.pod("low-1").resource_version)
                  .bound());
  EXPECT_EQ(pending_names(api_, "default-scheduler"),
            (std::vector<cluster::PodName>{"high", "low-2"}));
}

}  // namespace
}  // namespace sgxo::orch
