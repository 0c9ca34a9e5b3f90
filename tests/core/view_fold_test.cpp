// Exactness of the SGX-aware scheduler's node-view build.
//
// request_based_views reads each node's request sum from the ApiServer,
// and fold_measured_usage folds the measured rows in one pass with one
// listing of each node's pods. Both are checked against the per-node fold
// they replace, kept here as the oracle: for every node, scan every row
// and list the node's pods. The rows are drawn to cover what the window
// can hold: pods measured on a node they no longer run on, dead and
// pending pods, rows for the master, a failed or an unknown node, pods in
// only one measurement, nodes without rows, in query order or shuffled.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "core/sgx_scheduler.hpp"
#include "exp/fixture.hpp"
#include "orch/default_scheduler.hpp"

namespace sgxo::core {
namespace {

using namespace sgxo::literals;
using PodUsage = ClusterMetrics::PodUsage;

/// The request-based views as built before the ApiServer kept per-node
/// request sums: list each node's pods and add their requests.
std::vector<orch::NodeView> reference_request_views(orch::ApiServer& api) {
  std::vector<orch::NodeView> views;
  for (const orch::ApiServer::NodeEntry& entry : api.schedulable_nodes()) {
    orch::NodeView view;
    view.name = entry.node->name();
    view.sgx_capable = entry.node->has_sgx();
    view.memory_capacity = entry.node->memory_capacity();
    view.epc_capacity = entry.node->epc_capacity();
    orch::PodFilter on_node;
    on_node.node = view.name;
    for (const orch::PodRecord* record : api.list_pods(on_node)) {
      const cluster::ResourceAmounts request = record->spec.total_requests();
      view.memory_used += request.memory;
      view.epc_used += request.epc_pages;
      view.epc_requested += request.epc_pages;
    }
    views.push_back(view);
  }
  std::sort(views.begin(), views.end(),
            [](const orch::NodeView& a, const orch::NodeView& b) {
              return a.name < b.name;
            });
  return views;
}

/// The per-node fold fold_measured_usage replaces: every row scanned once
/// per node, a set of the pods measured there, the node's pods listed.
void reference_fold(std::vector<orch::NodeView>& views,
                    const std::vector<PodUsage>& epc,
                    const std::vector<PodUsage>& memory,
                    const orch::ApiServer& api) {
  for (orch::NodeView& view : views) {
    orch::PodFilter on_node;
    on_node.node = view.name;
    Bytes memory_used{};
    Pages epc_used{};
    std::set<cluster::PodName> measured_pods;
    for (const PodUsage& usage : epc) {
      if (usage.node != view.name) continue;
      epc_used += Pages::ceil_from(usage.usage);
      measured_pods.insert(usage.pod);
    }
    for (const PodUsage& usage : memory) {
      if (usage.node != view.name) continue;
      memory_used += usage.usage;
      measured_pods.insert(usage.pod);
    }
    for (const orch::PodRecord* record : api.list_pods(on_node)) {
      if (measured_pods.count(record->spec.name) > 0) continue;
      const cluster::ResourceAmounts request = record->spec.total_requests();
      memory_used += request.memory;
      epc_used += request.epc_pages;
    }
    view.memory_used = memory_used;
    view.epc_used = epc_used;
  }
}

void expect_same_views(const std::vector<orch::NodeView>& want,
                       const std::vector<orch::NodeView>& got,
                       const std::string& context) {
  ASSERT_EQ(want.size(), got.size()) << context;
  for (std::size_t i = 0; i < want.size(); ++i) {
    const std::string where = context + " node " + want[i].name;
    EXPECT_EQ(want[i].name, got[i].name) << where;
    EXPECT_EQ(want[i].sgx_capable, got[i].sgx_capable) << where;
    EXPECT_EQ(want[i].memory_capacity, got[i].memory_capacity) << where;
    EXPECT_EQ(want[i].epc_capacity, got[i].epc_capacity) << where;
    EXPECT_EQ(want[i].memory_used, got[i].memory_used) << where;
    EXPECT_EQ(want[i].epc_used, got[i].epc_used) << where;
    EXPECT_EQ(want[i].epc_requested, got[i].epc_requested) << where;
  }
}

cluster::PodSpec make_pod(const std::string& name, Rng& rng) {
  cluster::PodBehavior behavior;
  behavior.duration = Duration::seconds(rng.uniform_int(20, 600));
  if (rng.bernoulli(0.5)) {
    const Pages pages{static_cast<std::uint64_t>(rng.uniform_int(64, 1024))};
    behavior.sgx = true;
    behavior.actual_usage = pages.as_bytes();
    return cluster::make_stressor_pod(name, {64_MiB, pages}, {64_MiB, pages},
                                      behavior);
  }
  const Bytes memory{static_cast<std::uint64_t>(rng.uniform_int(1, 512)) *
                     (1ull << 20)};
  behavior.actual_usage = memory;
  return cluster::make_stressor_pod(name, {memory, Pages{0}},
                                    {memory, Pages{0}}, behavior);
}

TEST(ViewFold, OnePassFoldEqualsThePerNodeFold) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng{seed};
    exp::SimulatedCluster cluster;  // master, node-1/2, sgx-1/2; no scheduler
    orch::ApiServer& api = cluster.api();
    const std::vector<cluster::NodeName> workers = {"node-1", "node-2",
                                                    "sgx-1", "sgx-2"};
    std::vector<cluster::PodName> names;
    for (int i = 0; i < 60; ++i) {
      names.push_back("pod-" + std::to_string(i));
      api.submit(make_pod(names.back(), rng));
    }
    // Bind most pods, let some run to completion, evict a few back to
    // pending, and on odd seeds fail a node: its pods die and it drops
    // out of the views while rows may still name it.
    for (const cluster::PodName& name : names) {
      if (rng.bernoulli(0.15)) continue;
      const orch::PodRecord& record = api.pod(name);
      const cluster::NodeName& node =
          record.spec.wants_sgx()
              ? workers[static_cast<std::size_t>(rng.uniform_int(2, 3))]
              : workers[static_cast<std::size_t>(rng.uniform_int(0, 3))];
      (void)api.try_bind(name, node, record.resource_version);
    }
    cluster.sim().run_until(cluster.sim().now() +
                            Duration::seconds(rng.uniform_int(0, 300)));
    orch::PodFilter running;
    running.phase = cluster::PodPhase::kRunning;
    for (const orch::PodRecord* record : api.list_pods(running)) {
      if (rng.bernoulli(0.1)) api.evict(record->spec.name, "test");
    }
    if (seed % 2 == 1) api.fail_node(seed % 4 == 1 ? "node-2" : "sgx-1");

    std::vector<orch::NodeView> views = orch::request_based_views(api);
    expect_same_views(reference_request_views(api), views,
                      "seed " + std::to_string(seed) + " request views");

    // Rows: most pods where they are assigned, some on another node
    // (moved, or dead and still in the window), some on nodes without a
    // view, some for pods the store never saw; each measurement keeps
    // only a subset, so pods appear in one, both or neither.
    const std::vector<cluster::NodeName> row_nodes = {
        "master", "node-1", "node-2", "sgx-1", "sgx-2", "ghost"};
    std::vector<PodUsage> epc;
    std::vector<PodUsage> memory;
    std::vector<cluster::PodName> pods = names;
    pods.push_back("never-submitted");
    for (const cluster::PodName& pod : pods) {
      cluster::NodeName node =
          api.has_pod(pod) ? api.pod(pod).node : cluster::NodeName{};
      if (node.empty() || rng.bernoulli(0.2)) {
        node = row_nodes[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(row_nodes.size()) - 1))];
      }
      const Bytes usage{
          static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 22))};
      if (rng.bernoulli(0.6)) epc.push_back(PodUsage{pod, node, usage});
      if (rng.bernoulli(0.6)) memory.push_back(PodUsage{pod, node, usage});
    }
    // The query returns rows in group-key order; the fold must not rely
    // on it.
    const auto key_order = [](const PodUsage& a, const PodUsage& b) {
      return std::tie(a.node, a.pod) < std::tie(b.node, b.pod);
    };
    std::sort(epc.begin(), epc.end(), key_order);
    std::sort(memory.begin(), memory.end(), key_order);
    if (seed % 3 == 0) {
      rng.shuffle(epc);
      rng.shuffle(memory);
    }

    std::vector<orch::NodeView> want = views;
    reference_fold(want, epc, memory, api);
    fold_measured_usage(views, epc, memory, api);
    expect_same_views(want, views, "seed " + std::to_string(seed) + " fold");
  }
}

TEST(ViewFold, NodesWithoutRowsKeepTheirRequests) {
  exp::SimulatedCluster cluster;
  orch::ApiServer& api = cluster.api();
  Rng rng{7};
  api.submit(make_pod("a", rng));
  api.submit(make_pod("b", rng));
  ASSERT_TRUE(api.try_bind("a", "sgx-1", api.pod("a").resource_version)
                  .bound());
  ASSERT_TRUE(api.try_bind("b", "sgx-1", api.pod("b").resource_version)
                  .bound());
  std::vector<orch::NodeView> views = orch::request_based_views(api);
  const std::vector<orch::NodeView> before = views;
  fold_measured_usage(views, {}, {}, api);
  expect_same_views(before, views, "no rows");
}

}  // namespace
}  // namespace sgxo::core
