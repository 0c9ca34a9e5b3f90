#include "orch/default_scheduler.hpp"

#include <algorithm>

namespace sgxo::orch {

std::vector<NodeView> request_based_views(ApiServer& api) {
  std::vector<NodeView> views;
  for (const ApiServer::NodeEntry& entry : api.schedulable_nodes()) {
    NodeView view;
    view.name = entry.node->name();
    view.sgx_capable = entry.node->has_sgx();
    view.memory_capacity = entry.node->memory_capacity();
    view.epc_capacity = entry.node->epc_capacity();
    const cluster::ResourceAmounts requested = api.node_requests(view.name);
    view.memory_used = requested.memory;
    view.epc_used = requested.epc_pages;
    view.epc_requested = requested.epc_pages;
    views.push_back(view);
  }
  // Stable, deterministic node order.
  std::sort(views.begin(), views.end(),
            [](const NodeView& a, const NodeView& b) { return a.name < b.name; });
  return views;
}

DefaultScheduler::DefaultScheduler(sim::Simulation& sim, ApiServer& api,
                                   Duration period)
    : Scheduler(sim, api, kName, period) {}

std::vector<NodeView> DefaultScheduler::collect_views() {
  return request_based_views(api());
}

std::optional<cluster::NodeName> DefaultScheduler::select_node(
    const cluster::PodSpec& pod, const std::vector<NodeView>& feasible,
    const std::vector<NodeView>& all) {
  (void)pod;
  (void)all;
  const auto best = std::min_element(
      feasible.begin(), feasible.end(),
      [](const NodeView& a, const NodeView& b) {
        const double la = a.memory_load() + a.epc_load();
        const double lb = b.memory_load() + b.epc_load();
        if (la != lb) return la < lb;
        return a.name < b.name;
      });
  return best->name;
}

}  // namespace sgxo::orch
