#include "orch/default_scheduler.hpp"

#include <algorithm>

namespace sgxo::orch {

DefaultScheduler::DefaultScheduler(sim::Simulation& sim, ApiServer& api)
    : Scheduler(sim, api, kName) {}

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
