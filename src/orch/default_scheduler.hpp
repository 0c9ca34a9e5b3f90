// The Kubernetes default scheduler, as a baseline (paper §I / §V-B):
// it relies *only* on the statically declared resource requests of pods —
// no runtime measurements — and scores nodes by least-requested priority.
// Users who misdeclare their usage therefore cause over- or
// under-allocation, the problem the SGX-aware scheduler solves.
#pragma once

#include "orch/scheduler_framework.hpp"

namespace sgxo::orch {

class DefaultScheduler final : public Scheduler {
 public:
  static constexpr const char* kName = "default-scheduler";

  DefaultScheduler(sim::Simulation& sim, ApiServer& api,
                   Duration period = Duration::seconds(5));

 protected:
  /// Usage = sum of the declared requests of pods assigned to each node.
  [[nodiscard]] std::vector<NodeView> collect_views() override;

  /// Least-requested priority: the feasible node with the lowest combined
  /// requested fraction wins (ties broken by name for determinism).
  [[nodiscard]] std::optional<cluster::NodeName> select_node(
      const cluster::PodSpec& pod, const std::vector<NodeView>& feasible,
      const std::vector<NodeView>& all) override;
};

/// Builds request-based node views from the API server's state — shared
/// with the SGX-aware scheduler's device-accounting column. Sorted by node
/// name; O(nodes), since each node's request sum is kept by the ApiServer.
[[nodiscard]] std::vector<NodeView> request_based_views(ApiServer& api);

}  // namespace sgxo::orch
