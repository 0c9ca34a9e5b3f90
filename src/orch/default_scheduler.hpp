// The Kubernetes default scheduler, as a baseline (paper §I / §V-B):
// it relies *only* on the statically declared resource requests of pods —
// no runtime measurements, so it plans on the framework's
// request_based_views as they are — and scores nodes by least-requested
// priority. Users who misdeclare their usage therefore cause over- or
// under-allocation, the problem the SGX-aware scheduler solves.
#pragma once

#include "orch/scheduler_framework.hpp"

namespace sgxo::orch {

class DefaultScheduler final : public Scheduler {
 public:
  static constexpr const char* kName = "default-scheduler";

  DefaultScheduler(sim::Simulation& sim, ApiServer& api);

 protected:
  /// Least-requested priority: the feasible node with the lowest combined
  /// requested fraction wins (ties broken by name for determinism).
  [[nodiscard]] std::optional<cluster::NodeName> select_node(
      const cluster::PodSpec& pod, const std::vector<NodeView>& feasible,
      const std::vector<NodeView>& all) override;
};

}  // namespace sgxo::orch
