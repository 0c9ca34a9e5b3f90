// Test helpers: ApiServer::list_pods answers as pod names, in list_pods
// order, so a test can compare a whole queue or node in one EXPECT_EQ.
#pragma once

#include <string>
#include <vector>

#include "orch/api_server.hpp"

namespace sgxo::orch {

inline std::vector<cluster::PodName> names(const ApiServer& api,
                                           const PodFilter& filter) {
  std::vector<cluster::PodName> out;
  for (const PodRecord* record : api.list_pods(filter)) {
    out.push_back(record->spec.name);
  }
  return out;
}

/// The pending pods `scheduler` owns, in scheduling-queue order.
inline std::vector<cluster::PodName> pending_names(
    const ApiServer& api, const std::string& scheduler) {
  PodFilter filter;
  filter.phase = cluster::PodPhase::kPending;
  filter.scheduler = scheduler;
  return names(api, filter);
}

/// The pods assigned to (bound or running on) `node`, in name order.
inline std::vector<cluster::PodName> assigned_names(
    const ApiServer& api, const cluster::NodeName& node) {
  PodFilter filter;
  filter.node = node;
  return names(api, filter);
}

}  // namespace sgxo::orch
