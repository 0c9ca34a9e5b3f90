// Malicious containers (paper §VI-F): pods that declare the minimum
// possible EPC footprint — 1 page as both request and limit — but actually
// allocate a large share of a node's EPC (up to 50 %). Without driver-level
// limit enforcement they squat on the EPC and starve honest pods; with
// enforcement their enclave initialisation is denied and they are killed
// right after launch.
#pragma once

#include <string>
#include <vector>

#include "cluster/pod.hpp"
#include "common/time.hpp"
#include "sgx/epc.hpp"

namespace sgxo::workload {

struct MaliciousConfig {
  /// Fraction of the node's usable EPC the container really allocates.
  double epc_fraction = 0.5;
  /// How long the squatter stays alive (long enough to cover a replay).
  Duration duration = Duration::hours(12);
  /// EPC geometry of the targeted nodes.
  sgx::EpcConfig epc = sgx::EpcConfig::sgx1();
};

/// One malicious pod. The paper deploys as many as there are SGX-enabled
/// nodes in the cluster.
[[nodiscard]] cluster::PodSpec malicious_pod(const std::string& name,
                                             const MaliciousConfig& config);

/// `count` malicious pods named "<prefix>-1" ... "<prefix>-count".
[[nodiscard]] std::vector<cluster::PodSpec> malicious_pods(
    std::size_t count, const MaliciousConfig& config,
    const std::string& prefix = "malicious");

}  // namespace sgxo::workload
