#include "workload/malicious.hpp"

#include <cmath>

#include "common/error.hpp"

namespace sgxo::workload {

cluster::PodSpec malicious_pod(const std::string& name,
                               const MaliciousConfig& config) {
  SGXO_CHECK_MSG(config.epc_fraction > 0.0 && config.epc_fraction <= 1.0,
                 "malicious EPC fraction must be in (0, 1]");
  cluster::ResourceAmounts declared;
  declared.epc_pages = Pages{1};  // the lie: 1 page requested and limited

  cluster::PodBehavior behavior;
  behavior.sgx = true;
  behavior.actual_usage = Bytes{static_cast<std::uint64_t>(std::llround(
      config.epc_fraction *
      static_cast<double>(config.epc.usable.count())))};
  behavior.duration = config.duration;

  return cluster::make_stressor_pod(name, declared, declared, behavior);
}

std::vector<cluster::PodSpec> malicious_pods(std::size_t count,
                                             const MaliciousConfig& config,
                                             const std::string& prefix) {
  std::vector<cluster::PodSpec> pods;
  pods.reserve(count);
  for (std::size_t i = 1; i <= count; ++i) {
    pods.push_back(malicious_pod(prefix + "-" + std::to_string(i), config));
  }
  return pods;
}

}  // namespace sgxo::workload
