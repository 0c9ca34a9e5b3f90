// Docker-like container runtime for one node: assigns pids and cgroup
// paths, tracks device mounts (/dev/isgx for SGX pods), and reports
// per-container standard-memory usage to the Kubelet stats endpoint.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cluster/pod.hpp"
#include "common/units.hpp"
#include "sgx/driver.hpp"

namespace sgxo::cluster {

using ContainerId = std::uint64_t;

struct ContainerInfo {
  ContainerId id = 0;
  PodName pod;
  std::string image;
  sgx::Pid pid = 0;
  sgx::CgroupPath cgroup;
  std::vector<std::string> device_mounts;
  Bytes memory_usage{};
};

class ContainerRuntime {
 public:
  ContainerRuntime() = default;

  /// Starts a container for `pod`. All containers of a pod share one cgroup
  /// path (derived from the pod name), distinct across pods — the property
  /// the limit-enforcement channel relies on (§V-D).
  ContainerId run(const PodName& pod, const ContainerSpec& spec,
                  std::vector<std::string> device_mounts);

  /// Terminates a container, releasing its accounting.
  void kill(ContainerId id);
  /// Terminates every container of a pod.
  void kill_pod(const PodName& pod);

  /// Updates the observed standard-memory usage of a container (the
  /// simulated stressor reports what it allocated).
  void set_memory_usage(ContainerId id, Bytes usage);

  [[nodiscard]] bool running(ContainerId id) const;
  [[nodiscard]] const ContainerInfo& info(ContainerId id) const;
  [[nodiscard]] std::vector<ContainerId> containers_of(const PodName& pod) const;
  [[nodiscard]] std::size_t container_count() const { return containers_.size(); }
  /// Sum of standard memory used by all containers.
  [[nodiscard]] Bytes memory_usage() const;

  /// The cgroup path shared by all containers of `pod` — available before
  /// containers start (§V-D: it is the pod identifier used by the driver).
  [[nodiscard]] static sgx::CgroupPath cgroup_path_for(const PodName& pod);

 private:
  std::map<ContainerId, ContainerInfo> containers_;
  ContainerId next_id_ = 1;
  sgx::Pid next_pid_ = 1000;
};

}  // namespace sgxo::cluster
