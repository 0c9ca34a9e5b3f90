#include "cluster/container_runtime.hpp"

#include "common/error.hpp"

namespace sgxo::cluster {

sgx::CgroupPath ContainerRuntime::cgroup_path_for(const PodName& pod) {
  return "/kubepods/burstable/pod-" + pod;
}

ContainerId ContainerRuntime::run(const PodName& pod,
                                  const ContainerSpec& spec,
                                  std::vector<std::string> device_mounts) {
  SGXO_CHECK_MSG(!pod.empty(), "pod name must not be empty");
  ContainerInfo info;
  info.id = next_id_++;
  info.pod = pod;
  info.image = spec.image;
  info.pid = next_pid_++;
  info.cgroup = cgroup_path_for(pod);
  info.device_mounts = std::move(device_mounts);
  const ContainerId id = info.id;
  containers_.emplace(id, std::move(info));
  return id;
}

void ContainerRuntime::kill(ContainerId id) {
  const auto it = containers_.find(id);
  SGXO_CHECK_MSG(it != containers_.end(), "killing unknown container");
  containers_.erase(it);
}

void ContainerRuntime::kill_pod(const PodName& pod) {
  for (const ContainerId id : containers_of(pod)) {
    kill(id);
  }
}

void ContainerRuntime::set_memory_usage(ContainerId id, Bytes usage) {
  const auto it = containers_.find(id);
  SGXO_CHECK_MSG(it != containers_.end(), "unknown container");
  it->second.memory_usage = usage;
}

bool ContainerRuntime::running(ContainerId id) const {
  return containers_.find(id) != containers_.end();
}

const ContainerInfo& ContainerRuntime::info(ContainerId id) const {
  const auto it = containers_.find(id);
  SGXO_CHECK_MSG(it != containers_.end(), "unknown container");
  return it->second;
}

std::vector<ContainerId> ContainerRuntime::containers_of(
    const PodName& pod) const {
  std::vector<ContainerId> ids;
  for (const auto& [id, info] : containers_) {
    if (info.pod == pod) ids.push_back(id);
  }
  return ids;
}

Bytes ContainerRuntime::memory_usage() const {
  Bytes total{};
  for (const auto& [id, info] : containers_) total += info.memory_usage;
  return total;
}

}  // namespace sgxo::cluster
