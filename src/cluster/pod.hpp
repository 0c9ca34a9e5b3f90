// Pod and container specifications, mirroring the Kubernetes objects the
// paper's users submit (§IV step 1: image name + EPC request/limit).
#pragma once

#include <string>
#include <vector>

#include "cluster/resources.hpp"
#include "common/time.hpp"
#include "common/units.hpp"

namespace sgxo::cluster {

using PodName = std::string;

struct ContainerSpec {
  std::string name;
  std::string image;
  ResourceAmounts requests;
  ResourceAmounts limits;
};

/// What the pod will actually do once started — the ground truth the
/// monitoring layer observes. In the paper this is the STRESS-SGX stressor
/// configured from the trace's *maximal memory usage*, which may legally
/// differ from the advertised requests (and does, for 44 of 663 jobs).
struct PodBehavior {
  /// True for EPC stressors, false for standard virtual-memory stressors.
  bool sgx = false;
  /// Peak memory the job allocates: EPC bytes for SGX jobs, standard
  /// memory otherwise. SGX 1 enclaves commit all of it at build time.
  Bytes actual_usage{};
  /// Useful runtime after startup, exactly as in the trace.
  Duration duration{};
  /// SGX 2 dynamic-memory profile (§VI-G): fraction of the peak committed
  /// at enclave build; the rest is EAUGed at duration/3 and trimmed back
  /// at 2·duration/3. 1.0 reproduces SGX 1 all-at-init semantics and is
  /// also what SGX 1 nodes fall back to.
  double initial_usage_fraction = 1.0;

  [[nodiscard]] bool dynamic_profile() const {
    return initial_usage_fraction < 1.0;
  }
  [[nodiscard]] Bytes initial_usage() const {
    return Bytes{static_cast<std::uint64_t>(
        initial_usage_fraction * static_cast<double>(actual_usage.count()))};
  }
};

struct PodSpec {
  PodName name;
  /// Kubernetes namespace, shown by `get pods` and `describe`.
  std::string namespace_name = "default";
  std::vector<ContainerSpec> containers;
  /// Kubernetes supports several schedulers side by side; pods select one
  /// by name (§V-B). Empty = cluster default.
  std::string scheduler_name;
  /// Kubernetes nodeSelector, reduced to its common single-node use: when
  /// non-empty, only the named node is feasible for this pod.
  NodeName node_selector;
  /// Kubernetes PriorityClass value. Higher-priority pending pods may
  /// preempt lower-priority running pods under EPC contention — the use
  /// case the paper's per-process ioctl anticipates (§V-E).
  int priority = 0;
  PodBehavior behavior;

  [[nodiscard]] ResourceAmounts total_requests() const;
  [[nodiscard]] ResourceAmounts total_limits() const;
  /// A pod is SGX-enabled iff it requests at least one share of the EPC
  /// resource exposed by the device plugin (§V-A).
  [[nodiscard]] bool wants_sgx() const;
};

/// Builds the single-container pod used throughout the evaluation:
/// a STRESS-SGX stressor with the given advertised request/limit and
/// actual behaviour.
[[nodiscard]] PodSpec make_stressor_pod(PodName name, ResourceAmounts request,
                                        ResourceAmounts limit,
                                        PodBehavior behavior,
                                        std::string scheduler_name = "");

enum class PodPhase {
  kPending,    // submitted, not bound
  kBound,      // assigned to a node, container starting
  kRunning,
  kSucceeded,
  kFailed,
};

[[nodiscard]] const char* to_string(PodPhase phase);

}  // namespace sgxo::cluster
