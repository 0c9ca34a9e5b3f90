// kubectl-style rendering of cluster state: `get pods`, `get nodes`,
// `describe pod` — the operator-facing surface the examples and the CLI
// print.
#pragma once

#include <string>
#include <vector>

#include "common/table.hpp"
#include "orch/api_server.hpp"
#include "orch/scheduler_framework.hpp"

namespace sgxo::orch {

/// `kubectl get pods`: one row per pod in submission order.
/// Columns: NAME, NAMESPACE, PHASE, NODE, SGX, EPC REQ, MEM REQ, AGE.
[[nodiscard]] Table get_pods(const ApiServer& api, TimePoint now);

/// `kubectl get nodes`: one row per registered node.
/// Columns: NAME, ROLE, READY, SGX, EPC CAP [pages], EPC FREE [pages],
/// MEM CAP, PODS.
[[nodiscard]] Table get_nodes(const ApiServer& api);

/// `kubectl describe pod`: multi-line report with spec, phase history
/// timestamps and the pod's events. Throws ContractViolation for unknown
/// pods.
[[nodiscard]] std::string describe_pod(const ApiServer& api,
                                       const cluster::PodName& name);

/// `kubectl describe node`: capacity, readiness, the pods assigned by the
/// control plane, and — for SGX nodes — the driver's module parameters
/// and its live enclave listing. Throws ContractViolation for unknown
/// nodes.
[[nodiscard]] std::string describe_node(const ApiServer& api,
                                        const cluster::NodeName& name);

/// Control-plane health report: the attestation verdict cache (entries,
/// hit/miss/expired traffic, per-node verdict + age, and a storm banner
/// when more than a quarter of the attested nodes are mid
/// re-verification), and one line per scheduler (name, active/crashed
/// state, cycles, binds, and the bind conflicts, guard rejections,
/// degraded cycles and attestation waits it counted).
[[nodiscard]] std::string describe_control_plane(
    const ApiServer& api, const std::vector<const Scheduler*>& schedulers,
    TimePoint now);

}  // namespace sgxo::orch
