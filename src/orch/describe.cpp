#include "orch/describe.hpp"

#include <sstream>

namespace sgxo::orch {

Table get_pods(const ApiServer& api, TimePoint now) {
  Table table({"NAME", "NAMESPACE", "PHASE", "NODE", "SGX", "EPC REQ",
               "MEM REQ", "AGE"});
  for (const PodRecord* record : api.list_pods(PodFilter{})) {
    const cluster::ResourceAmounts request = record->spec.total_requests();
    table.add_row({
        record->spec.name,
        record->spec.namespace_name,
        to_string(record->phase),
        record->node.empty() ? "<none>" : record->node,
        record->spec.wants_sgx() ? "yes" : "no",
        std::to_string(request.epc_pages.count()) + "p",
        to_string(request.memory),
        to_string(now - record->submitted),
    });
  }
  return table;
}

Table get_nodes(const ApiServer& api) {
  Table table({"NAME", "ROLE", "READY", "SGX", "EPC CAP", "EPC FREE",
               "MEM CAP", "PODS"});
  for (const ApiServer::NodeEntry& entry : api.all_nodes()) {
    const cluster::Node& node = *entry.node;
    std::string epc_cap = "-";
    std::string epc_free = "-";
    if (node.has_sgx()) {
      epc_cap = std::to_string(node.driver()->total_epc_pages().count());
      epc_free = std::to_string(node.driver()->free_epc_pages().count());
    }
    table.add_row({
        node.name(),
        node.spec().is_master ? "master" : "worker",
        node.ready() ? "yes" : "NO",
        node.has_sgx() ? sgx::to_string(node.driver()->version()) : "-",
        epc_cap,
        epc_free,
        to_string(node.memory_capacity()),
        std::to_string(entry.kubelet->active_pod_count()),
    });
  }
  return table;
}

std::string describe_pod(const ApiServer& api,
                         const cluster::PodName& name) {
  const PodRecord& record = api.pod(name);
  std::ostringstream os;
  os << "Name:       " << record.spec.name << '\n'
     << "Namespace:  " << record.spec.namespace_name << '\n'
     << "Phase:      " << to_string(record.phase) << '\n'
     << "Node:       " << (record.node.empty() ? "<none>" : record.node)
     << '\n'
     << "Priority:   " << record.spec.priority << '\n'
     << "Scheduler:  "
     << (record.spec.scheduler_name.empty() ? api.default_scheduler()
                                            : record.spec.scheduler_name)
     << '\n';
  if (!record.spec.node_selector.empty()) {
    os << "NodeSelector: " << record.spec.node_selector << '\n';
  }

  const cluster::ResourceAmounts requests = record.spec.total_requests();
  const cluster::ResourceAmounts limits = record.spec.total_limits();
  os << "Requests:   epc=" << requests.epc_pages.count() << "p memory="
     << to_string(requests.memory) << '\n'
     << "Limits:     epc=" << limits.epc_pages.count() << "p memory="
     << to_string(limits.memory) << '\n';

  os << "Timeline:\n"
     << "  Submitted: " << record.submitted << '\n';
  if (record.bound.has_value()) {
    os << "  Bound:     " << *record.bound << '\n';
  }
  if (record.started.has_value()) {
    os << "  Started:   " << *record.started << '\n';
  }
  if (record.finished.has_value()) {
    os << "  Finished:  " << *record.finished << '\n';
  }
  if (const auto waiting = record.waiting_time()) {
    os << "  Waiting:   " << *waiting << '\n';
  }
  if (const auto turnaround = record.turnaround_time()) {
    os << "  Turnaround: " << *turnaround << '\n';
  }
  if (record.evictions > 0) {
    os << "Evictions:  " << record.evictions << '\n';
  }
  if (!record.failure_reason.empty()) {
    os << "Failure:    " << record.failure_reason << '\n';
  }

  os << "Events:\n";
  for (const Event& event : api.events()) {
    if (event.pod != name) continue;
    os << "  " << event.time << "  " << event.message << '\n';
  }
  return os.str();
}

std::string describe_node(const ApiServer& api,
                          const cluster::NodeName& name) {
  const ApiServer::NodeEntry* entry = api.find_node(name);
  SGXO_CHECK_MSG(entry != nullptr, "unknown node " + name);
  const cluster::Node& node = *entry->node;
  std::ostringstream os;
  os << "Name:      " << node.name() << '\n'
     << "Role:      " << (node.spec().is_master ? "master" : "worker")
     << '\n'
     << "Ready:     " << (node.ready() ? "yes" : "NO") << '\n'
     << "CPU:       " << node.spec().cpu_model << " ("
     << node.spec().cpu_cores << " cores)\n"
     << "Memory:    " << to_string(node.memory_used()) << " / "
     << to_string(node.memory_capacity()) << '\n';

  if (node.has_sgx()) {
    const sgx::Driver& driver = *node.driver();
    os << "SGX:       " << sgx::to_string(driver.version())
       << ", limits " << (driver.limits_enforced() ? "enforced" : "OFF")
       << '\n'
       << "EPC:       total="
       << driver.read_module_param("sgx_nr_total_epc_pages") << "p free="
       << driver.read_module_param("sgx_nr_free_pages") << "p paged_out="
       << driver.read_module_param("sgx_nr_paged_out_pages") << "p\n"
       << "Enclaves:\n";
    for (const sgx::Driver::EnclaveInfo& info : driver.enclave_infos()) {
      os << "  id=" << info.id << " pid=" << info.pid << " pages="
         << info.pages.count() << " cgroup=" << info.cgroup
         << (info.initialized ? "" : " (uninitialised)") << '\n';
    }
  } else {
    os << "SGX:       none\n";
  }

  os << "Pods:\n";
  PodFilter on_node;
  on_node.node = name;
  for (const PodRecord* record : api.list_pods(on_node)) {
    os << "  " << record->spec.name << " (" << to_string(record->phase)
       << ")\n";
  }
  return os.str();
}

std::string describe_control_plane(
    const ApiServer& api, const std::vector<const Scheduler*>& schedulers,
    TimePoint now) {
  std::ostringstream os;
  os << "Control plane:\n";

  if (const AttestationGate* gate = api.attestation(); gate != nullptr) {
    const auto verdicts = gate->verdicts();
    os << "Attestation cache:\n"
       << "  Entries:  " << gate->entries() << " cached, " << gate->in_flight()
       << " in flight\n"
       << "  Traffic:  hits=" << gate->hits() << " misses=" << gate->misses()
       << " expired=" << gate->expired()
       << " negative_hits=" << gate->negative_hits()
       << " coalesced=" << gate->coalesced() << '\n'
       << "  Actions:  verifications=" << gate->verifications()
       << " evictions=" << gate->evictions()
       << " degraded_admissions=" << gate->degraded_admissions()
       << " storms=" << gate->storms() << '\n';
    // Storm banner: more than a quarter of the attested nodes are mid
    // re-verification at once — mass TTL lapse or a forced storm.
    if (!verdicts.empty() && gate->in_flight() * 4 > verdicts.size()) {
      os << "  RE-ATTESTATION STORM: " << gate->in_flight() << "/"
         << verdicts.size() << " nodes re-verifying\n";
    }
    for (const AttestationGate::VerdictView& view : verdicts) {
      os << "  " << view.node << ": ";
      if (view.expires == TimePoint::epoch()) {
        // Never decided — the first verification is still in flight.
        os << "verification in flight";
      } else {
        os << (view.accepted ? "accepted" : "rejected")
           << " age=" << to_string(now - view.decided);
        if (view.expires > now) {
          os << " expires-in=" << to_string(view.expires - now);
        } else {
          os << " EXPIRED";
        }
        if (view.in_flight) os << " (re-verifying)";
        if (!view.accepted) os << " reason=" << view.reason;
      }
      os << '\n';
    }
  }

  os << "Schedulers:\n";
  for (const Scheduler* scheduler : schedulers) {
    if (scheduler == nullptr) continue;
    const Scheduler::Health health = scheduler->health();
    os << "  " << health.name << ": "
       << (health.crashed ? "CRASHED" : "active")
       << ", cycles=" << health.cycles << " bound=" << health.bound
       << " bind_conflicts=" << health.bind_conflicts
       << " guard_rejections=" << health.guard_rejections
       << " degraded_cycles=" << health.degraded_cycles
       << " attestation_waits=" << health.attestation_waits << '\n';
  }
  return os.str();
}

}  // namespace sgxo::orch
