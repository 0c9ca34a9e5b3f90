#include "orch/api_server.hpp"

#include <algorithm>
#include <ostream>

#include "common/error.hpp"
#include "common/log.hpp"

namespace sgxo::orch {

std::optional<Duration> PodRecord::waiting_time() const {
  if (!started.has_value()) return std::nullopt;
  return *started - submitted;
}

std::optional<Duration> PodRecord::turnaround_time() const {
  if (!finished.has_value()) return std::nullopt;
  return *finished - submitted;
}

namespace {

bool assigned(cluster::PodPhase phase) {
  return phase == cluster::PodPhase::kBound ||
         phase == cluster::PodPhase::kRunning;
}

}  // namespace

const char* to_string(ApiServer::BindStatus status) {
  switch (status) {
    case ApiServer::BindStatus::kBound:
      return "Bound";
    case ApiServer::BindStatus::kStaleVersion:
      return "StaleVersion";
    case ApiServer::BindStatus::kNotPending:
      return "NotPending";
    case ApiServer::BindStatus::kNodeUnavailable:
      return "NodeUnavailable";
    case ApiServer::BindStatus::kAdmissionRejected:
      return "AdmissionRejected";
    case ApiServer::BindStatus::kAttestationPending:
      return "AttestationPending";
    case ApiServer::BindStatus::kAttestationRejected:
      return "AttestationRejected";
  }
  return "unknown";
}

std::ostream& operator<<(std::ostream& os, ApiServer::BindStatus status) {
  return os << to_string(status);
}

std::ostream& operator<<(std::ostream& os,
                         const ApiServer::BindOutcome& outcome) {
  return os << to_string(outcome.status) << "@v" << outcome.resource_version;
}

ApiServer::ApiServer(sim::Simulation& sim) : sim_(&sim) {}

void ApiServer::enable_attestation(sgx::QuoteTransport& transport,
                                   AttestationGate::QuoteSource quotes,
                                   AttestationGate::Config config) {
  SGXO_CHECK_MSG(attestation_ == nullptr, "attestation already enabled");
  attestation_ = std::make_unique<AttestationGate>(
      *sim_, *this, transport, std::move(quotes), config);
}

void ApiServer::register_node(cluster::Node& node, cluster::Kubelet& kubelet) {
  SGXO_CHECK_MSG(find_node(node.name()) == nullptr,
                 "node name already registered");
  node_index_.emplace(node.name(), nodes_.size());
  nodes_.push_back(NodeEntry{&node, &kubelet});
}

std::vector<ApiServer::NodeEntry> ApiServer::schedulable_nodes() const {
  std::vector<NodeEntry> out;
  for (const NodeEntry& entry : nodes_) {
    if (entry.node->schedulable()) out.push_back(entry);
  }
  return out;
}

std::vector<ApiServer::NodeEntry> ApiServer::all_nodes() const {
  return nodes_;
}

const ApiServer::NodeEntry* ApiServer::find_node(
    const cluster::NodeName& name) const {
  const auto it = node_index_.find(name);
  return it == node_index_.end() ? nullptr : &nodes_[it->second];
}

cluster::ResourceAmounts ApiServer::node_requests(
    const cluster::NodeName& node) const {
  const auto it = pods_by_node_.find(node);
  return it == pods_by_node_.end() ? cluster::ResourceAmounts{}
                                   : it->second.requests;
}

// ---- index maintenance ------------------------------------------------------

void ApiServer::pending_insert(const PodRecord& record) {
  pending_.emplace(QueueKey{record.spec.priority, record.seq}, &record);
}

void ApiServer::node_insert(const PodRecord& record) {
  NodePods& node = pods_by_node_[record.node];
  node.pods.emplace(record.spec.name, &record);
  const cluster::ResourceAmounts request = record.spec.total_requests();
  node.requests.memory += request.memory;
  node.requests.epc_pages += request.epc_pages;
}

void ApiServer::unindex(const PodRecord& record) {
  if (record.phase == cluster::PodPhase::kPending) {
    const std::size_t erased =
        pending_.erase(QueueKey{record.spec.priority, record.seq});
    SGXO_CHECK(erased == 1);
    return;
  }
  if (assigned(record.phase)) {
    auto it = pods_by_node_.find(record.node);
    SGXO_CHECK(it != pods_by_node_.end());
    NodePods& node = it->second;
    const cluster::ResourceAmounts request = record.spec.total_requests();
    const std::size_t erased = node.pods.erase(record.spec.name);
    SGXO_CHECK(erased == 1);
    SGXO_CHECK(node.requests.memory >= request.memory &&
               node.requests.epc_pages >= request.epc_pages);
    node.requests.memory -= request.memory;
    node.requests.epc_pages -= request.epc_pages;
    if (node.pods.empty()) pods_by_node_.erase(it);
  }
  // Terminal pods are in no index.
}

// ---- pod lifecycle ----------------------------------------------------------

void ApiServer::submit(cluster::PodSpec spec) {
  SGXO_CHECK_MSG(!spec.name.empty(), "pod needs a name");
  SGXO_CHECK_MSG(pods_.find(spec.name) == pods_.end(),
                 "pod name already exists: " + spec.name);

  PodRecord record;
  record.spec = std::move(spec);
  record.submitted = sim_->now();
  record.seq = next_seq_++;
  const cluster::PodName name = record.spec.name;
  const PodRecord& stored =
      pods_.emplace(name, std::move(record)).first->second;
  submission_order_.push_back(name);
  pending_insert(stored);
  record_event(name, "Submitted");
  notify_watchers(name, cluster::PodPhase::kPending);
}

std::vector<const PodRecord*> ApiServer::list_pods(
    const PodFilter& filter) const {
  const auto matches = [&](const PodRecord& record) {
    if (filter.phase.has_value() && record.phase != *filter.phase) {
      return false;
    }
    if (filter.node.has_value() &&
        (!assigned(record.phase) || record.node != *filter.node)) {
      return false;
    }
    if (filter.scheduler.has_value()) {
      const std::string& owner = record.spec.scheduler_name.empty()
                                     ? default_scheduler_
                                     : record.spec.scheduler_name;
      if (owner != *filter.scheduler) return false;
    }
    return true;
  };

  std::vector<const PodRecord*> out;

  // Pending pods come from the queue index, already in priority+FCFS
  // order.
  if (filter.phase == cluster::PodPhase::kPending) {
    for (const auto& [key, record] : pending_) {
      if (matches(*record)) out.push_back(record);
    }
    return out;
  }

  // Assigned pods come from the node index (pod-name order).
  if (filter.node.has_value()) {
    const PodsByName& pods = pods_on(*filter.node);
    out.reserve(pods.size());
    for (const auto& [name, record] : pods) {
      if (matches(*record)) out.push_back(record);
    }
    return out;
  }

  // Everything else: submission-order scan.
  out.reserve(submission_order_.size());
  for (const cluster::PodName& name : submission_order_) {
    const PodRecord& record = pods_.at(name);
    if (matches(record)) out.push_back(&record);
  }
  return out;
}

const ApiServer::PodsByName& ApiServer::pods_on(
    const cluster::NodeName& node) const {
  static const PodsByName kNone;
  const auto it = pods_by_node_.find(node);
  return it == pods_by_node_.end() ? kNone : it->second.pods;
}

ApiServer::BindOutcome ApiServer::try_bind(const cluster::PodName& pod,
                                           const cluster::NodeName& node,
                                           std::uint64_t expected_version) {
  PodRecord& record = mutable_pod(pod);
  BindOutcome outcome;
  outcome.resource_version = record.resource_version;

  // Validate against live state, mutating nothing until every check has
  // passed: the CAS (still pending, same version), the node, the
  // attestation gate, then the kubelet's admission guard.
  if (record.phase != cluster::PodPhase::kPending) {
    outcome.status = BindStatus::kNotPending;
    return outcome;
  }
  if (record.resource_version != expected_version) {
    outcome.status = BindStatus::kStaleVersion;
    return outcome;
  }
  const NodeEntry* entry = find_node(node);
  if (entry == nullptr || !entry->node->schedulable()) {
    outcome.status = BindStatus::kNodeUnavailable;
    return outcome;
  }
  // Attestation gate (when enabled): binds to SGX nodes need a fresh
  // accepted quote verdict. A miss kicks off one (coalesced) verification
  // and parks the bind kAttestationPending; a cached definitive rejection
  // refuses it.
  if (attestation_ != nullptr && entry->node->has_sgx()) {
    const AttestationGate::Check check =
        attestation_->check_bind(node, record.spec.wants_sgx());
    if (check == AttestationGate::Check::kPending) {
      outcome.status = BindStatus::kAttestationPending;
      return outcome;
    }
    if (check == AttestationGate::Check::kRejected) {
      outcome.status = BindStatus::kAttestationRejected;
      record_event(pod, "BindRejected: attestation verdict on " + node);
      return outcome;
    }
  }
  // Kubelet admission guard: re-check the declared EPC against the node's
  // *live* device commitments. A scheduler whose view of the node
  // predates other binds passes the CAS above — the pod itself is
  // unchanged — but must not over-commit the EPC it promised never to
  // over-commit.
  if (!entry->kubelet->can_admit(record.spec)) {
    outcome.status = BindStatus::kAdmissionRejected;
    record_event(pod, "BindRejected: EPC admission guard on " + node);
    return outcome;
  }

  // Apply: dequeue, bind, fire watchers and hand the pod to the kubelet.
  // Names come from the record, which outlives anything a watcher does.
  const cluster::PodName& name = record.spec.name;
  unindex(record);  // leaves the pending queue
  record.phase = cluster::PodPhase::kBound;
  record.bound = sim_->now();
  record.node = entry->node->name();
  bump_version(record);
  node_insert(record);
  record_event(name, "Scheduled to " + record.node);
  notify_watchers(name, cluster::PodPhase::kBound);
  entry->kubelet->admit_pod(record.spec);
  outcome.status = BindStatus::kBound;
  outcome.resource_version = record.resource_version;
  return outcome;
}

void ApiServer::evict(const cluster::PodName& pod,
                      const std::string& reason) {
  PodRecord& record = mutable_pod(pod);
  SGXO_CHECK_MSG(assigned(record.phase),
                 "only bound/running pods can be evicted");
  const NodeEntry* entry = find_node(record.node);
  SGXO_CHECK(entry != nullptr);
  entry->kubelet->evict_pod(pod);
  unindex(record);  // leaves the node index (while record.node is set)
  record.phase = cluster::PodPhase::kPending;
  record.bound.reset();
  record.node.clear();
  ++record.evictions;
  bump_version(record);
  pending_insert(record);
  record_event(pod, "Evicted: " + reason);
  notify_watchers(pod, cluster::PodPhase::kPending);
}

void ApiServer::fail_node(const cluster::NodeName& node) {
  const NodeEntry* entry = find_node(node);
  SGXO_CHECK_MSG(entry != nullptr, "failing unknown node " + node);
  entry->node->set_ready(false);
  entry->kubelet->handle_node_failure();
}

void ApiServer::recover_node(const cluster::NodeName& node) {
  const NodeEntry* entry = find_node(node);
  SGXO_CHECK_MSG(entry != nullptr, "recovering unknown node " + node);
  // A recovered machine rebooted: ready again, image cache cold.
  entry->node->reboot();
}

void ApiServer::migrate(const cluster::PodName& pod,
                        const cluster::NodeName& target,
                        sgx::MigrationService& service) {
  PodRecord& record = mutable_pod(pod);
  SGXO_CHECK_MSG(record.phase == cluster::PodPhase::kRunning,
                 "only running pods can be live-migrated");
  SGXO_CHECK_MSG(record.node != target, "pod is already on the target node");
  const NodeEntry* source = find_node(record.node);
  const NodeEntry* destination = find_node(target);
  SGXO_CHECK_MSG(source != nullptr && destination != nullptr,
                 "migration endpoints must be registered nodes");
  SGXO_CHECK_MSG(destination->node->schedulable() &&
                     destination->node->has_sgx(),
                 "migration target must be a schedulable SGX node");
  SGXO_CHECK_MSG(source->kubelet->pod_migratable(pod),
                 "pod is not in a migratable state");

  cluster::Kubelet::MigrationBundle bundle =
      source->kubelet->extract_for_migration(pod, service);
  const Duration inbound =
      bundle.checkpoint_latency + service.transfer_latency(bundle.checkpoint);
  unindex(record);  // leaves the source node's index
  record.node = target;
  bump_version(record);
  node_insert(record);
  record_event(pod, "Migrated " + source->node->name() + " -> " + target);
  destination->kubelet->admit_migrated(std::move(bundle), service, inbound);
}

const PodRecord& ApiServer::pod(const cluster::PodName& name) const {
  const auto it = pods_.find(name);
  SGXO_CHECK_MSG(it != pods_.end(), "unknown pod " + name);
  return it->second;
}

bool ApiServer::has_pod(const cluster::PodName& name) const {
  return pods_.find(name) != pods_.end();
}

std::vector<const PodRecord*> ApiServer::all_pods() const {
  return list_pods(PodFilter{});
}

// ---- event log --------------------------------------------------------------

void ApiServer::set_event_retention(std::size_t cap) {
  event_cap_ = cap;
  enforce_event_retention();
}

void ApiServer::enforce_event_retention() {
  if (event_cap_ == 0) return;
  while (events_.size() > event_cap_) {
    events_.pop_front();
    ++dropped_events_;
  }
}

void ApiServer::record_event(const cluster::PodName& pod,
                             std::string message) {
  events_.push_back(Event{sim_->now(), pod, std::move(message)});
  enforce_event_retention();
}

// ---- watches ----------------------------------------------------------------

ApiServer::WatchId ApiServer::watch_pods(WatchCallback callback) {
  SGXO_CHECK_MSG(static_cast<bool>(callback), "null watch callback");
  const WatchId id = next_watch_++;
  watches_.emplace_back(id, std::move(callback));
  return id;
}

void ApiServer::unwatch(WatchId id) {
  if (notify_depth_ > 0) {
    // Called re-entrantly from a callback: tombstone instead of erasing so
    // the in-flight iteration stays valid; swept when delivery unwinds.
    for (auto& [watch_id, callback] : watches_) {
      if (watch_id == id) {
        callback = nullptr;
        watch_tombstones_ = true;
        return;
      }
    }
    return;
  }
  std::erase_if(watches_,
                [id](const auto& entry) { return entry.first == id; });
}

std::size_t ApiServer::watch_count() const {
  return static_cast<std::size_t>(
      std::count_if(watches_.begin(), watches_.end(), [](const auto& entry) {
        return static_cast<bool>(entry.second);
      }));
}

void ApiServer::notify_watchers(const cluster::PodName& pod,
                                cluster::PodPhase phase) {
  // Index-bounded iteration over the live vector: callbacks may unwatch
  // (any watch, including themselves — tombstoned, skipped below) and may
  // watch_pods (appended past `count`, first notified next transition).
  // Invoke a copy: watch_pods can reallocate `watches_` mid-delivery,
  // which would free the storage of the callback being executed.
  ++notify_depth_;
  const std::size_t count = watches_.size();
  for (std::size_t i = 0; i < count; ++i) {
    if (!watches_[i].second) continue;  // unwatched mid-delivery
    const WatchCallback callback = watches_[i].second;
    callback(PodUpdate{pod, phase});
  }
  if (--notify_depth_ == 0 && watch_tombstones_) {
    std::erase_if(watches_, [](const auto& entry) {
      return !static_cast<bool>(entry.second);
    });
    watch_tombstones_ = false;
  }
}

PodRecord& ApiServer::mutable_pod(const cluster::PodName& name) {
  const auto it = pods_.find(name);
  SGXO_CHECK_MSG(it != pods_.end(), "unknown pod " + name);
  return it->second;
}

// ---- PodLifecycleListener ---------------------------------------------------

void ApiServer::on_pod_running(const cluster::PodName& pod) {
  PodRecord& record = mutable_pod(pod);
  SGXO_CHECK_MSG(record.phase == cluster::PodPhase::kBound,
                 "pod running without being bound");
  record.phase = cluster::PodPhase::kRunning;  // stays in the node index
  bump_version(record);
  // Keep the first start across evictions: waiting time is the paper's
  // submission → first-actually-running interval.
  if (!record.started.has_value()) {
    record.started = sim_->now();
  }
  record_event(pod, "Running");
  notify_watchers(pod, cluster::PodPhase::kRunning);
}

void ApiServer::on_pod_succeeded(const cluster::PodName& pod) {
  PodRecord& record = mutable_pod(pod);
  SGXO_CHECK_MSG(record.phase == cluster::PodPhase::kRunning,
                 "pod succeeded without running");
  unindex(record);
  record.phase = cluster::PodPhase::kSucceeded;
  record.finished = sim_->now();
  bump_version(record);
  record_event(pod, "Succeeded");
  notify_watchers(pod, cluster::PodPhase::kSucceeded);
}

void ApiServer::on_pod_failed(const cluster::PodName& pod,
                              const std::string& reason) {
  PodRecord& record = mutable_pod(pod);
  unindex(record);  // a repeated failure report finds it in no index
  record.phase = cluster::PodPhase::kFailed;
  record.finished = sim_->now();
  record.failure_reason = reason;
  bump_version(record);
  record_event(pod, "Failed: " + reason);
  notify_watchers(pod, cluster::PodPhase::kFailed);
}

}  // namespace sgxo::orch
