#include "orch/api_server.hpp"

#include <algorithm>
#include <ostream>

#include "common/error.hpp"
#include "common/hash.hpp"
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

bool terminal(cluster::PodPhase phase) {
  return phase == cluster::PodPhase::kSucceeded ||
         phase == cluster::PodPhase::kFailed;
}

bool assigned(cluster::PodPhase phase) {
  return phase == cluster::PodPhase::kBound ||
         phase == cluster::PodPhase::kRunning;
}

}  // namespace

std::uint32_t shard_of(const cluster::PodName& pod,
                       std::uint32_t shard_count) {
  SGXO_CHECK_MSG(shard_count > 0, "shard_count must be positive");
  return static_cast<std::uint32_t>(fnv1a(pod) % shard_count);
}

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

void ApiServer::set_quota(const std::string& namespace_name,
                          ResourceQuota quota) {
  SGXO_CHECK_MSG(!namespace_name.empty(), "namespace must be named");
  quotas_[namespace_name] = quota;
}

std::optional<ResourceQuota> ApiServer::quota(
    const std::string& namespace_name) const {
  const auto it = quotas_.find(namespace_name);
  if (it == quotas_.end()) return std::nullopt;
  return it->second;
}

cluster::ResourceAmounts ApiServer::namespace_usage(
    const std::string& namespace_name) const {
  const auto it = usage_by_namespace_.find(namespace_name);
  return it == usage_by_namespace_.end() ? cluster::ResourceAmounts{}
                                         : it->second;
}

cluster::ResourceAmounts ApiServer::node_requests(
    const cluster::NodeName& node) const {
  const auto it = pods_by_node_.find(node);
  return it == pods_by_node_.end() ? cluster::ResourceAmounts{}
                                   : it->second.requests;
}

// ---- index maintenance ------------------------------------------------------

void ApiServer::pending_insert(const PodRecord& record) {
  pending_queues_[record.spec.scheduler_name].emplace(
      QueueKey{record.spec.priority, record.seq}, &record);
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
    auto it = pending_queues_.find(record.spec.scheduler_name);
    SGXO_CHECK(it != pending_queues_.end());
    it->second.erase(QueueKey{record.spec.priority, record.seq});
    if (it->second.empty()) pending_queues_.erase(it);
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

void ApiServer::usage_add(const PodRecord& record) {
  const cluster::ResourceAmounts request = record.spec.total_requests();
  cluster::ResourceAmounts& usage =
      usage_by_namespace_[record.spec.namespace_name];
  usage.memory += request.memory;
  usage.epc_pages += request.epc_pages;
}

void ApiServer::usage_remove(const PodRecord& record) {
  const cluster::ResourceAmounts request = record.spec.total_requests();
  const auto it = usage_by_namespace_.find(record.spec.namespace_name);
  SGXO_CHECK(it != usage_by_namespace_.end());
  SGXO_CHECK(it->second.memory >= request.memory &&
             it->second.epc_pages >= request.epc_pages);
  it->second.memory -= request.memory;
  it->second.epc_pages -= request.epc_pages;
}

// ---- pod lifecycle ----------------------------------------------------------

void ApiServer::submit(cluster::PodSpec spec) {
  SGXO_CHECK_MSG(!spec.name.empty(), "pod needs a name");
  SGXO_CHECK_MSG(pods_.find(spec.name) == pods_.end(),
                 "pod name already exists: " + spec.name);

  // Quota admission: the namespace's non-terminal requests plus this pod
  // must fit every limited resource. The usage accumulator makes this
  // O(log namespaces) instead of a full pod-store scan.
  const auto quota_it = quotas_.find(spec.namespace_name);
  if (quota_it != quotas_.end()) {
    const ResourceQuota& quota = quota_it->second;
    const cluster::ResourceAmounts usage =
        namespace_usage(spec.namespace_name);
    const cluster::ResourceAmounts request = spec.total_requests();
    if (quota.memory.count() > 0 &&
        usage.memory + request.memory > quota.memory) {
      throw QuotaExceeded{"namespace '" + spec.namespace_name +
                          "' memory quota exceeded by pod " + spec.name};
    }
    if (quota.epc_pages.count() > 0 &&
        usage.epc_pages + request.epc_pages > quota.epc_pages) {
      throw QuotaExceeded{"namespace '" + spec.namespace_name +
                          "' EPC page quota exceeded by pod " + spec.name};
    }
  }

  PodRecord record;
  record.spec = std::move(spec);
  record.submitted = sim_->now();
  record.seq = next_seq_++;
  const cluster::PodName name = record.spec.name;
  const PodRecord& stored =
      pods_.emplace(name, std::move(record)).first->second;
  submission_order_.push_back(name);
  pending_insert(stored);
  usage_add(stored);
  record_event(name, "Submitted");
  notify_watchers(name, cluster::PodPhase::kPending);
}

void ApiServer::append_pending(const std::string& bucket,
                               std::vector<const PodRecord*>& out) const {
  const auto it = pending_queues_.find(bucket);
  if (it == pending_queues_.end()) return;
  for (const auto& [key, record] : it->second) {
    out.push_back(record);
  }
}

std::vector<const PodRecord*> ApiServer::list_pods(
    const PodFilter& filter) const {
  SGXO_CHECK_MSG(!filter.shard.has_value() || filter.shard_count > 0,
                 "PodFilter.shard requires a positive shard_count");
  SGXO_CHECK_MSG(!filter.shard.has_value() ||
                     *filter.shard < filter.shard_count,
                 "PodFilter.shard out of range");
  const auto matches = [&](const PodRecord& record) {
    if (filter.phase.has_value() && record.phase != *filter.phase) {
      return false;
    }
    if (filter.node.has_value() &&
        (!assigned(record.phase) || record.node != *filter.node)) {
      return false;
    }
    if (filter.namespace_name.has_value() &&
        record.spec.namespace_name != *filter.namespace_name) {
      return false;
    }
    if (filter.scheduler.has_value()) {
      const std::string& owner = record.spec.scheduler_name.empty()
                                     ? default_scheduler_
                                     : record.spec.scheduler_name;
      if (owner != *filter.scheduler) return false;
    }
    if (filter.shard.has_value() &&
        shard_of(record.spec.name, filter.shard_count) != *filter.shard) {
      return false;
    }
    return true;
  };
  const auto truncated = [&](std::vector<const PodRecord*>& result) {
    if (filter.limit > 0 && result.size() > filter.limit) {
      result.resize(filter.limit);
    }
    return std::move(result);
  };

  std::vector<const PodRecord*> out;

  // Pending pods come from the queue index, already in priority+FCFS
  // order. With a scheduler filter that is at most two buckets (the
  // scheduler's own and, for the cluster default, the unnamed one)
  // streamed as a two-way merge — with a limit, the scan stops as soon as
  // the limit is full, so a shard pull over a million-pod queue touches
  // O(limit * shard_count) entries, not the whole queue. Without a
  // scheduler filter it is every bucket, merged by sort.
  if (filter.phase == cluster::PodPhase::kPending) {
    if (filter.scheduler.has_value()) {
      using QueueIt = std::map<QueueKey, const PodRecord*>::const_iterator;
      QueueIt named_it;
      QueueIt named_end;
      QueueIt unnamed_it;
      QueueIt unnamed_end;
      if (const auto it = pending_queues_.find(*filter.scheduler);
          it != pending_queues_.end()) {
        named_it = it->second.begin();
        named_end = it->second.end();
      }
      if (*filter.scheduler == default_scheduler_) {
        if (const auto it = pending_queues_.find("");
            it != pending_queues_.end()) {
          unnamed_it = it->second.begin();
          unnamed_end = it->second.end();
        }
      }
      while (named_it != named_end || unnamed_it != unnamed_end) {
        if (filter.limit > 0 && out.size() == filter.limit) break;
        const bool take_named =
            unnamed_it == unnamed_end ||
            (named_it != named_end && named_it->first < unnamed_it->first);
        const PodRecord* record =
            take_named ? named_it->second : unnamed_it->second;
        if (take_named) {
          ++named_it;
        } else {
          ++unnamed_it;
        }
        if (matches(*record)) out.push_back(record);
      }
      return out;
    }
    for (const auto& [bucket, queue] : pending_queues_) {
      (void)bucket;
      for (const auto& [key, record] : queue) out.push_back(record);
    }
    std::sort(out.begin(), out.end(),
              [](const PodRecord* a, const PodRecord* b) {
                return QueueKey{a->spec.priority, a->seq} <
                       QueueKey{b->spec.priority, b->seq};
              });
    std::erase_if(out, [&](const PodRecord* record) {
      return !matches(*record);
    });
    return truncated(out);
  }

  // Assigned pods come from the node index (pod-name order).
  if (filter.node.has_value()) {
    const auto it = pods_by_node_.find(*filter.node);
    if (it == pods_by_node_.end()) return out;
    out.reserve(it->second.pods.size());
    for (const auto& [name, record] : it->second.pods) {
      if (filter.limit > 0 && out.size() == filter.limit) break;
      if (matches(*record)) out.push_back(record);
    }
    return out;
  }

  // Everything else: submission-order scan.
  out.reserve(filter.limit > 0
                  ? std::min(filter.limit, submission_order_.size())
                  : submission_order_.size());
  for (const cluster::PodName& name : submission_order_) {
    if (filter.limit > 0 && out.size() == filter.limit) break;
    const PodRecord& record = pods_.at(name);
    if (matches(record)) out.push_back(&record);
  }
  return out;
}

std::vector<cluster::PodName> ApiServer::pending_pods(
    const std::string& scheduler_name) const {
  PodFilter filter;
  filter.phase = cluster::PodPhase::kPending;
  filter.scheduler = scheduler_name;
  std::vector<cluster::PodName> out;
  for (const PodRecord* record : list_pods(filter)) {
    out.push_back(record->spec.name);
  }
  return out;
}

void ApiServer::apply_bind(PodRecord& record, const NodeEntry& entry) {
  const cluster::PodName pod = record.spec.name;
  unindex(record);  // leaves the pending queue
  record.phase = cluster::PodPhase::kBound;
  record.bound = sim_->now();
  record.node = entry.node->name();
  bump_version(record);
  node_insert(record);
  record_event(pod, "Scheduled to " + record.node);
  notify_watchers(pod, cluster::PodPhase::kBound);
  entry.kubelet->admit_pod(record.spec);
}

ApiServer::BatchBindResult ApiServer::try_bind_batch(
    const std::vector<BindRequest>& batch) {
  BatchBindResult result;
  result.entries.resize(batch.size());

  // Phase 1 — validate, mutating nothing. EPC admission is charged
  // cumulatively per target node (`staged`), and every pod already staged
  // by an earlier entry conflicts with later duplicates, so one
  // transaction can neither double-place a pod nor admit two pods into
  // the same last pages.
  std::vector<bool> valid(batch.size(), false);
  std::map<cluster::NodeName, Pages> staged;
  std::set<cluster::PodName> staged_pods;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const BindRequest& request = batch[i];
    BindOutcome& outcome = result.entries[i];
    const PodRecord& record = pod(request.pod);
    outcome.resource_version = record.resource_version;
    if (record.phase != cluster::PodPhase::kPending ||
        staged_pods.count(request.pod) > 0) {
      outcome.status = BindStatus::kNotPending;
      ++bind_conflicts_;
      ++result.conflicts;
      continue;
    }
    if (record.resource_version != request.expected_version) {
      outcome.status = BindStatus::kStaleVersion;
      ++bind_conflicts_;
      ++result.conflicts;
      continue;
    }
    const NodeEntry* entry = find_node(request.node);
    if (entry == nullptr || !entry->node->schedulable()) {
      outcome.status = BindStatus::kNodeUnavailable;
      ++result.unavailable;
      continue;
    }
    // Attestation gate (when enabled): binds to SGX nodes need a fresh
    // accepted quote verdict. A miss kicks off one (coalesced)
    // verification and parks the entry kAttestationPending; a cached
    // definitive rejection refuses it. Neither counts as contention.
    if (attestation_ != nullptr && entry->node->has_sgx()) {
      const AttestationGate::Check check =
          attestation_->check_bind(request.node, record.spec.wants_sgx());
      if (check == AttestationGate::Check::kPending) {
        outcome.status = BindStatus::kAttestationPending;
        ++attestation_pending_;
        ++result.attestation_pending;
        continue;
      }
      if (check == AttestationGate::Check::kRejected) {
        outcome.status = BindStatus::kAttestationRejected;
        ++attestation_rejections_;
        ++result.attestation_rejections;
        record_event(request.pod,
                     "BindRejected: attestation verdict on " + request.node);
        continue;
      }
    }
    // Kubelet admission guard: re-check the declared EPC against the
    // node's *live* device commitments plus this batch's staged pages. A
    // scheduler whose view of the node predates another scheduler's binds
    // passes the CAS above — the pod itself is unchanged — but must not
    // be allowed to over-commit the EPC it promised never to over-commit.
    const Pages staged_here = staged[request.node];
    if (!entry->kubelet->can_admit(record.spec, staged_here)) {
      outcome.status = BindStatus::kAdmissionRejected;
      ++guard_rejections_;
      ++result.admission_rejections;
      record_event(request.pod,
                   "BindRejected: EPC admission guard on " + request.node);
      continue;
    }
    valid[i] = true;
    outcome.status = BindStatus::kBound;  // tentative until applied
    staged[request.node] =
        staged_here + record.spec.total_requests().epc_pages;
    staged_pods.insert(request.pod);
  }

  // Phase 2 — apply in batch order. A watch callback fired by an earlier
  // apply may mutate a later entry's pod or node mid-batch; the re-checks
  // downgrade such entries to clean conflicts instead of trusting the
  // stale validation.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (!valid[i]) continue;
    const BindRequest& request = batch[i];
    BindOutcome& outcome = result.entries[i];
    PodRecord& record = mutable_pod(request.pod);
    if (record.phase != cluster::PodPhase::kPending) {
      outcome.status = BindStatus::kNotPending;
      outcome.resource_version = record.resource_version;
      ++bind_conflicts_;
      ++result.conflicts;
      continue;
    }
    if (record.resource_version != request.expected_version) {
      outcome.status = BindStatus::kStaleVersion;
      outcome.resource_version = record.resource_version;
      ++bind_conflicts_;
      ++result.conflicts;
      continue;
    }
    const NodeEntry* entry = find_node(request.node);
    if (entry == nullptr || !entry->node->schedulable()) {
      outcome.status = BindStatus::kNodeUnavailable;
      ++result.unavailable;
      continue;
    }
    // Attestation re-check (pure peek — no counters, no new requests): a
    // verdict can lapse between validation and apply when a watch
    // callback advanced virtual state mid-batch.
    if (attestation_ != nullptr && entry->node->has_sgx()) {
      const AttestationGate::Check check =
          attestation_->peek(request.node, record.spec.wants_sgx());
      if (check == AttestationGate::Check::kPending) {
        outcome.status = BindStatus::kAttestationPending;
        ++attestation_pending_;
        ++result.attestation_pending;
        continue;
      }
      if (check == AttestationGate::Check::kRejected) {
        outcome.status = BindStatus::kAttestationRejected;
        ++attestation_rejections_;
        ++result.attestation_rejections;
        continue;
      }
    }
    apply_bind(record, *entry);
    outcome.resource_version = record.resource_version;
    ++result.bound;
  }
  return result;
}

ApiServer::BindOutcome ApiServer::try_bind(const cluster::PodName& pod,
                                           const cluster::NodeName& node,
                                           std::uint64_t expected_version) {
  return try_bind_batch({BindRequest{pod, node, expected_version}})
      .entries.front();
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

std::vector<cluster::PodName> ApiServer::assigned_pods(
    const cluster::NodeName& node) const {
  PodFilter filter;
  filter.node = node;
  std::vector<cluster::PodName> out;
  for (const PodRecord* record : list_pods(filter)) {
    out.push_back(record->spec.name);
  }
  return out;
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
  usage_remove(record);
  record.phase = cluster::PodPhase::kSucceeded;
  record.finished = sim_->now();
  bump_version(record);
  record_event(pod, "Succeeded");
  notify_watchers(pod, cluster::PodPhase::kSucceeded);
}

void ApiServer::on_pod_failed(const cluster::PodName& pod,
                              const std::string& reason) {
  PodRecord& record = mutable_pod(pod);
  if (!terminal(record.phase)) {
    unindex(record);
    usage_remove(record);
  }
  record.phase = cluster::PodPhase::kFailed;
  record.finished = sim_->now();
  record.failure_reason = reason;
  bump_version(record);
  record_event(pod, "Failed: " + reason);
  notify_watchers(pod, cluster::PodPhase::kFailed);
}

}  // namespace sgxo::orch
