// The Kubernetes master / API server (paper Fig. 2).
//
// Holds the cluster's node registry and the pod store with phase history,
// maintains the persistent FCFS queue of pending jobs (§IV step 3), and
// relays bindings to the target node's Kubelet. Phase-transition
// timestamps recorded here are the raw material of every evaluation metric
// (waiting time = submission → running; turnaround = submission → finish).
//
// Read path: the store maintains secondary indexes — per-scheduler pending
// queues in priority+FCFS order, a pods-by-node index carrying each node's
// request sum, and per-namespace usage accumulators — updated
// transactionally with every phase transition. pending_pods /
// assigned_pods / node_requests / quota admission are therefore O(result),
// not O(pods): the scheduler hot loop never scans the store.
//
// Write path: conditional binds are the only scheduling writes. try_bind
// CASes one pod; try_bind_batch validates a whole transaction of
// (pod, node, version) entries — charging EPC admission cumulatively per
// node — and applies per-entry or atomically. N active schedulers racing
// optimistically over sharded pending queues (Omega-style shared state)
// are safe by construction: a loser gets a clean per-entry conflict, never
// a double placement or an EPC over-commit.
#pragma once

#include <deque>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "cluster/kubelet.hpp"
#include "cluster/node.hpp"
#include "cluster/pod.hpp"
#include "common/time.hpp"
#include "orch/attestation_gate.hpp"
#include "sim/simulation.hpp"

namespace sgxo::orch {

struct PodRecord {
  cluster::PodSpec spec;
  cluster::PodPhase phase = cluster::PodPhase::kPending;
  TimePoint submitted;
  /// Submission sequence number — the FCFS tie-breaker within a priority
  /// class (and the key of the pending-queue index).
  std::uint64_t seq = 0;
  /// Optimistic-concurrency version, bumped on every phase transition and
  /// reassignment. Conditional binds compare-and-swap against it, so a
  /// scheduler acting on a stale snapshot fails cleanly instead of
  /// double-placing the pod.
  std::uint64_t resource_version = 1;
  std::optional<TimePoint> bound;
  /// First time the pod ran (kept across evictions: waiting time measures
  /// submission → first start).
  std::optional<TimePoint> started;
  std::optional<TimePoint> finished;
  cluster::NodeName node;  // empty until bound
  std::string failure_reason;
  /// Times this pod was preempted and returned to the pending queue.
  std::uint32_t evictions = 0;

  /// Submission → actually running on a node (Fig. 8/9/11 metric).
  [[nodiscard]] std::optional<Duration> waiting_time() const;
  /// Submission → termination (Fig. 10 metric).
  [[nodiscard]] std::optional<Duration> turnaround_time() const;
};

/// Cluster event log entry (mirrors `kubectl get events`). The log is a
/// bounded ring: the oldest entries are dropped beyond the retention cap.
struct Event {
  TimePoint time;
  cluster::PodName pod;
  std::string message;
};

/// Pod submission rejected by namespace quota admission.
class QuotaExceeded : public DomainError {
 public:
  using DomainError::DomainError;
};

/// Per-namespace resource budget. Zero-valued members mean "unlimited"
/// for that resource.
struct ResourceQuota {
  Bytes memory{};
  Pages epc_pages{};
};

/// Stable shard of a pod: FNV-1a of the name mod `shard_count`. A pure
/// function of the name — identical across runs, replicas and processes —
/// so shard assignment can never depend on iteration order or seeds
/// (same-seed chaos runs stay bit-identical).
[[nodiscard]] std::uint32_t shard_of(const cluster::PodName& pod,
                                     std::uint32_t shard_count);

/// Selector for ApiServer::list_pods — the single read API behind the
/// legacy pending_pods/assigned_pods/all_pods trio and the shared-state
/// schedulers' shard pulls. Unset fields match everything; set fields are
/// ANDed.
struct PodFilter {
  std::optional<cluster::PodPhase> phase;
  /// Node the pod is *currently assigned to* (bound or running there).
  std::optional<cluster::NodeName> node;
  std::optional<std::string> namespace_name;
  /// Resolved scheduler owner: a pod with an empty spec.scheduler_name is
  /// owned by the cluster default scheduler at query time.
  std::optional<std::string> scheduler;
  /// Pending-queue shard: matches pods with shard_of(name, shard_count)
  /// == shard. shard_count must be > 0 whenever shard is set.
  std::optional<std::uint32_t> shard;
  std::uint32_t shard_count = 0;
  /// Truncates the result after ordering (0 = unlimited). The pending
  /// read path streams, so a limited query costs O(entries scanned until
  /// the limit), not O(queue) — the shared-state batch pull depends on it.
  std::size_t limit = 0;
};

class ApiServer final : public cluster::PodLifecycleListener {
 public:
  /// Default events_ retention: bounded, but far above anything a single
  /// experiment produces (million-pod replays stay at O(cap), not O(pods)).
  static constexpr std::size_t kDefaultEventRetention = 1'000'000;

  explicit ApiServer(sim::Simulation& sim);

  // ---- node registry ------------------------------------------------------
  /// Registers a node and its Kubelet. Master nodes are registered but
  /// never returned by schedulable_nodes().
  void register_node(cluster::Node& node, cluster::Kubelet& kubelet);

  struct NodeEntry {
    cluster::Node* node = nullptr;
    cluster::Kubelet* kubelet = nullptr;
  };
  [[nodiscard]] std::vector<NodeEntry> schedulable_nodes() const;
  [[nodiscard]] std::vector<NodeEntry> all_nodes() const;
  [[nodiscard]] const NodeEntry* find_node(const cluster::NodeName& name) const;

  // ---- admission control ---------------------------------------------------
  /// Installs (or replaces) the quota of a namespace. Pods already
  /// admitted are unaffected; future submissions must fit.
  void set_quota(const std::string& namespace_name, ResourceQuota quota);
  [[nodiscard]] std::optional<ResourceQuota> quota(
      const std::string& namespace_name) const;
  /// Requests of all non-terminal pods of a namespace (what counts
  /// against its quota). O(1): served from the maintained accumulator.
  [[nodiscard]] cluster::ResourceAmounts namespace_usage(
      const std::string& namespace_name) const;
  /// Requests of the pods assigned to (bound or running on) `node` — the
  /// request-based usage of a node view. O(log nodes): served from the
  /// node index, which keeps the sum with every bind, move and release.
  [[nodiscard]] cluster::ResourceAmounts node_requests(
      const cluster::NodeName& node) const;

  // ---- pod lifecycle -------------------------------------------------------
  /// Submits a pod; it enters the pending queue. Throws QuotaExceeded if
  /// the pod's namespace has a quota the submission would violate.
  void submit(cluster::PodSpec spec);

  /// The cluster-wide default scheduler name, used by pods that do not
  /// name one explicitly (§V-B: in production exactly one SGX-aware
  /// variant runs as the default).
  void set_default_scheduler(std::string name) {
    default_scheduler_ = std::move(name);
  }
  [[nodiscard]] const std::string& default_scheduler() const {
    return default_scheduler_;
  }

  // ---- read path -----------------------------------------------------------
  /// Pods matching `filter`, served from the secondary indexes where one
  /// applies (O(result)). Result order is deterministic:
  ///   * phase == kPending → scheduling-queue order: highest priority
  ///     first, FCFS (oldest submission) within equal priority;
  ///   * else, node filter set → pod-name order (the node index);
  ///   * otherwise → submission order (full-store scan).
  /// Returned pointers stay valid for the pod's lifetime, but records
  /// mutate in place on phase transitions — don't hold a snapshot across
  /// writes and expect the filter to still hold.
  [[nodiscard]] std::vector<const PodRecord*> list_pods(
      const PodFilter& filter) const;

  /// Pending pods owned by `scheduler_name`: highest priority first,
  /// FCFS (oldest submission) within equal priority — the Kubernetes
  /// scheduling-queue order. With the default priority 0 everywhere this
  /// is plain FCFS, as in the paper. Wrapper over list_pods.
  [[nodiscard]] std::vector<cluster::PodName> pending_pods(
      const std::string& scheduler_name) const;

  /// Status of a conditional bind attempt. Everything except kBound
  /// leaves the pod exactly where it was (pending pods stay queued).
  enum class BindStatus {
    kBound,
    /// expected_version no longer matches — the pod changed since the
    /// caller's snapshot (evicted+requeued, resubmitted, or bound and
    /// re-bound by an earlier entry of the same batch).
    kStaleVersion,
    /// The pod is not pending (already bound by another scheduler, or
    /// terminal).
    kNotPending,
    /// Unknown or unschedulable (master / failed) target node.
    kNodeUnavailable,
    /// The node's kubelet admission guard rejected the delivery: the
    /// declared EPC no longer fits the node's live commitments (plus any
    /// pages staged by earlier entries of the same batch). The last line
    /// of defence against an over-commit planned on a stale node view.
    kAdmissionRejected,
    /// Attestation gate enabled and the target node has no fresh accepted
    /// verdict: a verification round-trip is in flight (or just
    /// requested). The pod stays pending; retry a later cycle.
    kAttestationPending,
    /// Attestation gate enabled and the target node's cached verdict is a
    /// definitive rejection (forged quote, revoked or unexpected
    /// measurement): the bind is refused until the verdict changes.
    kAttestationRejected,
  };

  /// Outcome of one conditional bind: the status plus the pod's observed
  /// resource_version, so a losing caller can retry against the live
  /// version without a re-read.
  struct BindOutcome {
    BindStatus status = BindStatus::kNotPending;
    /// The version observed by the attempt: the new (post-bump) version
    /// after kBound, the pod's current version on every rejection.
    std::uint64_t resource_version = 0;

    [[nodiscard]] bool bound() const { return status == BindStatus::kBound; }
    friend bool operator==(const BindOutcome& outcome, BindStatus status) {
      return outcome.status == status;
    }
  };

  /// One entry of a bind transaction.
  struct BindRequest {
    cluster::PodName pod;
    cluster::NodeName node;
    std::uint64_t expected_version = 0;
  };

  /// Result of a bind transaction: per-entry outcomes (parallel to the
  /// request vector) plus the conflict summary the shared-state
  /// schedulers feed into their batch-size/re-shard backoff.
  struct BatchBindResult {
    std::vector<BindOutcome> entries;
    std::size_t bound = 0;
    /// kStaleVersion + kNotPending entries: another scheduler (or an
    /// earlier entry of this batch) got there first.
    std::size_t conflicts = 0;
    /// kAdmissionRejected entries (stale node view caught by the guard).
    std::size_t admission_rejections = 0;
    /// kNodeUnavailable entries.
    std::size_t unavailable = 0;
    /// kAttestationPending entries (verification in flight for the node).
    std::size_t attestation_pending = 0;
    /// kAttestationRejected entries (cached definitive rejection).
    std::size_t attestation_rejections = 0;

    /// Contended fraction of the batch — conflicts and guard rejections
    /// over attempts (0 for an empty batch). Node deaths are excluded:
    /// they are faults, not contention.
    [[nodiscard]] double conflict_rate() const {
      if (entries.empty()) return 0.0;
      return static_cast<double>(conflicts + admission_rejections) /
             static_cast<double>(entries.size());
    }
  };

  /// Conditional (compare-and-swap) bind: succeeds only if the pod is
  /// still pending, its resource_version equals `expected_version`, the
  /// node is schedulable, and the node's kubelet admits the declared
  /// resources against its live commitments. On success the pod is bound
  /// and handed to the Kubelet; on any other outcome nothing changes.
  /// Equivalent to a one-entry try_bind_batch.
  BindOutcome try_bind(const cluster::PodName& pod,
                       const cluster::NodeName& node,
                       std::uint64_t expected_version);

  /// Transactional batch bind — the write surface of the shared-state
  /// multi-scheduler control plane. Two phases:
  ///   1. *Validate* every (pod, node, expected_version) entry against
  ///      live state: the CAS checks of try_bind plus EPC admission
  ///      charged cumulatively per node, so two entries of one batch can
  ///      never share the same last pages. Nothing mutates.
  ///   2. *Apply* the valid entries in batch order. Each entry is
  ///      all-or-nothing on its own: an invalid entry leaves its pod
  ///      untouched and does not stop the others.
  /// A watch callback fired mid-apply can invalidate a later entry; the
  /// apply re-checks and downgrades such entries to a clean conflict
  /// instead of double-placing. Entry order is caller order — batch
  /// construction must itself be deterministic for seed-stable runs.
  BatchBindResult try_bind_batch(const std::vector<BindRequest>& batch);

  /// try_bind rejections due to a stale version or a no-longer-pending
  /// pod (two schedulers racing for the same pod).
  [[nodiscard]] std::uint64_t bind_conflicts() const {
    return bind_conflicts_;
  }
  /// try_bind rejections by the kubelet admission guard (an over-commit
  /// stopped at delivery).
  [[nodiscard]] std::uint64_t guard_rejections() const {
    return guard_rejections_;
  }

  // ---- attestation gate ----------------------------------------------------
  /// Enables attestation-gated admission: binds to SGX nodes require a
  /// fresh accepted quote verdict from the gate's cache (misses go
  /// kAttestationPending while a verification round-trips). Off by
  /// default — clusters without attestation behave exactly as before.
  void enable_attestation(sgx::QuoteTransport& transport,
                          AttestationGate::QuoteSource quotes,
                          AttestationGate::Config config = {});
  /// The gate, or nullptr when attestation is not enabled.
  [[nodiscard]] AttestationGate* attestation() { return attestation_.get(); }
  [[nodiscard]] const AttestationGate* attestation() const {
    return attestation_.get();
  }
  /// try_bind outcomes deferred while a node verification was in flight.
  [[nodiscard]] std::uint64_t attestation_pending() const {
    return attestation_pending_;
  }
  /// try_bind outcomes refused on a cached definitive rejection.
  [[nodiscard]] std::uint64_t attestation_rejections() const {
    return attestation_rejections_;
  }

  /// Live-migrates a *running* SGX pod to another schedulable SGX node
  /// (enclave checkpoint/restore, §VIII): extracts the bundle from the
  /// source Kubelet, records the reassignment, and hands the bundle to the
  /// target Kubelet with the checkpoint + wire-transfer delay applied.
  void migrate(const cluster::PodName& pod, const cluster::NodeName& target,
               sgx::MigrationService& service);

  /// Pods currently assigned to (bound or running on) `node`.
  /// Wrapper over list_pods.
  [[nodiscard]] std::vector<cluster::PodName> assigned_pods(
      const cluster::NodeName& node) const;

  /// Preempts a bound/running pod: tears it down on its node and returns
  /// it to the pending queue (its first-start timestamp is retained for
  /// waiting-time accounting; the lost work is rerun from scratch).
  void evict(const cluster::PodName& pod, const std::string& reason);

  /// Fails a node: it becomes unschedulable and every pod on it dies with
  /// reason "NodeFailure" (failure-injection surface).
  void fail_node(const cluster::NodeName& node);
  /// Brings a failed node back.
  void recover_node(const cluster::NodeName& node);

  [[nodiscard]] const PodRecord& pod(const cluster::PodName& name) const;
  [[nodiscard]] bool has_pod(const cluster::PodName& name) const;
  /// Every pod in submission order. Wrapper over list_pods.
  [[nodiscard]] std::vector<const PodRecord*> all_pods() const;
  [[nodiscard]] std::size_t pod_count() const { return pods_.size(); }

  // ---- event log -----------------------------------------------------------
  [[nodiscard]] const std::deque<Event>& events() const { return events_; }
  /// Caps the in-memory event log; the oldest entries are dropped once the
  /// cap is exceeded (0 = unlimited). Applies retroactively.
  void set_event_retention(std::size_t cap);
  [[nodiscard]] std::size_t event_retention() const { return event_cap_; }
  /// Events dropped by the retention cap since construction.
  [[nodiscard]] std::uint64_t dropped_events() const {
    return dropped_events_;
  }

  // ---- watches (informer-style) --------------------------------------------
  /// Phase-transition notification, fired synchronously after the record
  /// updated. Callbacks may watch_pods() and unwatch() freely, including
  /// unwatching themselves re-entrantly; watches added during a
  /// notification first fire on the next transition.
  struct PodUpdate {
    cluster::PodName pod;
    cluster::PodPhase phase;
  };
  using WatchCallback = std::function<void(const PodUpdate&)>;
  using WatchId = std::uint64_t;

  /// Subscribes to every pod phase transition (including submission →
  /// Pending). Returns a handle for unwatch().
  WatchId watch_pods(WatchCallback callback);
  void unwatch(WatchId id);
  [[nodiscard]] std::size_t watch_count() const;

  // ---- PodLifecycleListener (called by Kubelets) ---------------------------
  void on_pod_running(const cluster::PodName& pod) override;
  void on_pod_succeeded(const cluster::PodName& pod) override;
  void on_pod_failed(const cluster::PodName& pod,
                     const std::string& reason) override;

 private:
  /// Pending-queue position: priority class first (higher wins), then
  /// submission sequence (older wins) — the Kubernetes scheduling-queue
  /// order materialized as the index key.
  struct QueueKey {
    int priority = 0;
    std::uint64_t seq = 0;
    [[nodiscard]] bool operator<(const QueueKey& other) const {
      if (priority != other.priority) return priority > other.priority;
      return seq < other.seq;
    }
  };

  PodRecord& mutable_pod(const cluster::PodName& name);
  /// Marks a mutation for optimistic concurrency: every phase transition
  /// or reassignment bumps the record's version.
  static void bump_version(PodRecord& record) { ++record.resource_version; }
  /// Phase-2 commit of one validated bind entry: dequeues, binds, hands
  /// the pod to the kubelet and fires watchers.
  void apply_bind(PodRecord& record, const NodeEntry& entry);
  void record_event(const cluster::PodName& pod, std::string message);
  void notify_watchers(const cluster::PodName& pod,
                       cluster::PodPhase phase);
  void enforce_event_retention();

  // ---- index maintenance (one call per phase transition) -------------------
  /// Removes the record from the index its *current* phase places it in
  /// (pending queue or node index). Terminal pods are in neither.
  void unindex(const PodRecord& record);
  void pending_insert(const PodRecord& record);
  void node_insert(const PodRecord& record);
  void usage_add(const PodRecord& record);
  void usage_remove(const PodRecord& record);
  /// Appends one pending bucket's records to `out` in queue order.
  void append_pending(const std::string& bucket,
                      std::vector<const PodRecord*>& out) const;

  sim::Simulation* sim_;
  std::unique_ptr<AttestationGate> attestation_;
  std::uint64_t bind_conflicts_ = 0;
  std::uint64_t guard_rejections_ = 0;
  std::uint64_t attestation_pending_ = 0;
  std::uint64_t attestation_rejections_ = 0;
  std::string default_scheduler_ = "default-scheduler";
  std::map<std::string, ResourceQuota> quotas_;
  std::vector<NodeEntry> nodes_;
  /// Name → index into nodes_: find_node stays O(log nodes) at fleet
  /// scale (nodes_ is append-only, so indexes never dangle).
  std::map<cluster::NodeName, std::size_t> node_index_;
  std::map<cluster::PodName, PodRecord> pods_;
  std::vector<cluster::PodName> submission_order_;
  std::uint64_t next_seq_ = 0;

  // Secondary indexes. Pending queues are bucketed by the *declared*
  // scheduler name ("" = whatever the cluster default resolves to at query
  // time, so changing the default never invalidates the index).
  std::map<std::string, std::map<QueueKey, const PodRecord*>> pending_queues_;
  /// The pods assigned to one node, by name, and the sum of their
  /// requests (maintained like usage_by_namespace_).
  struct NodePods {
    std::map<cluster::PodName, const PodRecord*> pods;
    cluster::ResourceAmounts requests;
  };
  std::map<cluster::NodeName, NodePods> pods_by_node_;
  std::map<std::string, cluster::ResourceAmounts> usage_by_namespace_;

  std::deque<Event> events_;
  std::size_t event_cap_ = kDefaultEventRetention;
  std::uint64_t dropped_events_ = 0;

  std::vector<std::pair<WatchId, WatchCallback>> watches_;
  WatchId next_watch_ = 1;
  /// Re-entrancy depth of notify_watchers: unwatch() during delivery
  /// tombstones instead of erasing, so iteration never invalidates.
  int notify_depth_ = 0;
  bool watch_tombstones_ = false;
};

[[nodiscard]] const char* to_string(ApiServer::BindStatus status);
std::ostream& operator<<(std::ostream& os, ApiServer::BindStatus status);
std::ostream& operator<<(std::ostream& os,
                         const ApiServer::BindOutcome& outcome);

}  // namespace sgxo::orch
