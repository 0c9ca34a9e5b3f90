// The Kubernetes master / API server (paper Fig. 2).
//
// Holds the cluster's node registry and the pod store with phase history,
// maintains the persistent FCFS queue of pending jobs (§IV step 3), and
// relays bindings to the target node's Kubelet. Phase-transition
// timestamps recorded here are the raw material of every evaluation metric
// (waiting time = submission → running; turnaround = submission → finish).
//
// Read path: the store maintains secondary indexes — one pending queue in
// priority+FCFS order and a pods-by-node index carrying each node's
// request sum — updated transactionally with every phase transition.
// list_pods with a pending filter is therefore O(pending pods), with a
// node filter O(the node's pods), and node_requests O(log nodes), not
// O(pods): the scheduler hot loop never scans the store. pods_on hands
// out a node's index entry itself, which list_pods' node filter reads
// too, so a node's pods have one read path.
//
// Write path: conditional binds are the only scheduling writes. try_bind
// validates one (pod, node, version) against live state — version CAS,
// node availability, the attestation gate and the kubelet's EPC
// admission guard — then applies it. A scheduler acting on a stale
// snapshot gets a clean conflict, never a double placement or an EPC
// over-commit.
#pragma once

#include <deque>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
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

/// Selector for ApiServer::list_pods — the single read API. Unset fields
/// match everything; set fields are ANDed.
struct PodFilter {
  std::optional<cluster::PodPhase> phase;
  /// Node the pod is *currently assigned to* (bound or running there).
  std::optional<cluster::NodeName> node;
  /// Resolved scheduler owner: a pod with an empty spec.scheduler_name is
  /// owned by the cluster default scheduler at query time.
  std::optional<std::string> scheduler;
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

  /// Requests of the pods assigned to (bound or running on) `node` — the
  /// request-based usage of a node view. O(log nodes): served from the
  /// node index, which keeps the sum with every bind, move and release.
  [[nodiscard]] cluster::ResourceAmounts node_requests(
      const cluster::NodeName& node) const;

  // ---- pod lifecycle -------------------------------------------------------
  /// Submits a pod; it enters the pending queue.
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
  /// applies: O(pending pods) with phase == kPending, whatever the
  /// scheduler filter, and O(the node's pods) with a node filter. Result
  /// order is deterministic:
  ///   * phase == kPending → scheduling-queue order: highest priority
  ///     first, FCFS (oldest submission) within equal priority;
  ///   * else, node filter set → pod-name order (the node index);
  ///   * otherwise → submission order (full-store scan).
  /// Returned pointers stay valid for the pod's lifetime, but records
  /// mutate in place on phase transitions — don't hold a snapshot across
  /// writes and expect the filter to still hold.
  [[nodiscard]] std::vector<const PodRecord*> list_pods(
      const PodFilter& filter) const;

  /// A node's assigned pods, by name.
  using PodsByName = std::map<cluster::PodName, const PodRecord*>;
  /// The pods assigned to (bound or running on) `node`, by name: the node
  /// index's own entry, read by reference in O(log nodes) with no copy and
  /// no per-pod check. Empty for a node with none. list_pods with a node
  /// filter reads it too. Valid until the next write to the ApiServer.
  [[nodiscard]] const PodsByName& pods_on(
      const cluster::NodeName& node) const;

  /// Status of a conditional bind attempt. Everything except kBound
  /// leaves the pod exactly where it was (pending pods stay queued).
  enum class BindStatus {
    kBound,
    /// expected_version no longer matches — the pod changed since the
    /// caller's snapshot (evicted and requeued, or bound and evicted).
    kStaleVersion,
    /// The pod is not pending (already bound by another scheduler, or
    /// terminal).
    kNotPending,
    /// Unknown or unschedulable (master / failed) target node.
    kNodeUnavailable,
    /// The node's kubelet admission guard rejected the delivery: the
    /// declared EPC no longer fits the node's live commitments. The last
    /// line of defence against an over-commit planned on a stale node
    /// view.
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

  /// Conditional (compare-and-swap) bind: succeeds only if the pod is
  /// still pending, its resource_version equals `expected_version`, the
  /// node is schedulable, and the node's kubelet admits the declared
  /// resources against its live commitments. On success the pod is bound
  /// and handed to the Kubelet; on any other outcome nothing changes.
  BindOutcome try_bind(const cluster::PodName& pod,
                       const cluster::NodeName& node,
                       std::uint64_t expected_version);

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

  /// Live-migrates a *running* SGX pod to another schedulable SGX node
  /// (enclave checkpoint/restore, §VIII): extracts the bundle from the
  /// source Kubelet, records the reassignment, and hands the bundle to the
  /// target Kubelet with the checkpoint + wire-transfer delay applied.
  void migrate(const cluster::PodName& pod, const cluster::NodeName& target,
               sgx::MigrationService& service);

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

  sim::Simulation* sim_;
  std::unique_ptr<AttestationGate> attestation_;
  std::string default_scheduler_ = "default-scheduler";
  std::vector<NodeEntry> nodes_;
  /// Name → index into nodes_: find_node stays O(log nodes) at fleet
  /// scale (nodes_ is append-only, so indexes never dangle).
  std::map<cluster::NodeName, std::size_t> node_index_;
  std::map<cluster::PodName, PodRecord> pods_;
  std::vector<cluster::PodName> submission_order_;
  std::uint64_t next_seq_ = 0;

  // Secondary indexes. The pending queue holds every pending pod; a
  // scheduler filter resolves each pod's owner at query time, so changing
  // the cluster default never invalidates the index.
  std::map<QueueKey, const PodRecord*> pending_;
  /// The pods assigned to one node, by name, and the sum of their
  /// requests, kept with every bind, move and release.
  struct NodePods {
    PodsByName pods;
    cluster::ResourceAmounts requests;
  };
  std::map<cluster::NodeName, NodePods> pods_by_node_;

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
