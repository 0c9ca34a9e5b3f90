// Scheduler framework shared by the SGX-aware scheduler and the Kubernetes
// default baseline.
//
// A scheduler is a periodic, non-preemptive loop (§IV): fetch its pending
// pods FCFS, build a resource view of every schedulable node, filter
// infeasible job-node combinations (hardware compatibility, saturation),
// let the concrete placement policy pick a node, and bind. Pods that fit
// nowhere stay in the persistent pending queue and are planned again the
// next cycle. The request-based views are built once per cycle with a
// pending pod, so a cycle with an empty queue reads no node state. Each
// pod is first screened on the measurement-free half of fits()
// (FitScreen), and the concrete scheduler folds its measurements into the
// views (measure_views) only at the cycle's first pod that passes, so a
// cycle in which no pod can fit anywhere runs no metrics query.
//
// Each scheduler name has one active instance, as in Kubernetes (§V-B).
// Binds are conditional (resource-version CAS + kubelet admission guard,
// see ApiServer::try_bind), so a cycle acting on a stale snapshot gets a
// clean per-pod conflict instead of a double placement or an EPC
// over-commit.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "cluster/pod.hpp"
#include "cluster/resources.hpp"
#include "orch/api_server.hpp"
#include "sim/simulation.hpp"

namespace sgxo::orch {

/// A scheduler's view of one node during a scheduling cycle: capacities
/// plus the usage estimate the concrete scheduler computed (measured,
/// request-based, or a combination).
struct NodeView {
  cluster::NodeName name;
  bool sgx_capable = false;
  Bytes memory_capacity{};
  Pages epc_capacity{};
  /// Usage estimate for placement decisions (semantics defined by the
  /// concrete scheduler building the view).
  Bytes memory_used{};
  Pages epc_used{};
  /// Sum of EPC *requests* of pods assigned to the node — the device
  /// plugin's hard allocation constraint, independent of measurements.
  Pages epc_requested{};

  [[nodiscard]] Bytes memory_free() const {
    return memory_used >= memory_capacity ? Bytes{0}
                                          : memory_capacity - memory_used;
  }
  [[nodiscard]] double memory_load() const {
    return memory_capacity.count() == 0
               ? 0.0
               : static_cast<double>(memory_used.count()) /
                     static_cast<double>(memory_capacity.count());
  }
  [[nodiscard]] double epc_load() const {
    return epc_capacity.count() == 0
               ? 0.0
               : static_cast<double>(epc_used.count()) /
                     static_cast<double>(epc_capacity.count());
  }
};

/// True iff placing `pod` on `view` satisfies hardware compatibility and
/// saturation constraints (never over-commits the EPC: both the measured
/// usage and the device-plugin request accounting must fit).
[[nodiscard]] bool fits(const cluster::PodSpec& pod, const NodeView& view);

/// Builds request-based node views from the API server's state: usage is
/// the sum of the declared requests of the pods assigned to each node.
/// Every cycle starts from them; the default scheduler plans on them as
/// they are. Sorted by node name; O(nodes), since each node's request sum
/// is kept by the ApiServer.
[[nodiscard]] std::vector<NodeView> request_based_views(ApiServer& api);

/// The measurement-free half of fits() over one cycle's views: the node
/// selector, SGX capability and the device plugin's accounting
/// (epc_requested + request <= epc_capacity). None of these reads a usage
/// estimate, so a pod the screen rejects fits no view whatever the
/// measurements show: fits(pod, v) for any v of the views implies
/// may_fit(pod, ...). A pod without a node selector is screened in O(1)
/// against the largest EPC headroom of any SGX view, one with a selector
/// against its own node, found by binary search.
class FitScreen {
 public:
  /// `views` must be sorted by name and outlive the screen.
  explicit FitScreen(const std::vector<NodeView>& views);

  /// Re-reads the EPC headroom after a reservation charged the views.
  void refresh();

  /// `request` and `sgx` must be `pod.total_requests()` and
  /// `pod.wants_sgx()`.
  [[nodiscard]] bool may_fit(const cluster::PodSpec& pod,
                             const cluster::ResourceAmounts& request,
                             bool sgx) const;

 private:
  const std::vector<NodeView>* views_;
  /// max(epc_capacity - epc_requested) over the SGX views whose
  /// accounting is within capacity; nullopt if there is none.
  std::optional<Pages> sgx_headroom_;
};

class Scheduler {
 public:
  /// The scheduling period: one cycle every 5 s of virtual time.
  static constexpr Duration kPeriod = Duration::seconds(5);

  Scheduler(sim::Simulation& sim, ApiServer& api, std::string name);
  virtual ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Duration period() const { return kPeriod; }

  /// Starts the periodic scheduling loop (idempotent).
  void start();
  void stop();

  // ---- crash surface (fault injection) --------------------------------------
  /// Crash-stop: the loop halts, as with a real process kill. Work already
  /// bound stays bound; the scheduler's pending pods wait for restart().
  void crash();
  /// Restarts a crashed scheduler. It keeps no state between cycles:
  /// pending pods and node views are re-read from the ApiServer every
  /// cycle. Cumulative counters (cycles, binds) survive.
  void restart();
  [[nodiscard]] bool crashed() const { return crashed_; }

  /// Strict FCFS blocks the whole queue behind the oldest unschedulable
  /// pod (classic batch semantics); the default skips it and lets younger
  /// pods use leftover resources (Kubernetes semantics). Exposed as a
  /// design-choice ablation.
  void set_strict_fcfs(bool strict) { strict_fcfs_ = strict; }
  [[nodiscard]] bool strict_fcfs() const { return strict_fcfs_; }

  /// One scheduling cycle; returns the number of pods bound. A crashed
  /// scheduler's cycle is a no-op.
  std::size_t run_once();

  [[nodiscard]] std::uint64_t cycles() const { return cycles_; }
  [[nodiscard]] std::uint64_t total_bound() const { return bound_; }
  /// Conditional binds this scheduler lost (stale version / pod taken by
  /// another scheduler) — each loser leaves the pod pending, re-enqueued
  /// for its next cycle.
  [[nodiscard]] std::uint64_t bind_conflicts() const {
    return bind_conflicts_;
  }
  /// Binds rejected by the kubelet-side EPC admission guard.
  [[nodiscard]] std::uint64_t guard_rejections() const {
    return guard_rejections_;
  }
  /// Bind attempts parked behind the attestation gate (verification in
  /// flight or a cached rejection) — the pod stays pending for the next
  /// cycle.
  [[nodiscard]] std::uint64_t attestation_waits() const {
    return attestation_waits_;
  }
  /// Cycles that planned pods on declared requests because measured usage
  /// could not be trusted; meaningful for metrics-driven schedulers (base
  /// schedulers never degrade). Only a cycle that measures its views can
  /// count: one with no pod that passes the FitScreen, and no pod that
  /// on_unschedulable acts on, reads no measurement.
  [[nodiscard]] virtual std::uint64_t degraded_cycles() const { return 0; }

  /// Control-plane health snapshot, the raw material of
  /// orch::describe_control_plane.
  struct Health {
    std::string name;
    bool crashed = false;
    std::uint64_t cycles = 0;
    std::uint64_t bound = 0;
    std::uint64_t bind_conflicts = 0;
    std::uint64_t guard_rejections = 0;
    std::uint64_t attestation_waits = 0;
    std::uint64_t degraded_cycles = 0;
  };
  [[nodiscard]] Health health() const;

 protected:
  /// Replaces the usage estimates of this cycle's request_based_views
  /// with measurement-informed ones, in place; must leave every field the
  /// FitScreen reads as it is. Called at most once per cycle, before the
  /// first pod that passes the screen is filtered, or before
  /// on_unschedulable acts; a cycle with neither never measures. Nothing
  /// the cycle did before changes what a measurement shows: it bound
  /// nothing, and virtual time does not move within a cycle. Default:
  /// nothing, so the cycle plans on declared requests.
  virtual void measure_views(std::vector<NodeView>& views) { (void)views; }

  /// Picks a node for `pod` among `feasible` (all already pass fits()).
  /// `all` carries this cycle's view of every schedulable node — policies
  /// like spread need the cluster-wide load vector, not just the feasible
  /// subset. nullopt leaves the pod pending.
  [[nodiscard]] virtual std::optional<cluster::NodeName> select_node(
      const cluster::PodSpec& pod, const std::vector<NodeView>& feasible,
      const std::vector<NodeView>& all) = 0;

  /// Whether on_unschedulable may act for `pod`. Default: never.
  [[nodiscard]] virtual bool acts_on_unschedulable(
      const cluster::PodSpec& pod) const {
    (void)pod;
    return false;
  }

  /// Called at most once per cycle, on measured views, for the cycle's
  /// first pod that fit nowhere (the queue is in priority order), and only
  /// if acts_on_unschedulable(pod). Implementations may free resources for
  /// the *next* cycle (e.g. preempt lower-priority pods). Default: nothing.
  virtual void on_unschedulable(const cluster::PodSpec& pod,
                                const std::vector<NodeView>& all) {
    (void)pod;
    (void)all;
  }

  [[nodiscard]] ApiServer& api() { return *api_; }
  [[nodiscard]] sim::Simulation& sim() { return *sim_; }

 private:
  /// Cycle-local planning state: this cycle's node views and their
  /// screen, plus the scratch plan_pod reuses for every pod (defined in
  /// the .cpp).
  struct Cycle;

  /// Plans one pod: screen it, and for a pod that passes, measure the
  /// views if no pod before it did, filter the feasible nodes and let the
  /// policy pick. The cycle's first pod that fits nowhere goes to
  /// on_unschedulable if that may act on it. nullopt leaves the pod
  /// pending.
  std::optional<cluster::NodeName> plan_pod(Cycle& cycle,
                                            const cluster::PodSpec& spec);

  sim::Simulation* sim_;
  ApiServer* api_;
  std::string name_;
  sim::EventId timer_;
  bool strict_fcfs_ = false;
  std::uint64_t cycles_ = 0;
  std::uint64_t bound_ = 0;
  bool crashed_ = false;
  std::uint64_t bind_conflicts_ = 0;
  std::uint64_t guard_rejections_ = 0;
  std::uint64_t attestation_waits_ = 0;
};

}  // namespace sgxo::orch
