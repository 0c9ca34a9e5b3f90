// Scheduler framework shared by the SGX-aware scheduler and the Kubernetes
// default baseline.
//
// A scheduler is a periodic, non-preemptive loop (§IV): fetch its pending
// pods FCFS, build a resource view of every schedulable node, filter
// infeasible job-node combinations (hardware compatibility, saturation),
// let the concrete placement policy pick a node, and bind. Pods that fit
// nowhere stay in the persistent pending queue for the next cycle.
//
// A scheduler either runs alone or as one replica of an Omega-style
// shared-state fleet (enable_shared_state). Replicas share a scheduler
// *name* (they drain the same pending bucket) but carry distinct
// *identities*, and every replica is always active. The pending bucket is
// split into shards by stable pod hash; each replica drains its own shard
// and steals from its neighbours (deterministic rotation order) when its
// shard runs dry, so a crashed replica's backlog is absorbed without any
// failover protocol. Each cycle plans up to one batch of placements
// against its optimistic snapshot and submits them as ONE
// ApiServer::try_bind_batch transaction; the batch's conflict summary
// drives a congestion controller that halves the batch under sustained
// contention (and rotates the steal origin — "re-shards") and grows it
// again while batches come back clean. Binds are conditional
// (resource-version CAS + kubelet admission guard), so two replicas racing
// for the same pod or the same last EPC pages cannot double-place it or
// over-commit the node: the loser gets a clean per-entry conflict.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cluster/pod.hpp"
#include "cluster/resources.hpp"
#include "orch/api_server.hpp"
#include "sim/simulation.hpp"

namespace sgxo::orch {

/// Knobs of the Omega-style shared-state mode (see the header comment).
/// Every replica of a scheduler name gets one shard of the pending queue,
/// steals from its neighbours' shards once its own is drained, and submits
/// its placements as batched bind transactions.
struct SharedStateConfig {
  /// This replica's shard of the pending queue (stable pod-name hash mod
  /// shard_count). Must be < shard_count.
  std::uint32_t shard = 0;
  std::uint32_t shard_count = 1;
  /// Pods pulled — and bind attempts staged — per cycle, between the
  /// congestion controller's bounds. The controller halves the next batch
  /// after one whose conflict_rate() exceeds 0.25 and doubles it after one
  /// below 0.05.
  std::size_t initial_batch = 64;
  std::size_t min_batch = 8;
  std::size_t max_batch = 1024;
  /// Consecutive shrinking batches before the steal origin rotates (the
  /// "re-shard" escape hatch when two replicas keep colliding on the same
  /// stolen shard). 0 disables rotation.
  int reshard_after = 3;
};

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

class Scheduler {
 public:
  Scheduler(sim::Simulation& sim, ApiServer& api, std::string name,
            Duration period = Duration::seconds(5));
  virtual ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Duration period() const { return period_; }

  /// Replica identity; defaults to the scheduler name. Replicas of a
  /// shared-state fleet share a name but must carry distinct identities
  /// (fault plans and the control-plane report address replicas by it).
  void set_identity(std::string identity);
  [[nodiscard]] const std::string& identity() const {
    return identity_.empty() ? name_ : identity_;
  }

  /// Starts the periodic scheduling loop (idempotent).
  void start();
  void stop();

  // ---- shared-state mode ----------------------------------------------------
  /// Runs this replica as one active shard worker of an Omega-style
  /// shared-state fleet (see the header comment).
  void enable_shared_state(SharedStateConfig config);
  [[nodiscard]] bool shared_state_enabled() const {
    return shared_.has_value();
  }
  [[nodiscard]] const SharedStateConfig& shared_state() const {
    return *shared_;
  }
  /// Current batch capacity chosen by the conflict controller.
  [[nodiscard]] std::size_t batch_capacity() const { return batch_size_; }
  /// Bind transactions submitted (cycles that staged at least one bind).
  [[nodiscard]] std::uint64_t batches() const { return batches_; }
  /// Cycles that drained a neighbour's shard instead of their own.
  [[nodiscard]] std::uint64_t steal_cycles() const { return steal_cycles_; }
  /// Steal-origin rotations forced by sustained conflicts.
  [[nodiscard]] std::uint64_t reshards() const { return reshards_; }
  /// Conflict rate of the most recent submitted batch.
  [[nodiscard]] double last_conflict_rate() const {
    return last_conflict_rate_;
  }

  // ---- crash surface (fault injection) --------------------------------------
  /// Crash-stop: the loop halts, as with a real process kill. Work already
  /// bound stays bound; in a shared-state fleet the siblings steal the
  /// crashed replica's shard once their own run dry.
  void crash();
  /// Restarts a crashed replica with no memory of its previous life:
  /// backoff timers are dropped and the congestion controller (batch
  /// capacity, conflict streak, steal rotation) returns to its
  /// enable_shared_state values. Cumulative counters (cycles, binds,
  /// batches, reshards, steal cycles) survive. Pending pods and node views
  /// are re-read from the ApiServer every cycle anyway.
  void restart();
  [[nodiscard]] bool crashed() const { return crashed_; }

  /// Strict FCFS blocks the whole queue behind the oldest unschedulable
  /// pod (classic batch semantics); the default skips it and lets younger
  /// pods use leftover resources (Kubernetes semantics). Exposed as a
  /// design-choice ablation.
  void set_strict_fcfs(bool strict) { strict_fcfs_ = strict; }
  [[nodiscard]] bool strict_fcfs() const { return strict_fcfs_; }

  /// Capped exponential bind backoff (off by default): a pod that failed
  /// placement waits `base` before its next attempt, doubling per failure
  /// up to `cap`, and resets on a successful bind. Under fault churn this
  /// keeps repeatedly-unschedulable pods from being re-evaluated (views,
  /// feasibility, TSDB queries) every single cycle; it takes precedence
  /// over strict FCFS for backed-off pods (they are skipped, not blocking).
  void set_bind_backoff(Duration base, Duration cap);
  [[nodiscard]] bool bind_backoff_enabled() const { return backoff_base_ > Duration{}; }
  /// Placement attempts skipped because the pod was still backing off.
  [[nodiscard]] std::uint64_t backoff_skips() const { return backoff_skips_; }

  /// One scheduling cycle; returns the number of pods bound. A crashed
  /// replica's cycle is a no-op.
  std::size_t run_once();

  [[nodiscard]] std::uint64_t cycles() const { return cycles_; }
  [[nodiscard]] std::uint64_t total_bound() const { return bound_; }
  /// Conditional binds this replica lost (stale version / pod taken by
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
  /// flight or a cached rejection) — the pod backs off and retries.
  [[nodiscard]] std::uint64_t attestation_waits() const {
    return attestation_waits_;
  }
  /// Cycles that fell back from measured usage to declared requests;
  /// meaningful for metrics-driven schedulers (base schedulers never
  /// degrade).
  [[nodiscard]] virtual std::uint64_t degraded_cycles() const { return 0; }

  /// Control-plane health snapshot, the raw material of
  /// orch::describe_control_plane.
  struct Health {
    std::string name;
    std::string identity;
    bool crashed = false;
    std::uint64_t cycles = 0;
    std::uint64_t bound = 0;
    std::uint64_t bind_conflicts = 0;
    std::uint64_t guard_rejections = 0;
    std::uint64_t attestation_waits = 0;
    std::uint64_t backoff_skips = 0;
    std::uint64_t degraded_cycles = 0;
    // Shared-state mode (zeros when disabled).
    bool shared_state = false;
    std::uint32_t shard = 0;
    std::uint32_t shard_count = 0;
    std::size_t batch_capacity = 0;
    std::uint64_t batches = 0;
    std::uint64_t steal_cycles = 0;
    std::uint64_t reshards = 0;
  };
  [[nodiscard]] Health health() const;

 protected:
  /// Builds this cycle's per-node views (capacities + usage estimates).
  [[nodiscard]] virtual std::vector<NodeView> collect_views() = 0;

  /// Picks a node for `pod` among `feasible` (all already pass fits()).
  /// `all` carries this cycle's view of every schedulable node — policies
  /// like spread need the cluster-wide load vector, not just the feasible
  /// subset. nullopt leaves the pod pending.
  [[nodiscard]] virtual std::optional<cluster::NodeName> select_node(
      const cluster::PodSpec& pod, const std::vector<NodeView>& feasible,
      const std::vector<NodeView>& all) = 0;

  /// Called at most once per cycle, for the highest-priority pod that fit
  /// nowhere. Implementations may free resources for the *next* cycle
  /// (e.g. preempt lower-priority pods). Default: nothing.
  virtual void on_unschedulable(const cluster::PodSpec& pod,
                                const std::vector<NodeView>& all) {
    (void)pod;
    (void)all;
  }

  [[nodiscard]] ApiServer& api() { return *api_; }
  [[nodiscard]] sim::Simulation& sim() { return *sim_; }

 private:
  struct PodBackoff {
    Duration delay{};      // next wait after a failed attempt
    TimePoint not_before;  // next attempt no earlier than this
  };
  /// Cycle-local planning state: this cycle's node views plus the scratch
  /// plan_pod reuses for every pod (defined in the .cpp).
  struct Cycle;

  /// Records a failed placement attempt: arms/doubles the pod's backoff.
  void note_bind_failure(const cluster::PodName& pod);
  /// Drops backoff entries of pods that are no longer pending.
  void prune_backoffs();
  /// Puts the congestion controller back to its enable_shared_state values.
  void reset_conflict_controller();
  /// The per-pod planning steps both cycle kinds share: skip a pod still
  /// backing off, filter the feasible nodes (reporting the cycle's first
  /// pod that fits nowhere to on_unschedulable), and let the policy pick.
  /// nullopt leaves the pod pending; a failed placement under strict FCFS
  /// also sets cycle.blocked, which ends the cycle.
  std::optional<cluster::NodeName> plan_pod(Cycle& cycle,
                                            const cluster::PodSpec& spec);
  /// One shared-state cycle: pull a shard batch (stealing if dry), plan
  /// placements against the optimistic view, submit one bind transaction,
  /// and feed its conflict summary into the congestion controller.
  std::size_t run_shared_cycle();

  sim::Simulation* sim_;
  ApiServer* api_;
  std::string name_;
  std::string identity_;  // empty = name_
  Duration period_;
  sim::EventId timer_;
  bool strict_fcfs_ = false;
  Duration backoff_base_{};  // zero = backoff disabled
  Duration backoff_cap_{};
  std::map<cluster::PodName, PodBackoff> backoffs_;
  std::uint64_t backoff_skips_ = 0;
  std::uint64_t cycles_ = 0;
  std::uint64_t bound_ = 0;
  bool crashed_ = false;
  std::uint64_t bind_conflicts_ = 0;
  std::uint64_t guard_rejections_ = 0;
  std::uint64_t attestation_waits_ = 0;
  // Shared-state mode.
  std::optional<SharedStateConfig> shared_;
  std::size_t batch_size_ = 0;       // current controller-chosen capacity
  int conflict_streak_ = 0;          // consecutive shrinking batches
  std::uint32_t steal_rotation_ = 0; // offset of the steal probe order
  std::uint64_t batches_ = 0;
  std::uint64_t steal_cycles_ = 0;
  std::uint64_t reshards_ = 0;
  double last_conflict_rate_ = 0.0;
};

}  // namespace sgxo::orch
