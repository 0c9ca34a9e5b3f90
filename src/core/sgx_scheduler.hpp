// The SGX-aware scheduler — the paper's primary contribution (§IV, §V-B).
//
// Unlike the Kubernetes default scheduler, which only trusts the statically
// declared requests, this scheduler combines:
//   * the pending jobs' declared requests (standard memory + EPC pages),
//   * live sliding-window usage measurements from the time-series database
//     (Heapster for memory, the SGX probe for EPC — queried through the
//     InfluxQL engine, Listing 1),
//   * the device plugin's page accounting (the hard no-over-commitment
//     floor for the EPC).
//
// Per node, the usage estimate of each assigned pod is its measured usage
// when the window contains a sample for it, and its declared request until
// then (bindings lag the probes by up to one probe period). Samples of
// recently dead pods still inside the window count as usage, exactly as
// Listing 1 would report them. A cycle runs the queries only when one of
// its pods passes the measurement-free checks (orch::FitScreen) or may
// preempt: a pod that fails them fits nowhere whatever the window shows.
//
// Non-preemptive; pods stay in the API server's FCFS pending queue, and
// every cycle plans each of them again until one finds room. Packaged to run as a pod itself, multiple instances
// (binpack + spread + the default) can operate side by side, each pulling
// only the pods that name it (§V-B).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/metrics_view.hpp"
#include "core/policies.hpp"
#include "orch/scheduler_framework.hpp"
#include "tsdb/model.hpp"

namespace sgxo::core {

struct SgxSchedulerConfig {
  PlacementPolicy policy = PlacementPolicy::kBinpack;
  /// Scheduler name pods select; empty derives "sgx-binpack"/"sgx-spread".
  std::string name;
  /// Priority preemption under contention (extension; the paper's
  /// per-process EPC ioctl exists "to identify processes that should be
  /// preempted", §V-E): a pending pod that fits nowhere may evict
  /// strictly-lower-priority pods from one node. Off by default — the
  /// paper's scheduler is non-preemptive.
  bool enable_preemption = false;
};

/// The measured half of the SGX-aware node views. Replaces each view's
/// request-based memory_used / epc_used with the usage the window shows
/// for pods on that node (EPC rounded up to pages per pod), plus the
/// declared requests of the pods assigned there that the window does not
/// show yet. epc_requested, the device plugin's accounting, is left as
/// is. `views` must be sorted by name, as request_based_views returns
/// them; rows naming a node without a view (the master, a failed or
/// unknown node) count nowhere. The rows may come in any order. One pass
/// over the rows, one sort of the measured (view, pod) pairs, and one walk
/// of each node's pods in place in the ApiServer's node index (pods_on),
/// which allocates nothing per view and re-checks no pod's phase or node:
/// O(nodes · log nodes + rows · log rows + assigned pods).
void fold_measured_usage(std::vector<orch::NodeView>& views,
                         const std::vector<ClusterMetrics::PodUsage>& epc,
                         const std::vector<ClusterMetrics::PodUsage>& memory,
                         const orch::ApiServer& api);

class SgxAwareScheduler final : public orch::Scheduler {
 public:
  /// Graceful degradation: when the newest metrics sample is older than
  /// this, the cycle falls back from measured usage to the declared
  /// requests (the default scheduler's view) instead of trusting a dead
  /// metrics pipeline. With a healthy 10 s probe period staleness stays
  /// under one period, so this only trips on real outages.
  static constexpr Duration kStaleMetricsThreshold = Duration::seconds(60);

  /// `metrics_window` is the sliding window of the usage queries (25 s in
  /// Listing 1). The scheduler runs every Scheduler::kPeriod.
  SgxAwareScheduler(sim::Simulation& sim, orch::ApiServer& api,
                    const tsdb::Database& db, Duration metrics_window,
                    SgxSchedulerConfig config);

  [[nodiscard]] PlacementPolicy policy() const { return config_.policy; }
  [[nodiscard]] const ClusterMetrics& metrics() const { return metrics_; }
  [[nodiscard]] std::uint64_t preemptions() const { return preemptions_; }
  /// Cycles that measured their views on a metrics window stale past
  /// kStaleMetricsThreshold and so planned on declared requests. A cycle
  /// measures only for a pod that passes the FitScreen or that it may
  /// preempt for; any other cycle reads no metrics and does not count,
  /// however stale the window.
  [[nodiscard]] std::uint64_t degraded_cycles() const override {
    return degraded_cycles_;
  }

  [[nodiscard]] static std::string default_name(PlacementPolicy policy);

 protected:
  /// Checks the window's staleness, runs the two Listing-1 per-pod
  /// queries and folds them into `views` (fold_measured_usage); on a
  /// stale window it leaves the views request-based and counts a
  /// degraded cycle.
  void measure_views(std::vector<orch::NodeView>& views) override;
  [[nodiscard]] std::optional<cluster::NodeName> select_node(
      const cluster::PodSpec& pod,
      const std::vector<orch::NodeView>& feasible,
      const std::vector<orch::NodeView>& all) override;

  /// With preemption enabled, for a pod of positive priority.
  [[nodiscard]] bool acts_on_unschedulable(
      const cluster::PodSpec& pod) const override;

  /// Preemption: evicts the cheapest set of strictly-lower-priority pods
  /// on a single node that makes `pod` fit there; the pod itself binds on
  /// a following cycle (non-preemptive placement is preserved within a
  /// cycle).
  void on_unschedulable(const cluster::PodSpec& pod,
                        const std::vector<orch::NodeView>& all) override;

 private:
  SgxSchedulerConfig config_;
  ClusterMetrics metrics_;
  std::uint64_t preemptions_ = 0;
  std::uint64_t degraded_cycles_ = 0;
};

}  // namespace sgxo::core
