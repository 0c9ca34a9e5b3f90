// Pod restart controller — a minimal ReplicaSet-style reconciler: pods
// that died for infrastructure reasons (node failure) are resubmitted as
// fresh pods so the workload survives machine loss. Jobs killed by
// *policy* (EPC limit enforcement) are deliberately NOT restarted: the
// driver killed them for lying about their resources.
//
// The controller is informer-driven, as Kubernetes controllers are: start()
// lists the store once (catching failures that happened before it ran),
// then reacts to failures through a watch on the API server. The informer
// watch channel can disconnect (fault injection); resync() re-subscribes
// and runs a full reconciliation pass to catch every failure missed while
// the channel was down — Kubernetes list+watch semantics.
#pragma once

#include <map>
#include <string>

#include "orch/api_server.hpp"
#include "sim/simulation.hpp"

namespace sgxo::orch {

class PodRestarter {
 public:
  PodRestarter(sim::Simulation& sim, ApiServer& api);
  ~PodRestarter();

  PodRestarter(const PodRestarter&) = delete;
  PodRestarter& operator=(const PodRestarter&) = delete;

  /// Lists the store once (run_once), then watches it (idempotent).
  void start();
  void stop();

  /// One reconciliation pass; returns the number of pods resubmitted.
  std::size_t run_once();

  // ---- watch-channel fault surface ----------------------------------------
  /// Drops the watch without forgetting state — an informer losing its
  /// connection. Failures occurring now go unnoticed until resync(). A
  /// no-op unless the restarter is started and connected.
  void disconnect();
  /// Re-subscribes and immediately reconciles once, catching everything
  /// missed while disconnected (the re-list). A no-op unless the
  /// restarter is started and disconnected: a stopped restarter stays
  /// stopped.
  void resync();
  [[nodiscard]] bool connected() const { return watch_ != 0; }
  [[nodiscard]] std::uint64_t disconnects() const { return disconnects_; }
  [[nodiscard]] std::uint64_t resyncs() const { return resyncs_; }

  [[nodiscard]] std::uint64_t restarts() const { return restarts_; }
  /// The retry pod name a failed pod was resubmitted as ("" if none).
  [[nodiscard]] std::string retry_of(const cluster::PodName& pod) const;

 private:
  [[nodiscard]] static bool restartable(const PodRecord& record);
  void watch();
  void unwatch();
  /// Re-checks a failed pod and resubmits it if still warranted — the
  /// entry point for watch deliveries.
  void maybe_restart(const cluster::PodName& pod);
  /// Resubmits one failed pod, or adopts a retry that already exists.
  /// Returns true when it submitted one.
  bool restart(const PodRecord& record);

  sim::Simulation* sim_;
  ApiServer* api_;
  bool started_ = false;
  ApiServer::WatchId watch_ = 0;
  std::map<cluster::PodName, std::string> handled_;  // original → retry name
  std::uint64_t restarts_ = 0;
  std::uint64_t disconnects_ = 0;
  std::uint64_t resyncs_ = 0;
};

}  // namespace sgxo::orch
