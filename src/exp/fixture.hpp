// Experiment fixture: assembles the complete simulated system — the
// paper's 5-machine cluster (§VI-A), the monitoring pipeline (Heapster +
// SGX probe DaemonSet + time-series DB) and any number of schedulers —
// and owns every component's lifetime.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/image_registry.hpp"
#include "cluster/kubelet.hpp"
#include "cluster/node.hpp"
#include "core/sgx_scheduler.hpp"
#include "orch/api_server.hpp"
#include "orch/daemonset.hpp"
#include "orch/default_scheduler.hpp"
#include "orch/heapster.hpp"
#include "orch/pod_restarter.hpp"
#include "sgx/attestation_verifier.hpp"
#include "sgx/perf_model.hpp"
#include "sim/fault.hpp"
#include "sim/simulation.hpp"
#include "tsdb/model.hpp"

namespace sgxo::exp {

struct ClusterConfig {
  /// Machine inventory; defaults to the paper's testbed.
  std::vector<cluster::MachineSpec> machines = cluster::paper_cluster();
  /// Modified (true) vs stock (false) SGX driver.
  bool enforce_epc_limits = true;
  /// Replaces the usable EPC size on every SGX machine (Fig. 7 sweeps).
  std::optional<Bytes> epc_usable_override;
  /// Hardware generation of the SGX machines (§VI-G: SGX 2 adds dynamic
  /// enclave memory).
  sgx::SgxVersion sgx_version = sgx::SgxVersion::kSgx1;
  sgx::PerfModelConfig perf{};
  Duration scheduler_period = Duration::seconds(5);
  Duration heapster_period = Duration::seconds(10);
  Duration probe_period = Duration::seconds(10);
  Duration metrics_window = Duration::seconds(25);
  /// TSDB shard count (each its own fault domain; see tsdb::DatabaseConfig).
  std::size_t tsdb_shards = 1;
  /// Attestation-gated admission: provisions every SGX node's platform
  /// with an AttestationVerifier, enables the API server's verdict cache
  /// and the kubelet-side re-verification at bind delivery.
  bool attestation = false;
  /// Gate tuning (TTLs, grace, degradation policy); used when
  /// `attestation` is true.
  orch::AttestationGate::Config attestation_config{};
  /// Kubelet-side re-verification policy; used when `attestation` is true.
  cluster::Kubelet::AttestationPolicy attestation_policy{};
};

class SimulatedCluster {
 public:
  explicit SimulatedCluster(ClusterConfig config = {});

  SimulatedCluster(const SimulatedCluster&) = delete;
  SimulatedCluster& operator=(const SimulatedCluster&) = delete;

  [[nodiscard]] sim::Simulation& sim() { return sim_; }
  [[nodiscard]] orch::ApiServer& api() { return *api_; }
  [[nodiscard]] tsdb::Database& db() { return db_; }
  [[nodiscard]] cluster::ImageRegistry& registry() { return registry_; }
  [[nodiscard]] const sgx::PerfModel& perf() const { return perf_; }
  [[nodiscard]] const ClusterConfig& config() const { return config_; }
  [[nodiscard]] std::vector<cluster::Node*> nodes();
  [[nodiscard]] cluster::Node* find_node(const cluster::NodeName& name);
  [[nodiscard]] std::size_t sgx_node_count() const;
  [[nodiscard]] std::vector<cluster::Kubelet*> kubelets();
  [[nodiscard]] orch::Heapster& heapster() { return *heapster_; }
  [[nodiscard]] orch::ProbeDaemonSet& daemonset() { return *daemonset_; }
  /// The verifier, or nullptr when attestation is off.
  [[nodiscard]] sgx::AttestationVerifier* attestation_verifier() {
    return verifier_.get();
  }
  /// The API server's verdict cache, or nullptr when attestation is off.
  [[nodiscard]] orch::AttestationGate* attestation_gate() {
    return api_->attestation();
  }
  /// This node's current quote (the quoting-enclave round); CHECKs that
  /// the node has a provisioned platform.
  [[nodiscard]] sgx::Quote node_quote(const cluster::NodeName& name) const;

  /// Registers the standard effect handlers for every FaultKind on the
  /// injector: node crash/reboot through the API server, probe/Heapster
  /// dropouts and delays on the monitoring pipeline, TSDB write errors
  /// and stale-read windows on the database, scheduler crash/restart of
  /// the replica whose identity the fault targets, attestation-verifier
  /// faults when attestation is on, and — when a restarter is given —
  /// watch-channel disconnect/re-sync on it.
  void install_fault_handlers(sim::FaultInjector& injector,
                              orch::PodRestarter* restarter = nullptr);

  /// Creates and starts an SGX-aware scheduler with the given policy.
  core::SgxAwareScheduler& add_sgx_scheduler(core::PlacementPolicy policy,
                                             std::string name = "");
  /// Full-control variant: period and metrics window default from the
  /// cluster config when left at their zero values.
  core::SgxAwareScheduler& add_sgx_scheduler(core::SgxSchedulerConfig config);
  /// Creates and starts the Kubernetes default scheduler baseline.
  orch::DefaultScheduler& add_default_scheduler();

  /// Creates and starts an Omega-style shared-state fleet: `replicas`
  /// always-active SGX-aware schedulers sharing one name, replica i
  /// draining shard i of `replicas` with identities "<name>-i". `base`
  /// supplies everything except name/identity/shard (its shard_count is
  /// overwritten with `replicas`). Returns the replicas in shard order.
  std::vector<core::SgxAwareScheduler*> add_shared_state_fleet(
      std::size_t replicas, core::SgxSchedulerConfig base = {},
      orch::SharedStateConfig shard_base = {});

  /// All schedulers this fixture owns, in creation order.
  [[nodiscard]] std::vector<orch::Scheduler*> schedulers();
  /// The scheduler replica with the given identity, or nullptr.
  [[nodiscard]] orch::Scheduler* find_scheduler(const std::string& identity);

  /// Starts Heapster and deploys the probe DaemonSet.
  void start_monitoring();
  /// Stops all periodic components so the event queue can drain.
  void stop_all();

  /// Runs the simulation until at least `expected_pods` pods have been
  /// submitted and every submitted pod reached a terminal phase (or
  /// `deadline` virtual time passed). Returns true on success. The
  /// expected count disambiguates "all done" from "replayer has not
  /// submitted everything yet".
  bool run_until_quiescent(std::size_t expected_pods,
                           Duration deadline = Duration::hours(48));

 private:
  ClusterConfig config_;
  sim::Simulation sim_;
  tsdb::Database db_;
  cluster::ImageRegistry registry_;
  sgx::PerfModel perf_;
  std::unique_ptr<orch::ApiServer> api_;
  /// Attestation (only when config_.attestation): the verifier every layer
  /// shares, per-SGX-node platforms, and the one expected measurement.
  std::unique_ptr<sgx::AttestationVerifier> verifier_;
  std::map<cluster::NodeName, sgx::Platform> platforms_;
  sgx::Measurement attestation_measurement_{};
  std::vector<std::unique_ptr<cluster::Node>> nodes_;
  std::vector<std::unique_ptr<cluster::Kubelet>> kubelets_;
  std::unique_ptr<orch::Heapster> heapster_;
  std::unique_ptr<orch::ProbeDaemonSet> daemonset_;
  std::vector<std::unique_ptr<orch::Scheduler>> schedulers_;
};

}  // namespace sgxo::exp
