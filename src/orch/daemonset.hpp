// DaemonSet controller for the SGX probe (paper §V-C): keeps exactly one
// probe instance on every SGX-enabled node. SGX capability is detected the
// same way the paper does — by the EPC size the device plugin advertised to
// Kubernetes — and new nodes get a probe automatically at the next
// reconciliation, as do replacements for crashed probes. The DaemonSet
// owns one sample path per SGX node, which outlives the node's probes:
// a fault sits in the network or the node, not the probe process, so a
// probe redeployed while its node's path drops or lags comes up faulted.
#pragma once

#include <map>
#include <memory>

#include "orch/api_server.hpp"
#include "orch/sgx_probe.hpp"
#include "sim/simulation.hpp"
#include "tsdb/model.hpp"

namespace sgxo::orch {

class ProbeDaemonSet {
 public:
  /// Reconciliation period: a new SGX node, or one whose probe crashed,
  /// gets a probe within 30 s.
  static constexpr Duration kReconcilePeriod = Duration::seconds(30);

  ProbeDaemonSet(sim::Simulation& sim, ApiServer& api, tsdb::Database& db,
                 Duration probe_period = Duration::seconds(10));

  ProbeDaemonSet(const ProbeDaemonSet&) = delete;
  ProbeDaemonSet& operator=(const ProbeDaemonSet&) = delete;

  /// Reconciles immediately and starts the periodic reconciliation loop.
  void start();
  void stop();

  /// One reconciliation pass: deploy probes to uncovered SGX nodes.
  void reconcile();

  [[nodiscard]] std::size_t probe_count() const { return probes_.size(); }
  [[nodiscard]] bool has_probe(const cluster::NodeName& node) const {
    return probes_.find(node) != probes_.end();
  }
  /// The live probe on `node` (nullptr when none is deployed).
  [[nodiscard]] SgxProbe* probe(const cluster::NodeName& node);
  /// Simulates a probe crash; the next reconcile redeploys it.
  void crash_probe(const cluster::NodeName& node);
  /// The sample path of the probes on `node`, created on first use.
  [[nodiscard]] PodSampleWriter& samples(const cluster::NodeName& node);

 private:
  sim::Simulation* sim_;
  ApiServer* api_;
  tsdb::Database* db_;
  Duration probe_period_;
  sim::EventId timer_;
  std::map<cluster::NodeName, PodSampleWriter> samples_;
  std::map<cluster::NodeName, std::unique_ptr<SgxProbe>> probes_;
};

}  // namespace sgxo::orch
