// SGX metrics probe (paper §V-C): runs on every SGX-enabled node (deployed
// through a DaemonSet), reads per-process EPC usage from the modified
// driver's ioctl, aggregates per pod, and pushes the samples into the same
// InfluxDB-style database as Heapster — measurement "sgx/epc", tags
// pod_name and nodename, value in bytes. Like Heapster it writes through a
// PodSampleWriter, one series ref per pod on its node. The DaemonSet owns
// that path and keeps it across probe crashes, so a redeployed probe
// inherits its node's fault state.
#pragma once

#include "orch/api_server.hpp"
#include "orch/pod_sample_writer.hpp"
#include "sim/simulation.hpp"

namespace sgxo::orch {

class SgxProbe {
 public:
  static constexpr const char* kEpcMeasurement = "sgx/epc";

  /// `entry` must reference an SGX-capable node; `samples` must write
  /// kEpcMeasurement and outlive the probe.
  SgxProbe(sim::Simulation& sim, ApiServer::NodeEntry entry,
           PodSampleWriter& samples, Duration period = Duration::seconds(10));

  SgxProbe(const SgxProbe&) = delete;
  SgxProbe& operator=(const SgxProbe&) = delete;
  ~SgxProbe();

  void start();
  void stop();
  void probe_once();

  [[nodiscard]] const cluster::NodeName& node_name() const {
    return entry_.node->name();
  }
  [[nodiscard]] std::uint64_t probe_count() const { return probes_; }
  /// The path every probed sample takes to the TSDB.
  [[nodiscard]] PodSampleWriter& samples() const { return *writer_; }

 private:
  sim::Simulation* sim_;
  ApiServer::NodeEntry entry_;
  PodSampleWriter* writer_;
  Duration period_;
  sim::EventId timer_;
  std::uint64_t probes_ = 0;
};

}  // namespace sgxo::orch
