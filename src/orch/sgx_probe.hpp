// SGX metrics probe (paper §V-C): runs on every SGX-enabled node (deployed
// through a DaemonSet), reads per-process EPC usage from the modified
// driver's ioctl, aggregates per pod, and pushes the samples into the same
// InfluxDB-style database as Heapster — measurement "sgx/epc", tags
// pod_name and nodename, value in bytes. Like Heapster it writes through a
// PodSampleWriter, one series ref per pod on its node; delayed samples
// take the tag write.
#pragma once

#include "orch/api_server.hpp"
#include "orch/pod_sample_writer.hpp"
#include "sim/simulation.hpp"
#include "tsdb/model.hpp"

namespace sgxo::orch {

class SgxProbe {
 public:
  static constexpr const char* kEpcMeasurement = "sgx/epc";

  /// `entry` must reference an SGX-capable node.
  SgxProbe(sim::Simulation& sim, ApiServer::NodeEntry entry,
           tsdb::Database& db, Duration period = Duration::seconds(10));

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

  // ---- fault injection -----------------------------------------------------
  /// While set, probed samples are discarded instead of written.
  void set_drop_samples(bool drop) { drop_samples_ = drop; }
  [[nodiscard]] bool dropping_samples() const { return drop_samples_; }
  /// Samples reach the TSDB `delay` late (original timestamps). Zero
  /// restores immediate delivery.
  void set_sample_delay(Duration delay) { sample_delay_ = delay; }
  [[nodiscard]] Duration sample_delay() const { return sample_delay_; }
  [[nodiscard]] std::uint64_t dropped_samples() const { return dropped_; }
  [[nodiscard]] std::uint64_t delayed_samples() const { return delayed_; }

 private:
  sim::Simulation* sim_;
  ApiServer::NodeEntry entry_;
  tsdb::Database* db_;
  Duration period_;
  sim::EventId timer_;
  std::uint64_t probes_ = 0;
  bool drop_samples_ = false;
  Duration sample_delay_{};
  std::uint64_t dropped_ = 0;
  std::uint64_t delayed_ = 0;
  PodSampleWriter writer_;
};

}  // namespace sgxo::orch
