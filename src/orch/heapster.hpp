// Heapster-style monitoring (paper §V-C): periodically scrapes every
// Kubelet's per-pod standard-memory stats and pushes them into the shared
// time-series database, tagged with pod_name and nodename — the same tag
// scheme the SGX probe uses, so the scheduler can issue equivalent queries
// for both resources. Samples go through a PodSampleWriter, which keeps
// one series ref per pod, so a scrape renders no series key for a pod it
// already wrote, and which drops or delays them under an injected fault.
#pragma once

#include <string>

#include "orch/api_server.hpp"
#include "orch/pod_sample_writer.hpp"
#include "sim/simulation.hpp"
#include "tsdb/model.hpp"

namespace sgxo::orch {

class Heapster {
 public:
  /// Measurement written for per-pod standard memory usage (bytes).
  static constexpr const char* kMemoryMeasurement = "memory/usage";
  /// Every scrape drops the samples older than this, in every measurement.
  static constexpr Duration kRetention = Duration::minutes(15);

  Heapster(sim::Simulation& sim, ApiServer& api, tsdb::Database& db,
           Duration scrape_period = Duration::seconds(10));

  Heapster(const Heapster&) = delete;
  Heapster& operator=(const Heapster&) = delete;

  /// Starts the periodic scrape loop (idempotent).
  void start();
  void stop();
  /// One scrape of all nodes (also usable directly from tests).
  void scrape_once();

  [[nodiscard]] std::uint64_t scrape_count() const { return scrapes_; }
  /// The path every scraped sample takes to the TSDB.
  [[nodiscard]] PodSampleWriter& samples() { return writer_; }

 private:
  sim::Simulation* sim_;
  ApiServer* api_;
  tsdb::Database* db_;
  Duration period_;
  sim::EventId timer_;
  std::uint64_t scrapes_ = 0;
  PodSampleWriter writer_;
};

}  // namespace sgxo::orch
