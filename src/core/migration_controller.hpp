// EPC defragmentation through enclave live migration — the integration of
// secure enclave migration into the orchestrator that the paper names as
// a future research direction ("towards a globally optimized EPC
// utilization through the migration of enclaves", §VII/§VIII).
//
// The controller watches the pending queue. When the oldest pending SGX
// pod fits *no* node — not because the cluster lacks total EPC, but
// because free pages are fragmented across nodes — it migrates the
// smallest running enclave that makes the pod fit: the victim moves to the
// node with room for it, consolidating free EPC on its source node.
#pragma once

#include <cstdint>

#include "orch/api_server.hpp"
#include "orch/scheduler_framework.hpp"
#include "sgx/migration.hpp"
#include "sgx/perf_model.hpp"
#include "sim/simulation.hpp"

namespace sgxo::core {

class MigrationController {
 public:
  MigrationController(sim::Simulation& sim, orch::ApiServer& api,
                      const sgx::PerfModel& perf,
                      Duration period = Duration::seconds(30));
  ~MigrationController();

  MigrationController(const MigrationController&) = delete;
  MigrationController& operator=(const MigrationController&) = delete;

  void start();
  void stop();

  /// One reconciliation pass; returns the number of migrations performed
  /// (at most one per pass — migration is expensive, so the controller
  /// stays conservative).
  std::size_t run_once();

  [[nodiscard]] std::uint64_t migrations() const { return migrations_; }
  [[nodiscard]] sgx::MigrationService& service() { return service_; }

 private:
  struct Plan {
    cluster::PodName victim;
    cluster::NodeName from;
    cluster::NodeName to;
  };

  /// Finds a single migration that makes `blocked` schedulable, if any.
  [[nodiscard]] std::optional<Plan> plan_for(
      const cluster::PodSpec& blocked,
      const std::vector<orch::NodeView>& views) const;

  sim::Simulation* sim_;
  orch::ApiServer* api_;
  sgx::MigrationService service_;
  Duration period_;
  sim::EventId timer_;
  std::uint64_t migrations_ = 0;
};

}  // namespace sgxo::core
