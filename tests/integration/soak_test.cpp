// Soak test: every subsystem active at once on one cluster — trace
// replay, malicious squatters with enforcement, priority jobs with
// preemption, a node failure with watch-driven restarts, the migration
// defragmenter — with invariant probes running the whole time. The system
// must end quiescent and consistent.
#include <gtest/gtest.h>

#include <set>

#include "core/migration_controller.hpp"
#include "core/sgx_scheduler.hpp"
#include "exp/fixture.hpp"
#include "orch/pod_restarter.hpp"
#include "trace/generator.hpp"
#include "trace/replayer.hpp"
#include "trace/sgx_mix.hpp"
#include "workload/malicious.hpp"
#include "workload/stressor.hpp"

namespace sgxo::exp {
namespace {

TEST(Soak, EverySubsystemAtOnce) {
  SimulatedCluster cluster;
  core::SgxSchedulerConfig sched_config;
  sched_config.policy = core::PlacementPolicy::kBinpack;
  sched_config.enable_preemption = true;
  auto& scheduler = cluster.add_sgx_scheduler(std::move(sched_config));
  cluster.api().set_default_scheduler(scheduler.name());
  cluster.start_monitoring();

  core::MigrationController migration{cluster.sim(), cluster.api(),
                                      cluster.perf()};
  migration.start();
  orch::PodRestarter restarter{cluster.sim(), cluster.api()};
  restarter.start();

  // The trace workload: 120 jobs over 15 minutes, 60 % SGX, every 12th
  // job latency-critical.
  trace::BorgTraceConfig trace_config;
  trace_config.slice_jobs = 120;
  trace_config.over_allocating_jobs = 8;
  trace_config.slice_end =
      trace_config.slice_start + Duration::seconds(900);
  auto jobs = trace::BorgTraceGenerator{trace_config}.evaluation_slice();
  Rng rng{1};
  trace::designate_sgx(jobs, 0.6, rng);
  trace::Replayer replayer{
      cluster.sim(), cluster.api(),
      [](const trace::TraceJob& job, std::size_t index) {
        auto pod = workload::stressor_pod(job, {});
        if (index % 12 == 0) pod.priority = 10;
        return pod;
      }};
  replayer.schedule(jobs);

  // Malicious squatters, one per SGX node (enforcement will kill them).
  workload::MaliciousConfig mal;
  mal.epc_fraction = 0.5;
  auto squatters = workload::malicious_pods(2, mal);
  squatters[0].node_selector = "sgx-1";
  squatters[1].node_selector = "sgx-2";
  for (auto& squatter : squatters) {
    cluster.api().submit(std::move(squatter));
  }

  // Fail a standard node five minutes in, recover it at ten.
  cluster.sim().schedule_at(TimePoint::epoch() + Duration::minutes(5),
                            [&] { cluster.api().fail_node("node-1"); });
  cluster.sim().schedule_at(TimePoint::epoch() + Duration::minutes(10),
                            [&] { cluster.api().recover_node("node-1"); });

  // Invariant probe, every scheduling period.
  std::size_t checks = 0;
  cluster.sim().schedule_every(
      Duration::seconds(5), Duration::seconds(5), [&] {
        ++checks;
        for (cluster::Node* node : cluster.nodes()) {
          if (!node->has_sgx()) continue;
          const sgx::Driver& driver = *node->driver();
          ASSERT_LE(driver.epc().committed_pages().count(),
                    driver.total_epc_pages().count());
          ASSERT_LE(node->device_allocator().allocated().count(),
                    node->device_allocator().advertised().count());
        }
      });

  cluster.sim().run_until(TimePoint::epoch() + Duration::hours(6));
  migration.stop();
  restarter.stop();
  cluster.stop_all();
  EXPECT_GT(checks, 1000u);

  // End state: every pod terminal; failures only for the reasons this
  // scenario produces.
  std::size_t succeeded = 0;
  std::size_t limit_killed = 0;
  std::size_t node_failures = 0;
  for (const orch::PodRecord* record : cluster.api().all_pods()) {
    ASSERT_TRUE(record->phase == cluster::PodPhase::kSucceeded ||
                record->phase == cluster::PodPhase::kFailed)
        << record->spec.name << " ended " << to_string(record->phase);
    if (record->phase == cluster::PodPhase::kSucceeded) {
      ++succeeded;
      continue;
    }
    if (record->failure_reason == "EpcLimitExceeded") {
      ++limit_killed;
    } else if (record->failure_reason == "NodeFailure") {
      ++node_failures;
    } else {
      FAIL() << record->spec.name << " failed with unexpected reason '"
             << record->failure_reason << "'";
    }
  }
  // 8 over-allocating SGX-designated jobs at 60 % → some die; both
  // squatters always die.
  EXPECT_GE(limit_killed, 2u);
  // Everything the node failure killed was resubmitted and finished.
  for (const orch::PodRecord* record : cluster.api().all_pods()) {
    if (record->failure_reason != "NodeFailure") continue;
    const std::string retry = restarter.retry_of(record->spec.name);
    ASSERT_FALSE(retry.empty()) << record->spec.name;
    EXPECT_EQ(cluster.api().pod(retry).phase,
              cluster::PodPhase::kSucceeded)
        << retry;
  }
  EXPECT_GT(succeeded, 100u);
  // The EPC ends clean on every SGX node.
  for (cluster::Node* node : cluster.nodes()) {
    if (!node->has_sgx()) continue;
    EXPECT_EQ(node->driver()->free_epc_pages(),
              node->driver()->total_epc_pages())
        << node->name();
  }
}

}  // namespace
}  // namespace sgxo::exp
