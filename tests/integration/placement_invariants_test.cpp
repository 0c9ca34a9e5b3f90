// Live placement invariants, checked *during* a replay by a probe event
// that runs every scheduling period, parameterised over policy and seed:
//
//   * the scheduler never over-commits the EPC — with honest workloads and
//     enforcement on, committed pages never exceed the EPC on any node;
//   * device-plugin accounting never exceeds the advertised pages;
//   * SGX pods only ever run on SGX nodes;
//   * every running pod's node matches the API server's record.
#include <gtest/gtest.h>

#include <ostream>

#include "core/sgx_scheduler.hpp"
#include "exp/fixture.hpp"
#include "trace/generator.hpp"
#include "trace/replayer.hpp"
#include "trace/sgx_mix.hpp"
#include "workload/stressor.hpp"

namespace sgxo::exp {
namespace {

struct Params {
  core::PlacementPolicy policy;
  std::uint64_t seed;

  // gtest prints the parameter into each case's ctest name; without a
  // printer it dumps the struct's bytes, indeterminate padding included.
  friend void PrintTo(const Params& p, std::ostream* os) {
    *os << '{' << core::to_string(p.policy) << ", " << p.seed << '}';
  }
};

class PlacementInvariants : public ::testing::TestWithParam<Params> {};

TEST_P(PlacementInvariants, HoldThroughoutReplay) {
  trace::BorgTraceConfig trace_config;
  trace_config.seed = GetParam().seed;
  trace_config.slice_jobs = 80;
  trace_config.over_allocating_jobs = 5;
  trace_config.slice_end =
      trace_config.slice_start + Duration::seconds(600);
  trace::BorgTraceGenerator generator{trace_config};
  std::vector<trace::TraceJob> jobs = generator.evaluation_slice();
  Rng rng{GetParam().seed};
  trace::designate_sgx(jobs, 1.0, rng);  // all SGX: maximal EPC pressure

  SimulatedCluster cluster;
  auto& scheduler = cluster.add_sgx_scheduler(GetParam().policy);
  cluster.api().set_default_scheduler(scheduler.name());
  cluster.start_monitoring();

  trace::Replayer replayer{cluster.sim(), cluster.api(),
                           [](const trace::TraceJob& job, std::size_t) {
                             return workload::stressor_pod(job, {});
                           }};
  replayer.schedule(jobs);

  std::size_t checks = 0;
  cluster.sim().schedule_every(
      Duration::seconds(5), Duration::seconds(5), [&] {
        ++checks;
        for (cluster::Node* node : cluster.nodes()) {
          if (node->has_sgx()) {
            const sgx::Driver& driver = *node->driver();
            // No EPC over-commitment, ever (§V-A).
            ASSERT_LE(driver.epc().committed_pages().count(),
                      driver.total_epc_pages().count())
                << "EPC over-committed on " << node->name();
            // Device accounting within the advertisement.
            ASSERT_LE(node->device_allocator().allocated().count(),
                      node->device_allocator().advertised().count());
          }
          // Placement record consistency + hardware compatibility.
          const auto* entry = cluster.api().find_node(node->name());
          entry->kubelet->for_each_active_pod(
              [&](const cluster::PodName& pod, const auto& /*containers*/) {
                const orch::PodRecord& record = cluster.api().pod(pod);
                ASSERT_EQ(record.node, node->name()) << pod;
                if (record.spec.wants_sgx()) {
                  ASSERT_TRUE(node->has_sgx()) << pod;
                }
              });
        }
      });

  cluster.sim().run_until(TimePoint::epoch() + Duration::hours(4));
  cluster.stop_all();
  EXPECT_GT(checks, 100u);

  // The replay must have actually finished (no deadlock).
  for (const orch::PodRecord* record : cluster.api().all_pods()) {
    const auto phase = record->phase;
    EXPECT_TRUE(phase == cluster::PodPhase::kSucceeded ||
                phase == cluster::PodPhase::kFailed)
        << record->spec.name << " is " << to_string(phase);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PolicySeedSweep, PlacementInvariants,
    ::testing::Values(Params{core::PlacementPolicy::kBinpack, 11},
                      Params{core::PlacementPolicy::kBinpack, 23},
                      Params{core::PlacementPolicy::kSpread, 11},
                      Params{core::PlacementPolicy::kSpread, 23}),
    [](const ::testing::TestParamInfo<Params>& info) {
      return std::string(core::to_string(info.param.policy)) + "_seed" +
             std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace sgxo::exp
