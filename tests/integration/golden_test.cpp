// Golden regression pins: the whole system is deterministic (virtual
// time, FIFO tie-breaking, seeded RNG), so headline outputs of the
// default-seed experiments are pinned to exact values. A failure here
// means a behavioural change somewhere in the stack — if it is
// intentional (e.g. a recalibration), update the constants *and* rerun
// the benches so EXPERIMENTS.md stays truthful. The full stdout of every
// figure, ablation and example binary is pinned as a SHA-256 in
// bench/output_pins.txt (the `bench_output_pins` ctest); a change that
// moves one re-pins there with bench/output_pins.cmake's REPIN mode.
#include <gtest/gtest.h>

#include "exp/replay.hpp"
#include "trace/generator.hpp"

namespace sgxo::exp {
namespace {

TEST(Golden, DefaultTraceSlice) {
  const auto jobs = trace::BorgTraceGenerator{}.evaluation_slice();
  ASSERT_EQ(jobs.size(), 663u);
  // First job of the default seed, all fields.
  EXPECT_EQ(jobs[0].id, 648'000u + 1200u);
  EXPECT_EQ(jobs[0].submission.micros_count(), 17'379'589);
  // Aggregate fingerprints.
  std::int64_t total_duration_us = 0;
  double total_usage = 0.0;
  for (const trace::TraceJob& job : jobs) {
    total_duration_us += job.duration.micros_count();
    total_usage += job.max_memory_usage;
  }
  EXPECT_EQ(total_duration_us, 62'814'304'325LL);
  EXPECT_NEAR(total_usage, 60.2453, 1e-3);
}

TEST(Golden, PureSgxReplayHeadlines) {
  ReplayOptions options;
  options.sgx_fraction = 1.0;
  const ReplayResult result = run_replay(options);
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(result.failed_jobs, 44u);
  // The Fig. 8 headline of the default seed (paper: 4696 s).
  double max_wait = 0.0;
  for (const double w : result.waiting_seconds()) {
    max_wait = std::max(max_wait, w);
  }
  EXPECT_NEAR(max_wait, 3735.4, 1.0);
  // The Fig. 7 "128 MiB" makespan (paper: 1 h 22 m).
  EXPECT_NEAR(result.makespan.as_seconds(), 5178.0, 30.0);
}

TEST(Golden, Fig7SmallestEpcMakespan) {
  ReplayOptions options;
  options.sgx_fraction = 1.0;
  options.epc_usable_override = mib(32 * 93.5 / 128.0);
  const ReplayResult result = run_replay(options);
  ASSERT_TRUE(result.completed);
  // Paper: 4 h 47 m; our default seed lands at 4 h 25 m.
  EXPECT_NEAR(result.makespan.as_hours(), 4.42, 0.1);
}

}  // namespace
}  // namespace sgxo::exp
