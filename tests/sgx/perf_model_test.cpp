#include "sgx/perf_model.hpp"

#include <gtest/gtest.h>

#include "sgx/epc.hpp"

namespace sgxo::sgx {
namespace {

using namespace sgxo::literals;

const Bytes kUsable = mib(93.5);

TEST(PerfModel, AllocLatencyLinearBelowLimit) {
  const PerfModel model;
  // 1.6 ms/MiB while inside the usable EPC (Fig. 6).
  EXPECT_NEAR(model.alloc_latency(32_MiB, kUsable).as_millis(), 51.2, 0.01);
  EXPECT_NEAR(model.alloc_latency(64_MiB, kUsable).as_millis(), 102.4, 0.01);
  EXPECT_NEAR(model.alloc_latency(0_B, kUsable).as_millis(), 0.0, 1e-9);
}

TEST(PerfModel, AllocLatencyKneeAtUsableLimit) {
  const PerfModel model;
  const double at_limit = model.alloc_latency(kUsable, kUsable).as_millis();
  EXPECT_NEAR(at_limit, 93.5 * 1.6, 0.01);
  // One byte beyond the limit pays the ~200 ms knee penalty.
  const double just_over =
      model.alloc_latency(kUsable + 1_B, kUsable).as_millis();
  EXPECT_GT(just_over, at_limit + 199.0);
}

TEST(PerfModel, AllocLatencyPagedSlope) {
  const PerfModel model;
  // 128 MiB request: 93.5 in-EPC + 34.5 paged at 4.5 ms/MiB + 200 ms.
  const double expected = 93.5 * 1.6 + 200.0 + (128.0 - 93.5) * 4.5;
  EXPECT_NEAR(model.alloc_latency(128_MiB, kUsable).as_millis(), expected,
              0.1);
}

TEST(PerfModel, SgxStartupAddsPswService) {
  const PerfModel model;
  const Duration startup = model.sgx_startup(32_MiB, kUsable);
  EXPECT_NEAR(startup.as_millis(), 100.0 + 51.2, 0.01);
}

TEST(PerfModel, StandardStartupSubMillisecond) {
  // §VI-D: standard jobs "steadily took less than 1 ms".
  EXPECT_LT(PerfModel::kStandardStartup, Duration::millis(1));
}

TEST(PerfModel, NoSlowdownWithoutOvercommit) {
  const PerfModel model;
  EXPECT_DOUBLE_EQ(model.execution_slowdown(0.0), 1.0);
  EXPECT_DOUBLE_EQ(model.execution_slowdown(0.99), 1.0);
  EXPECT_DOUBLE_EQ(model.execution_slowdown(1.0), 1.0);
}

TEST(PerfModel, SlowdownRampsToThreeOrdersOfMagnitude) {
  const PerfModel model;
  // "performance drops up to 1000×" (§V-A) at 2× over-commitment.
  EXPECT_DOUBLE_EQ(model.execution_slowdown(2.0), 1000.0);
  EXPECT_GT(model.execution_slowdown(1.5), 1.0);
  EXPECT_LT(model.execution_slowdown(1.5), 1000.0);
}

TEST(PerfModel, Figure6MonotoneInRequestSize) {
  const PerfModel model;
  Duration prev{};
  for (int m = 0; m <= 128; m += 8) {
    const Duration lat =
        model.alloc_latency(Bytes{static_cast<std::uint64_t>(m) << 20},
                            kUsable);
    EXPECT_GE(lat, prev);
    prev = lat;
  }
}

}  // namespace
}  // namespace sgxo::sgx
