#include <gtest/gtest.h>

#include "common/error.hpp"
#include "trace/generator.hpp"
#include "trace/scaler.hpp"
#include "trace/sgx_mix.hpp"

namespace sgxo::trace {
namespace {

using namespace sgxo::literals;

TraceJob job(double assigned, double used, bool sgx) {
  TraceJob j;
  j.id = 1;
  j.submission = Duration::seconds(10);
  j.duration = Duration::seconds(60);
  j.assigned_memory = assigned;
  j.max_memory_usage = used;
  j.sgx = sgx;
  return j;
}

TEST(Scaler, SgxJobsScaleToUsableEpc) {
  // §VI-B: SGX jobs multiply their fraction by 93.5 MiB.
  const ScaledJob scaled = scale_job(job(0.5, 0.25, true), {});
  EXPECT_EQ(scaled.advertised, Bytes{mib(93.5).count() / 2});
  EXPECT_EQ(scaled.actual, Bytes{mib(93.5).count() / 4});
}

TEST(Scaler, StandardJobsScaleTo32GiB) {
  const ScaledJob scaled = scale_job(job(0.25, 0.125, false), {});
  EXPECT_EQ(scaled.advertised, 8_GiB);
  EXPECT_EQ(scaled.actual, 4_GiB);
}

TEST(Scaler, CustomBases) {
  ScalingConfig config;
  config.sgx_base = 32_MiB;
  config.standard_base = 16_GiB;
  EXPECT_EQ(scale_job(job(1.0, 1.0, true), config).actual, 32_MiB);
  EXPECT_EQ(scale_job(job(0.5, 0.5, false), config).actual, 8_GiB);
}

TEST(Scaler, RejectsNegativeFractions) {
  EXPECT_THROW((void)scale_job(job(-0.1, 0.1, false), {}), ContractViolation);
}

TEST(Scaler, MultiplierRatioMatchesPaper) {
  // The paper notes the multiplier gap is 350× (32 GiB / 93.5 MiB).
  const ScalingConfig config;
  const double ratio = static_cast<double>(config.standard_base.count()) /
                       static_cast<double>(config.sgx_base.count());
  EXPECT_NEAR(ratio, 350.0, 1.0);
}

TEST(SgxMix, DesignatesRequestedFraction) {
  auto jobs = BorgTraceGenerator{}.evaluation_slice();
  Rng rng{7};
  designate_sgx(jobs, 0.25, rng);
  EXPECT_EQ(sgx_count(jobs), static_cast<std::size_t>(0.25 * 663));
}

TEST(SgxMix, ExtremesCoverAllOrNone) {
  auto jobs = BorgTraceGenerator{}.evaluation_slice();
  Rng rng{7};
  designate_sgx(jobs, 0.0, rng);
  EXPECT_EQ(sgx_count(jobs), 0u);
  designate_sgx(jobs, 1.0, rng);
  EXPECT_EQ(sgx_count(jobs), jobs.size());
}

TEST(SgxMix, RedesignationResetsPreviousFlags) {
  auto jobs = BorgTraceGenerator{}.evaluation_slice();
  Rng rng{7};
  designate_sgx(jobs, 1.0, rng);
  designate_sgx(jobs, 0.5, rng);
  EXPECT_EQ(sgx_count(jobs), static_cast<std::size_t>(0.5 * 663));
}

TEST(SgxMix, RejectsOutOfRangeFraction) {
  auto jobs = BorgTraceGenerator{}.evaluation_slice();
  Rng rng{7};
  EXPECT_THROW(designate_sgx(jobs, -0.1, rng), ContractViolation);
  EXPECT_THROW(designate_sgx(jobs, 1.1, rng), ContractViolation);
}

TEST(TraceJob, OverAllocationPredicate) {
  EXPECT_TRUE(job(0.1, 0.2, false).over_allocates());
  EXPECT_FALSE(job(0.2, 0.1, false).over_allocates());
  EXPECT_FALSE(job(0.2, 0.2, false).over_allocates());
}

}  // namespace
}  // namespace sgxo::trace
