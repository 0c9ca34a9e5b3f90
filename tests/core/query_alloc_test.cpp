// Heap allocations of the scheduler's per-pod measurement.
//
// Every scheduling cycle that measures runs ClusterMetrics::epc_per_pod
// (Listing 1's inner statement). Host time on a shared machine cannot
// resolve a small change in its cost, but an allocation count is exact:
// this binary replaces the global operator new with one that counts, so it
// is a test binary of its own, and checks that a call allocates barely
// more with 256 pods in the window than with 16. Work per row that
// allocates (a rendered key, a row's tag and field maps) fails it.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "core/metrics_view.hpp"
#include "orch/sgx_probe.hpp"
#include "tsdb/model.hpp"

namespace {

/// operator new calls since the program started; the tests are
/// single-threaded.
std::size_t allocations = 0;

}  // namespace

void* operator new(std::size_t size) {
  ++allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}

void operator delete(void* p) noexcept { std::free(p); }

void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace sgxo::core {
namespace {

TimePoint at(std::int64_t seconds) {
  return TimePoint::epoch() + Duration::seconds(seconds);
}

/// Allocations of one epc_per_pod call on a 4-shard store holding `pods`
/// SGX pods, named as the benchmark workloads name them (`job-<7 digits>`
/// on `sgx-<n>`), each with five samples inside the 25 s window and some
/// older ones before it.
std::size_t epc_per_pod_allocations(int pods) {
  tsdb::Database db{4};
  for (int p = 0; p < pods; ++p) {
    char pod[16];
    std::snprintf(pod, sizeof pod, "job-%07d", 4'000'000 + 37 * p);
    const tsdb::Tags tags{{"pod_name", pod},
                          {"nodename", "sgx-" + std::to_string(p % 24)}};
    for (std::int64_t t = 0; t <= 100; t += 5) {
      db.write(orch::SgxProbe::kEpcMeasurement, tags, at(t),
               static_cast<double>(4096 * (1 + (p + t) % 64)));
    }
  }
  const ClusterMetrics metrics{db, Duration::seconds(25)};
  const std::size_t before = allocations;
  const std::vector<ClusterMetrics::PodUsage> usages =
      metrics.epc_per_pod(at(100));
  const std::size_t after = allocations;
  EXPECT_EQ(usages.size(), static_cast<std::size_t>(pods));
  return after - before;
}

TEST(QueryAllocations, EpcPerPodAllocatesAlmostNothingPerRow) {
  const std::size_t small = epc_per_pod_allocations(16);
  const std::size_t large = epc_per_pod_allocations(256);
  std::printf("epc_per_pod allocations: %zu with 16 pods, %zu with 256\n",
              small, large);
  EXPECT_GT(small, 0u);
  EXPECT_LT(large, small + 64)
      << "epc_per_pod allocates " << small << " times with 16 pods and "
      << large << " with 256";
}

}  // namespace
}  // namespace sgxo::core
