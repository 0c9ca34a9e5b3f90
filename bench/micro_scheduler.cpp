// Microbenchmark of scheduler decision latency: the measured wall time of
// one full scheduling cycle (view collection through the live metrics
// pipeline + FCFS placement over the pending queue) for both placement
// policies, as the pending queue grows into the thousands.
//
// Besides the human-readable table it writes BENCH_scheduler.json
// (per-cycle latency vs pod count) so the perf trajectory of the hot path
// is tracked across changes.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "exp/fixture.hpp"

namespace {

using namespace sgxo;
using namespace sgxo::literals;

cluster::PodSpec pending_pod(int i, bool sgx) {
  cluster::PodBehavior behavior;
  behavior.sgx = sgx;
  behavior.actual_usage = sgx ? Bytes{4_MiB} : Bytes{2_GiB};
  behavior.duration = Duration::hours(2);
  cluster::ResourceAmounts request;
  if (sgx) {
    request.epc_pages = Pages{1024};
  } else {
    request.memory = 2_GiB;
  }
  return cluster::make_stressor_pod(
      (sgx ? "sgx-" : "std-") + std::to_string(i), request, request,
      behavior);
}

struct Measurement {
  std::string policy;
  int pods = 0;
  std::size_t pending_at_measure = 0;
  std::vector<double> cycle_us;  // sorted after collection

  [[nodiscard]] double mean() const {
    double sum = 0.0;
    for (const double v : cycle_us) sum += v;
    return cycle_us.empty() ? 0.0 : sum / static_cast<double>(cycle_us.size());
  }
  [[nodiscard]] double min() const { return cycle_us.front(); }
  [[nodiscard]] double max() const { return cycle_us.back(); }
  [[nodiscard]] double median() const {
    return cycle_us[cycle_us.size() / 2];
  }
};

Measurement run_cycle_bench(core::PlacementPolicy policy, int pods,
                            int cycles) {
  exp::SimulatedCluster cluster;
  auto& scheduler = cluster.add_sgx_scheduler(policy);
  scheduler.stop();  // drive cycles manually
  cluster.api().set_default_scheduler(scheduler.name());
  cluster.start_monitoring();
  // A saturated queue: capacity-sized requests keep most pods pending, so
  // each timed cycle filters the full queue.
  for (int i = 0; i < pods; ++i) {
    cluster.api().submit(pending_pod(i, i % 2 == 0));
  }
  cluster.sim().run_until(TimePoint::epoch() + Duration::seconds(30));

  // Warmup: the first cycles bind whatever fits; afterwards the pending
  // count is stable and every timed cycle does the same work.
  (void)scheduler.run_once();
  (void)scheduler.run_once();

  Measurement m;
  m.policy = core::to_string(policy);
  m.pods = pods;
  orch::PodFilter pending;
  pending.phase = cluster::PodPhase::kPending;
  pending.scheduler = scheduler.name();
  m.pending_at_measure = cluster.api().list_pods(pending).size();
  m.cycle_us.reserve(static_cast<std::size_t>(cycles));
  for (int c = 0; c < cycles; ++c) {
    const auto start = std::chrono::steady_clock::now();
    const std::size_t bound = scheduler.run_once();
    const auto stop = std::chrono::steady_clock::now();
    if (bound != 0) std::cerr << "warning: queue not saturated\n";
    m.cycle_us.push_back(
        std::chrono::duration<double, std::micro>(stop - start).count());
  }
  std::sort(m.cycle_us.begin(), m.cycle_us.end());
  return m;
}

void write_json(const std::vector<Measurement>& results,
                const std::string& path) {
  std::ofstream out(path);
  out << "{\n  \"benchmark\": \"micro_scheduler\",\n"
      << "  \"metric\": \"scheduling cycle latency\",\n"
      << "  \"unit\": \"microseconds\",\n  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Measurement& m = results[i];
    out << "    {\"policy\": \"" << m.policy << "\", \"pods\": " << m.pods
        << ", \"pending_at_measure\": " << m.pending_at_measure
        << ", \"cycles\": " << m.cycle_us.size()
        << ", \"mean_us\": " << m.mean() << ", \"median_us\": " << m.median()
        << ", \"min_us\": " << m.min() << ", \"max_us\": " << m.max() << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main() {
  constexpr int kPodCounts[] = {64, 256, 1024, 5120};
  constexpr int kCycles = 15;

  std::vector<Measurement> results;
  for (const core::PlacementPolicy policy :
       {core::PlacementPolicy::kBinpack, core::PlacementPolicy::kSpread}) {
    for (const int pods : kPodCounts) {
      results.push_back(run_cycle_bench(policy, pods, kCycles));
    }
  }

  Table table({"policy", "pods", "pending", "mean [us]", "median [us]",
               "min [us]"});
  for (const Measurement& m : results) {
    table.add_row({m.policy, std::to_string(m.pods),
                   std::to_string(m.pending_at_measure),
                   fmt_double(m.mean(), 1), fmt_double(m.median(), 1),
                   fmt_double(m.min(), 1)});
  }
  table.print(std::cout);

  write_json(results, "BENCH_scheduler.json");
  std::cout << "\nwrote BENCH_scheduler.json\n";
  return 0;
}
