// Microbenchmark of attestation-gated admission: bind throughput and
// admission latency with the verdict cache warm (default 5-minute TTL)
// versus defeated (every scheduling cycle ends in a forced re-attestation
// storm, so no verdict ever survives to the next cycle — the worst case
// the chaos suite drills).
//
// The verifier is modelled as a serial server in *virtual* time: a
// QuoteTransport decorator queues requests at 10 ms of service each on
// top of the 50 ms network round-trip. With the cache warm the whole run
// costs one verification per node; with the cache defeated every cycle
// re-verifies the fleet, the queue keeps a tail of nodes mid-flight at
// each bind cycle, and binds to those nodes defer a full cycle. All
// metrics are virtual-time, so both modes are bit-deterministic; wall
// clock is reported for flavour only.
//
// The driver plays a plain FCFS scheduler: every 100 ms cycle it takes
// the head of the pending queue (up to `batch` pods) and round-robins the
// pods over the SGX nodes with one try_bind each, retrying deferred pods
// the next cycle — ~1k pods churning through an 8-node fleet.
//
// Writes BENCH_attest.json (or BENCH_attest_smoke.json with --smoke).
// The regression guard is default-on in both modes: it re-parses the
// emitted file and fails unless caching strictly cut both the verification
// count and the mean admission latency.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "common/table.hpp"
#include "orch/api_server.hpp"

namespace {

using namespace sgxo;
using namespace sgxo::literals;
using orch::ApiServer;
using orch::AttestationGate;

struct BenchConfig {
  std::size_t pods = 1000;
  std::size_t nodes = 8;
  std::size_t batch = 128;      // bind attempts per cycle
  Duration cycle = Duration::millis(100);
  bool smoke = false;
};

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Serial-server queue in front of the reference verifier: each request
/// waits for the server to drain, then pays its service time plus the
/// network round-trip. Turns verification volume into latency, which is
/// what the verdict cache exists to absorb.
class QueuedVerifier final : public sgx::QuoteTransport {
 public:
  QueuedVerifier(sim::Simulation& sim, sgx::AttestationVerifier& inner,
                 Duration service)
      : sim_(&sim), inner_(&inner), service_(service) {}

  [[nodiscard]] sgx::QuoteVerdict verify(const sgx::Quote& quote) override {
    sgx::QuoteVerdict verdict = inner_->verify(quote);
    const TimePoint now = sim_->now();
    const TimePoint start = busy_until_ > now ? busy_until_ : now;
    busy_until_ = start + service_;
    verdict.latency = (start - now) + service_ + verdict.latency;
    return verdict;
  }

 private:
  sim::Simulation* sim_;
  sgx::AttestationVerifier* inner_;
  Duration service_;
  TimePoint busy_until_ = TimePoint::epoch();
};

cluster::MachineSpec machine(const std::string& name, Pages epc) {
  cluster::MachineSpec spec;
  spec.name = name;
  spec.cpu_cores = 8;
  spec.memory = 64_GiB;
  spec.epc = sgx::EpcConfig::with_usable(epc.as_bytes());
  return spec;
}

cluster::PodSpec sgx_pod(const std::string& name) {
  cluster::PodBehavior behavior;
  behavior.sgx = true;
  behavior.actual_usage = Pages{10}.as_bytes();
  behavior.duration = Duration::hours(2);  // outlives the measured window
  return cluster::make_stressor_pod(name, {0_B, Pages{10}}, {0_B, Pages{10}},
                                    behavior);
}

struct ModeResult {
  std::string mode;
  std::size_t pods = 0;
  std::size_t cycles = 0;
  double makespan_ms = 0.0;        // virtual: submit of the fleet → last bind
  double mean_admission_ms = 0.0;  // virtual: per-pod submit → bound
  double p99_admission_ms = 0.0;
  std::uint64_t verifications = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t storms = 0;
  double wall_ms = 0.0;  // host wall clock, informational only

  [[nodiscard]] double binds_per_sec() const {
    return makespan_ms > 0.0
               ? static_cast<double>(pods) / (makespan_ms / 1e3)
               : 0.0;
  }
};

/// One full churn run. `cache` keeps the default 5-minute verdict TTL;
/// otherwise every cycle ends in force_expire_all(), so the next cycle
/// never sees a surviving verdict.
ModeResult run_mode(const std::string& mode, bool cache,
                    const BenchConfig& config) {
  sim::Simulation sim;
  ApiServer api(sim);
  sgx::PerfModel perf;
  cluster::ImageRegistry registry;
  sgx::AttestationVerifier verifier;
  const sgx::Measurement expected = sgx::measure_enclave("attested-stressor");
  verifier.set_expected(expected);

  std::vector<std::unique_ptr<cluster::Node>> nodes;
  std::vector<std::unique_ptr<cluster::Kubelet>> kubelets;
  std::vector<sgx::Platform> platforms;
  std::vector<std::string> node_names;
  for (std::size_t i = 0; i < config.nodes; ++i) {
    node_names.push_back("sgx-" + std::to_string(i));
    nodes.push_back(std::make_unique<cluster::Node>(
        machine(node_names.back(), Pages{2000})));
    kubelets.push_back(std::make_unique<cluster::Kubelet>(
        sim, *nodes.back(), perf, registry, api));
    api.register_node(*nodes.back(), *kubelets.back());
    platforms.push_back(sgx::Platform::for_node(node_names.back()));
    verifier.provision(platforms.back());
  }

  QueuedVerifier queued(sim, verifier, Duration::millis(10));
  AttestationGate::Config gate_config;
  gate_config.evict_on_expiry = false;  // cache economics, not churn
  api.enable_attestation(
      queued,
      [&](const cluster::NodeName& node) {
        for (std::size_t i = 0; i < node_names.size(); ++i) {
          if (node_names[i] == node) {
            return sgx::QuotingEnclave{platforms[i]}.quote(expected,
                                                           fnv1a(node));
          }
        }
        return sgx::QuotingEnclave{platforms[0]}.quote(expected, fnv1a(node));
      },
      gate_config);

  for (std::size_t p = 0; p < config.pods; ++p) {
    api.submit(sgx_pod("pod-" + std::to_string(p)));
  }

  ModeResult result;
  result.mode = mode;
  result.pods = config.pods;
  std::vector<double> latencies_ms;
  latencies_ms.reserve(config.pods);
  AttestationGate& gate = *api.attestation();

  const double wall_start = now_us();
  std::size_t bound = 0;
  const std::size_t cycle_cap = 10000;
  while (bound < config.pods && result.cycles < cycle_cap) {
    orch::PodFilter filter;
    filter.phase = cluster::PodPhase::kPending;
    filter.scheduler = api.default_scheduler();
    const std::vector<const orch::PodRecord*> pending = api.list_pods(filter);
    const std::size_t take = std::min(pending.size(), config.batch);
    const double cycle_ms = sim.now().since_epoch().as_millis();
    for (std::size_t i = 0; i < take; ++i) {
      // Rotate the round-robin start each cycle so a deferred pod does
      // not re-target the same still-verifying node forever.
      const std::string& node =
          node_names[(i + result.cycles) % node_names.size()];
      if (api.try_bind(pending[i]->spec.name, node,
                       pending[i]->resource_version)
              .bound()) {
        latencies_ms.push_back(cycle_ms);
        ++bound;
      }
    }
    if (!cache) gate.force_expire_all();
    sim.run_until(sim.now() + config.cycle);
    ++result.cycles;
  }
  result.wall_ms = (now_us() - wall_start) / 1e3;

  if (bound < config.pods) {
    std::cerr << "error: " << mode << " bound only " << bound << "/"
              << config.pods << " pods in " << result.cycles << " cycles\n";
    std::exit(1);
  }
  std::sort(latencies_ms.begin(), latencies_ms.end());
  result.makespan_ms = latencies_ms.back();
  double sum = 0.0;
  for (const double ms : latencies_ms) sum += ms;
  result.mean_admission_ms = sum / static_cast<double>(latencies_ms.size());
  result.p99_admission_ms = latencies_ms[std::min(
      latencies_ms.size() - 1, (latencies_ms.size() * 99) / 100)];
  result.verifications = gate.verifications();
  result.cache_hits = gate.hits();
  result.storms = gate.storms();
  return result;
}

void write_json(const std::string& path, const BenchConfig& config,
                const std::vector<ModeResult>& modes) {
  std::ofstream out(path);
  out << "{\n  \"benchmark\": \"micro_attest\",\n"
      << "  \"metric\": \"attestation-gated bind throughput, verdict cache "
         "on vs off (virtual time)\",\n"
      << "  \"pods\": " << config.pods << ",\n"
      << "  \"nodes\": " << config.nodes << ",\n"
      << "  \"modes\": [\n";
  for (std::size_t i = 0; i < modes.size(); ++i) {
    const ModeResult& r = modes[i];
    out << "    {\"mode\": \"" << r.mode << "\", \"pods\": " << r.pods
        << ", \"cycles\": " << r.cycles
        << ", \"makespan_ms\": " << r.makespan_ms
        << ", \"binds_per_sec\": " << r.binds_per_sec()
        << ", \"mean_admission_ms\": " << r.mean_admission_ms
        << ", \"p99_admission_ms\": " << r.p99_admission_ms
        << ", \"verifications\": " << r.verifications
        << ", \"cache_hits\": " << r.cache_hits
        << ", \"storms\": " << r.storms << ", \"wall_ms\": " << r.wall_ms
        << "}" << (i + 1 < modes.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

/// Line-based re-parse of the emitted JSON (the regression guard checks
/// the artifact, not the in-memory numbers it just computed).
double field_from_json(const std::string& path, const std::string& mode,
                       const std::string& field) {
  std::ifstream in(path);
  std::string line;
  const std::string mode_needle = "\"mode\": \"" + mode + "\"";
  const std::string key = "\"" + field + "\": ";
  while (std::getline(in, line)) {
    if (line.find(mode_needle) == std::string::npos) continue;
    const std::size_t pos = line.find(key);
    if (pos == std::string::npos) continue;
    return std::stod(line.substr(pos + key.size()));
  }
  return -1.0;
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig config;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") {
      config.smoke = true;
      config.pods = 200;
      config.batch = 64;
    }
  }

  std::vector<ModeResult> modes;
  modes.push_back(run_mode("cache_on", true, config));
  modes.push_back(run_mode("cache_off", false, config));

  Table table({"mode", "pods", "cycles", "makespan [ms]", "binds/s",
               "mean adm [ms]", "p99 adm [ms]", "verifications", "hits"});
  for (const ModeResult& r : modes) {
    table.add_row({r.mode, std::to_string(r.pods), std::to_string(r.cycles),
                   fmt_double(r.makespan_ms, 1),
                   fmt_double(r.binds_per_sec(), 1),
                   fmt_double(r.mean_admission_ms, 1),
                   fmt_double(r.p99_admission_ms, 1),
                   std::to_string(r.verifications),
                   std::to_string(r.cache_hits)});
  }
  table.print(std::cout);
  if (modes[1].makespan_ms > 0.0) {
    std::cout << "\ncache-on vs cache-off admission p99: "
              << fmt_double(modes[0].p99_admission_ms, 1) << " ms vs "
              << fmt_double(modes[1].p99_admission_ms, 1) << " ms\n";
  }

  const std::string path =
      config.smoke ? "BENCH_attest_smoke.json" : "BENCH_attest.json";
  write_json(path, config, modes);
  std::cout << "wrote " << path << "\n";

  // Regression guard (default-on), on what the cache changes: it must
  // absorb verification traffic and, with it, shorten admission. Both
  // comparisons are strict; bind throughput is quantised by the 100 ms
  // cycle and can tie, so it is not guarded.
  const double on_verifs = field_from_json(path, "cache_on", "verifications");
  const double off_verifs = field_from_json(path, "cache_off", "verifications");
  const double on_adm = field_from_json(path, "cache_on", "mean_admission_ms");
  const double off_adm =
      field_from_json(path, "cache_off", "mean_admission_ms");
  std::cout << "guard: verifications cache-on=" << on_verifs
            << " cache-off=" << off_verifs
            << " mean admission [ms] cache-on=" << on_adm
            << " cache-off=" << off_adm << "\n";
  if (on_verifs <= 0.0 || off_verifs <= 0.0 || on_adm <= 0.0 ||
      off_adm <= 0.0) {
    std::cerr << "guard: missing datapoints in " << path << "\n";
    return 1;
  }
  if (on_verifs >= off_verifs) {
    std::cerr << "guard: the cache did not cut verification traffic\n";
    return 1;
  }
  if (on_adm >= off_adm) {
    std::cerr << "guard: cache-on mean admission latency is not below the "
                 "cache-off baseline\n";
    return 1;
  }
  return 0;
}
