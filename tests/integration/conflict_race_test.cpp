// Conflict-race property test: four *active* shared-state scheduler
// replicas (work stealing on) race over contended pods on a
// cluster whose single SGX worker has EPC for exactly one pod at a time.
// Across 500 seeded scenarios with shuffled submission order and varied
// durations/periods, every contended pod must be placed exactly once —
// one "Scheduled to" event per pod, never a double placement — and a
// latecomer holding the pod's original resource_version must get a clean
// conflict outcome, not a second bind. Every 50th seed runs twice and
// must produce a bit-identical event log.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "orch/api_server.hpp"
#include "orch/default_scheduler.hpp"

namespace sgxo::orch {
namespace {

using namespace sgxo::literals;

/// The worker's EPC fits exactly one contended pod.
constexpr Pages kSlot{512};

cluster::MachineSpec machine(const std::string& name,
                             std::optional<Pages> epc = std::nullopt,
                             bool master = false) {
  cluster::MachineSpec spec;
  spec.name = name;
  spec.cpu_cores = 16;
  spec.memory = 64_GiB;
  if (epc.has_value()) spec.epc = sgx::EpcConfig::with_usable(epc->as_bytes());
  spec.is_master = master;
  return spec;
}

cluster::PodSpec contended_pod(const std::string& name, Duration duration) {
  cluster::PodBehavior behavior;
  behavior.sgx = true;
  behavior.actual_usage = kSlot.as_bytes();
  behavior.duration = duration;
  return cluster::make_stressor_pod(name, {0_B, kSlot}, {0_B, kSlot},
                                    behavior);
}

/// Runs one seeded race to quiescence, asserts the placement properties,
/// and returns the serialized event log for determinism comparisons.
std::vector<std::string> run_race(std::uint64_t seed) {
  Rng rng{seed};

  sim::Simulation sim;
  ApiServer api{sim};
  sgx::PerfModel perf;
  cluster::ImageRegistry registry;
  cluster::Node worker{machine("sgx-1", kSlot)};
  cluster::Node master{machine("master", std::nullopt, /*master=*/true)};
  cluster::Kubelet kubelet_w{sim, worker, perf, registry, api};
  cluster::Kubelet kubelet_m{sim, master, perf, registry, api};
  api.register_node(worker, kubelet_w);
  api.register_node(master, kubelet_m);

  // Four always-active replicas with staggered periods, one per shard.
  std::vector<std::unique_ptr<DefaultScheduler>> fleet;
  for (std::uint32_t i = 0; i < 4; ++i) {
    fleet.push_back(std::make_unique<DefaultScheduler>(
        sim, api, Duration::seconds(2 + (seed + i) % 4),
        "replica-" + std::to_string(i)));
    SharedStateConfig config;
    config.shard = i;
    config.shard_count = 4;
    fleet.back()->enable_shared_state(config);
    fleet.back()->start();
  }

  // Contended pods, submitted in a seed-shuffled order with seed-varied
  // runtimes. Only one can hold the EPC at any instant, so the fleet
  // must serialize them without ever double-placing one.
  const std::size_t count = 4 + static_cast<std::size_t>(seed % 4);
  std::vector<std::string> names;
  for (std::size_t i = 0; i < count; ++i) {
    names.push_back("contended-" + std::to_string(i));
  }
  for (std::size_t i = names.size(); i > 1; --i) {
    std::swap(names[i - 1], names[static_cast<std::size_t>(rng.uniform_int(
                                0, static_cast<std::int64_t>(i) - 1))]);
  }
  std::vector<std::uint64_t> submit_versions;
  for (const std::string& name : names) {
    api.submit(contended_pod(
        name, Duration::minutes(1 + rng.uniform_int(0, 3))));
    submit_versions.push_back(api.pod(name).resource_version);
  }

  sim.run_until(sim.now() + Duration::hours(1));

  std::uint64_t fleet_bound = 0;
  std::uint64_t fleet_batches = 0;
  for (const auto& replica : fleet) {
    const Scheduler::Health health = replica->health();
    EXPECT_TRUE(health.shared_state) << "seed " << seed;
    fleet_bound += health.bound;
    fleet_batches += health.batches;
  }
  EXPECT_EQ(fleet_bound, count) << "seed " << seed;
  EXPECT_GT(fleet_batches, 0u) << "seed " << seed;

  for (std::size_t i = 0; i < names.size(); ++i) {
    const std::string& name = names[i];
    EXPECT_EQ(api.pod(name).phase, cluster::PodPhase::kSucceeded)
        << "seed " << seed << " pod " << name;
    std::size_t scheduled_events = 0;
    for (const Event& event : api.events()) {
      if (event.pod == name &&
          event.message.rfind("Scheduled to", 0) == 0) {
        ++scheduled_events;
      }
    }
    // The core property: exactly one kBound ever happened per pod.
    EXPECT_EQ(scheduled_events, 1u) << "seed " << seed << " pod " << name;
    // A latecomer replaying the original version gets a clean conflict —
    // never a second placement.
    const ApiServer::BindOutcome stale =
        api.try_bind(name, "sgx-1", submit_versions[i]);
    EXPECT_FALSE(stale.bound()) << "seed " << seed << " pod " << name;
    EXPECT_EQ(stale, ApiServer::BindStatus::kNotPending)
        << "seed " << seed << " pod " << name;
  }

  std::vector<std::string> log;
  for (const Event& event : api.events()) {
    std::ostringstream line;
    line << event.time << '|' << event.pod << '|' << event.message;
    log.push_back(line.str());
  }
  return log;
}

void run_shard(std::uint64_t first_seed, std::uint64_t last_seed) {
  for (std::uint64_t seed = first_seed; seed <= last_seed; ++seed) {
    const std::vector<std::string> log = run_race(seed);
    if (seed % 50 == 0) {
      EXPECT_EQ(log, run_race(seed))
          << "seed " << seed << " is not deterministic";
    }
  }
}

TEST(ConflictRace, Seeds001To125) { run_shard(1, 125); }
TEST(ConflictRace, Seeds126To250) { run_shard(126, 250); }
TEST(ConflictRace, Seeds251To375) { run_shard(251, 375); }
TEST(ConflictRace, Seeds376To500) { run_shard(376, 500); }

}  // namespace
}  // namespace sgxo::orch
