// Conflict-race property test: seed-shuffled bind actors race over
// contended pods on a cluster whose single SGX worker has EPC for exactly
// one pod at a time, while the simulator runs. Each actor remembers the
// resource_version it last saw for every pod and, on about half of its
// ticks, replays those stale versions instead of re-reading the queue; an
// evictor now and then sends the running pod back to the queue, so a
// remembered version can be stale while its pod is pending again. Across
// 500 seeds:
//   * every try_bind by a latecomer — a pod that is no longer pending, or
//     a version that is no longer the pod's — gets kNotPending or
//     kStaleVersion (the resource-version CAS);
//   * a fresh bind while another pod holds the slot gets
//     kAdmissionRejected (the kubelet admission guard), and the slot never
//     holds two pods;
//   * each pod gets exactly one "Scheduled to" event per stay in the
//     pending queue, and every pod succeeds.
// Every 50th seed runs twice and must produce a bit-identical event log.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "orch/api_server.hpp"

namespace sgxo::orch {
namespace {

using namespace sgxo::literals;

/// The worker's EPC fits exactly one contended pod.
constexpr Pages kSlot{512};
constexpr std::size_t kActors = 4;

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

/// The pods holding the worker's slot (bound or running there).
std::size_t slot_holders(const ApiServer& api) {
  PodFilter filter;
  filter.node = "sgx-1";
  return api.list_pods(filter).size();
}

void shuffle(std::vector<std::string>& items, Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[static_cast<std::size_t>(rng.uniform_int(
                                0, static_cast<std::int64_t>(i) - 1))]);
  }
}

/// What one seed's race saw, summed over every try_bind call.
struct RaceResult {
  std::vector<std::string> log;  // the event log, for determinism checks
  std::size_t not_pending = 0;
  std::size_t stale = 0;
  std::size_t guard_refusals = 0;
};

/// Runs one seeded race to quiescence and asserts the placement
/// properties.
RaceResult run_race(std::uint64_t seed) {
  Rng rng{seed};
  RaceResult result;

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

  // Contended pods, submitted in a seed-shuffled order with seed-varied
  // runtimes. Only one can hold the EPC at any instant.
  const std::size_t count = 4 + static_cast<std::size_t>(seed % 4);
  std::vector<std::string> names;
  for (std::size_t i = 0; i < count; ++i) {
    names.push_back("contended-" + std::to_string(i));
  }
  shuffle(names, rng);
  std::vector<std::uint64_t> submit_versions;
  for (const std::string& name : names) {
    api.submit(contended_pod(
        name, Duration::minutes(1 + rng.uniform_int(0, 3))));
    submit_versions.push_back(api.pod(name).resource_version);
  }
  const auto all_succeeded = [&] {
    for (const std::string& name : names) {
      if (api.pod(name).phase != cluster::PodPhase::kSucceeded) return false;
    }
    return true;
  };

  // One bind attempt, judged against the pod's live state just before it.
  const auto attempt = [&](const std::string& pod, std::uint64_t version) {
    const PodRecord& live = api.pod(pod);
    const bool latecomer = live.phase != cluster::PodPhase::kPending ||
                           live.resource_version != version;
    const bool slot_taken = slot_holders(api) > 0;
    const ApiServer::BindOutcome outcome = api.try_bind(pod, "sgx-1", version);
    const bool expected =
        latecomer    ? outcome == ApiServer::BindStatus::kNotPending ||
                           outcome == ApiServer::BindStatus::kStaleVersion
        : slot_taken ? outcome == ApiServer::BindStatus::kAdmissionRejected
                     : outcome.bound();
    EXPECT_TRUE(expected) << "seed " << seed << " pod " << pod << " v"
                          << version << (latecomer ? " (latecomer)" : "")
                          << (slot_taken ? " (slot taken)" : "") << ": "
                          << outcome;
    EXPECT_LE(slot_holders(api), 1u)
        << "seed " << seed << ": two pods in the slot";
    if (outcome == ApiServer::BindStatus::kNotPending) ++result.not_pending;
    if (outcome == ApiServer::BindStatus::kStaleVersion) ++result.stale;
    if (outcome == ApiServer::BindStatus::kAdmissionRejected) {
      ++result.guard_refusals;
    }
  };

  // Actors with staggered periods. Each remembers the last version it saw
  // per pod; on a re-read it refreshes the pods still pending and keeps
  // the rest, so it goes on replaying versions that have gone stale.
  struct Actor {
    Rng rng;
    std::map<std::string, std::uint64_t> seen;
  };
  std::vector<Actor> actors;
  for (std::size_t i = 0; i < kActors; ++i) actors.push_back({rng.split(), {}});
  for (std::size_t i = 0; i < kActors; ++i) {
    const Duration period = Duration::seconds(
        2 + static_cast<std::int64_t>((seed + i) % 4));
    sim.schedule_every(period, period, [&, i] {
      if (all_succeeded()) return;
      Actor& actor = actors[i];
      if (actor.seen.empty() || actor.rng.uniform_int(0, 1) == 0) {
        PodFilter pending;
        pending.phase = cluster::PodPhase::kPending;
        for (const PodRecord* record : api.list_pods(pending)) {
          actor.seen[record->spec.name] = record->resource_version;
        }
      }
      std::vector<std::string> order;
      for (const auto& [pod, version] : actor.seen) order.push_back(pod);
      shuffle(order, actor.rng);
      for (const std::string& pod : order) attempt(pod, actor.seen[pod]);
    });
  }

  // The evictor sends the running pod back to the queue, each pod at most
  // once, so the race always ends.
  Rng evict_rng = rng.split();
  const Duration evict_period =
      Duration::seconds(40 + evict_rng.uniform_int(0, 60));
  sim.schedule_every(evict_period, evict_period, [&] {
    PodFilter holders;
    holders.node = "sgx-1";
    for (const PodRecord* record : api.list_pods(holders)) {
      if (record->evictions == 0 && evict_rng.uniform_int(0, 1) == 0) {
        api.evict(record->spec.name, "preempted by the race");
      }
    }
  });

  const TimePoint deadline = sim.now() + Duration::hours(3);
  while (!all_succeeded() && sim.now() < deadline) {
    sim.run_until(sim.now() + Duration::minutes(1));
  }

  for (std::size_t i = 0; i < names.size(); ++i) {
    const std::string& name = names[i];
    const PodRecord& record = api.pod(name);
    EXPECT_EQ(record.phase, cluster::PodPhase::kSucceeded)
        << "seed " << seed << " pod " << name;
    // The core property: one placement per stay in the pending queue,
    // never a second one for the same stay.
    std::size_t placed = 0;
    bool in_queue = true;
    for (const Event& event : api.events()) {
      if (event.pod != name) continue;
      if (event.message.rfind("Scheduled to", 0) == 0) {
        EXPECT_TRUE(in_queue) << "seed " << seed << " pod " << name
                              << " placed twice at " << event.time;
        in_queue = false;
        ++placed;
      } else if (event.message.rfind("Evicted", 0) == 0) {
        in_queue = true;
      }
    }
    EXPECT_EQ(placed, 1u + record.evictions)
        << "seed " << seed << " pod " << name;
    // Replaying the submission version after the fact is a clean conflict.
    EXPECT_EQ(api.try_bind(name, "sgx-1", submit_versions[i]),
              ApiServer::BindStatus::kNotPending)
        << "seed " << seed << " pod " << name;
  }
  EXPECT_GT(result.guard_refusals, 0u) << "seed " << seed;

  for (const Event& event : api.events()) {
    std::ostringstream line;
    line << event.time << '|' << event.pod << '|' << event.message;
    result.log.push_back(line.str());
  }
  return result;
}

void run_shard(std::uint64_t first_seed, std::uint64_t last_seed) {
  std::size_t not_pending = 0;
  std::size_t stale = 0;
  for (std::uint64_t seed = first_seed; seed <= last_seed; ++seed) {
    const RaceResult result = run_race(seed);
    not_pending += result.not_pending;
    stale += result.stale;
    if (seed % 50 == 0) {
      EXPECT_EQ(result.log, run_race(seed).log)
          << "seed " << seed << " is not deterministic";
    }
  }
  // Both kinds of latecomer occur in every shard.
  EXPECT_GT(not_pending, 0u);
  EXPECT_GT(stale, 0u);
}

TEST(ConflictRace, Seeds001To125) { run_shard(1, 125); }
TEST(ConflictRace, Seeds126To250) { run_shard(126, 250); }
TEST(ConflictRace, Seeds251To375) { run_shard(251, 375); }
TEST(ConflictRace, Seeds376To500) { run_shard(376, 500); }

}  // namespace
}  // namespace sgxo::orch
