// Shared-state (Omega-style) scheduler framework tests: stable shard
// assignment, shard-filtered limited pulls, work stealing, the
// conflict-rate congestion controller, and the crash-stop / restart model
// of a fleet replica (siblings steal a crashed replica's shard; a
// restarted replica keeps no state from its previous life).
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/error.hpp"
#include "core/sgx_scheduler.hpp"
#include "exp/fixture.hpp"
#include "orch/api_server.hpp"
#include "orch/default_scheduler.hpp"
#include "pod_names.hpp"

namespace sgxo::orch {
namespace {

using namespace sgxo::literals;

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

cluster::PodSpec standard_pod(const std::string& name, Bytes memory = 1_GiB,
                              Duration duration = Duration::hours(1)) {
  cluster::PodBehavior behavior;
  behavior.actual_usage = memory;
  behavior.duration = duration;
  return cluster::make_stressor_pod(name, {memory, Pages{0}},
                                    {memory, Pages{0}}, behavior);
}

cluster::PodSpec sgx_pod(const std::string& name, Pages pages,
                         Duration duration) {
  cluster::PodBehavior behavior;
  behavior.sgx = true;
  behavior.actual_usage = pages.as_bytes();
  behavior.duration = duration;
  return cluster::make_stressor_pod(name, {0_B, pages}, {0_B, pages},
                                    behavior);
}

TEST(ShardOf, IsAPureFunctionOfTheName) {
  // Stability across calls (and, by construction, across processes): the
  // shard key never depends on iteration order, seeds or registration.
  for (int i = 0; i < 50; ++i) {
    const cluster::PodName pod = "pod-" + std::to_string(i);
    EXPECT_EQ(shard_of(pod, 4), shard_of(pod, 4));
    EXPECT_LT(shard_of(pod, 4), 4u);
    EXPECT_EQ(shard_of(pod, 1), 0u);
  }
  EXPECT_THROW((void)shard_of("p", 0), ContractViolation);
}

/// One standard worker, one master, a DefaultScheduler host.
class SharedStateFixture : public ::testing::Test {
 protected:
  SharedStateFixture()
      : api_(sim_),
        node_(machine("node-1")),
        master_(machine("master", std::nullopt, /*master=*/true)),
        kubelet_(sim_, node_, perf_, registry_, api_),
        kubelet_m_(sim_, master_, perf_, registry_, api_) {
    api_.register_node(node_, kubelet_);
    api_.register_node(master_, kubelet_m_);
  }

  /// The single-shard controller setting the conflict tests drive.
  static SharedStateConfig controller_config() {
    SharedStateConfig config;
    config.shard = 0;
    config.shard_count = 1;
    config.initial_batch = 32;
    config.min_batch = 8;
    config.max_batch = 64;
    config.reshard_after = 2;
    return config;
  }

  /// A rival racing the worker mid-transaction: every time the worker's
  /// batch binds a pod, the watch callback immediately binds the next
  /// pending pod out from under the rest of the batch, so half the
  /// worker's entries come back as conflicts.
  ApiServer::WatchId start_rival() {
    return api_.watch_pods([this](const ApiServer::PodUpdate& update) {
      if (update.phase != cluster::PodPhase::kBound || rival_binding_) return;
      rival_binding_ = true;
      const auto pending = pending_names(api_, api_.default_scheduler());
      if (!pending.empty()) {
        (void)api_.try_bind(pending.front(), "node-1",
                            api_.pod(pending.front()).resource_version);
      }
      rival_binding_ = false;
    });
  }

  sim::Simulation sim_;
  ApiServer api_;
  sgx::PerfModel perf_;
  cluster::ImageRegistry registry_;
  cluster::Node node_;
  cluster::Node master_;
  cluster::Kubelet kubelet_;
  cluster::Kubelet kubelet_m_;
  bool rival_binding_ = false;
};

TEST_F(SharedStateFixture, ShardFilteredPullsPartitionTheQueue) {
  for (int i = 0; i < 40; ++i) {
    api_.submit(standard_pod("pod-" + std::to_string(i)));
  }
  PodFilter filter;
  filter.phase = cluster::PodPhase::kPending;
  filter.scheduler = api_.default_scheduler();
  filter.shard_count = 4;
  std::set<cluster::PodName> seen;
  std::size_t total = 0;
  for (std::uint32_t shard = 0; shard < 4; ++shard) {
    filter.shard = shard;
    for (const PodRecord* record : api_.list_pods(filter)) {
      EXPECT_EQ(shard_of(record->spec.name, 4), shard);
      EXPECT_TRUE(seen.insert(record->spec.name).second)
          << record->spec.name << " appeared in two shards";
      ++total;
    }
  }
  // The shards exactly cover the queue.
  EXPECT_EQ(total, 40u);

  // A limited pull returns the queue-order prefix of the shard.
  filter.shard = 0;
  filter.limit = 3;
  const auto limited = api_.list_pods(filter);
  EXPECT_LE(limited.size(), 3u);
  filter.limit = 0;
  const auto full = api_.list_pods(filter);
  for (std::size_t i = 0; i < limited.size(); ++i) {
    EXPECT_EQ(limited[i], full[i]);
  }
}

TEST_F(SharedStateFixture, SharedStateCycleDrainsOwnShardFirst) {
  DefaultScheduler worker{sim_, api_, Duration::seconds(5), "replica-0"};
  SharedStateConfig config;
  config.shard = 0;
  config.shard_count = 2;
  worker.enable_shared_state(config);
  EXPECT_TRUE(worker.shared_state_enabled());

  for (int i = 0; i < 20; ++i) {
    api_.submit(standard_pod("pod-" + std::to_string(i)));
  }
  std::size_t own_shard = 0;
  for (int i = 0; i < 20; ++i) {
    if (shard_of("pod-" + std::to_string(i), 2) == 0) ++own_shard;
  }
  ASSERT_GT(own_shard, 0u);

  // One cycle binds the whole own shard (the node fits everything), via
  // exactly one batch transaction, without stealing.
  EXPECT_EQ(worker.run_once(), own_shard);
  EXPECT_EQ(worker.batches(), 1u);
  EXPECT_EQ(worker.steal_cycles(), 0u);
  EXPECT_DOUBLE_EQ(worker.last_conflict_rate(), 0.0);

  // The next cycle finds shard 0 dry and steals the neighbour's backlog.
  EXPECT_EQ(worker.run_once(), 20u - own_shard);
  EXPECT_EQ(worker.steal_cycles(), 1u);
  EXPECT_TRUE(pending_names(api_, api_.default_scheduler()).empty());
}

TEST_F(SharedStateFixture, ConflictControllerShrinksRehardsAndRecovers) {
  DefaultScheduler worker{sim_, api_, Duration::seconds(5), "replica-0"};
  worker.enable_shared_state(controller_config());
  EXPECT_EQ(worker.batch_capacity(), 32u);
  const ApiServer::WatchId rival = start_rival();

  for (int i = 0; i < 8; ++i) {
    api_.submit(standard_pod("pod-" + std::to_string(i)));
  }
  // Batch of 8: each worker bind lets the rival steal the next pod, so 4
  // bind and 4 conflict — rate 0.5 > 0.25 → capacity halves.
  EXPECT_EQ(worker.run_once(), 4u);
  EXPECT_EQ(worker.bind_conflicts(), 4u);
  EXPECT_DOUBLE_EQ(worker.last_conflict_rate(), 0.5);
  EXPECT_EQ(worker.batch_capacity(), 16u);
  EXPECT_EQ(worker.reshards(), 0u);

  // A second contended batch reaches reshard_after: the steal origin
  // rotates (a no-op direction with one shard, but the counter records it).
  for (int i = 8; i < 16; ++i) {
    api_.submit(standard_pod("pod-" + std::to_string(i)));
  }
  EXPECT_EQ(worker.run_once(), 4u);
  EXPECT_EQ(worker.batch_capacity(), 8u);
  EXPECT_EQ(worker.reshards(), 1u);

  // With the rival gone a clean batch grows capacity back.
  api_.unwatch(rival);
  for (int i = 16; i < 20; ++i) {
    api_.submit(standard_pod("pod-" + std::to_string(i)));
  }
  EXPECT_EQ(worker.run_once(), 4u);
  EXPECT_DOUBLE_EQ(worker.last_conflict_rate(), 0.0);
  EXPECT_EQ(worker.batch_capacity(), 16u);
}

TEST_F(SharedStateFixture, RestartResetsTheConflictController) {
  DefaultScheduler worker{sim_, api_, Duration::seconds(5), "replica-0"};
  const SharedStateConfig config = controller_config();
  worker.enable_shared_state(config);
  (void)start_rival();

  // One contended batch: capacity halves and the conflict streak is at 1.
  for (int i = 0; i < 8; ++i) {
    api_.submit(standard_pod("pod-" + std::to_string(i)));
  }
  ASSERT_EQ(worker.run_once(), 4u);
  ASSERT_EQ(worker.batch_capacity(), 16u);

  // The restarted incarnation starts from the configured controller
  // state; only the cumulative counters carry over.
  worker.crash();
  worker.restart();
  EXPECT_EQ(worker.batch_capacity(), config.initial_batch);
  EXPECT_EQ(worker.batches(), 1u);
  EXPECT_EQ(worker.bind_conflicts(), 4u);

  // Its conflict streak restarted too: the next contended batch is the
  // first of a new streak, so it shrinks once and does not re-shard.
  for (int i = 8; i < 16; ++i) {
    api_.submit(standard_pod("pod-" + std::to_string(i)));
  }
  EXPECT_EQ(worker.run_once(), 4u);
  EXPECT_EQ(worker.batch_capacity(), 16u);
  EXPECT_EQ(worker.reshards(), 0u);
}

TEST_F(SharedStateFixture, RestartDropsInheritedBindBackoffs) {
  DefaultScheduler worker{sim_, api_, Duration::seconds(5), "replica-0"};
  worker.enable_shared_state(SharedStateConfig{});
  worker.set_bind_backoff(Duration::seconds(60), Duration::minutes(10));

  // A short-lived filler holds 40 of the node's 64 GiB, so the 40 GiB pod
  // fits nowhere and the worker arms a 60 s backoff against it.
  api_.submit(standard_pod("filler", 40_GiB, Duration::seconds(2)));
  ASSERT_TRUE(api_.try_bind("filler", "node-1",
                            api_.pod("filler").resource_version)
                  .bound());
  api_.submit(standard_pod("pod", 40_GiB));
  ASSERT_EQ(worker.run_once(), 0u);

  // The worker crashes; meanwhile the filler finishes and frees the node,
  // well before the 60 s backoff would have elapsed.
  worker.crash();
  sim_.run_until(sim_.now() + Duration::seconds(4));
  ASSERT_EQ(api_.pod("filler").phase, cluster::PodPhase::kSucceeded);

  // The restarted worker binds on its first cycle: the backoff its
  // previous life armed is gone. Were it inherited, this cycle would skip
  // the pod until t=60s.
  worker.restart();
  EXPECT_FALSE(worker.crashed());
  EXPECT_EQ(worker.run_once(), 1u);
  EXPECT_EQ(worker.backoff_skips(), 0u);
  EXPECT_EQ(api_.pod("pod").phase, cluster::PodPhase::kBound);
}

TEST_F(SharedStateFixture, RejectsAShardOutsideTheFleet) {
  DefaultScheduler worker{sim_, api_, Duration::seconds(5), "c"};
  SharedStateConfig bad;
  bad.shard = 3;
  bad.shard_count = 2;
  EXPECT_THROW(worker.enable_shared_state(bad), ContractViolation);
}

TEST_F(SharedStateFixture, HealthReportsSharedStateCounters) {
  DefaultScheduler worker{sim_, api_, Duration::seconds(5), "replica-1"};
  SharedStateConfig config;
  config.shard = 1;
  config.shard_count = 4;
  worker.enable_shared_state(config);
  const Scheduler::Health health = worker.health();
  EXPECT_TRUE(health.shared_state);
  EXPECT_EQ(health.shard, 1u);
  EXPECT_EQ(health.shard_count, 4u);
  EXPECT_EQ(health.batch_capacity, config.initial_batch);
}

// ---- a two-replica SGX fleet on the paper cluster ---------------------------

/// Two always-active SGX-binpack replicas, built by add_shared_state_fleet.
class SharedStateFleetFixture : public ::testing::Test {
 protected:
  SharedStateFleetFixture() {
    fleet_ = cluster_.add_shared_state_fleet(2);
    cluster_.api().set_default_scheduler(fleet_[0]->name());
    cluster_.start_monitoring();
  }
  ~SharedStateFleetFixture() override { cluster_.stop_all(); }

  void run_to(Duration t) {
    cluster_.sim().run_until(TimePoint::epoch() + t);
  }

  /// Pending pods in `shard` of the fleet's queue.
  [[nodiscard]] std::size_t pending_in_shard(std::uint32_t shard) {
    PodFilter filter;
    filter.phase = cluster::PodPhase::kPending;
    filter.scheduler = fleet_[0]->name();
    filter.shard_count = 2;
    filter.shard = shard;
    return cluster_.api().list_pods(filter).size();
  }

  exp::SimulatedCluster cluster_;
  std::vector<core::SgxAwareScheduler*> fleet_;
};

TEST_F(SharedStateFleetFixture, CrashedReplicaBacklogIsStolen) {
  // Eight big pods: one fits per SGX node at a time, so the queue drains
  // two by two and both shards hold a backlog for minutes.
  constexpr int kPods = 8;
  for (int i = 0; i < kPods; ++i) {
    cluster_.api().submit(sgx_pod("p" + std::to_string(i), Pages{15'000},
                                  Duration::seconds(60)));
  }
  run_to(Duration::seconds(12));
  ASSERT_GT(pending_in_shard(0), 0u);

  // Crash-stop replica 0 with its shard still queued. Nobody takes over
  // its role: replica 1 drains its own shard, then steals shard 0.
  fleet_[0]->crash();
  const std::uint64_t bound_at_crash = fleet_[0]->total_bound();
  run_to(Duration::minutes(15));

  EXPECT_EQ(fleet_[0]->total_bound(), bound_at_crash);
  EXPECT_GT(fleet_[1]->steal_cycles(), 0u);
  EXPECT_EQ(fleet_[1]->total_bound(), kPods - bound_at_crash);
  EXPECT_EQ(pending_in_shard(0), 0u);

  // Every pod succeeded exactly once: no retries, one placement each.
  EXPECT_EQ(cluster_.api().pod_count(), static_cast<std::size_t>(kPods));
  std::map<cluster::PodName, int> placements;
  for (const Event& event : cluster_.api().events()) {
    if (event.message.find("Scheduled to") != std::string::npos) {
      ++placements[event.pod];
    }
  }
  for (const PodRecord* record : cluster_.api().all_pods()) {
    EXPECT_EQ(record->phase, cluster::PodPhase::kSucceeded)
        << record->spec.name;
    EXPECT_EQ(placements[record->spec.name], 1) << record->spec.name;
  }
}

TEST_F(SharedStateFleetFixture, RestartedReplicaBindsAgain) {
  run_to(Duration::seconds(12));
  fleet_[0]->crash();
  run_to(Duration::seconds(20));
  fleet_[0]->restart();
  EXPECT_FALSE(fleet_[0]->crashed());

  // Small pods over both shards: each replica drains its own shard, so
  // the restarted replica binds shard 0 on its next cycle.
  for (int i = 0; i < 8; ++i) {
    cluster_.api().submit(sgx_pod("p" + std::to_string(i), Pages{1'000},
                                  Duration::minutes(5)));
  }
  ASSERT_GT(pending_in_shard(0), 0u);
  run_to(Duration::seconds(30));
  EXPECT_GT(fleet_[0]->total_bound(), 0u);
  EXPECT_EQ(pending_in_shard(0), 0u);
}

}  // namespace
}  // namespace sgxo::orch
