// Chaos property harness, part 1: targeted scenarios — one per fault
// kind, each asserting the specific degradation and recovery path — plus
// the determinism regression (same seed + same plan → bit-identical
// traces). The randomized 500-seed sweeps live in chaos_sweep_test.cpp,
// chaos_tsdb_sweep_test.cpp and chaos_attest_sweep_test.cpp (ctest label:
// chaos).
#include <gtest/gtest.h>

#include <string>

#include "chaos_harness.hpp"
#include "common/error.hpp"

namespace sgxo::exp {
namespace {

using namespace sgxo::literals;

cluster::PodSpec sgx_pod(const std::string& name, Pages pages,
                         Duration duration) {
  cluster::PodBehavior behavior;
  behavior.sgx = true;
  behavior.actual_usage = pages.as_bytes();
  behavior.duration = duration;
  return cluster::make_stressor_pod(name, {0_B, pages}, {0_B, pages},
                                    behavior);
}

sim::FaultSpec fault(sim::FaultKind kind, Duration at, Duration duration,
                     std::string target = "") {
  sim::FaultSpec spec;
  spec.kind = kind;
  spec.at = at;
  spec.duration = duration;
  spec.target = std::move(target);
  return spec;
}

/// Two overlapping untargeted faults of `kind`: a 10 s delay during
/// [10 s, 70 s] and a 25 s one during [30 s, 5:30].
sim::FaultPlan overlapping_delays(sim::FaultKind kind) {
  sim::FaultPlan plan;
  sim::FaultSpec first =
      fault(kind, Duration::seconds(10), Duration::minutes(1));
  first.delay = Duration::seconds(10);
  plan.faults.push_back(first);
  sim::FaultSpec second =
      fault(kind, Duration::seconds(30), Duration::minutes(5));
  second.delay = Duration::seconds(25);
  plan.faults.push_back(second);
  return plan;
}

/// A cluster with the standard control plane and fault wiring. A test
/// that needs live samples submits a long-running SGX pod itself.
class ChaosFixture : public ::testing::Test {
 protected:
  explicit ChaosFixture(ClusterConfig config = {})
      : cluster_(std::move(config)), injector_(cluster_.sim()) {
    scheduler_ = &cluster_.add_sgx_scheduler(core::PlacementPolicy::kBinpack);
    cluster_.api().set_default_scheduler(scheduler_->name());
    cluster_.start_monitoring();
    restarter_ =
        std::make_unique<orch::PodRestarter>(cluster_.sim(), cluster_.api());
    restarter_->start();
    cluster_.install_fault_handlers(injector_, restarter_.get());
  }

  ~ChaosFixture() override {
    restarter_->stop();
    cluster_.stop_all();
  }

  void run_to(Duration t) {
    cluster_.sim().run_until(TimePoint::epoch() + t);
  }

  SimulatedCluster cluster_;
  sim::FaultInjector injector_;
  core::SgxAwareScheduler* scheduler_ = nullptr;
  std::unique_ptr<orch::PodRestarter> restarter_;
};

TEST_F(ChaosFixture, NodeCrashFaultKillsPodsAndRebootHeals) {
  cluster_.api().submit(sgx_pod("victim", Pages{1000}, Duration::hours(2)));
  run_to(Duration::seconds(30));
  const cluster::NodeName node = cluster_.api().pod("victim").node;
  ASSERT_FALSE(node.empty());

  sim::FaultPlan plan;
  plan.faults.push_back(fault(sim::FaultKind::kNodeCrash,
                               Duration::seconds(30), Duration::minutes(2), node));
  injector_.arm(plan);

  run_to(Duration::seconds(90));
  EXPECT_TRUE(injector_.active(sim::FaultKind::kNodeCrash, node));
  EXPECT_FALSE(cluster_.find_node(node)->ready());
  EXPECT_EQ(cluster_.api().pod("victim").phase, cluster::PodPhase::kFailed);
  EXPECT_EQ(cluster_.api().pod("victim").failure_reason, "NodeFailure");

  run_to(Duration::minutes(10));
  EXPECT_FALSE(injector_.active(sim::FaultKind::kNodeCrash, node));
  EXPECT_TRUE(cluster_.find_node(node)->ready());
  // The watch-driven restarter resubmitted the victim; the retry runs.
  const std::string retry = restarter_->retry_of("victim");
  ASSERT_FALSE(retry.empty());
  EXPECT_EQ(cluster_.api().pod(retry).phase, cluster::PodPhase::kRunning);
}

TEST_F(ChaosFixture, OverlappingCrashesHealOnlyAfterTheLastEnds) {
  sim::FaultPlan plan;
  plan.faults.push_back(fault(sim::FaultKind::kNodeCrash,
                               Duration::seconds(10), Duration::minutes(2), "node-1"));
  plan.faults.push_back(fault(sim::FaultKind::kNodeCrash,
                               Duration::minutes(1), Duration::minutes(3), "node-1"));
  injector_.arm(plan);

  // After the first fault's heal point the node must still be down (the
  // second overlapping fault holds it).
  run_to(Duration::minutes(3));
  EXPECT_FALSE(cluster_.find_node("node-1")->ready());
  EXPECT_TRUE(injector_.active(sim::FaultKind::kNodeCrash, "node-1"));

  run_to(Duration::minutes(5));
  EXPECT_TRUE(cluster_.find_node("node-1")->ready());
  EXPECT_EQ(injector_.injected(), 2u);
  EXPECT_EQ(injector_.healed(), 2u);
}

TEST_F(ChaosFixture, ProbeDropoutStopsEpcSamplesUntilHeal) {
  cluster_.api().submit(sgx_pod("enclave", Pages{1000}, Duration::hours(2)));
  run_to(Duration::minutes(1));
  const cluster::NodeName node = cluster_.api().pod("enclave").node;

  // Fault times are relative to arming (t=1min): active 1:10 → 3:10.
  sim::FaultPlan plan;
  plan.faults.push_back(fault(sim::FaultKind::kProbeDropout,
                               Duration::seconds(10), Duration::minutes(2), node));
  injector_.arm(plan);
  run_to(Duration::minutes(2));

  const orch::SgxProbe* probe = cluster_.daemonset().probe(node);
  ASSERT_NE(probe, nullptr);
  EXPECT_GT(probe->samples().dropped(), 0u);
  const std::uint64_t dropped_mid_window = probe->samples().dropped();

  // After the heal at 3:10, sampling resumes and the counter stops moving.
  run_to(Duration::minutes(4));
  const std::uint64_t dropped_total =
      cluster_.daemonset().probe(node)->samples().dropped();
  EXPECT_GT(dropped_total, dropped_mid_window);
  run_to(Duration::minutes(6));
  EXPECT_EQ(cluster_.daemonset().probe(node)->samples().dropped(),
            dropped_total);
  const auto newest = cluster_.db().newest_time("sgx/epc");
  ASSERT_TRUE(newest.has_value());
  EXPECT_GT(*newest, TimePoint::epoch() + Duration::minutes(4));
}

TEST_F(ChaosFixture, HeapsterDropoutAndSampleDelayCountOnTheirSurfaces) {
  cluster_.api().submit(sgx_pod("enclave", Pages{1000}, Duration::hours(2)));
  sim::FaultPlan plan;
  plan.faults.push_back(fault(sim::FaultKind::kHeapsterDropout,
                               Duration::minutes(1), Duration::minutes(1)));
  sim::FaultSpec delay;
  delay.kind = sim::FaultKind::kSampleDelay;
  delay.at = Duration::minutes(3);
  delay.duration = Duration::minutes(1);
  delay.delay = Duration::seconds(20);
  plan.faults.push_back(delay);
  injector_.arm(plan);

  run_to(Duration::minutes(5));
  EXPECT_GT(cluster_.heapster().samples().dropped(), 0u);
  EXPECT_GT(cluster_.heapster().samples().delayed(), 0u);
}

TEST_F(ChaosFixture,
       SampleDelaysHealPerTargetAndOnlyUntargetedOnesDelayHeapster) {
  // A 10 s delay on sgx-1's probe during [10 s, 70 s], and a cluster-wide
  // 20 s delay during [30 s, 5:30].
  sim::FaultPlan plan;
  sim::FaultSpec targeted = fault(sim::FaultKind::kSampleDelay,
                                  Duration::seconds(10), Duration::minutes(1),
                                  "sgx-1");
  targeted.delay = Duration::seconds(10);
  plan.faults.push_back(targeted);
  sim::FaultSpec everywhere =
      fault(sim::FaultKind::kSampleDelay, Duration::seconds(30),
            Duration::minutes(5));
  everywhere.delay = Duration::seconds(20);
  plan.faults.push_back(everywhere);
  injector_.arm(plan);
  const auto probe_delay = [&](const std::string& node) {
    const orch::SgxProbe* probe = cluster_.daemonset().probe(node);
    EXPECT_NE(probe, nullptr) << node;
    return probe == nullptr ? Duration{} : probe->samples().delay();
  };

  // The targeted delay slows sgx-1's probe alone.
  run_to(Duration::seconds(20));
  EXPECT_EQ(probe_delay("sgx-1"), Duration::seconds(10));
  EXPECT_EQ(probe_delay("sgx-2"), Duration{});
  EXPECT_EQ(cluster_.heapster().samples().delay(), Duration{});

  // Healing it leaves the cluster-wide delay on every probe and on
  // Heapster.
  run_to(Duration::minutes(2));
  EXPECT_FALSE(injector_.active(sim::FaultKind::kSampleDelay, "sgx-1"));
  EXPECT_TRUE(injector_.active(sim::FaultKind::kSampleDelay, ""));
  EXPECT_EQ(probe_delay("sgx-1"), Duration::seconds(20));
  EXPECT_EQ(probe_delay("sgx-2"), Duration::seconds(20));
  EXPECT_EQ(cluster_.heapster().samples().delay(), Duration::seconds(20));

  run_to(Duration::minutes(6));
  EXPECT_EQ(probe_delay("sgx-1"), Duration{});
  EXPECT_EQ(probe_delay("sgx-2"), Duration{});
  EXPECT_EQ(cluster_.heapster().samples().delay(), Duration{});
}

TEST_F(ChaosFixture, OverlappingSampleDelaysTakeTheLargestActiveDelay) {
  injector_.arm(overlapping_delays(sim::FaultKind::kSampleDelay));
  const auto expect_delay = [&](Duration want) {
    EXPECT_EQ(cluster_.heapster().samples().delay(), want);
    for (const char* node : {"sgx-1", "sgx-2"}) {
      const orch::SgxProbe* probe = cluster_.daemonset().probe(node);
      ASSERT_NE(probe, nullptr) << node;
      EXPECT_EQ(probe->samples().delay(), want) << node;
    }
  };

  run_to(Duration::seconds(20));
  expect_delay(Duration::seconds(10));
  run_to(Duration::seconds(40));
  expect_delay(Duration::seconds(25));
  // The 10 s delay healed at 70 s; the 25 s one is still active.
  run_to(Duration::minutes(2));
  expect_delay(Duration::seconds(25));
  run_to(Duration::minutes(6));
  expect_delay(Duration{});
}

/// ChaosFixture over an attesting cluster, for the attestation faults.
class AttestedChaosFixture : public ChaosFixture {
 protected:
  static ClusterConfig attested_config() {
    ClusterConfig config;
    config.attestation = true;
    return config;
  }

  AttestedChaosFixture() : ChaosFixture(attested_config()) {}
};

TEST_F(AttestedChaosFixture, OverlappingSlowVerifiesTakeTheLargestDelay) {
  injector_.arm(overlapping_delays(sim::FaultKind::kAttestationSlowVerify));
  const sgx::AttestationVerifier& verifier =
      *cluster_.attestation_verifier();
  run_to(Duration::seconds(20));
  EXPECT_EQ(verifier.extra_latency(), Duration::seconds(10));
  // The 10 s delay healed at 70 s; the 25 s one is still active.
  run_to(Duration::minutes(2) + Duration::seconds(30));
  EXPECT_EQ(verifier.extra_latency(), Duration::seconds(25));
  run_to(Duration::minutes(6));
  EXPECT_EQ(verifier.extra_latency(), Duration{});
}

TEST_F(AttestedChaosFixture, EveryOverlappingStormFires) {
  sim::FaultPlan plan;
  plan.faults.push_back(fault(sim::FaultKind::kReattestationStorm,
                              Duration::minutes(1), Duration::minutes(2)));
  plan.faults.push_back(fault(sim::FaultKind::kReattestationStorm,
                              Duration::minutes(2), Duration::minutes(1)));
  injector_.arm(plan);
  run_to(Duration::minutes(4));
  EXPECT_EQ(cluster_.attestation_gate()->storms(), 2u);
}

TEST_F(ChaosFixture, TsdbWriteErrorLosesSamplesThenRecovers) {
  cluster_.api().submit(sgx_pod("enclave", Pages{1000}, Duration::hours(2)));
  sim::FaultPlan plan;
  plan.faults.push_back(fault(sim::FaultKind::kTsdbWriteError,
                               Duration::minutes(1), Duration::minutes(2)));
  injector_.arm(plan);

  run_to(Duration::minutes(2));
  EXPECT_TRUE(cluster_.db().shard_write_fault(0));
  EXPECT_GT(cluster_.db().failed_writes(), 0u);

  run_to(Duration::minutes(6));
  EXPECT_FALSE(cluster_.db().shard_write_fault(0));
  const auto newest = cluster_.db().newest_time("sgx/epc");
  ASSERT_TRUE(newest.has_value());
  EXPECT_GT(*newest, TimePoint::epoch() + Duration::minutes(4));
}

TEST_F(ChaosFixture, StaleReadsTripTheSchedulerIntoRequestFallback) {
  cluster_.api().submit(sgx_pod("enclave", Pages{1000}, Duration::hours(2)));
  run_to(Duration::minutes(1));
  ASSERT_EQ(scheduler_->degraded_cycles(), 0u);

  // Fault times are relative to arming (t=1min): queries see nothing
  // newer than t=2min during [2min, 7min]; the 60 s staleness threshold
  // trips a minute into the window.
  sim::FaultPlan plan;
  plan.faults.push_back(fault(sim::FaultKind::kTsdbStaleReads,
                               Duration::minutes(1), Duration::minutes(5)));
  injector_.arm(plan);

  // A cycle degrades only when it measures its views: with nothing
  // pending, the stale window goes unread...
  run_to(Duration::minutes(4));
  EXPECT_EQ(scheduler_->degraded_cycles(), 0u);
  // ...and so it does with only a pod pending that fails the
  // measurement-free checks: no SGX node's EPC holds its request.
  cluster_.api().submit(
      sgx_pod("never-fits", Pages{30'000}, Duration::minutes(1)));
  run_to(Duration::minutes(5));
  EXPECT_EQ(scheduler_->degraded_cycles(), 0u);
  EXPECT_EQ(cluster_.api().pod("never-fits").phase,
            cluster::PodPhase::kPending);

  // Scheduling continues mid-outage, on requests alone.
  cluster_.api().submit(
      sgx_pod("during-next", Pages{500}, Duration::minutes(1)));
  run_to(Duration::minutes(6));
  EXPECT_GT(scheduler_->degraded_cycles(), 0u);
  EXPECT_NE(cluster_.api().pod("during-next").phase,
            cluster::PodPhase::kPending);

  // Healed at 7min: fresh samples visible again. A pod submitted after the
  // heal is planned on measured usage, so no further cycle degrades.
  run_to(Duration::minutes(8));
  const std::uint64_t degraded = scheduler_->degraded_cycles();
  cluster_.api().submit(
      sgx_pod("after-heal", Pages{500}, Duration::minutes(1)));
  run_to(Duration::minutes(11));
  EXPECT_NE(cluster_.api().pod("after-heal").phase,
            cluster::PodPhase::kPending);
  EXPECT_EQ(scheduler_->degraded_cycles(), degraded);
}

TEST_F(ChaosFixture, SchedulerCrashParksPodsUntilRestart) {
  cluster_.api().submit(sgx_pod("running", Pages{1000}, Duration::hours(2)));
  // Fault times are relative to arming (t=0): the scheduler is down
  // during [1min, 4min].
  sim::FaultPlan plan;
  plan.faults.push_back(fault(sim::FaultKind::kSchedulerCrash,
                              Duration::minutes(1), Duration::minutes(3),
                              scheduler_->name()));
  injector_.arm(plan);

  run_to(Duration::seconds(90));
  EXPECT_TRUE(scheduler_->crashed());
  EXPECT_EQ(cluster_.api().pod("running").phase, cluster::PodPhase::kRunning);
  cluster_.api().submit(sgx_pod("waiting", Pages{1000}, Duration::minutes(2)));
  const std::uint64_t cycles_while_down = scheduler_->cycles();

  // The pod waits as long as the scheduler is down; work already bound
  // keeps running.
  run_to(Duration::minutes(4) - Duration::seconds(1));
  EXPECT_TRUE(scheduler_->crashed());
  EXPECT_EQ(scheduler_->cycles(), cycles_while_down);
  EXPECT_EQ(cluster_.api().pod("waiting").phase, cluster::PodPhase::kPending);
  EXPECT_EQ(cluster_.api().pod("running").phase, cluster::PodPhase::kRunning);

  // Healed at 4min: the restarted scheduler places the pod on its first
  // cycle and the cluster reconverges.
  run_to(Duration::minutes(4) + scheduler_->period());
  EXPECT_FALSE(scheduler_->crashed());
  EXPECT_FALSE(injector_.active(sim::FaultKind::kSchedulerCrash,
                                scheduler_->name()));
  EXPECT_NE(cluster_.api().pod("waiting").phase, cluster::PodPhase::kPending);
  run_to(Duration::minutes(10));
  EXPECT_EQ(cluster_.api().pod("waiting").phase,
            cluster::PodPhase::kSucceeded);
  const std::optional<Duration> waited =
      cluster_.api().pod("waiting").waiting_time();
  ASSERT_TRUE(waited.has_value());
  EXPECT_GE(*waited, Duration::minutes(4) - Duration::seconds(90));
}

/// Same wiring over a 4-shard metrics store, for the shard-targeted TSDB
/// faults.
class ShardedTsdbChaosFixture : public ::testing::Test {
 protected:
  static ClusterConfig sharded_config() {
    ClusterConfig config;
    config.tsdb_shards = 4;
    return config;
  }

  ShardedTsdbChaosFixture()
      : cluster_(sharded_config()), injector_(cluster_.sim()) {
    scheduler_ = &cluster_.add_sgx_scheduler(core::PlacementPolicy::kBinpack);
    cluster_.api().set_default_scheduler(scheduler_->name());
    cluster_.start_monitoring();
    cluster_.install_fault_handlers(injector_);
  }

  ~ShardedTsdbChaosFixture() override { cluster_.stop_all(); }

  void run_to(Duration t) {
    cluster_.sim().run_until(TimePoint::epoch() + t);
  }

  SimulatedCluster cluster_;
  sim::FaultInjector injector_;
  core::SgxAwareScheduler* scheduler_ = nullptr;
};

TEST_F(ShardedTsdbChaosFixture, ShardWriteErrorDropsOnlyThatShard) {
  cluster_.api().submit(sgx_pod("enclave", Pages{1000}, Duration::hours(2)));
  run_to(Duration::seconds(30));
  // Target the shard the pod's own EPC series routes to, so the fault
  // provably intersects live traffic.
  const cluster::NodeName node = cluster_.api().pod("enclave").node;
  ASSERT_FALSE(node.empty());
  const std::size_t victim = cluster_.db().shard_of(
      "sgx/epc", {{"pod_name", "enclave"}, {"nodename", node}});

  sim::FaultPlan plan;
  plan.faults.push_back(fault(sim::FaultKind::kTsdbWriteError,
                              Duration::minutes(1), Duration::minutes(2),
                              std::to_string(victim)));
  injector_.arm(plan);

  run_to(Duration::minutes(2));
  EXPECT_TRUE(cluster_.db().shard_write_fault(victim));
  EXPECT_GT(cluster_.db().shard_failed_writes(victim), 0u);
  // Every failed write happened on the targeted shard; the others kept
  // every sample.
  EXPECT_EQ(cluster_.db().failed_writes(),
            cluster_.db().shard_failed_writes(victim));
  for (std::size_t s = 0; s < cluster_.db().shard_count(); ++s) {
    if (s != victim) {
      EXPECT_EQ(cluster_.db().shard_failed_writes(s), 0u);
    }
  }

  run_to(Duration::minutes(6));
  EXPECT_FALSE(cluster_.db().shard_write_fault(victim));
  const auto newest = cluster_.db().newest_time("sgx/epc");
  ASSERT_TRUE(newest.has_value());
  EXPECT_GT(*newest, TimePoint::epoch() + Duration::minutes(4));
}

TEST_F(ShardedTsdbChaosFixture, ShardFaultsThatWrapToOneShardHealTogether) {
  // On 4 shards, targets "1" and "5" both name shard 1: it is faulted
  // during [1 min, 3 min] by the first and [2 min, 5 min] by the second.
  sim::FaultPlan plan;
  plan.faults.push_back(fault(sim::FaultKind::kTsdbWriteError,
                              Duration::minutes(1), Duration::minutes(2),
                              "1"));
  plan.faults.push_back(fault(sim::FaultKind::kTsdbWriteError,
                              Duration::minutes(2), Duration::minutes(3),
                              "5"));
  injector_.arm(plan);

  run_to(Duration::minutes(2) + Duration::seconds(30));
  EXPECT_TRUE(cluster_.db().shard_write_fault(1));
  run_to(Duration::minutes(4));
  EXPECT_TRUE(cluster_.db().shard_write_fault(1));
  run_to(Duration::minutes(6));
  EXPECT_FALSE(cluster_.db().shard_write_fault(1));
  for (const std::size_t s : {0u, 2u, 3u}) {
    EXPECT_FALSE(cluster_.db().shard_write_fault(s));
  }
}

TEST_F(ShardedTsdbChaosFixture, ShardStaleReadsFreezeOnlyThatShard) {
  cluster_.api().submit(sgx_pod("enclave", Pages{1000}, Duration::hours(2)));
  run_to(Duration::seconds(30));

  sim::FaultPlan plan;
  plan.faults.push_back(fault(sim::FaultKind::kTsdbStaleReads,
                              Duration::minutes(1), Duration::minutes(2),
                              "1"));
  injector_.arm(plan);

  run_to(Duration::minutes(2));
  // Fault times are relative to arming (t=30s): the horizon freezes at
  // the activation instant, 90 s.
  EXPECT_EQ(cluster_.db().shard_read_horizon(1),
            TimePoint::epoch() + Duration::seconds(90));
  for (const std::size_t s : {0u, 2u, 3u}) {
    EXPECT_FALSE(cluster_.db().shard_read_horizon(s).has_value());
  }

  run_to(Duration::minutes(4));
  EXPECT_FALSE(cluster_.db().shard_read_horizon(1).has_value());
}

/// An untargeted fault of `kind` during [10 s, 70 s] and one on shard "1"
/// during [30 s, 100 s].
sim::FaultPlan untargeted_then_shard_1(sim::FaultKind kind) {
  sim::FaultPlan plan;
  plan.faults.push_back(
      fault(kind, Duration::seconds(10), Duration::minutes(1)));
  plan.faults.push_back(
      fault(kind, Duration::seconds(30), Duration::seconds(70), "1"));
  return plan;
}

TEST_F(ShardedTsdbChaosFixture, ReadHorizonIsWhereTheShardsCoverageBegan) {
  injector_.arm(untargeted_then_shard_1(sim::FaultKind::kTsdbStaleReads));
  const TimePoint began = TimePoint::epoch() + Duration::seconds(10);

  run_to(Duration::seconds(40));
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(cluster_.db().shard_read_horizon(s), began) << s;
  }
  // The untargeted fault healed at 70 s, but shard 1 has been covered
  // without a break since 10 s.
  run_to(Duration::seconds(80));
  EXPECT_EQ(cluster_.db().shard_read_horizon(1), began);
  for (const std::size_t s : {0u, 2u, 3u}) {
    EXPECT_FALSE(cluster_.db().shard_read_horizon(s).has_value()) << s;
  }
  run_to(Duration::minutes(2));
  EXPECT_FALSE(cluster_.db().shard_read_horizon(1).has_value());
}

TEST_F(ShardedTsdbChaosFixture, WriteFaultCoversEveryShardAFaultNames) {
  injector_.arm(untargeted_then_shard_1(sim::FaultKind::kTsdbWriteError));

  run_to(Duration::seconds(40));
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_TRUE(cluster_.db().shard_write_fault(s)) << s;
  }
  run_to(Duration::seconds(80));
  EXPECT_TRUE(cluster_.db().shard_write_fault(1));
  for (const std::size_t s : {0u, 2u, 3u}) {
    EXPECT_FALSE(cluster_.db().shard_write_fault(s)) << s;
  }
  run_to(Duration::minutes(2));
  EXPECT_FALSE(cluster_.db().shard_write_fault(1));
}

TEST(TsdbFaultTarget, NonDecimalTargetIsAContractViolation) {
  for (const sim::FaultKind kind :
       {sim::FaultKind::kTsdbWriteError, sim::FaultKind::kTsdbStaleReads}) {
    for (const char* target : {"one", "1x", "+1", " 1", "-1"}) {
      SCOPED_TRACE(std::string(sim::to_string(kind)) + " target '" + target +
                   "'");
      ClusterConfig config;
      config.tsdb_shards = 4;
      SimulatedCluster cluster{config};
      sim::FaultInjector injector{cluster.sim()};
      cluster.install_fault_handlers(injector);
      sim::FaultPlan plan;
      plan.faults.push_back(
          fault(kind, Duration::seconds(10), Duration::minutes(1), target));
      injector.arm(plan);
      EXPECT_THROW(
          cluster.sim().run_until(TimePoint::epoch() + Duration::seconds(20)),
          ContractViolation);
    }
  }
}

TEST_F(ChaosFixture, WatchDisconnectMissesFailuresUntilResync) {
  cluster_.api().submit(sgx_pod("victim", Pages{1000}, Duration::hours(2)));
  run_to(Duration::seconds(30));
  const cluster::NodeName node = cluster_.api().pod("victim").node;

  // The watch drops before the crash and reconnects after it: without the
  // resync re-list the restarter would never learn about the failure.
  sim::FaultPlan plan;
  plan.faults.push_back(fault(sim::FaultKind::kWatchDisconnect,
                               Duration::seconds(40), Duration::minutes(3)));
  plan.faults.push_back(fault(sim::FaultKind::kNodeCrash,
                               Duration::minutes(1), Duration::minutes(1), node));
  injector_.arm(plan);

  run_to(Duration::minutes(3));
  EXPECT_FALSE(restarter_->connected());
  EXPECT_EQ(cluster_.api().pod("victim").phase, cluster::PodPhase::kFailed);
  EXPECT_TRUE(restarter_->retry_of("victim").empty());

  run_to(Duration::minutes(6));
  EXPECT_TRUE(restarter_->connected());
  EXPECT_EQ(restarter_->disconnects(), 1u);
  EXPECT_EQ(restarter_->resyncs(), 1u);
  EXPECT_FALSE(restarter_->retry_of("victim").empty());
}

// ---- satellite: determinism regression ------------------------------------

TEST(ChaosDeterminism, SameSeedProducesBitIdenticalTraces) {
  const chaos::ScenarioResult a = chaos::run_scenario(42);
  const chaos::ScenarioResult b = chaos::run_scenario(42);
  EXPECT_EQ(a.plan, b.plan);
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_EQ(a.healed, b.healed);
  EXPECT_EQ(a.succeeded, b.succeeded);
  EXPECT_EQ(a.node_failures, b.node_failures);
  ASSERT_EQ(a.event_log.size(), b.event_log.size());
  for (std::size_t i = 0; i < a.event_log.size(); ++i) {
    ASSERT_EQ(a.event_log[i], b.event_log[i]) << "first divergence at " << i;
  }
}

TEST(ChaosDeterminism, SchedulerCrashScenarioWithSameSeedIsBitIdentical) {
  // Seed 4's plan crashes the scheduler mid-replay, twice: the crashes,
  // the restarts with no cached state and every bind after them must
  // replay exactly under the same seed.
  const chaos::ScenarioResult a = chaos::run_scenario(4);
  const chaos::ScenarioResult b = chaos::run_scenario(4);
  ASSERT_NE(a.plan.find("scheduler-crash"), std::string::npos) << a.plan;
  EXPECT_EQ(a.plan, b.plan);
  EXPECT_EQ(a.succeeded, b.succeeded);
  ASSERT_EQ(a.event_log.size(), b.event_log.size());
  for (std::size_t i = 0; i < a.event_log.size(); ++i) {
    ASSERT_EQ(a.event_log[i], b.event_log[i]) << "first divergence at " << i;
  }
}

TEST(ChaosDeterminism, ShardedTsdbScenarioWithSameSeedIsBitIdentical) {
  // A 4-shard metrics store whose shards are the TSDB faults' targets:
  // shard routing, per-shard fault activation, and the scheduler's
  // degraded-metrics behavior must all replay exactly.
  chaos::ScenarioConfig config;
  config.tsdb_shards = 4;
  const chaos::ScenarioResult a = chaos::run_scenario(42, config);
  const chaos::ScenarioResult b = chaos::run_scenario(42, config);
  EXPECT_EQ(a.plan, b.plan);
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_EQ(a.healed, b.healed);
  EXPECT_EQ(a.succeeded, b.succeeded);
  EXPECT_EQ(a.degraded_cycles, b.degraded_cycles);
  ASSERT_EQ(a.event_log.size(), b.event_log.size());
  for (std::size_t i = 0; i < a.event_log.size(); ++i) {
    ASSERT_EQ(a.event_log[i], b.event_log[i]) << "first divergence at " << i;
  }
}

TEST(ChaosDeterminism, DifferentSeedsProduceDifferentPlans) {
  Rng rng_a{7};
  Rng rng_b{8};
  sim::RandomPlanConfig config;
  config.crash_targets = {"node-1", "node-2"};
  config.probe_targets = {"sgx-1"};
  EXPECT_NE(sim::random_plan(rng_a, config).describe(),
            sim::random_plan(rng_b, config).describe());
}

}  // namespace
}  // namespace sgxo::exp
