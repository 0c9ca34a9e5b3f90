// Tests for the monitoring pipeline: Heapster, the SGX probe and its
// DaemonSet controller, all pushing into the shared time-series database.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "orch/api_server.hpp"
#include "orch/daemonset.hpp"
#include "orch/heapster.hpp"
#include "orch/pod_sample_writer.hpp"
#include "orch/sgx_probe.hpp"
#include "support/result_set.hpp"
#include "tsdb/ql/executor.hpp"

namespace sgxo::orch {
namespace {

using namespace sgxo::literals;

cluster::MachineSpec machine(const std::string& name, bool sgx) {
  cluster::MachineSpec spec;
  spec.name = name;
  spec.cpu_cores = 4;
  spec.memory = sgx ? 8_GiB : 64_GiB;
  if (sgx) spec.epc = sgx::EpcConfig::sgx1();
  return spec;
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

cluster::PodSpec standard_pod(const std::string& name, Bytes mem,
                              Duration duration) {
  cluster::PodBehavior behavior;
  behavior.actual_usage = mem;
  behavior.duration = duration;
  return cluster::make_stressor_pod(name, {mem, Pages{0}}, {mem, Pages{0}},
                                    behavior);
}

class MonitoringFixture : public ::testing::Test {
 protected:
  MonitoringFixture()
      : api_(sim_),
        std_node_(machine("node-1", false)),
        sgx_node_(machine("sgx-1", true)),
        std_kubelet_(sim_, std_node_, perf_, registry_, api_),
        sgx_kubelet_(sim_, sgx_node_, perf_, registry_, api_) {
    api_.register_node(std_node_, std_kubelet_);
    api_.register_node(sgx_node_, sgx_kubelet_);
  }

  sim::Simulation sim_;
  ApiServer api_;
  sgx::PerfModel perf_;
  cluster::ImageRegistry registry_;
  cluster::Node std_node_;
  cluster::Node sgx_node_;
  cluster::Kubelet std_kubelet_;
  cluster::Kubelet sgx_kubelet_;
  tsdb::Database db_;
  // The sample path of the probes a test deploys by hand on sgx-1.
  PodSampleWriter epc_samples_{sim_, db_, SgxProbe::kEpcMeasurement, {}};
};

TEST_F(MonitoringFixture, HeapsterWritesPerPodMemorySamples) {
  Heapster heapster{sim_, api_, db_, Duration::seconds(10)};
  heapster.start();
  api_.submit(standard_pod("mem-pod", 4_GiB, Duration::minutes(5)));
  ASSERT_TRUE(api_.try_bind("mem-pod", "node-1",
                            api_.pod("mem-pod").resource_version)
                  .bound());
  sim_.run_until(TimePoint::epoch() + Duration::seconds(35));
  heapster.stop();

  const tsdb::ql::ResultSet result = tsdb::ql::query(
      "SELECT MAX(value) AS mem FROM \"memory/usage\" GROUP BY pod_name, "
      "nodename",
      db_, sim_.now());
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(value_for(result, "pod_name", "mem-pod", "mem"),
                   static_cast<double>((4_GiB).count()));
  EXPECT_EQ(result.rows[0].tags.at("nodename"), "node-1");
  EXPECT_EQ(heapster.scrape_count(), 3u);
}

TEST_F(MonitoringFixture, HeapsterEnforcesRetention) {
  constexpr Duration kPeriod = Duration::seconds(10);
  Heapster heapster{sim_, api_, db_, kPeriod};
  heapster.start();
  api_.submit(standard_pod("long", 1_GiB, Duration::hours(2)));
  ASSERT_TRUE(api_.try_bind("long", "node-1",
                            api_.pod("long").resource_version)
                  .bound());
  sim_.run_until(TimePoint::epoch() + Duration::minutes(30));
  heapster.stop();
  // Twice the retention in, the one series keeps the samples of the last
  // 15 min, the one at the horizon included: 91 of the 180 scraped.
  const auto per_series = static_cast<std::size_t>(
      Heapster::kRetention.micros_count() / kPeriod.micros_count() + 1);
  EXPECT_EQ(db_.total_points(), per_series);
}

/// The points of the series of `tags` in `measurement`, oldest first
/// (empty when there is no such series).
std::vector<tsdb::Point> points_of(const tsdb::Database& db,
                                   const std::string& measurement,
                                   const tsdb::Tags& tags) {
  const tsdb::Measurement* m =
      db.find_measurement(measurement, db.shard_of(measurement, tags));
  const tsdb::Series* series = m == nullptr ? nullptr : m->find_series(tags);
  return series == nullptr ? std::vector<tsdb::Point>{} : series->points();
}

tsdb::Tags memory_tags(const std::string& pod, const std::string& node) {
  return {{"nodename", node}, {"pod_name", pod}, {"type", "pod"}};
}

TEST_F(MonitoringFixture, ReboundPodIsSampledUnderItsNewNode) {
  Heapster heapster{sim_, api_, db_, Duration::seconds(10)};
  heapster.start();
  api_.submit(standard_pod("mover", 1_GiB, Duration::hours(1)));
  ASSERT_TRUE(api_.try_bind("mover", "node-1",
                            api_.pod("mover").resource_version)
                  .bound());
  sim_.run_until(TimePoint::epoch() + Duration::seconds(35));
  // Evicted and bound to the other node between two scrapes: the next
  // scrape finds the pod on sgx-1 while its kept ref names the node-1
  // series, which is still live.
  api_.evict("mover", "test");
  ASSERT_TRUE(api_.try_bind("mover", "sgx-1",
                            api_.pod("mover").resource_version)
                  .bound());
  sim_.run_until(TimePoint::epoch() + Duration::seconds(65));
  heapster.stop();
  const std::vector<tsdb::Point> before = points_of(
      db_, Heapster::kMemoryMeasurement, memory_tags("mover", "node-1"));
  const std::vector<tsdb::Point> after = points_of(
      db_, Heapster::kMemoryMeasurement, memory_tags("mover", "sgx-1"));
  ASSERT_EQ(before.size(), 3u);  // 10, 20 and 30 s
  EXPECT_EQ(before.back().time, TimePoint::epoch() + Duration::seconds(30));
  ASSERT_EQ(after.size(), 3u);  // 40, 50 and 60 s
  EXPECT_EQ(after.front().time, TimePoint::epoch() + Duration::seconds(40));
  EXPECT_EQ(db_.series_count(Heapster::kMemoryMeasurement), 2u);
}

TEST_F(MonitoringFixture, SamplingResumesIntoAFreshSeriesAfterAnOutage) {
  constexpr Duration kPeriod = Duration::seconds(10);
  Heapster heapster{sim_, api_, db_, kPeriod};
  heapster.start();
  api_.submit(standard_pod("long", 1_GiB, Duration::hours(2)));
  ASSERT_TRUE(api_.try_bind("long", "node-1",
                            api_.pod("long").resource_version)
                  .bound());
  const tsdb::Tags tags = memory_tags("long", "node-1");
  sim_.run_until(TimePoint::epoch() + Duration::minutes(1));
  ASSERT_EQ(points_of(db_, Heapster::kMemoryMeasurement, tags).size(), 6u);
  // A dropout longer than the retention: the live pod's series is erased.
  heapster.samples().set_drop(true);
  sim_.run_until(TimePoint::epoch() + Duration::minutes(17));
  EXPECT_EQ(db_.series_count(Heapster::kMemoryMeasurement), 0u);
  heapster.samples().set_drop(false);
  sim_.run_until(TimePoint::epoch() + Duration::minutes(17) +
                 Duration::seconds(25));
  std::vector<tsdb::Point> points =
      points_of(db_, Heapster::kMemoryMeasurement, tags);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points.front().time,
            TimePoint::epoch() + Duration::minutes(17) + kPeriod);
  // A TSDB write outage longer than the retention: the scrapes keep
  // writing through the pod's ref, fail, and retention erases the series
  // under the ref. The first scrape after the outage finds the ref stale
  // and starts a fresh series through the tag write.
  db_.set_shard_write_fault(0, true);
  sim_.run_until(TimePoint::epoch() + Duration::minutes(33));
  EXPECT_EQ(db_.series_count(Heapster::kMemoryMeasurement), 0u);
  EXPECT_EQ(db_.failed_writes(), 94u);  // 17:30 to 33:00, every 10 s
  db_.set_shard_write_fault(0, false);
  sim_.run_until(TimePoint::epoch() + Duration::minutes(33) +
                 Duration::seconds(25));
  heapster.stop();
  points = points_of(db_, Heapster::kMemoryMeasurement, tags);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points.front().time,
            TimePoint::epoch() + Duration::minutes(33) + kPeriod);
  EXPECT_EQ(db_.series_count(Heapster::kMemoryMeasurement), 1u);
}

TEST_F(MonitoringFixture, SampleWriterKeepsRefsForThePodsOfTheLastRound) {
  PodSampleWriter writer{sim_, db_, "m", {}};
  const auto at = [](std::int64_t s) {
    return TimePoint::epoch() + Duration::seconds(s);
  };
  writer.write("a", "n1", at(1), 1.0);
  writer.write("b", "n1", at(1), 2.0);
  writer.end_round();
  EXPECT_EQ(writer.cached_pods(), 2u);
  writer.write("a", "n1", at(2), 3.0);
  writer.end_round();
  EXPECT_EQ(writer.cached_pods(), 1u);  // b was not written
  // A node change resolves a new series.
  writer.write("a", "n2", at(3), 4.0);
  EXPECT_EQ(writer.tags_of("a", "n1"),
            (tsdb::Tags{{"nodename", "n1"}, {"pod_name", "a"}}));
  writer.end_round();
  EXPECT_EQ(writer.cached_pods(), 1u);
  const auto values = [&](const std::string& pod, const std::string& node) {
    std::vector<double> out;
    for (const tsdb::Point& p :
         points_of(db_, "m", {{"nodename", node}, {"pod_name", pod}})) {
      out.push_back(p.value);
    }
    return out;
  };
  EXPECT_EQ(values("a", "n1"), (std::vector<double>{1.0, 3.0}));
  EXPECT_EQ(values("a", "n2"), std::vector<double>{4.0});
  EXPECT_EQ(values("b", "n1"), std::vector<double>{2.0});
  writer.end_round();
  EXPECT_EQ(writer.cached_pods(), 0u);
}

TEST_F(MonitoringFixture, SgxProbeReportsPodEpcInBytes) {
  api_.submit(sgx_pod("enclave", Pages{2048}, Duration::minutes(5)));
  ASSERT_TRUE(api_.try_bind("enclave", "sgx-1",
                            api_.pod("enclave").resource_version)
                  .bound());
  SgxProbe probe{sim_, *api_.find_node("sgx-1"), epc_samples_,
                 Duration::seconds(10)};
  probe.start();
  sim_.run_until(TimePoint::epoch() + Duration::seconds(25));
  probe.stop();

  const tsdb::ql::ResultSet result = tsdb::ql::query(
      "SELECT MAX(value) AS epc FROM \"sgx/epc\" WHERE value <> 0 "
      "GROUP BY pod_name, nodename",
      db_, sim_.now());
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(value_for(result, "pod_name", "enclave", "epc"),
                   static_cast<double>(Pages{2048}.as_bytes().count()));
}

TEST_F(MonitoringFixture, ProbeRejectsNonSgxNode) {
  EXPECT_THROW(SgxProbe(sim_, *api_.find_node("node-1"), epc_samples_),
               ContractViolation);
}

TEST_F(MonitoringFixture, ProbeReportsZeroAfterPodEnds) {
  api_.submit(sgx_pod("short", Pages{1024}, Duration::seconds(15)));
  ASSERT_TRUE(api_.try_bind("short", "sgx-1",
                            api_.pod("short").resource_version)
                  .bound());
  SgxProbe probe{sim_, *api_.find_node("sgx-1"), epc_samples_,
                 Duration::seconds(10)};
  probe.start();
  sim_.run_until(TimePoint::epoch() + Duration::seconds(60));
  probe.stop();
  // After the pod finished there is nothing to report: the last samples in
  // a fresh 25 s window are empty.
  const tsdb::ql::ResultSet result = tsdb::ql::query(
      "SELECT MAX(value) AS epc FROM \"sgx/epc\" WHERE value <> 0 AND "
      "time >= now() - 25s GROUP BY pod_name",
      db_, sim_.now());
  EXPECT_TRUE(result.rows.empty());
}

TEST_F(MonitoringFixture, DaemonSetDeploysProbesOnSgxNodesOnly) {
  ProbeDaemonSet daemonset{sim_, api_, db_};
  daemonset.start();
  EXPECT_EQ(daemonset.probe_count(), 1u);
  EXPECT_TRUE(daemonset.has_probe("sgx-1"));
  EXPECT_FALSE(daemonset.has_probe("node-1"));
  daemonset.stop();
}

TEST_F(MonitoringFixture, DaemonSetRedeploysCrashedProbe) {
  ProbeDaemonSet daemonset{sim_, api_, db_};
  daemonset.start();
  daemonset.crash_probe("sgx-1");
  EXPECT_EQ(daemonset.probe_count(), 0u);
  // The next reconciliation (30 s period) replaces it — Kubernetes itself
  // handles probe crashes (§V-C).
  sim_.run_until(TimePoint::epoch() + Duration::seconds(31));
  EXPECT_EQ(daemonset.probe_count(), 1u);
  daemonset.stop();
}

TEST_F(MonitoringFixture, DaemonSetCoversNewSgxNode) {
  ProbeDaemonSet daemonset{sim_, api_, db_};
  daemonset.start();
  // A new SGX machine joins the cluster.
  cluster::Node late{machine("sgx-2", true)};
  cluster::Kubelet late_kubelet{sim_, late, perf_, registry_, api_};
  api_.register_node(late, late_kubelet);
  EXPECT_FALSE(daemonset.has_probe("sgx-2"));
  sim_.run_until(TimePoint::epoch() + Duration::seconds(31));
  EXPECT_TRUE(daemonset.has_probe("sgx-2"));
  daemonset.stop();
}

TEST_F(MonitoringFixture, DelayedProbeSampleLandsAfterTheProbeCrashed) {
  api_.submit(sgx_pod("e", Pages{512}, Duration::minutes(10)));
  ASSERT_TRUE(
      api_.try_bind("e", "sgx-1", api_.pod("e").resource_version).bound());
  ProbeDaemonSet daemonset{sim_, api_, db_};
  daemonset.start();
  daemonset.samples("sgx-1").set_delay(Duration::seconds(5));
  // The probe samples at 10 s; the sample is still in flight when the
  // probe process dies at 12 s, and lands at 15 s all the same.
  sim_.run_until(TimePoint::epoch() + Duration::seconds(12));
  ASSERT_EQ(daemonset.probe("sgx-1")->samples().delayed(), 1u);
  daemonset.crash_probe("sgx-1");
  sim_.run_until(TimePoint::epoch() + Duration::seconds(16));
  const std::vector<tsdb::Point> points =
      points_of(db_, SgxProbe::kEpcMeasurement,
                {{"nodename", "sgx-1"}, {"pod_name", "e"}});
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].time, TimePoint::epoch() + Duration::seconds(10));
  daemonset.stop();
}

TEST_F(MonitoringFixture, ProbeAndHeapsterShareDatabase) {
  // The point of the shared schema: the scheduler can issue equivalent
  // queries for SGX and non-SGX metrics (§V-C).
  Heapster heapster{sim_, api_, db_, Duration::seconds(10)};
  ProbeDaemonSet daemonset{sim_, api_, db_, Duration::seconds(10)};
  heapster.start();
  daemonset.start();
  api_.submit(standard_pod("m", 1_GiB, Duration::minutes(2)));
  api_.submit(sgx_pod("e", Pages{512}, Duration::minutes(2)));
  ASSERT_TRUE(
      api_.try_bind("m", "node-1", api_.pod("m").resource_version).bound());
  ASSERT_TRUE(
      api_.try_bind("e", "sgx-1", api_.pod("e").resource_version).bound());
  sim_.run_until(TimePoint::epoch() + Duration::seconds(30));
  heapster.stop();
  daemonset.stop();
  EXPECT_TRUE(db_.has_measurement("memory/usage"));
  EXPECT_TRUE(db_.has_measurement("sgx/epc"));
}

TEST_F(MonitoringFixture, EachSeriesCarriesOnlyItsOwnPodsTagsAndValues) {
  // Heapster and the probe keep a series ref per pod and refill one tag
  // set for each tag write; no pod's tags or value may leak into another
  // pod's series, on time or delayed.
  api_.submit(standard_pod("m", 1_GiB, Duration::minutes(10)));
  api_.submit(sgx_pod("e", Pages{512}, Duration::minutes(10)));
  api_.submit(sgx_pod("f", Pages{256}, Duration::minutes(10)));
  ASSERT_TRUE(
      api_.try_bind("m", "node-1", api_.pod("m").resource_version).bound());
  ASSERT_TRUE(
      api_.try_bind("e", "sgx-1", api_.pod("e").resource_version).bound());
  ASSERT_TRUE(
      api_.try_bind("f", "sgx-1", api_.pod("f").resource_version).bound());
  sim_.run_until(TimePoint::epoch() + Duration::minutes(1));
  for (const char* pod : {"m", "e", "f"}) {
    ASSERT_EQ(api_.pod(pod).phase, cluster::PodPhase::kRunning) << pod;
  }

  Heapster heapster{sim_, api_, db_};
  SgxProbe probe{sim_, *api_.find_node("sgx-1"), epc_samples_};
  // Per series key, the points each pod should have produced.
  std::map<std::string, std::vector<tsdb::Point>> want_memory;
  const std::map<std::string, double> epc_bytes = {
      {"e", static_cast<double>(Pages{512}.as_bytes().count())},
      {"f", static_cast<double>(Pages{256}.as_bytes().count())}};
  std::map<std::string, std::vector<tsdb::Point>> want_epc;
  const auto sample = [&] {
    const TimePoint now = sim_.now();
    for (const ApiServer::NodeEntry& entry : api_.all_nodes()) {
      entry.kubelet->for_each_active_pod(
          [&](const cluster::PodName& pod,
              const std::vector<cluster::ContainerId>& containers) {
            Bytes usage{};
            for (const cluster::ContainerId id : containers) {
              usage += entry.node->runtime().info(id).memory_usage;
            }
            want_memory[tsdb::tags_key({{"nodename", entry.node->name()},
                                        {"pod_name", pod},
                                        {"type", "pod"}})]
                .push_back({now, static_cast<double>(usage.count())});
          });
    }
    for (const auto& [pod, bytes] : epc_bytes) {
      want_epc[tsdb::tags_key({{"nodename", "sgx-1"}, {"pod_name", pod}})]
          .push_back({now, bytes});
    }
    heapster.scrape_once();
    probe.probe_once();
  };
  sample();  // delivered on time
  heapster.samples().set_delay(Duration::seconds(2));
  probe.samples().set_delay(Duration::seconds(2));
  sim_.run_until(sim_.now() + Duration::seconds(5));
  sample();  // delivered 2 s late
  sim_.run_until(sim_.now() + Duration::seconds(5));
  EXPECT_EQ(heapster.samples().delayed(), 3u);
  EXPECT_EQ(probe.samples().delayed(), 2u);

  const auto stored = [&](const std::string& measurement) {
    std::map<std::string, std::vector<tsdb::Point>> got;
    for (std::size_t shard = 0; shard < db_.shard_count(); ++shard) {
      const tsdb::Measurement* m = db_.find_measurement(measurement, shard);
      if (m == nullptr) continue;
      m->for_each_series([&](const tsdb::Series& series) {
        got[tsdb::tags_key(series.tags())] = series.points();
      });
    }
    return got;
  };
  const auto expect_same = [](const auto& want, const auto& got) {
    ASSERT_EQ(got.size(), want.size());
    for (const auto& [key, points] : want) {
      const auto it = got.find(key);
      ASSERT_NE(it, got.end()) << key;
      ASSERT_EQ(it->second.size(), points.size()) << key;
      for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(it->second[i].time, points[i].time) << key;
        EXPECT_EQ(it->second[i].value, points[i].value) << key;
      }
    }
  };
  expect_same(want_memory, stored(Heapster::kMemoryMeasurement));
  expect_same(want_epc, stored(SgxProbe::kEpcMeasurement));
  EXPECT_EQ(want_memory.size(), 3u);
  EXPECT_EQ(want_memory.count("nodename=node-1,pod_name=m,type=pod"), 1u);
}

}  // namespace
}  // namespace sgxo::orch
