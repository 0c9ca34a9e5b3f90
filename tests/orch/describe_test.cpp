#include "orch/describe.hpp"

#include <gtest/gtest.h>

#include "exp/fixture.hpp"

namespace sgxo::orch {
namespace {

using namespace sgxo::literals;

class DescribeFixture : public ::testing::Test {
 protected:
  DescribeFixture() {
    scheduler_ = &cluster_.add_sgx_scheduler(core::PlacementPolicy::kBinpack);
    cluster_.api().set_default_scheduler(scheduler_->name());
    cluster_.start_monitoring();

    cluster::PodBehavior sgx_behavior;
    sgx_behavior.sgx = true;
    sgx_behavior.actual_usage = 8_MiB;
    sgx_behavior.duration = Duration::minutes(5);
    cluster_.api().submit(cluster::make_stressor_pod(
        "enclave-app", {0_B, Pages{2048}}, {0_B, Pages{2048}}, sgx_behavior));

    cluster::PodBehavior std_behavior;
    std_behavior.actual_usage = 2_GiB;
    std_behavior.duration = Duration::minutes(5);
    cluster_.api().submit(cluster::make_stressor_pod(
        "web", {2_GiB, Pages{0}}, {2_GiB, Pages{0}}, std_behavior));

    cluster_.sim().run_until(TimePoint::epoch() + Duration::seconds(30));
  }
  ~DescribeFixture() override { cluster_.stop_all(); }

  exp::SimulatedCluster cluster_;
  core::SgxAwareScheduler* scheduler_ = nullptr;
};

TEST_F(DescribeFixture, GetPodsListsEveryPod) {
  const Table table = get_pods(cluster_.api(), cluster_.sim().now());
  ASSERT_EQ(table.rows(), 2u);
  EXPECT_EQ(table.cell(0, 0), "enclave-app");
  EXPECT_EQ(table.cell(0, 2), "Running");
  EXPECT_EQ(table.cell(0, 4), "yes");   // SGX column
  EXPECT_EQ(table.cell(0, 5), "2048p"); // EPC request
  EXPECT_EQ(table.cell(1, 0), "web");
  EXPECT_EQ(table.cell(1, 4), "no");
  EXPECT_EQ(table.cell(1, 6), "2.00GiB");
}

TEST_F(DescribeFixture, GetNodesShowsInventoryAndState) {
  const Table table = get_nodes(cluster_.api());
  ASSERT_EQ(table.rows(), 5u);  // master + 2 workers + 2 SGX nodes
  // The master row.
  EXPECT_EQ(table.cell(0, 0), "master");
  EXPECT_EQ(table.cell(0, 1), "master");
  EXPECT_EQ(table.cell(0, 3), "-");
  // An SGX node row: capacity advertised, usage visible.
  bool found_sgx1 = false;
  for (std::size_t r = 0; r < table.rows(); ++r) {
    if (table.cell(r, 0) != "sgx-1") continue;
    found_sgx1 = true;
    EXPECT_EQ(table.cell(r, 3), "SGX1");
    EXPECT_EQ(table.cell(r, 4), "23936");
    // 2048 pages in use by enclave-app.
    EXPECT_EQ(table.cell(r, 5), "21888");
    EXPECT_EQ(table.cell(r, 7), "1");
  }
  EXPECT_TRUE(found_sgx1);
}

TEST_F(DescribeFixture, GetNodesMarksFailedNodes) {
  cluster_.api().fail_node("node-1");
  const Table table = get_nodes(cluster_.api());
  for (std::size_t r = 0; r < table.rows(); ++r) {
    if (table.cell(r, 0) == "node-1") {
      EXPECT_EQ(table.cell(r, 2), "NO");
    }
  }
}

TEST_F(DescribeFixture, DescribePodHasTimelineAndEvents) {
  const std::string text = describe_pod(cluster_.api(), "enclave-app");
  EXPECT_NE(text.find("Name:       enclave-app"), std::string::npos);
  EXPECT_NE(text.find("Phase:      Running"), std::string::npos);
  EXPECT_NE(text.find("Requests:   epc=2048p"), std::string::npos);
  EXPECT_NE(text.find("Submitted:"), std::string::npos);
  EXPECT_NE(text.find("Started:"), std::string::npos);
  EXPECT_NE(text.find("Waiting:"), std::string::npos);
  EXPECT_NE(text.find("Scheduled to"), std::string::npos);
  EXPECT_THROW((void)describe_pod(cluster_.api(), "ghost"),
               ContractViolation);
}

TEST_F(DescribeFixture, DescribeNodeShowsDriverStateAndEnclaves) {
  const std::string text = describe_node(cluster_.api(), "sgx-1");
  EXPECT_NE(text.find("Name:      sgx-1"), std::string::npos);
  EXPECT_NE(text.find("SGX:       SGX1, limits enforced"), std::string::npos);
  EXPECT_NE(text.find("total=23936p"), std::string::npos);
  EXPECT_NE(text.find("free=21888p"), std::string::npos);
  // The running pod's enclave appears in the listing with its cgroup.
  EXPECT_NE(text.find("pages=2048"), std::string::npos);
  EXPECT_NE(text.find("pod-enclave-app"), std::string::npos);
  EXPECT_NE(text.find("enclave-app (Running)"), std::string::npos);
}

TEST_F(DescribeFixture, DescribeNodeWithoutSgx) {
  const std::string text = describe_node(cluster_.api(), "node-1");
  EXPECT_NE(text.find("SGX:       none"), std::string::npos);
  EXPECT_NE(text.find("web (Running)"), std::string::npos);
  EXPECT_THROW((void)describe_node(cluster_.api(), "ghost"),
               ContractViolation);
}

TEST_F(DescribeFixture, ControlPlaneReport) {
  // A running scheduler reports as "active"; a crashed one says so.
  std::string text = describe_control_plane(
      cluster_.api(), {scheduler_}, cluster_.sim().now());
  EXPECT_NE(text.find("sgx-binpack: active, cycles="), std::string::npos);
  EXPECT_NE(text.find("bind_conflicts=0 guard_rejections=0"),
            std::string::npos);
  EXPECT_NE(text.find("degraded_cycles=0"), std::string::npos);

  scheduler_->crash();
  text = describe_control_plane(cluster_.api(), {scheduler_},
                                cluster_.sim().now());
  EXPECT_NE(text.find("sgx-binpack: CRASHED"), std::string::npos);
}

TEST_F(DescribeFixture, ControlPlaneOmitsAttestationWhenDisabled) {
  const std::string text = describe_control_plane(
      cluster_.api(), {scheduler_}, cluster_.sim().now());
  EXPECT_EQ(text.find("Attestation cache:"), std::string::npos);
}

class AttestedDescribeFixture : public ::testing::Test {
 protected:
  AttestedDescribeFixture() {
    exp::ClusterConfig config;
    config.attestation = true;
    cluster_.emplace(config);
    scheduler_ = &cluster_->add_sgx_scheduler(core::PlacementPolicy::kBinpack);
    cluster_->api().set_default_scheduler(scheduler_->name());
    cluster_->start_monitoring();

    cluster::PodBehavior behavior;
    behavior.sgx = true;
    behavior.actual_usage = 8_MiB;
    behavior.duration = Duration::minutes(5);
    cluster_->api().submit(cluster::make_stressor_pod(
        "enclave-app", {0_B, Pages{2048}}, {0_B, Pages{2048}}, behavior));
    cluster_->sim().run_until(TimePoint::epoch() + Duration::seconds(30));
  }
  ~AttestedDescribeFixture() override { cluster_->stop_all(); }

  std::optional<exp::SimulatedCluster> cluster_;
  core::SgxAwareScheduler* scheduler_ = nullptr;
};

TEST_F(AttestedDescribeFixture, ControlPlaneReportsTheVerdictCache) {
  const std::string text = describe_control_plane(
      cluster_->api(), {scheduler_}, cluster_->sim().now());
  EXPECT_NE(text.find("Attestation cache:"), std::string::npos);
  EXPECT_NE(text.find("hits="), std::string::npos);
  // The bound pod's node holds an accepted verdict with its age.
  EXPECT_NE(text.find("accepted age="), std::string::npos);
  EXPECT_NE(text.find("expires-in="), std::string::npos);
  // The scheduler deferred at least the first cycle on the cold cache.
  EXPECT_NE(text.find("attestation_waits="), std::string::npos);
  // Healthy cluster: nothing mid re-verification, no banner.
  EXPECT_EQ(text.find("RE-ATTESTATION STORM"), std::string::npos);
}

TEST_F(AttestedDescribeFixture, StormBannerAppearsDuringMassReverification) {
  AttestationGate& gate = *cluster_->api().attestation();
  cluster_->attestation_verifier()->set_outage(true);
  gate.force_expire_all();  // every node re-verifies at once, none resolves
  const std::string text = describe_control_plane(
      cluster_->api(), {scheduler_}, cluster_->sim().now());
  EXPECT_NE(text.find("RE-ATTESTATION STORM"), std::string::npos);
  EXPECT_NE(text.find("EXPIRED"), std::string::npos);
}

TEST_F(DescribeFixture, DescribeShowsFailureReason) {
  cluster::PodBehavior liar_behavior;
  liar_behavior.sgx = true;
  liar_behavior.actual_usage = Pages{4096}.as_bytes();
  liar_behavior.duration = Duration::minutes(1);
  cluster_.api().submit(cluster::make_stressor_pod(
      "liar", {0_B, Pages{100}}, {0_B, Pages{100}}, liar_behavior));
  cluster_.sim().run_until(cluster_.sim().now() + Duration::minutes(1));
  const std::string text = describe_pod(cluster_.api(), "liar");
  EXPECT_NE(text.find("Failure:    EpcLimitExceeded"), std::string::npos);
}

}  // namespace
}  // namespace sgxo::orch
