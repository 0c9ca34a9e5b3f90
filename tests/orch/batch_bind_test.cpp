// Transactional batch binds: per-entry outcomes, cumulative intra-batch
// EPC admission, and the conflict summary the shared-state schedulers
// feed into their backoff.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "orch/api_server.hpp"

namespace sgxo::orch {
namespace {

using namespace sgxo::literals;

cluster::MachineSpec machine(const std::string& name,
                             std::optional<Pages> epc = std::nullopt,
                             bool master = false) {
  cluster::MachineSpec spec;
  spec.name = name;
  spec.cpu_cores = 4;
  spec.memory = 64_GiB;
  if (epc.has_value()) spec.epc = sgx::EpcConfig::with_usable(epc->as_bytes());
  spec.is_master = master;
  return spec;
}

cluster::PodSpec sgx_pod(const std::string& name, Pages pages) {
  cluster::PodBehavior behavior;
  behavior.sgx = true;
  behavior.actual_usage = pages.as_bytes();
  behavior.duration = Duration::hours(1);
  return cluster::make_stressor_pod(name, {0_B, pages}, {0_B, pages},
                                    behavior);
}

/// Two SGX workers with 1000 usable EPC pages each, one master.
class BatchBindFixture : public ::testing::Test {
 protected:
  BatchBindFixture()
      : api_(sim_),
        sgx_1_(machine("sgx-1", Pages{1000})),
        sgx_2_(machine("sgx-2", Pages{1000})),
        master_(machine("master", std::nullopt, /*master=*/true)),
        kubelet_1_(sim_, sgx_1_, perf_, registry_, api_),
        kubelet_2_(sim_, sgx_2_, perf_, registry_, api_),
        kubelet_m_(sim_, master_, perf_, registry_, api_) {
    api_.register_node(sgx_1_, kubelet_1_);
    api_.register_node(sgx_2_, kubelet_2_);
    api_.register_node(master_, kubelet_m_);
  }

  [[nodiscard]] std::uint64_t version(const std::string& pod) const {
    return api_.pod(pod).resource_version;
  }

  sim::Simulation sim_;
  ApiServer api_;
  sgx::PerfModel perf_;
  cluster::ImageRegistry registry_;
  cluster::Node sgx_1_;
  cluster::Node sgx_2_;
  cluster::Node master_;
  cluster::Kubelet kubelet_1_;
  cluster::Kubelet kubelet_2_;
  cluster::Kubelet kubelet_m_;
};

TEST_F(BatchBindFixture, PerEntryBatchAppliesEachValidEntry) {
  api_.submit(sgx_pod("a", Pages{100}));
  api_.submit(sgx_pod("b", Pages{100}));
  api_.submit(sgx_pod("c", Pages{100}));
  const auto result = api_.try_bind_batch({
      {"a", "sgx-1", version("a")},
      {"b", "sgx-1", version("b") + 9},  // stale snapshot
      {"c", "ghost", version("c")},      // dead node
  });
  ASSERT_EQ(result.entries.size(), 3u);
  EXPECT_EQ(result.entries[0], ApiServer::BindStatus::kBound);
  EXPECT_EQ(result.entries[1], ApiServer::BindStatus::kStaleVersion);
  EXPECT_EQ(result.entries[2], ApiServer::BindStatus::kNodeUnavailable);
  EXPECT_EQ(result.bound, 1u);
  EXPECT_EQ(result.conflicts, 1u);
  EXPECT_EQ(result.unavailable, 1u);
  // The valid entry really applied; the invalid ones left their pods
  // pending and untouched.
  EXPECT_EQ(api_.pod("a").phase, cluster::PodPhase::kBound);
  EXPECT_EQ(api_.pod("b").phase, cluster::PodPhase::kPending);
  EXPECT_EQ(api_.pod("c").phase, cluster::PodPhase::kPending);
  // Node deaths are faults, not contention: only the stale entry counts.
  EXPECT_DOUBLE_EQ(result.conflict_rate(), 1.0 / 3.0);
}

TEST_F(BatchBindFixture, IntraBatchEpcChargesAreCumulative) {
  // Each pod fits alone (600 of 1000 pages); both in one transaction
  // over-commit. The batch must charge the first entry's pages before
  // validating the second — one transaction can never admit two pods
  // into the same last pages.
  api_.submit(sgx_pod("a", Pages{600}));
  api_.submit(sgx_pod("b", Pages{600}));
  const auto result = api_.try_bind_batch({
      {"a", "sgx-1", version("a")},
      {"b", "sgx-1", version("b")},
  });
  EXPECT_EQ(result.entries[0], ApiServer::BindStatus::kBound);
  EXPECT_EQ(result.entries[1], ApiServer::BindStatus::kAdmissionRejected);
  EXPECT_EQ(result.bound, 1u);
  EXPECT_EQ(result.admission_rejections, 1u);
  EXPECT_EQ(api_.guard_rejections(), 1u);
  EXPECT_EQ(api_.pod("b").phase, cluster::PodPhase::kPending);

  // A different node in the same batch is unaffected by the charge.
  const auto retry = api_.try_bind_batch({{"b", "sgx-2", version("b")}});
  EXPECT_EQ(retry.entries[0], ApiServer::BindStatus::kBound);
}

TEST_F(BatchBindFixture, DuplicatePodEntriesConflictWithinTheBatch) {
  api_.submit(sgx_pod("p", Pages{100}));
  const std::uint64_t v0 = version("p");
  const auto result = api_.try_bind_batch({
      {"p", "sgx-1", v0},
      {"p", "sgx-2", v0},  // same pod again — a double placement attempt
  });
  EXPECT_EQ(result.entries[0], ApiServer::BindStatus::kBound);
  EXPECT_EQ(result.entries[1], ApiServer::BindStatus::kNotPending);
  EXPECT_EQ(result.bound, 1u);
  EXPECT_EQ(result.conflicts, 1u);
  EXPECT_EQ(api_.pod("p").node, "sgx-1");
}

TEST_F(BatchBindFixture, OutcomesCarryObservedVersions) {
  api_.submit(sgx_pod("a", Pages{100}));
  api_.submit(sgx_pod("b", Pages{100}));
  const std::uint64_t vb = version("b");
  const auto result = api_.try_bind_batch({
      {"a", "sgx-1", version("a")},
      {"b", "sgx-1", vb + 3},
  });
  // Bound entries report the post-bump version; rejected entries report
  // the live version a retry should CAS against.
  EXPECT_EQ(result.entries[0].resource_version, version("a"));
  EXPECT_EQ(result.entries[1].resource_version, vb);
  EXPECT_TRUE(
      api_.try_bind("b", "sgx-1", result.entries[1].resource_version).bound());
}

TEST_F(BatchBindFixture, EmptyBatchIsANoOp) {
  const auto result = api_.try_bind_batch({});
  EXPECT_TRUE(result.entries.empty());
  EXPECT_EQ(result.bound, 0u);
  EXPECT_DOUBLE_EQ(result.conflict_rate(), 0.0);
}

TEST_F(BatchBindFixture, UnknownPodInBatchIsACallerBug) {
  EXPECT_THROW((void)api_.try_bind_batch({{"ghost", "sgx-1", 1}}),
               ContractViolation);
}

}  // namespace
}  // namespace sgxo::orch
