#include "sgx/driver.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace sgxo::sgx {
namespace {

DriverConfig enforcing() {
  DriverConfig config;
  config.enforce_limits = true;
  return config;
}

DriverConfig stock() {
  DriverConfig config;
  config.enforce_limits = false;
  return config;
}

TEST(Driver, ModuleParametersExposePageCounts) {
  Driver driver{enforcing()};
  EXPECT_EQ(driver.read_module_param("sgx_nr_total_epc_pages"), "23936");
  EXPECT_EQ(driver.read_module_param("sgx_nr_free_pages"), "23936");
  driver.set_pod_limit("/kubepods/pod-a", Pages{100});
  const EnclaveId id = driver.create_enclave(1, "/kubepods/pod-a", Pages{100});
  driver.init_enclave(id);
  EXPECT_EQ(driver.read_module_param("sgx_nr_free_pages"), "23836");
}

TEST(Driver, UnknownModuleParameterThrows) {
  Driver driver{enforcing()};
  EXPECT_THROW((void)driver.read_module_param("nope"), DomainError);
}

TEST(Driver, ProcessPagesIoctl) {
  Driver driver{stock()};
  (void)driver.create_enclave(7, "/pod-a", Pages{10});
  (void)driver.create_enclave(7, "/pod-a", Pages{5});
  (void)driver.create_enclave(8, "/pod-b", Pages{3});
  EXPECT_EQ(driver.process_pages(7), Pages{15});
  EXPECT_EQ(driver.process_pages(8), Pages{3});
  EXPECT_EQ(driver.process_pages(999), Pages{0});
}

TEST(Driver, PodPagesAggregatesAcrossProcesses) {
  Driver driver{stock()};
  (void)driver.create_enclave(1, "/pod-a", Pages{10});
  (void)driver.create_enclave(2, "/pod-a", Pages{20});
  EXPECT_EQ(driver.pod_pages("/pod-a"), Pages{30});
  EXPECT_EQ(driver.pod_pages("/pod-x"), Pages{0});
}

TEST(Driver, LimitsAreSetOnce) {
  Driver driver{enforcing()};
  driver.set_pod_limit("/pod-a", Pages{50});
  EXPECT_EQ(driver.pod_limit("/pod-a"), Pages{50});
  // A container trying to reset its own limit is rejected (§V-E).
  EXPECT_THROW(driver.set_pod_limit("/pod-a", Pages{5000}), DomainError);
  EXPECT_EQ(driver.pod_limit("/pod-a"), Pages{50});
}

TEST(Driver, LimitRequiresCgroupPath) {
  Driver driver{enforcing()};
  EXPECT_THROW(driver.set_pod_limit("", Pages{1}), ContractViolation);
}

TEST(Driver, ForgetPodAllowsReuse) {
  Driver driver{enforcing()};
  driver.set_pod_limit("/pod-a", Pages{50});
  driver.forget_pod("/pod-a");
  EXPECT_EQ(driver.pod_limit("/pod-a"), std::nullopt);
  EXPECT_NO_THROW(driver.set_pod_limit("/pod-a", Pages{60}));
}

TEST(Driver, InitWithinLimitSucceeds) {
  Driver driver{enforcing()};
  driver.set_pod_limit("/pod-a", Pages{100});
  const EnclaveId id = driver.create_enclave(1, "/pod-a", Pages{100});
  EXPECT_NO_THROW(driver.init_enclave(id));
  EXPECT_TRUE(driver.enclave_initialized(id));
}

TEST(Driver, InitBeyondLimitDeniedAndPagesReleased) {
  Driver driver{enforcing()};
  driver.set_pod_limit("/pod-a", Pages{100});
  const EnclaveId id = driver.create_enclave(1, "/pod-a", Pages{101});
  const Pages free_before_init = driver.free_epc_pages();
  EXPECT_LT(free_before_init, driver.total_epc_pages());
  EXPECT_THROW(driver.init_enclave(id), EnclaveInitDenied);
  // Denial tears the enclave down: pages return, record disappears.
  EXPECT_EQ(driver.free_epc_pages(), driver.total_epc_pages());
  EXPECT_EQ(driver.enclave_count(), 0u);
}

TEST(Driver, PodAggregateLimitCoversMultipleEnclaves) {
  Driver driver{enforcing()};
  driver.set_pod_limit("/pod-a", Pages{100});
  const EnclaveId first = driver.create_enclave(1, "/pod-a", Pages{60});
  driver.init_enclave(first);
  const EnclaveId second = driver.create_enclave(1, "/pod-a", Pages{60});
  // 60 + 60 > 100: the second enclave must be denied.
  EXPECT_THROW(driver.init_enclave(second), EnclaveInitDenied);
  // But a smaller one still fits.
  const EnclaveId third = driver.create_enclave(1, "/pod-a", Pages{40});
  EXPECT_NO_THROW(driver.init_enclave(third));
}

TEST(Driver, MissingLimitDeniedWhenEnforcing) {
  Driver driver{enforcing()};
  const EnclaveId id = driver.create_enclave(1, "/unknown-pod", Pages{1});
  EXPECT_THROW(driver.init_enclave(id), EnclaveInitDenied);
}

TEST(Driver, StockDriverAllowsEverything) {
  // The malicious-container scenario (Fig. 11, limits disabled): declare
  // 1 page, allocate half the EPC — the stock driver happily accepts.
  Driver driver{stock()};
  driver.set_pod_limit("/malicious", Pages{1});
  const Pages half{driver.total_epc_pages().count() / 2};
  const EnclaveId id = driver.create_enclave(1, "/malicious", half);
  EXPECT_NO_THROW(driver.init_enclave(id));
  EXPECT_EQ(driver.pod_pages("/malicious"), half);
}

TEST(Driver, EnforcingDriverKillsMaliciousContainer) {
  Driver driver{enforcing()};
  driver.set_pod_limit("/malicious", Pages{1});
  const Pages half{driver.total_epc_pages().count() / 2};
  const EnclaveId id = driver.create_enclave(1, "/malicious", half);
  EXPECT_THROW(driver.init_enclave(id), EnclaveInitDenied);
}

TEST(Driver, DestroyEnclaveFreesPages) {
  Driver driver{stock()};
  const EnclaveId id = driver.create_enclave(1, "/pod-a", Pages{500});
  driver.destroy_enclave(id);
  EXPECT_EQ(driver.free_epc_pages(), driver.total_epc_pages());
  EXPECT_THROW(driver.destroy_enclave(id), ContractViolation);
}

TEST(Driver, ProcessExitReleasesAllItsEnclaves) {
  Driver driver{stock()};
  (void)driver.create_enclave(1, "/pod-a", Pages{10});
  (void)driver.create_enclave(1, "/pod-a", Pages{20});
  (void)driver.create_enclave(2, "/pod-b", Pages{30});
  driver.on_process_exit(1);
  EXPECT_EQ(driver.process_pages(1), Pages{0});
  EXPECT_EQ(driver.process_pages(2), Pages{30});
  EXPECT_EQ(driver.enclave_count(), 1u);
}

TEST(Driver, LifecycleContractChecks) {
  Driver driver{stock()};
  EXPECT_THROW(driver.init_enclave(12345), ContractViolation);
  EXPECT_THROW((void)driver.enclave_initialized(12345), ContractViolation);
  EXPECT_THROW((void)driver.create_enclave(1, "/p", Pages{0}),
               ContractViolation);
  const EnclaveId id = driver.create_enclave(1, "/p", Pages{1});
  driver.init_enclave(id);
  EXPECT_THROW(driver.init_enclave(id), ContractViolation);
}

TEST(Driver, CustomEpcGeometry) {
  DriverConfig config;
  config.epc = EpcConfig::with_usable(Bytes{32ULL << 20});
  config.enforce_limits = false;
  Driver driver{config};
  EXPECT_EQ(driver.total_epc_pages().count(), 8192u);
}

/// The enforcement hook against a per-pod ledger (limit, charged pages):
/// over random create/init/destroy sequences on five pods with random
/// limits, EINIT succeeds exactly when the pod's initialised pages plus
/// the new enclave fit its limit.
TEST(Driver, LimitEnforcementMatchesAPerPodLedger) {
  struct Ledger {
    Pages limit;
    Pages charged{0};
  };
  Rng rng{77};
  int admitted_total = 0;
  int denied_total = 0;
  for (int trial = 0; trial < 20; ++trial) {
    Driver driver{enforcing()};
    std::vector<CgroupPath> pods;
    std::vector<Ledger> ledgers;
    for (int p = 0; p < 5; ++p) {
      const Pages limit{
          static_cast<std::uint64_t>(rng.uniform_int(100, 8000))};
      pods.push_back("/pod-" + std::to_string(p));
      driver.set_pod_limit(pods.back(), limit);
      ledgers.push_back(Ledger{limit});
    }

    std::vector<std::vector<std::pair<EnclaveId, Pages>>> live(pods.size());
    for (int step = 0; step < 60; ++step) {
      const auto pod = static_cast<std::size_t>(rng.uniform_int(0, 4));
      if (rng.bernoulli(0.3) && !live[pod].empty()) {
        const auto [id, pages] = live[pod].back();
        live[pod].pop_back();
        driver.destroy_enclave(id);
        ledgers[pod].charged -= pages;
        continue;
      }
      const Pages pages{
          static_cast<std::uint64_t>(rng.uniform_int(50, 4000))};
      const bool fits = ledgers[pod].charged + pages <= ledgers[pod].limit;
      const EnclaveId id = driver.create_enclave(pod + 1, pods[pod], pages);
      bool admitted = true;
      try {
        driver.init_enclave(id);
      } catch (const EnclaveInitDenied&) {
        admitted = false;
      }
      ASSERT_EQ(admitted, fits) << "trial " << trial << " step " << step;
      if (admitted) {
        ledgers[pod].charged += pages;
        live[pod].emplace_back(id, pages);
        ++admitted_total;
      } else {
        ++denied_total;
      }
    }
  }
  // Both sides of the hook were exercised.
  EXPECT_GT(admitted_total, 0);
  EXPECT_GT(denied_total, 0);
}

TEST(PagingStats, DriverExportsPagedOutCounter) {
  Driver driver{stock()};
  EXPECT_EQ(driver.read_module_param("sgx_nr_paged_out_pages"), "0");
  // Fill the EPC, then over-commit: the older enclave's pages are evicted.
  const auto big = driver.create_enclave(1, "/a", driver.total_epc_pages());
  driver.init_enclave(big);
  const auto intruder = driver.create_enclave(2, "/b", Pages{1000});
  driver.init_enclave(intruder);
  EXPECT_EQ(driver.read_module_param("sgx_nr_paged_out_pages"), "1000");
  driver.destroy_enclave(intruder);
  // Counter is cumulative: it never decreases.
  EXPECT_EQ(driver.read_module_param("sgx_nr_paged_out_pages"), "1000");
  driver.destroy_enclave(big);
}

}  // namespace
}  // namespace sgxo::sgx
