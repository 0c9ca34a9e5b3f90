#include "sgx/sdk.hpp"

#include <algorithm>
#include <utility>

namespace sgxo::sgx {

AesmService::AesmService(const PerfModel& model, const Platform& platform)
    : model_(&model), platform_(platform) {
  launch_enclave_.emplace(*platform_);
  quoting_enclave_.emplace(*platform_);
}

Duration AesmService::start() {
  if (running_) return Duration{};
  running_ = true;
  return PerfModel::kPswStartup;
}

LaunchEnclave& AesmService::launch_enclave() {
  if (!launch_enclave_.has_value()) {
    throw DomainError{"AESM has no platform: architectural enclaves "
                      "unavailable"};
  }
  return *launch_enclave_;
}

const QuotingEnclave& AesmService::quoting_enclave() const {
  if (!quoting_enclave_.has_value()) {
    throw DomainError{"AESM has no platform: architectural enclaves "
                      "unavailable"};
  }
  return *quoting_enclave_;
}

void AesmService::provision_with(AttestationService& service) {
  if (!platform_.has_value()) {
    throw DomainError{"AESM has no platform: cannot provision"};
  }
  service.provision(*platform_);
}

EnclaveHandle::EnclaveHandle(Driver& driver, const PerfModel& model,
                             EnclaveId id, Pages pages)
    : driver_(&driver), model_(&model), id_(id), pages_(pages) {}

EnclaveHandle::~EnclaveHandle() { destroy(); }

EnclaveHandle::EnclaveHandle(EnclaveHandle&& other) noexcept
    : driver_(std::exchange(other.driver_, nullptr)),
      model_(other.model_),
      id_(other.id_),
      pages_(other.pages_),
      ecalls_(other.ecalls_) {}

EnclaveHandle& EnclaveHandle::operator=(EnclaveHandle&& other) noexcept {
  if (this != &other) {
    destroy();
    driver_ = std::exchange(other.driver_, nullptr);
    model_ = other.model_;
    id_ = other.id_;
    pages_ = other.pages_;
    ecalls_ = other.ecalls_;
  }
  return *this;
}

Duration EnclaveHandle::ecall(Duration trusted_work) {
  SGXO_CHECK_MSG(valid(), "ecall on destroyed enclave");
  SGXO_CHECK(trusted_work >= Duration{});
  ++ecalls_;
  const double slowdown =
      model_->execution_slowdown(driver_->epc().pressure());
  const auto scaled = Duration::micros(static_cast<std::int64_t>(
      static_cast<double>(trusted_work.micros_count()) * slowdown));
  // Enter + exit transitions, ~4 us each on real hardware.
  const Duration transitions = Duration::micros(8);
  return transitions + scaled;
}

Duration EnclaveHandle::grow(Bytes delta) {
  SGXO_CHECK_MSG(valid(), "grow on destroyed enclave");
  const Pages delta_pages = Pages::ceil_from(delta);
  driver_->augment_enclave(id_, delta_pages);  // may throw
  pages_ += delta_pages;
  return model_->dynamic_alloc_latency(delta);
}

Duration EnclaveHandle::shrink(Bytes delta) {
  SGXO_CHECK_MSG(valid(), "shrink on destroyed enclave");
  const Pages delta_pages = Pages::ceil_from(delta);
  driver_->trim_enclave(id_, delta_pages);
  pages_ -= delta_pages;
  // Trimming is cheap: no page content to accept, just bookkeeping.
  return Duration::micros(static_cast<std::int64_t>(delta_pages.count()));
}

void EnclaveHandle::destroy() {
  if (driver_ != nullptr) {
    driver_->destroy_enclave(id_);
    driver_ = nullptr;
  }
}

EnclaveId EnclaveHandle::release_ownership() {
  SGXO_CHECK_MSG(valid(), "releasing ownership of a destroyed enclave");
  driver_ = nullptr;
  return id_;
}

Sdk::Launch Sdk::launch_enclave(Pid pid, const CgroupPath& cgroup,
                                Bytes size) {
  // Every enclave owns at least one page (its SECS control structure).
  const Pages pages = std::max(Pages{1}, Pages::ceil_from(size));
  const EnclaveId id = driver_->create_enclave(pid, cgroup, pages);
  driver_->init_enclave(id);  // may throw EnclaveInitDenied (pages released)
  const Duration latency =
      model_->alloc_latency(size, driver_->epc().config().usable);
  return Launch{EnclaveHandle{*driver_, *model_, id, pages}, latency};
}

}  // namespace sgxo::sgx
