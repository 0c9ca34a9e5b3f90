#include "sgx/perf_model.hpp"

namespace sgxo::sgx {

Duration PerfModel::alloc_latency(Bytes requested, Bytes usable) const {
  const double req_mib = requested.as_mib();
  const double usable_mib = usable.as_mib();
  if (req_mib <= usable_mib) {
    return Duration::from_millis(req_mib * kAllocMsPerMibInEpc);
  }
  const double in_epc_ms = usable_mib * kAllocMsPerMibInEpc;
  const double paged_ms = (req_mib - usable_mib) * kAllocMsPerMibPaged;
  return Duration::from_millis(in_epc_ms + paged_ms) + kPagingKneePenalty;
}

Duration PerfModel::sgx_startup(Bytes requested, Bytes usable) const {
  return kPswStartup + alloc_latency(requested, usable);
}

Duration PerfModel::dynamic_alloc_latency(Bytes delta) const {
  return Duration::from_millis(delta.as_mib() * kAllocMsPerMibInEpc);
}

double PerfModel::execution_slowdown(double pressure) const {
  if (pressure <= 1.0) return 1.0;
  // Linear ramp: pressure 2.0 (2× over-commit) → kSlowdownPerOvercommit.
  return 1.0 + (pressure - 1.0) * (kSlowdownPerOvercommit - 1.0);
}

}  // namespace sgxo::sgx
