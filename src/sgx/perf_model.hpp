// SGX performance model calibrated against the paper's own measurements.
//
// Fig. 6 (§VI-D): a containerised SGX process pays
//   * ~100 ms for Platform Software (AESM) startup — each container runs its
//     own PSW instance because privileged mode is avoided;
//   * enclave memory allocation, all committed at build time:
//       1.6 ms/MiB while the request fits in the usable EPC,
//       a ~200 ms penalty plus 4.5 ms/MiB for the part beyond it.
// Standard (non-SGX) processes start in under 1 ms.
//
// Runtime over-commitment degrades enclave execution by up to three orders
// of magnitude (SCONE, cited in §V-A); the scheduler exists to avoid that
// regime, so the model only needs a monotone penalty.
#pragma once

#include "common/time.hpp"
#include "common/units.hpp"

namespace sgxo::sgx {

class PerfModel {
 public:
  /// Platform Software (AESM) startup, paid once per container.
  static constexpr Duration kPswStartup = Duration::millis(100);
  /// Allocation cost per MiB while within the usable EPC.
  static constexpr double kAllocMsPerMibInEpc = 1.6;
  /// Allocation cost per MiB for the portion beyond the usable EPC.
  static constexpr double kAllocMsPerMibPaged = 4.5;
  /// Fixed penalty once the request crosses the usable EPC boundary.
  static constexpr Duration kPagingKneePenalty = Duration::millis(200);
  /// Startup of a standard (non-SGX) process ("steadily took less than
  /// 1 ms" — §VI-D).
  static constexpr Duration kStandardStartup = Duration::micros(500);
  /// Execution slowdown at 2× over-commitment; grows linearly with the
  /// over-commit ratio. 1000× at ~2× pressure matches SCONE's worst case.
  static constexpr double kSlowdownPerOvercommit = 1000.0;

  /// Enclave memory allocation latency for a request of `requested` given a
  /// usable EPC of `usable` (piecewise-linear Fig. 6 model).
  [[nodiscard]] Duration alloc_latency(Bytes requested, Bytes usable) const;

  /// Full startup latency of an SGX container: PSW + allocation.
  [[nodiscard]] Duration sgx_startup(Bytes requested, Bytes usable) const;

  /// SGX 2 dynamic allocation (EAUG/EACCEPT) of `delta` during execution:
  /// linear in the amount, with no build-time knee — pages are accepted
  /// one by one as the enclave touches them (§VI-G).
  [[nodiscard]] Duration dynamic_alloc_latency(Bytes delta) const;

  /// Multiplicative execution slowdown for an enclave running while the
  /// node's EPC is committed at `pressure` (committed/total). 1.0 when the
  /// EPC is not over-committed.
  [[nodiscard]] double execution_slowdown(double pressure) const;
};

}  // namespace sgxo::sgx
