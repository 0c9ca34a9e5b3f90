// Remote-attestation verification as a *service with failure modes*. The
// core protocol machinery (attestation.hpp) answers "is this quote
// genuine?"; the orchestration layers need the operational wrapper the
// paper's deployment implies — a verifier reached over a network that can
// be down, slow, or serving a stale revocation list. The PoQ exemplar
// (poet_client/poet_server) shapes the split: a transport the caller
// injects, and a verdict object that carries latency so deterministic
// simulations can model the round-trip.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "sgx/attestation.hpp"

namespace sgxo::sgx {

/// Outcome classes of one verification attempt. `kUnavailable` and
/// `kTimeout` are *transient* — the caller may retry; `kRejected` is a
/// definitive negative verdict about the quote itself.
enum class VerifyStatus {
  kAccepted,
  kRejected,
  kUnavailable,
  kTimeout,
};

[[nodiscard]] const char* to_string(VerifyStatus status);

/// What one round-trip to the verifier produced. `latency` is the virtual
/// time the caller should charge for the exchange (callers schedule their
/// continuation `latency` in the future to model the network).
struct QuoteVerdict {
  VerifyStatus status = VerifyStatus::kUnavailable;
  Duration latency{};
  std::string reason;

  [[nodiscard]] bool accepted() const {
    return status == VerifyStatus::kAccepted;
  }
  /// True for outcomes worth retrying (verifier trouble, not quote
  /// trouble).
  [[nodiscard]] bool transient() const {
    return status == VerifyStatus::kUnavailable ||
           status == VerifyStatus::kTimeout;
  }
};

/// The injectable seam between admission control and the attestation
/// backend. Tests substitute hostile or flaky transports; production-shaped
/// code uses AttestationVerifier below.
class QuoteTransport {
 public:
  virtual ~QuoteTransport() = default;
  [[nodiscard]] virtual QuoteVerdict verify(const Quote& quote) = 0;
};

/// Reference transport: an AttestationService plus the failure dials the
/// chaos engine turns — outage, added latency (slow-verify), and a stale
/// revocation list (revocations buffered, not yet applied).
class AttestationVerifier final : public QuoteTransport {
 public:
  struct Config {
    /// The one enclave measurement this deployment admits (the paper runs
    /// a single attested stressor image; multi-measurement policy would
    /// layer on top).
    Measurement expected{};
  };

  /// Healthy round-trip to the verifier.
  static constexpr Duration kRoundTrip = Duration::millis(50);
  /// Attempts whose modelled latency exceeds this time out.
  static constexpr Duration kTimeout = Duration::seconds(1);

  AttestationVerifier() = default;
  explicit AttestationVerifier(Config config) : config_(config) {}

  [[nodiscard]] const Config& config() const { return config_; }
  void set_expected(Measurement m) { config_.expected = m; }

  /// Enrols a genuine platform (PE ↔ IAS step).
  void provision(const Platform& platform) { service_.provision(platform); }
  [[nodiscard]] bool provisioned(std::uint64_t platform_id) const {
    return service_.provisioned(platform_id);
  }

  /// Revokes a measurement. While `set_stale_revocations(true)` the
  /// revocation is *buffered* — the verifier keeps vouching for it until
  /// the list refreshes (stale-CRL window).
  void revoke(Measurement measurement);
  [[nodiscard]] bool revoked(Measurement measurement) const;
  void set_stale_revocations(bool stale);
  [[nodiscard]] bool stale_revocations() const { return stale_revocations_; }

  /// Chaos dials.
  void set_outage(bool down) { outage_ = down; }
  [[nodiscard]] bool outage() const { return outage_; }
  /// Extra per-attempt latency on top of the healthy round-trip; a zero
  /// duration clears it.
  void set_extra_latency(Duration extra) { extra_latency_ = extra; }
  [[nodiscard]] Duration extra_latency() const { return extra_latency_; }

  [[nodiscard]] QuoteVerdict verify(const Quote& quote) override;

  /// Attempt counters (all attempts, including failed ones).
  [[nodiscard]] std::uint64_t attempts() const { return attempts_; }
  [[nodiscard]] std::uint64_t accepted() const { return accepted_; }
  [[nodiscard]] std::uint64_t rejected() const { return rejected_; }
  [[nodiscard]] std::uint64_t unavailable() const { return unavailable_; }
  [[nodiscard]] std::uint64_t timeouts() const { return timeouts_; }

 private:
  Config config_;
  AttestationService service_;
  std::set<std::uint64_t> revoked_;
  std::vector<Measurement> pending_revocations_;
  bool stale_revocations_ = false;
  bool outage_ = false;
  Duration extra_latency_{};

  std::uint64_t attempts_ = 0;
  std::uint64_t accepted_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t unavailable_ = 0;
  std::uint64_t timeouts_ = 0;
};

}  // namespace sgxo::sgx
