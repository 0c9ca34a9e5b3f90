#include "sgx/attestation_verifier.hpp"

namespace sgxo::sgx {

const char* to_string(VerifyStatus status) {
  switch (status) {
    case VerifyStatus::kAccepted:
      return "Accepted";
    case VerifyStatus::kRejected:
      return "Rejected";
    case VerifyStatus::kUnavailable:
      return "Unavailable";
    case VerifyStatus::kTimeout:
      return "Timeout";
  }
  return "?";
}

void AttestationVerifier::revoke(Measurement measurement) {
  if (stale_revocations_) {
    pending_revocations_.push_back(measurement);
    return;
  }
  revoked_.insert(measurement.value);
}

bool AttestationVerifier::revoked(Measurement measurement) const {
  return revoked_.contains(measurement.value);
}

void AttestationVerifier::set_stale_revocations(bool stale) {
  stale_revocations_ = stale;
  if (!stale) {
    for (Measurement m : pending_revocations_) {
      revoked_.insert(m.value);
    }
    pending_revocations_.clear();
  }
}

QuoteVerdict AttestationVerifier::verify(const Quote& quote) {
  ++attempts_;
  if (outage_) {
    ++unavailable_;
    return {VerifyStatus::kUnavailable, kTimeout, "verifier unreachable"};
  }
  const Duration latency = kRoundTrip + extra_latency_;
  if (latency > kTimeout) {
    ++timeouts_;
    return {VerifyStatus::kTimeout, kTimeout,
            "verification timed out"};
  }
  if (!service_.verify(quote)) {
    ++rejected_;
    return {VerifyStatus::kRejected, latency,
            "quote failed verification (unprovisioned platform or forged "
            "signature)"};
  }
  // Revocation is checked before the expected-measurement policy so that
  // revoking the deployment's own measurement takes effect.
  if (revoked(quote.measurement)) {
    ++rejected_;
    return {VerifyStatus::kRejected, latency, "measurement revoked"};
  }
  if (quote.measurement != config_.expected) {
    ++rejected_;
    return {VerifyStatus::kRejected, latency, "unexpected measurement"};
  }
  ++accepted_;
  return {VerifyStatus::kAccepted, latency, "ok"};
}

}  // namespace sgxo::sgx
