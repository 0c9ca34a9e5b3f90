// Attestation-gated admission at the API server (paper §II applied to the
// pod lifecycle): before a bind to an SGX node commits, the control plane
// must hold a *fresh, accepted* verification verdict for that node's
// quote. Verdicts are cached per node with TTL expiry (positive and
// negative TTLs differ), verification requests are single-flighted so N
// concurrent binds to one node cost one round-trip, and accepted verdicts
// renew themselves shortly before expiry so a healthy verifier never
// interrupts placement. When a verdict hard-expires (TTL + grace) with no
// renewal — verifier outage, or a forced re-attestation storm — running
// SGX pods on that node are evicted back to the pending queue: the
// invariant "no pod runs on a node with an expired or rejected verdict"
// is enforced, not just reported.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "cluster/node.hpp"
#include "cluster/pod.hpp"
#include "common/time.hpp"
#include "sgx/attestation_verifier.hpp"
#include "sim/simulation.hpp"

namespace sgxo::orch {

class ApiServer;

class AttestationGate {
 public:
  struct Config {
    /// Enforce hard expiry by evicting running SGX pods. Off = report-only
    /// (benches that measure cache economics without churn).
    bool evict_on_expiry = true;
  };

  /// How long an accepted verdict stays valid.
  static constexpr Duration kVerdictTtl = Duration::minutes(5);
  /// How long a negative verdict (rejected or transient failure) is cached
  /// before the next bind may retrigger verification — negative caching
  /// keeps a dead verifier from being hammered every cycle.
  static constexpr Duration kNegativeTtl = Duration::seconds(20);
  /// An accepted verdict renews itself in the background at 75% of
  /// kVerdictTtl.
  static constexpr Duration kRenewAfter = Duration::seconds(225);
  /// Grace past soft expiry before running pods are evicted. Soft expiry
  /// blocks *new* binds; hard expiry (TTL + grace) is when already-running
  /// SGX pods must be gone.
  static constexpr Duration kExpiryGrace = Duration::seconds(5);

  /// Produces the node's current quote on demand (the kubelet-side quoting
  /// enclave round, collapsed — transport failure modes live in the
  /// verifier).
  using QuoteSource = std::function<sgx::Quote(const cluster::NodeName&)>;

  /// What the bind path should do with this pod on this node *now*.
  enum class Check {
    /// Fresh accepted verdict — bind proceeds.
    kPass,
    /// No usable verdict, but the pod is non-SGX, so it fails open — bind
    /// proceeds, counted as a degraded admission.
    kDegradedPass,
    /// Verification in flight or just requested — the bind must wait
    /// (kAttestationPending) and retry a later cycle.
    kPending,
    /// Cached definitive rejection — the bind is refused.
    kRejected,
  };

  AttestationGate(sim::Simulation& sim, ApiServer& api,
                  sgx::QuoteTransport& transport, QuoteSource quotes,
                  Config config);

  /// Bind-path check (mutating): consults the cache, kicks off a
  /// verification on miss/expiry, and updates hit/miss counters.
  [[nodiscard]] Check check_bind(const cluster::NodeName& node, bool sgx_pod);

  /// Invariant probe: may an SGX pod be *running* on `node` at `now`?
  /// True only while an accepted verdict is within its hard-expiry bound
  /// (TTL + grace, inclusive: the eviction event at the bound fires after
  /// same-tick probes).
  [[nodiscard]] bool allows_running(const cluster::NodeName& node,
                                    TimePoint now) const;

  /// Re-attestation storm: soft-expires every accepted verdict at once,
  /// forcing cluster-wide re-verification (mass TTL lapse / verifier key
  /// rollover). Renewals race the hard-expiry enforcement: a healthy
  /// verifier wins well inside the grace window; a dead one loses and the
  /// node's SGX pods are evicted.
  void force_expire_all();

  // ---- introspection (describe_control_plane, tests, harness) -------------
  struct VerdictView {
    cluster::NodeName node;
    sgx::Measurement measurement{};
    bool accepted = false;
    bool in_flight = false;
    TimePoint decided;
    TimePoint expires;
    std::string reason;
  };
  /// Cached verdicts (plus in-flight-only nodes) in node-name order.
  [[nodiscard]] std::vector<VerdictView> verdicts() const;

  [[nodiscard]] std::size_t entries() const { return cache_.size(); }
  [[nodiscard]] std::size_t in_flight() const { return inflight_.size(); }
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  [[nodiscard]] std::uint64_t expired() const { return expired_; }
  [[nodiscard]] std::uint64_t negative_hits() const { return negative_hits_; }
  /// check_bind calls absorbed by an already-in-flight verification.
  [[nodiscard]] std::uint64_t coalesced() const { return coalesced_; }
  /// Verification round-trips actually issued.
  [[nodiscard]] std::uint64_t verifications() const { return verifications_; }
  /// Running SGX pods evicted at hard expiry.
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }
  [[nodiscard]] std::uint64_t degraded_admissions() const {
    return degraded_admissions_;
  }
  [[nodiscard]] std::uint64_t storms() const { return storms_; }

 private:
  struct Entry {
    bool accepted = false;
    /// Negative verdict that was transient (verifier down/slow), not a
    /// definitive quote rejection — non-SGX pods may fail open past it.
    bool transient = false;
    TimePoint decided;
    TimePoint expires;
    std::string reason;
    sgx::Measurement measurement{};
    /// Monotonic install counter; renewal/expiry events fizzle when the
    /// entry they armed for was superseded.
    std::uint64_t generation = 0;
  };

  void request_verification(const cluster::NodeName& node);
  void install(const cluster::NodeName& node, const sgx::QuoteVerdict& verdict,
               sgx::Measurement measurement);
  void enforce_expiry(const cluster::NodeName& node);
  void evict_sgx_pods(const cluster::NodeName& node, const std::string& reason);
  [[nodiscard]] Check decide(const Entry* fresh, bool sgx_pod) const;

  sim::Simulation* sim_;
  ApiServer* api_;
  sgx::QuoteTransport* transport_;
  QuoteSource quotes_;
  Config config_;

  std::map<cluster::NodeName, Entry> cache_;
  std::set<cluster::NodeName> inflight_;
  std::uint64_t next_generation_ = 1;

  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t expired_ = 0;
  std::uint64_t negative_hits_ = 0;
  std::uint64_t coalesced_ = 0;
  std::uint64_t verifications_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t degraded_admissions_ = 0;
  std::uint64_t storms_ = 0;
};

}  // namespace sgxo::orch
