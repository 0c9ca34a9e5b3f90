#include "orch/attestation_gate.hpp"

#include <utility>

#include "common/error.hpp"
#include "orch/api_server.hpp"

namespace sgxo::orch {

AttestationGate::AttestationGate(sim::Simulation& sim, ApiServer& api,
                                 sgx::QuoteTransport& transport,
                                 QuoteSource quotes, Config config)
    : sim_(&sim),
      api_(&api),
      transport_(&transport),
      quotes_(std::move(quotes)),
      config_(config) {
  SGXO_CHECK(quotes_ != nullptr);
}

AttestationGate::Check AttestationGate::decide(const Entry* fresh,
                                               bool sgx_pod) const {
  if (fresh != nullptr) {
    if (fresh->accepted) return Check::kPass;
    if (!fresh->transient) return Check::kRejected;
  }
  // No usable verdict (missing, expired, or fresh-but-transient failure).
  if (!sgx_pod) return Check::kDegradedPass;
  return Check::kPending;
}

AttestationGate::Check AttestationGate::check_bind(
    const cluster::NodeName& node, bool sgx_pod) {
  const auto it = cache_.find(node);
  const TimePoint now = sim_->now();
  const Entry* fresh =
      (it != cache_.end() && now < it->second.expires) ? &it->second : nullptr;
  if (fresh != nullptr) {
    if (fresh->accepted) {
      ++hits_;
      return Check::kPass;
    }
    ++negative_hits_;
    const Check check = decide(fresh, sgx_pod);
    if (check == Check::kDegradedPass) ++degraded_admissions_;
    return check;
  }
  if (it != cache_.end()) {
    ++expired_;
  } else {
    ++misses_;
  }
  request_verification(node);
  const Check check = decide(nullptr, sgx_pod);
  if (check == Check::kDegradedPass) ++degraded_admissions_;
  return check;
}

bool AttestationGate::allows_running(const cluster::NodeName& node,
                                     TimePoint now) const {
  const auto it = cache_.find(node);
  if (it == cache_.end()) return false;
  const Entry& entry = it->second;
  // Inclusive bound: the hard-expiry eviction event scheduled *at*
  // expires + grace fires after a probe landing on the same tick (FIFO
  // within a timestamp), so the probe must still allow that instant.
  return entry.accepted && now <= entry.expires + kExpiryGrace;
}

void AttestationGate::request_verification(const cluster::NodeName& node) {
  if (inflight_.contains(node)) {
    ++coalesced_;
    return;
  }
  inflight_.insert(node);
  ++verifications_;
  const sgx::Quote quote = quotes_(node);
  const sgx::QuoteVerdict verdict = transport_->verify(quote);
  sim_->schedule_after(
      verdict.latency, [this, node, verdict, m = quote.measurement] {
        inflight_.erase(node);
        install(node, verdict, m);
      });
}

void AttestationGate::install(const cluster::NodeName& node,
                              const sgx::QuoteVerdict& verdict,
                              sgx::Measurement measurement) {
  const TimePoint now = sim_->now();
  const auto existing = cache_.find(node);

  // A *transient* failure does not invalidate a still-operative accepted
  // verdict: a failed renewal keeps the old verdict until its own hard
  // expiry, retrying meanwhile, so a verifier blip mid-TTL never churns
  // running pods.
  if (verdict.transient() && existing != cache_.end() &&
      existing->second.accepted &&
      now <= existing->second.expires + kExpiryGrace) {
    const std::uint64_t gen = existing->second.generation;
    sim_->schedule_after(kNegativeTtl, [this, node, gen] {
      const auto it = cache_.find(node);
      if (it == cache_.end() || it->second.generation != gen) return;
      request_verification(node);
    });
    return;
  }

  Entry entry;
  entry.accepted = verdict.accepted();
  entry.transient = verdict.transient();
  entry.decided = now;
  entry.expires = now + (entry.accepted ? kVerdictTtl : kNegativeTtl);
  entry.reason = verdict.reason;
  entry.measurement = measurement;
  entry.generation = next_generation_++;
  const std::uint64_t gen = entry.generation;
  cache_[node] = std::move(entry);

  if (verdict.accepted()) {
    // Background renewal shortly before expiry keeps a healthy deployment
    // permanently fresh — binds pay the round-trip only once per node.
    sim_->schedule_after(kRenewAfter, [this, node, gen] {
      const auto it = cache_.find(node);
      if (it == cache_.end() || it->second.generation != gen) return;
      request_verification(node);
    });
    if (config_.evict_on_expiry) {
      sim_->schedule_after(kVerdictTtl + kExpiryGrace,
                           [this, node] { enforce_expiry(node); });
    }
    return;
  }

  // Definitive rejection: the node must not run SGX pods — enforce now.
  if (!verdict.transient() && config_.evict_on_expiry) {
    evict_sgx_pods(node, "AttestationRejected");
  }
  // Transient / rejected entries schedule nothing; the next bind attempt
  // after kNegativeTtl re-triggers verification.
}

void AttestationGate::enforce_expiry(const cluster::NodeName& node) {
  const auto it = cache_.find(node);
  const TimePoint now = sim_->now();
  if (it != cache_.end() && it->second.accepted && now < it->second.expires) {
    return;  // renewed since this enforcement was armed
  }
  // Hard-expired: kick a recovery verification and clear the node.
  request_verification(node);
  evict_sgx_pods(node, "AttestationExpired");
}

void AttestationGate::evict_sgx_pods(const cluster::NodeName& node,
                                     const std::string& reason) {
  // Collect names first — evict() mutates the node index under us.
  std::vector<cluster::PodName> victims;
  PodFilter filter;
  filter.node = node;
  for (const PodRecord* record : api_->list_pods(filter)) {
    if (record->spec.wants_sgx()) victims.push_back(record->spec.name);
  }
  for (const cluster::PodName& pod : victims) {
    api_->evict(pod, reason);
    ++evictions_;
  }
}

void AttestationGate::force_expire_all() {
  ++storms_;
  const TimePoint now = sim_->now();
  std::vector<cluster::NodeName> expired_nodes;
  for (auto& [node, entry] : cache_) {
    if (!entry.accepted || entry.expires <= now) continue;
    entry.expires = now;  // soft-expire: blocks new binds immediately
    expired_nodes.push_back(node);
  }
  for (const cluster::NodeName& node : expired_nodes) {
    request_verification(node);
    if (config_.evict_on_expiry) {
      sim_->schedule_after(kExpiryGrace,
                           [this, node] { enforce_expiry(node); });
    }
  }
}

std::vector<AttestationGate::VerdictView> AttestationGate::verdicts() const {
  std::vector<VerdictView> out;
  out.reserve(cache_.size() + inflight_.size());
  for (const auto& [node, entry] : cache_) {
    VerdictView view;
    view.node = node;
    view.measurement = entry.measurement;
    view.accepted = entry.accepted;
    view.in_flight = inflight_.contains(node);
    view.decided = entry.decided;
    view.expires = entry.expires;
    view.reason = entry.reason;
    out.push_back(std::move(view));
  }
  for (const cluster::NodeName& node : inflight_) {
    if (cache_.contains(node)) continue;
    VerdictView view;
    view.node = node;
    view.in_flight = true;
    view.reason = "verification in flight";
    out.push_back(std::move(view));
  }
  return out;
}

}  // namespace sgxo::orch
