#include "sim/fault.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace sgxo::sim {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNodeCrash:
      return "node-crash";
    case FaultKind::kProbeDropout:
      return "probe-dropout";
    case FaultKind::kHeapsterDropout:
      return "heapster-dropout";
    case FaultKind::kSampleDelay:
      return "sample-delay";
    case FaultKind::kTsdbWriteError:
      return "tsdb-write-error";
    case FaultKind::kTsdbStaleReads:
      return "tsdb-stale-reads";
    case FaultKind::kWatchDisconnect:
      return "watch-disconnect";
    case FaultKind::kSchedulerCrash:
      return "scheduler-crash";
    case FaultKind::kAttestationVerifierOutage:
      return "attestation-verifier-outage";
    case FaultKind::kAttestationSlowVerify:
      return "attestation-slow-verify";
    case FaultKind::kReattestationStorm:
      return "reattestation-storm";
  }
  return "unknown";
}

std::string FaultSpec::describe() const {
  std::string out = to_string(kind);
  out += "@" + sgxo::to_string(at);
  if (duration > Duration{}) {
    out += "+" + sgxo::to_string(duration);
  } else {
    out += "+forever";
  }
  if (!target.empty()) out += " target=" + target;
  if (delay > Duration{}) out += " delay=" + sgxo::to_string(delay);
  return out;
}

Duration FaultPlan::horizon() const {
  Duration end{};
  for (const FaultSpec& fault : faults) {
    end = std::max(end, fault.at + fault.duration);
  }
  return end;
}

std::string FaultPlan::describe() const {
  std::string out;
  for (const FaultSpec& fault : faults) {
    if (!out.empty()) out += "; ";
    out += fault.describe();
  }
  return out.empty() ? "(no faults)" : out;
}

namespace {

constexpr Duration kMinDuration = Duration::seconds(10);
constexpr Duration kMaxDuration = Duration::minutes(2);
constexpr Duration kMaxDelay = Duration::seconds(30);

const std::string& pick(Rng& rng, const std::vector<std::string>& options) {
  return options[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(options.size()) - 1))];
}

/// Whether `config` gives `kind` what it needs: a crash needs a target
/// to name, and the attestation kinds an attesting cluster.
bool supported(FaultKind kind, const RandomPlanConfig& config) {
  switch (kind) {
    case FaultKind::kNodeCrash:
      return !config.crash_targets.empty();
    case FaultKind::kSchedulerCrash:
      return !config.scheduler_targets.empty();
    case FaultKind::kAttestationVerifierOutage:
    case FaultKind::kAttestationSlowVerify:
    case FaultKind::kReattestationStorm:
      return config.attestation;
    case FaultKind::kProbeDropout:
    case FaultKind::kHeapsterDropout:
    case FaultKind::kSampleDelay:
    case FaultKind::kTsdbWriteError:
    case FaultKind::kTsdbStaleReads:
    case FaultKind::kWatchDisconnect:
      return true;
  }
  return false;
}

}  // namespace

FaultPlan random_plan(Rng& rng, const RandomPlanConfig& config) {
  SGXO_CHECK_MSG(config.min_faults <= config.max_faults,
                 "min_faults must not exceed max_faults");
  std::vector<FaultKind> kinds;
  for (int k = 0; k < kFaultKindCount; ++k) {
    if (supported(static_cast<FaultKind>(k), config)) {
      kinds.push_back(static_cast<FaultKind>(k));
    }
  }
  FaultPlan plan;
  const auto count = static_cast<std::size_t>(rng.uniform_int(
      static_cast<std::int64_t>(config.min_faults),
      static_cast<std::int64_t>(config.max_faults)));
  for (std::size_t i = 0; i < count; ++i) {
    FaultSpec fault;
    fault.kind = kinds[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(kinds.size()) - 1))];
    fault.at = Duration::micros(
        rng.uniform_int(0, std::max<std::int64_t>(
                               config.window.micros_count() - 1, 0)));
    // Randomized plans always heal — the chaos harness asserts that the
    // cluster reconverges, which needs every injected fault to end.
    fault.duration = Duration::micros(
        rng.uniform_int(kMinDuration.micros_count(),
                        kMaxDuration.micros_count()));
    // A probe or TSDB fault names one listed probe or shard with
    // probability 3/4, else "" (every one).
    const auto pick_or_every = [&](const std::vector<std::string>& options) {
      if (!options.empty() && rng.bernoulli(0.75)) {
        fault.target = pick(rng, options);
      }
    };
    switch (fault.kind) {
      // A drawn crash is supported, so its list is not empty.
      case FaultKind::kNodeCrash:
        fault.target = pick(rng, config.crash_targets);
        break;
      case FaultKind::kSchedulerCrash:
        fault.target = pick(rng, config.scheduler_targets);
        break;
      case FaultKind::kProbeDropout:
        pick_or_every(config.probe_targets);
        break;
      case FaultKind::kTsdbWriteError:
      case FaultKind::kTsdbStaleReads:
        pick_or_every(config.tsdb_shard_targets);
        break;
      case FaultKind::kSampleDelay:
      case FaultKind::kAttestationSlowVerify:
        fault.delay = Duration::micros(
            rng.uniform_int(1, kMaxDelay.micros_count()));
        break;
      case FaultKind::kHeapsterDropout:
      case FaultKind::kWatchDisconnect:
      case FaultKind::kAttestationVerifierOutage:
      case FaultKind::kReattestationStorm:
        break;
    }
    plan.faults.push_back(std::move(fault));
  }
  return plan;
}

FaultInjector::FaultInjector(Simulation& sim) : sim_(&sim) {}

void FaultInjector::on_change(Handler handler) {
  SGXO_CHECK_MSG(static_cast<bool>(handler), "null change handler");
  handler_ = std::move(handler);
}

void FaultInjector::arm(const FaultPlan& plan) {
  for (const FaultSpec& fault : plan.faults) {
    sim_->schedule_after(fault.at, [this, fault] { change(fault, true); });
    if (fault.duration > Duration{}) {
      sim_->schedule_after(fault.at + fault.duration,
                           [this, fault] { change(fault, false); });
    }
  }
}

void FaultInjector::change(const FaultSpec& spec, bool activated) {
  std::vector<FaultSpec>& active = active_[spec.kind];
  if (activated) {
    ++injected_;
    active.push_back(spec);
  } else {
    // Equal specs are interchangeable: heal the earliest.
    const auto it = std::find(active.begin(), active.end(), spec);
    SGXO_CHECK_MSG(it != active.end(),
                   "healing a fault that was never injected");
    active.erase(it);
  }
  if (handler_) handler_(spec, activated, active);
}

bool FaultInjector::active(FaultKind kind, const std::string& target) const {
  const auto it = active_.find(kind);
  return it != active_.end() &&
         std::any_of(it->second.begin(), it->second.end(),
                     [&](const FaultSpec& spec) {
                       return spec.target == target;
                     });
}

std::uint64_t FaultInjector::healed() const {
  std::uint64_t active = 0;
  for (const auto& [kind, specs] : active_) active += specs.size();
  return injected_ - active;
}

}  // namespace sgxo::sim
