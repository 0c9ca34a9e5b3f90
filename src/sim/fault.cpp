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
    case FaultKind::kTsdbShardWriteError:
      return "tsdb-shard-write-error";
    case FaultKind::kTsdbShardStaleReads:
      return "tsdb-shard-stale-reads";
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

}  // namespace

FaultKind downgrade_for_config(FaultKind kind,
                               const RandomPlanConfig& config) {
  /// One row per kind with prerequisites: when `available` is false under
  /// the config, the draw falls back to `fallback` (which may itself have
  /// a row — resolution chains until a kind is available). Kinds without a
  /// row are always available. Keeping this a single table means a new
  /// fault kind cannot silently skip its downgrade: either it has a row
  /// here or it must work in every config.
  struct DowngradeRule {
    FaultKind kind;
    bool (*available)(const RandomPlanConfig&);
    FaultKind fallback;
  };
  static constexpr DowngradeRule kRules[] = {
      {FaultKind::kNodeCrash,
       [](const RandomPlanConfig& c) { return !c.crash_targets.empty(); },
       FaultKind::kHeapsterDropout},
      {FaultKind::kSchedulerCrash,
       [](const RandomPlanConfig& c) { return !c.scheduler_targets.empty(); },
       FaultKind::kHeapsterDropout},
      // Without shard targets (a 1-shard database) the equivalent
      // disruption is the database-wide kind.
      {FaultKind::kTsdbShardWriteError,
       [](const RandomPlanConfig& c) { return !c.tsdb_shard_targets.empty(); },
       FaultKind::kTsdbWriteError},
      {FaultKind::kTsdbShardStaleReads,
       [](const RandomPlanConfig& c) { return !c.tsdb_shard_targets.empty(); },
       FaultKind::kTsdbStaleReads},
      // Non-attesting clusters have no verifier to break and no verdict
      // cache to storm.
      {FaultKind::kAttestationVerifierOutage,
       [](const RandomPlanConfig& c) { return c.attestation; },
       FaultKind::kHeapsterDropout},
      {FaultKind::kReattestationStorm,
       [](const RandomPlanConfig& c) { return c.attestation; },
       FaultKind::kHeapsterDropout},
      {FaultKind::kAttestationSlowVerify,
       [](const RandomPlanConfig& c) { return c.attestation; },
       FaultKind::kSampleDelay},
  };
  // Chains are short (≤ kind count) and acyclic by construction; the loop
  // terminates when the kind has no rule or its prerequisites hold.
  for (bool resolved = false; !resolved;) {
    resolved = true;
    for (const DowngradeRule& rule : kRules) {
      if (rule.kind != kind) continue;
      if (!rule.available(config)) {
        kind = rule.fallback;
        resolved = false;
      }
      break;
    }
  }
  return kind;
}

FaultPlan random_plan(Rng& rng, const RandomPlanConfig& config) {
  SGXO_CHECK_MSG(config.min_faults <= config.max_faults,
                 "min_faults must not exceed max_faults");
  FaultPlan plan;
  const auto count = static_cast<std::size_t>(rng.uniform_int(
      static_cast<std::int64_t>(config.min_faults),
      static_cast<std::int64_t>(config.max_faults)));
  for (std::size_t i = 0; i < count; ++i) {
    FaultSpec fault;
    fault.kind = downgrade_for_config(
        static_cast<FaultKind>(rng.uniform_int(0, kFaultKindCount - 1)),
        config);
    fault.at = Duration::micros(
        rng.uniform_int(0, std::max<std::int64_t>(
                               config.window.micros_count() - 1, 0)));
    // Randomized plans always heal — the chaos harness asserts that the
    // cluster reconverges, which needs every injected fault to end.
    fault.duration = Duration::micros(
        rng.uniform_int(kMinDuration.micros_count(),
                        kMaxDuration.micros_count()));
    // Target / delay assignment for the *resolved* kind. Downgrading is
    // done (downgrade_for_config never returns a kind whose list below is
    // empty), so these draws cannot fail.
    switch (fault.kind) {
      case FaultKind::kNodeCrash:
        fault.target = pick(rng, config.crash_targets);
        break;
      case FaultKind::kProbeDropout:
        // An empty target means every probe; bias towards single nodes
        // when targets are known.
        if (!config.probe_targets.empty() && rng.bernoulli(0.75)) {
          fault.target = pick(rng, config.probe_targets);
        }
        break;
      case FaultKind::kSampleDelay:
      case FaultKind::kAttestationSlowVerify:
        fault.delay = Duration::micros(
            rng.uniform_int(1, kMaxDelay.micros_count()));
        break;
      case FaultKind::kSchedulerCrash:
        fault.target = pick(rng, config.scheduler_targets);
        break;
      case FaultKind::kTsdbShardWriteError:
      case FaultKind::kTsdbShardStaleReads:
        fault.target = pick(rng, config.tsdb_shard_targets);
        break;
      default:
        // The dropouts, database-wide TSDB kinds, watch disconnects,
        // verifier outage and storms are untargeted.
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
