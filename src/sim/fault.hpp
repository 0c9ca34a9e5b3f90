// Deterministic fault-injection engine.
//
// A FaultPlan is a declarative schedule of fault activations (node
// crashes, metrics-pipeline dropouts and delays, TSDB write errors and
// stale-read windows, watch-channel disconnects, scheduler crashes,
// attestation-verifier failures). The FaultInjector arms
// a plan on the simulation clock: every activation and every heal is an
// ordinary simulation event, so a run with the same RNG seed and the same
// plan is bit-for-bit reproducible — the foundation of the chaos property
// harness (any failing scenario replays exactly from its logged seed).
//
// The injector itself knows nothing about the cluster. It keeps the
// active faults of each kind and hands every activation and every heal,
// with the kind's faults still active, to one change handler (the
// experiment fixture installs the standard one). The handler sets each
// component's state from the active faults, so overlapping faults combine
// by construction: a target stays faulted while any of them names it.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "sim/simulation.hpp"

namespace sgxo::sim {

enum class FaultKind {
  /// Node crashes: pods on it are lost, kubelet state is wiped; the node
  /// reboots (cold image cache) when the fault heals.
  kNodeCrash,
  /// The SGX probe on `target` ("" = every probe) stops delivering EPC
  /// samples to the TSDB.
  kProbeDropout,
  /// Heapster stops delivering standard-memory samples (cluster-wide).
  kHeapsterDropout,
  /// Samples arrive `delay` late (original timestamps, out-of-order TSDB
  /// writes): the SGX probe's on `target`, or with "" every probe's and
  /// Heapster's.
  kSampleDelay,
  /// Every TSDB write fails (samples are lost, not buffered).
  kTsdbWriteError,
  /// TSDB queries see no data newer than the activation instant.
  kTsdbStaleReads,
  /// An informer watch channel drops; the client re-lists on heal.
  kWatchDisconnect,
  /// The scheduler named `target` crash-stops and its pending pods wait.
  /// When the fault heals it restarts with no cached state.
  kSchedulerCrash,
  /// One TSDB shard (target = decimal shard index) drops every write
  /// routed to it; other shards keep ingesting.
  kTsdbShardWriteError,
  /// One TSDB shard (target = decimal shard index) serves reads frozen at
  /// the activation instant while other shards stay live.
  kTsdbShardStaleReads,
  /// The attestation verifier is unreachable: every quote verification
  /// comes back Unavailable until heal. Cached verdicts keep serving until
  /// they expire; expired nodes shed their SGX pods.
  kAttestationVerifierOutage,
  /// Quote verifications take `delay` longer than the healthy round-trip;
  /// past the verifier timeout they fail as transient Timeout verdicts.
  kAttestationSlowVerify,
  /// Re-attestation storm: every cached node verdict soft-expires at the
  /// activation instant, forcing cluster-wide re-verification at once (an
  /// instantaneous event — the duration only delays the plan horizon).
  kReattestationStorm,
};

/// Number of FaultKind values (random_plan draws uniformly over them).
inline constexpr int kFaultKindCount = 13;

[[nodiscard]] const char* to_string(FaultKind kind);

struct FaultSpec {
  FaultKind kind = FaultKind::kNodeCrash;
  /// Activation time, relative to FaultInjector::arm.
  Duration at{};
  /// Active window; zero means the fault never heals.
  Duration duration{};
  /// Node name for node-scoped kinds ("" = all / not applicable).
  std::string target;
  /// kSampleDelay and kAttestationSlowVerify only: how late samples
  /// arrive, or how much longer a verification takes.
  Duration delay{};

  [[nodiscard]] std::string describe() const;
  bool operator==(const FaultSpec&) const = default;
};

struct FaultPlan {
  std::vector<FaultSpec> faults;

  /// Time (relative to arm) at which the last fault has healed; permanent
  /// faults contribute only their activation time.
  [[nodiscard]] Duration horizon() const;
  /// One-line reproducible description ("kind@t+d target=...; ...").
  [[nodiscard]] std::string describe() const;
};

/// Knobs of the randomized plan generator used by the chaos harness.
struct RandomPlanConfig {
  /// Activations are drawn uniformly in [0, window).
  Duration window = Duration::minutes(10);
  std::size_t min_faults = 1;
  std::size_t max_faults = 6;
  /// Crash / probe-dropout targets (typically the schedulable nodes; probe
  /// dropouts only land on the SGX subset a harness passes here).
  std::vector<std::string> crash_targets;
  std::vector<std::string> probe_targets;
  /// Scheduler names eligible for kSchedulerCrash. Empty downgrades
  /// those draws (like crash_targets).
  std::vector<std::string> scheduler_targets;
  /// TSDB shard indices (as decimal strings) eligible for the per-shard
  /// fault kinds. Empty downgrades those draws to the database-wide
  /// kTsdbWriteError / kTsdbStaleReads, so 1-shard harness configs keep
  /// their plans.
  std::vector<std::string> tsdb_shard_targets;
  /// True when the cluster under test runs attestation-gated admission.
  /// False downgrades the attestation fault kinds (outage/storm →
  /// kHeapsterDropout, slow-verify → kSampleDelay) so non-attesting
  /// harness configs keep their plans.
  bool attestation = false;
};

/// Resolves the kind a drawn fault downgrades to under `config` — the
/// single table behind random_plan's per-kind fallbacks (a kind whose
/// prerequisites the config lacks falls back to an always-available
/// equivalent, chaining until one is available). Returns `kind` itself
/// when its prerequisites hold.
[[nodiscard]] FaultKind downgrade_for_config(FaultKind kind,
                                             const RandomPlanConfig& config);

/// Draws a randomized, fully-healing fault plan. Every draw comes from
/// `rng`, so the plan is a pure function of the seed and the config.
/// Fault durations are drawn uniformly in [10 s, 2 min]; kSampleDelay and
/// kAttestationSlowVerify delays uniformly in (0, 30 s].
[[nodiscard]] FaultPlan random_plan(Rng& rng, const RandomPlanConfig& config);

class FaultInjector {
 public:
  /// Called on every activation and every heal with the fault that
  /// changed, whether it activated, and the active faults of its kind
  /// after the change, in activation order.
  using Handler = std::function<void(const FaultSpec& changed, bool activated,
                                     const std::vector<FaultSpec>& active)>;

  explicit FaultInjector(Simulation& sim);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Registers the change handler (a later call replaces it).
  void on_change(Handler handler);

  /// Schedules every fault of the plan relative to the current virtual
  /// time. May be called repeatedly (plans accumulate).
  void arm(const FaultPlan& plan);

  /// True while at least one fault of (kind, target) is active.
  [[nodiscard]] bool active(FaultKind kind, const std::string& target) const;
  /// Total activations / heals fired so far.
  [[nodiscard]] std::uint64_t injected() const { return injected_; }
  [[nodiscard]] std::uint64_t healed() const;

 private:
  void change(const FaultSpec& spec, bool activated);

  Simulation* sim_;
  Handler handler_;
  /// The active faults of each kind, in activation order.
  std::map<FaultKind, std::vector<FaultSpec>> active_;
  std::uint64_t injected_ = 0;
};

}  // namespace sgxo::sim
