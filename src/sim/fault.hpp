// Deterministic fault-injection engine.
//
// A FaultPlan is a declarative schedule of fault activations (node
// crashes, metrics-pipeline dropouts and delays, TSDB write errors and
// stale-read windows per shard, watch-channel disconnects, scheduler
// crashes, attestation-verifier failures). The FaultInjector arms
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
//
// random_plan draws only the kinds its config supports: a kind that needs
// a target list or an attesting cluster is left out of the draw when the
// config lacks it.
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
  /// TSDB writes routed to the shard `target` names fail (samples are
  /// lost, not buffered); "" names every shard.
  kTsdbWriteError,
  /// TSDB queries see no data on the shard `target` names ("" = every
  /// shard) newer than the instant the shard's current run of coverage
  /// began.
  kTsdbStaleReads,
  /// An informer watch channel drops; the client re-lists on heal.
  kWatchDisconnect,
  /// The scheduler named `target` crash-stops and its pending pods wait.
  /// When the fault heals it restarts with no cached state.
  kSchedulerCrash,
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

/// Number of FaultKind values.
inline constexpr int kFaultKindCount = 11;
static_assert(kFaultKindCount ==
                  static_cast<int>(FaultKind::kReattestationStorm) + 1,
              "kFaultKindCount must count every FaultKind");

[[nodiscard]] const char* to_string(FaultKind kind);

struct FaultSpec {
  FaultKind kind = FaultKind::kNodeCrash;
  /// Activation time, relative to FaultInjector::arm.
  Duration at{};
  /// Active window; zero means the fault never heals.
  Duration duration{};
  /// What the fault names: a node for kNodeCrash and the probe kinds, a
  /// scheduler for kSchedulerCrash, a decimal shard index (taken modulo
  /// the shard count) for the TSDB kinds. "" names every probe or every
  /// shard, and is the target of the cluster-wide kinds.
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
  /// Node-crash targets (typically the schedulable nodes); empty leaves
  /// kNodeCrash out of the draw.
  std::vector<std::string> crash_targets;
  /// Probe-dropout targets (the SGX nodes).
  std::vector<std::string> probe_targets;
  /// Scheduler names for kSchedulerCrash; empty leaves it out of the draw.
  std::vector<std::string> scheduler_targets;
  /// TSDB shard indices, as decimal strings, for the two TSDB kinds.
  std::vector<std::string> tsdb_shard_targets;
  /// True when the cluster under test runs attestation-gated admission;
  /// false leaves the three attestation kinds out of the draw.
  bool attestation = false;
};

/// Draws a randomized, fully-healing fault plan. Every draw comes from
/// `rng`, so the plan is a pure function of the seed and the config.
/// Each fault's kind is drawn uniformly among the kinds `config` supports.
/// Probe dropouts and the TSDB kinds name a listed target with
/// probability 3/4 and otherwise "" (every probe or every shard); node and
/// scheduler crashes always name a listed target.
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
