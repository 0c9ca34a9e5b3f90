// Shared chaos-scenario runner: one fully-assembled control plane (an SGX
// scheduler + monitoring + watch-driven restarter) replaying a Borg-trace
// slice while a seeded random fault plan fires through the FaultInjector;
// the plan may crash and restart the scheduler itself.
//
// The runner never asserts; it returns the scenario's outcome with every
// invariant violation as a string, so callers attach the seed and the
// plan description to their failure messages — a failing seed reproduces
// the exact run. Besides the safety invariants, every probe checks each
// component's fault state against the faults the plan has active then
// (the fault-state oracle).
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "core/sgx_scheduler.hpp"
#include "exp/fixture.hpp"
#include "orch/pod_restarter.hpp"
#include "sim/fault.hpp"
#include "trace/generator.hpp"
#include "trace/replayer.hpp"
#include "trace/sgx_mix.hpp"
#include "workload/stressor.hpp"

namespace sgxo::exp::chaos {

struct ScenarioConfig {
  std::size_t jobs = 24;
  /// Trace slice length; arrivals spread uniformly across it.
  Duration workload_window = Duration::minutes(6);
  /// Fault activations are drawn in [0, fault_window).
  Duration fault_window = Duration::minutes(8);
  std::size_t min_faults = 1;
  std::size_t max_faults = 6;
  Duration deadline = Duration::hours(24);
  /// TSDB shard count for the cluster's metrics store; every shard is a
  /// target of the TSDB fault kinds.
  std::size_t tsdb_shards = 1;
  /// Attestation-gated admission: the API server verdict cache plus
  /// kubelet-side re-verification at bind delivery.
  bool attestation = false;
  /// Adds the attestation fault kinds (verifier outage, slow verify,
  /// re-attestation storm) to the random plan's draws. Only meaningful
  /// with attestation (random_plan leaves them out otherwise).
  bool attestation_faults = false;
};

/// The plan generator's config for a scenario whose one scheduler is
/// named `scheduler`: every schedulable node can crash, each SGX node's
/// probe can drop out, and each TSDB shard is a target.
inline sim::RandomPlanConfig plan_config(const ScenarioConfig& config,
                                         const std::string& scheduler) {
  sim::RandomPlanConfig plan_config;
  plan_config.window = config.fault_window;
  plan_config.min_faults = config.min_faults;
  plan_config.max_faults = config.max_faults;
  plan_config.crash_targets = {"node-1", "node-2", "sgx-1", "sgx-2"};
  plan_config.probe_targets = {"sgx-1", "sgx-2"};
  plan_config.scheduler_targets = {scheduler};
  for (std::size_t s = 0; s < config.tsdb_shards; ++s) {
    plan_config.tsdb_shard_targets.push_back(std::to_string(s));
  }
  plan_config.attestation = config.attestation && config.attestation_faults;
  return plan_config;
}

struct ScenarioResult {
  bool converged = false;  // quiescent before the deadline
  std::size_t pods = 0;    // pod records at the end (jobs + retries)
  std::size_t succeeded = 0;
  std::size_t node_failures = 0;
  std::uint64_t injected = 0;
  std::uint64_t healed = 0;
  std::uint64_t degraded_cycles = 0;
  std::uint64_t disconnects = 0;
  std::uint64_t resyncs = 0;
  std::uint64_t bind_conflicts = 0;    // the scheduler's CAS losses
  std::uint64_t guard_rejections = 0;  // kubelet admission-guard saves
  // Attestation counters (zero unless config.attestation).
  std::uint64_t attestation_verifications = 0;  // gate quote round-trips
  std::uint64_t attestation_hits = 0;           // fresh-verdict cache hits
  std::uint64_t attestation_evictions = 0;      // pods shed on expiry/reject
  std::uint64_t attestation_storms = 0;         // force_expire_all firings
  std::uint64_t attestation_waits = 0;          // scheduler binds deferred
  std::uint64_t degraded_admissions = 0;        // kubelet fail-open passes
  /// Invariant breaches observed during or after the run (empty = pass).
  std::vector<std::string> violations;
  /// The armed plan, for reproduction messages.
  std::string plan;
  /// Serialized API-server event log (time + pod + message) — two runs
  /// with the same seed must produce identical logs.
  std::vector<std::string> event_log;
};

/// The fault-state oracle: recomputes from `plan`, armed at t = 0, which
/// faults are active now, and checks every SGX node's sample path,
/// Heapster's, every TSDB shard and the attestation verifier against
/// them. An instant on a fault's activation or heal is skipped: the probe
/// may run before or after the fault's own event there.
inline void check_fault_state(SimulatedCluster& cluster,
                              const sim::FaultPlan& plan,
                              std::vector<std::string>& violations) {
  using sim::FaultKind;
  using sim::FaultSpec;
  const Duration now = cluster.sim().now().since_epoch();
  std::vector<const FaultSpec*> active;
  for (const FaultSpec& fault : plan.faults) {
    const Duration heal = fault.at + fault.duration;
    if (now == fault.at || now == heal) return;
    if (fault.at < now && now < heal) active.push_back(&fault);
  }

  const auto render = [](const auto& value) -> std::string {
    using T = std::decay_t<decltype(value)>;
    if constexpr (std::is_same_v<T, bool>) {
      return value ? "on" : "off";
    } else if constexpr (std::is_same_v<T, Duration>) {
      return sgxo::to_string(value);
    } else {
      return value.has_value() ? sgxo::to_string(value->since_epoch())
                               : "live";
    }
  };
  const auto expect = [&](const std::string& what, const auto& got,
                          const auto& want) {
    if (got == want) return;
    violations.push_back("fault oracle: " + what + " reads " + render(got) +
                         ", the plan says " + render(want) + " at " +
                         sgxo::to_string(now));
  };
  // A fault names its target, or with "" every one; a TSDB fault's
  // target is a shard index taken modulo the shard count.
  tsdb::Database& db = cluster.db();
  const auto names = [&](const FaultSpec& fault, const std::string& target) {
    if (fault.target.empty()) return true;
    if (fault.kind == FaultKind::kTsdbWriteError ||
        fault.kind == FaultKind::kTsdbStaleReads) {
      return std::to_string(std::stoul(fault.target) % db.shard_count()) ==
             target;
    }
    return fault.target == target;
  };
  const auto any = [&](FaultKind kind, const std::string& target) {
    return std::any_of(active.begin(), active.end(), [&](const FaultSpec* f) {
      return f->kind == kind && names(*f, target);
    });
  };
  const auto largest_delay = [&](FaultKind kind, const std::string& target) {
    Duration delay{};
    for (const FaultSpec* fault : active) {
      if (fault->kind == kind && names(*fault, target)) {
        delay = std::max(delay, fault->delay);
      }
    }
    return delay;
  };

  // Heapster and the verifier take untargeted faults only: a delay that
  // names a node slows that node's probe alone.
  orch::PodSampleWriter& heapster = cluster.heapster().samples();
  expect("heapster drop", heapster.dropping(),
         any(FaultKind::kHeapsterDropout, ""));
  expect("heapster delay", heapster.delay(),
         largest_delay(FaultKind::kSampleDelay, ""));
  for (cluster::Node* node : cluster.nodes()) {
    if (!node->has_sgx()) continue;
    orch::PodSampleWriter& path = cluster.daemonset().samples(node->name());
    expect(node->name() + " probe drop", path.dropping(),
           any(FaultKind::kProbeDropout, node->name()));
    expect(node->name() + " probe delay", path.delay(),
           largest_delay(FaultKind::kSampleDelay, node->name()));
  }

  for (std::size_t s = 0; s < db.shard_count(); ++s) {
    const std::string shard = std::to_string(s);
    expect("shard " + shard + " write fault", db.shard_write_fault(s),
           any(FaultKind::kTsdbWriteError, shard));
    // The horizon is where the shard's current run of stale-read
    // coverage began: walk back through the faults that overlap it.
    std::optional<TimePoint> horizon;
    if (any(FaultKind::kTsdbStaleReads, shard)) {
      Duration start = now;
      for (bool moved = true; moved;) {
        moved = false;
        for (const FaultSpec& fault : plan.faults) {
          if (fault.kind == FaultKind::kTsdbStaleReads &&
              names(fault, shard) && fault.at < start &&
              start <= fault.at + fault.duration) {
            start = fault.at;
            moved = true;
          }
        }
      }
      horizon = TimePoint::epoch() + start;
    }
    expect("shard " + shard + " read horizon", db.shard_read_horizon(s),
           horizon);
  }

  if (const sgx::AttestationVerifier* verifier =
          cluster.attestation_verifier();
      verifier != nullptr) {
    expect("verifier outage", verifier->outage(),
           any(FaultKind::kAttestationVerifierOutage, ""));
    expect("verifier extra latency", verifier->extra_latency(),
           largest_delay(FaultKind::kAttestationSlowVerify, ""));
  }
}

/// Runs one seeded chaos scenario. Everything stochastic — the trace, the
/// SGX designation, the fault plan — derives from `seed`, so the run is a
/// pure function of (seed, config).
inline ScenarioResult run_scenario(std::uint64_t seed,
                                   const ScenarioConfig& config = {}) {
  ScenarioResult result;
  Rng rng{seed};

  ClusterConfig cluster_config;
  cluster_config.tsdb_shards = config.tsdb_shards;
  cluster_config.attestation = config.attestation;
  SimulatedCluster cluster{cluster_config};
  core::SgxAwareScheduler& scheduler =
      cluster.add_sgx_scheduler(core::PlacementPolicy::kBinpack);
  cluster.api().set_default_scheduler(scheduler.name());
  cluster.start_monitoring();

  orch::PodRestarter restarter{cluster.sim(), cluster.api()};
  restarter.start();

  sim::FaultInjector injector{cluster.sim()};
  cluster.install_fault_handlers(injector, &restarter);

  // Workload: a small trace slice, 60 % SGX, no over-allocating jobs —
  // the only legitimate failure reason in this scenario is NodeFailure.
  trace::BorgTraceConfig trace_config;
  trace_config.seed = seed;
  trace_config.slice_jobs = config.jobs;
  trace_config.over_allocating_jobs = 0;
  trace_config.slice_end = trace_config.slice_start + config.workload_window;
  auto jobs = trace::BorgTraceGenerator{trace_config}.evaluation_slice();
  Rng designate = rng.split();
  trace::designate_sgx(jobs, 0.6, designate);
  trace::Replayer replayer{
      cluster.sim(), cluster.api(),
      [](const trace::TraceJob& job, std::size_t) {
        return workload::stressor_pod(job, {});
      }};
  replayer.schedule(jobs);

  // The fault plan: seeded and always healing, armed at t = 0.
  Rng plan_rng = rng.split();
  const sim::FaultPlan plan =
      sim::random_plan(plan_rng, plan_config(config, scheduler.name()));
  result.plan = plan.describe();
  injector.arm(plan);

  // Invariant probe while faults are firing: the EPC is never
  // over-committed on any surviving node (driver pages and device-plugin
  // accounting), and no pod runs on two kubelets at once.
  cluster.sim().schedule_every(
      Duration::seconds(15), Duration::seconds(15), [&] {
        for (cluster::Node* node : cluster.nodes()) {
          if (!node->has_sgx() || !node->ready()) continue;
          const sgx::Driver& driver = *node->driver();
          if (driver.epc().committed_pages() > driver.total_epc_pages()) {
            result.violations.push_back(
                "EPC over-committed on " + node->name() + " at " +
                sgxo::to_string(cluster.sim().now().since_epoch()));
          }
          if (node->device_allocator().allocated() >
              node->device_allocator().advertised()) {
            result.violations.push_back(
                "device plugin over-allocated on " + node->name() + " at " +
                sgxo::to_string(cluster.sim().now().since_epoch()));
          }
        }
        std::map<cluster::PodName, int> on_kubelets;
        for (cluster::Kubelet* kubelet : cluster.kubelets()) {
          kubelet->for_each_active_pod(
              [&](const cluster::PodName& pod, const auto& /*containers*/) {
                if (++on_kubelets[pod] == 2) {
                  result.violations.push_back(
                      "pod " + pod + " active on two kubelets at " +
                      sgxo::to_string(cluster.sim().now().since_epoch()));
                }
              });
        }
        // Attestation invariant: no SGX pod keeps running on a node whose
        // verdict is rejected or past its hard expiry (the gate's eviction
        // enforcement must fire before this probe observes the breach).
        if (const orch::AttestationGate* gate = cluster.attestation_gate();
            gate != nullptr) {
          for (cluster::Kubelet* kubelet : cluster.kubelets()) {
            if (!kubelet->node().has_sgx()) continue;
            kubelet->for_each_active_pod([&](const cluster::PodName& pod,
                                             const auto& /*containers*/) {
              const orch::PodRecord& record = cluster.api().pod(pod);
              if (record.phase != cluster::PodPhase::kRunning) return;
              if (!record.spec.wants_sgx()) return;
              if (!gate->allows_running(kubelet->node_name(),
                                        cluster.sim().now())) {
                result.violations.push_back(
                    "SGX pod " + pod + " running on " + kubelet->node_name() +
                    " with an expired/rejected attestation verdict at " +
                    sgxo::to_string(cluster.sim().now().since_epoch()));
              }
            });
          }
        }
        check_fault_state(cluster, plan, result.violations);
      });

  result.converged =
      cluster.run_until_quiescent(replayer.scheduled_jobs(), config.deadline);
  // A fault can outlast the workload: quiescence only means every job is
  // terminal, so drive the clock past the plan's last heal before reading
  // the injector counters.
  const TimePoint after_plan =
      TimePoint::epoch() + plan.horizon() + Duration::seconds(1);
  if (after_plan > cluster.sim().now()) cluster.sim().run_until(after_plan);
  // A crash near the end of the plan can fail a pod inside the
  // resubmission window — every existing record is terminal, so the first
  // quiescence check passes, but the retry is still in flight. Reconverge
  // now that every fault has healed; if already quiescent this advances
  // no time and the event log is unchanged.
  result.converged =
      cluster.run_until_quiescent(replayer.scheduled_jobs(),
                                  config.deadline) &&
      result.converged;
  restarter.stop();
  cluster.stop_all();

  result.injected = injector.injected();
  result.healed = injector.healed();
  const orch::Scheduler::Health health = scheduler.health();
  result.degraded_cycles = health.degraded_cycles;
  result.attestation_waits = health.attestation_waits;
  result.bind_conflicts = health.bind_conflicts;
  result.guard_rejections = health.guard_rejections;
  if (const orch::AttestationGate* gate = cluster.attestation_gate();
      gate != nullptr) {
    result.attestation_verifications = gate->verifications();
    result.attestation_hits = gate->hits();
    result.attestation_evictions = gate->evictions();
    result.attestation_storms = gate->storms();
    result.degraded_admissions = gate->degraded_admissions();
    for (cluster::Kubelet* kubelet : cluster.kubelets()) {
      result.degraded_admissions += kubelet->degraded_admissions();
    }
  }
  result.disconnects = restarter.disconnects();
  result.resyncs = restarter.resyncs();

  // End state: no pod lost, none double-run. Every pod is terminal;
  // failures happen only for NodeFailure; every failed pod's retry chain
  // ends in success; each logical job succeeds exactly once.
  result.pods = cluster.api().pod_count();
  for (const orch::PodRecord* record : cluster.api().all_pods()) {
    if (record->phase == cluster::PodPhase::kSucceeded) {
      ++result.succeeded;
      continue;
    }
    if (record->phase != cluster::PodPhase::kFailed) {
      result.violations.push_back("pod " + record->spec.name +
                                  " ended non-terminal: " +
                                  to_string(record->phase));
      continue;
    }
    if (record->failure_reason != "NodeFailure") {
      result.violations.push_back("pod " + record->spec.name +
                                  " failed with unexpected reason '" +
                                  record->failure_reason + "'");
      continue;
    }
    ++result.node_failures;
    const std::string retry = restarter.retry_of(record->spec.name);
    if (retry.empty()) {
      result.violations.push_back("pod " + record->spec.name +
                                  " lost to a node crash, never resubmitted");
    }
  }
  if (result.converged && result.succeeded != replayer.scheduled_jobs()) {
    result.violations.push_back(
        "expected " + std::to_string(replayer.scheduled_jobs()) +
        " successes, got " + std::to_string(result.succeeded) +
        " (a job was lost or ran twice)");
  }
  if (!result.converged) {
    result.violations.push_back("did not reconverge before the deadline");
  }

  result.event_log.reserve(cluster.api().events().size());
  for (const orch::Event& event : cluster.api().events()) {
    result.event_log.push_back(
        sgxo::to_string(event.time.since_epoch()) + " " + event.pod + " " +
        event.message);
  }
  return result;
}

}  // namespace sgxo::exp::chaos
