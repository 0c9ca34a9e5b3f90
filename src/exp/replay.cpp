#include "exp/replay.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <set>

#include "common/error.hpp"
#include "core/migration_controller.hpp"
#include "trace/replayer.hpp"
#include "trace/sgx_mix.hpp"
#include "workload/malicious.hpp"
#include "workload/stressor.hpp"

namespace sgxo::exp {

std::vector<double> ReplayResult::waiting_seconds(
    std::optional<bool> sgx_only) const {
  std::vector<double> out;
  for (const JobOutcome& job : jobs) {
    if (sgx_only.has_value() && job.sgx != *sgx_only) continue;
    if (job.waiting.has_value()) {
      out.push_back(job.waiting->as_seconds());
    }
  }
  return out;
}

Duration ReplayResult::total_turnaround(std::optional<bool> sgx_only) const {
  Duration total{};
  for (const JobOutcome& job : jobs) {
    if (sgx_only.has_value() && job.sgx != *sgx_only) continue;
    if (job.turnaround.has_value()) {
      total += *job.turnaround;
    }
  }
  return total;
}

namespace {

/// Caps a job's EPC fractions so its request fits the (possibly shrunken)
/// simulated EPC — otherwise small-EPC sweeps (Fig. 7) would carry jobs
/// that can never be placed and the batch would never drain.
std::size_t cap_to_capacity(std::vector<trace::TraceJob>& jobs,
                            const trace::ScalingConfig& scaling,
                            Bytes usable_epc) {
  // Cap to whole pages: the device plugin advertises floor(usable / 4 KiB)
  // pages while requests round *up*, so capping to raw bytes could still
  // produce a request one page above what any node can ever grant.
  const Pages cap_pages{usable_epc.count() / Pages::kPageSize};
  const double cap_fraction =
      static_cast<double>(cap_pages.as_bytes().count()) /
      static_cast<double>(scaling.sgx_base.count());
  std::size_t capped = 0;
  for (trace::TraceJob& job : jobs) {
    if (!job.sgx) continue;
    bool touched = false;
    if (job.assigned_memory > cap_fraction) {
      job.assigned_memory = cap_fraction;
      touched = true;
    }
    if (job.max_memory_usage > cap_fraction) {
      job.max_memory_usage = cap_fraction;
      touched = true;
    }
    if (touched) ++capped;
  }
  return capped;
}

}  // namespace

ReplayResult run_replay(const ReplayOptions& options) {
  // ---- workload -------------------------------------------------------------
  trace::BorgTraceGenerator generator{options.trace_config};
  std::vector<trace::TraceJob> jobs = generator.evaluation_slice();
  Rng rng{options.seed};
  trace::designate_sgx(jobs, options.sgx_fraction, rng);

  // ---- cluster ---------------------------------------------------------------
  ClusterConfig cluster_config = options.cluster;
  cluster_config.enforce_epc_limits = options.enforce_limits;
  cluster_config.epc_usable_override = options.epc_usable_override;
  cluster_config.sgx_version = options.sgx_version;
  SimulatedCluster cluster{cluster_config};

  const Bytes usable_epc = options.epc_usable_override.has_value()
                               ? *options.epc_usable_override
                               : sgx::EpcConfig::sgx1().usable;

  ReplayResult result;
  result.capped_jobs = cap_to_capacity(jobs, options.scaling, usable_epc);

  orch::Scheduler& scheduler =
      options.use_default_scheduler
          ? static_cast<orch::Scheduler&>(cluster.add_default_scheduler())
          : cluster.add_sgx_scheduler(options.policy);
  scheduler.set_strict_fcfs(options.strict_fcfs);
  cluster.api().set_default_scheduler(scheduler.name());
  cluster.start_monitoring();

  std::optional<core::MigrationController> migration;
  if (options.enable_migration) {
    migration.emplace(cluster.sim(), cluster.api(), cluster.perf());
    migration->start();
  }

  // ---- malicious squatters (Fig. 11) ----------------------------------------
  std::set<std::string> malicious_names;
  if (options.malicious_per_sgx_node > 0) {
    workload::MaliciousConfig mal_config;
    mal_config.epc_fraction = options.malicious_epc_fraction;
    mal_config.epc = options.epc_usable_override.has_value()
                         ? sgx::EpcConfig::with_usable(*options.epc_usable_override)
                         : sgx::EpcConfig::sgx1();
    mal_config.duration = options.deadline;  // squat for the whole replay
    std::vector<cluster::NodeName> sgx_nodes;
    for (cluster::Node* node : cluster.nodes()) {
      if (node->has_sgx()) sgx_nodes.push_back(node->name());
    }
    const std::size_t count =
        options.malicious_per_sgx_node * sgx_nodes.size();
    std::vector<cluster::PodSpec> squatters =
        workload::malicious_pods(count, mal_config);
    for (std::size_t i = 0; i < squatters.size(); ++i) {
      // The paper deploys one squatter per SGX node; pin them round-robin
      // so they cannot all pack onto the first node.
      squatters[i].node_selector = sgx_nodes[i % sgx_nodes.size()];
      malicious_names.insert(squatters[i].name);
      cluster.api().submit(std::move(squatters[i]));
    }
  }

  // ---- replay ----------------------------------------------------------------
  const trace::ScalingConfig scaling = options.scaling;
  const double initial_fraction =
      options.sgx_version == sgx::SgxVersion::kSgx2
          ? options.initial_usage_fraction
          : 1.0;
  trace::Replayer replayer{
      cluster.sim(), cluster.api(),
      [&scaling, initial_fraction](const trace::TraceJob& job, std::size_t) {
        return workload::stressor_pod(job, scaling, "", initial_fraction);
      }};
  replayer.schedule(jobs);

  // ---- pending-queue sampler (Fig. 7) ----------------------------------------
  std::vector<PendingSample>& series = result.pending_series;
  const TimePoint replay_start = cluster.sim().now();
  cluster.sim().schedule_every(
      Duration{}, options.pending_sample_period, [&, replay_start] {
        PendingSample sample;
        sample.at = cluster.sim().now() - replay_start;
        orch::PodFilter pending;
        pending.phase = cluster::PodPhase::kPending;
        for (const orch::PodRecord* record :
             cluster.api().list_pods(pending)) {
          const cluster::ResourceAmounts request =
              record->spec.total_requests();
          sample.epc_requested += request.epc_pages.as_bytes();
          sample.memory_requested += request.memory;
          ++sample.pending_pods;
        }
        series.push_back(sample);
      });

  // ---- run until every *trace* pod is terminal --------------------------------
  // Trace pod name → whether it has reached a terminal phase, fed by a
  // watch instead of a scan of every pod ever submitted. Counting the
  // first terminal notification of each is exact: no pod leaves a
  // terminal phase and the ApiServer never deletes one, so a repeated
  // failure report counts nothing.
  std::map<std::string, bool> trace_pods;
  for (const trace::TraceJob& job : jobs) {
    trace_pods.emplace(workload::stressor_pod_name(job), false);
  }
  std::size_t unfinished = trace_pods.size();
  const orch::ApiServer::WatchId done_watch = cluster.api().watch_pods(
      [&trace_pods, &unfinished](const orch::ApiServer::PodUpdate& update) {
        if (update.phase != cluster::PodPhase::kSucceeded &&
            update.phase != cluster::PodPhase::kFailed) {
          return;
        }
        const auto it = trace_pods.find(update.pod);
        if (it != trace_pods.end() && !it->second) {
          it->second = true;
          --unfinished;
        }
      });

  const TimePoint limit = cluster.sim().now() + options.deadline;
  while (cluster.sim().now() < limit && unfinished > 0) {
    cluster.sim().run_until(
        std::min(limit, cluster.sim().now() + Duration::seconds(30)));
    if (cluster.sim().idle()) break;
  }
  result.completed = unfinished == 0;
  cluster.api().unwatch(done_watch);
  if (migration.has_value()) migration->stop();
  cluster.stop_all();

  // ---- collect ----------------------------------------------------------------
  // In submission order: consumers (and outcome digests) read jobs in it.
  TimePoint first_submission = TimePoint::from_micros(
      std::numeric_limits<std::int64_t>::max());
  TimePoint last_termination = TimePoint::epoch();
  for (const orch::PodRecord* record : cluster.api().all_pods()) {
    if (trace_pods.find(record->spec.name) == trace_pods.end()) continue;
    JobOutcome outcome;
    outcome.pod = record->spec.name;
    outcome.sgx = record->spec.behavior.sgx;
    const cluster::ResourceAmounts request = record->spec.total_requests();
    outcome.requested =
        outcome.sgx ? request.epc_pages.as_bytes() : request.memory;
    outcome.actual = record->spec.behavior.actual_usage;
    outcome.trace_duration = record->spec.behavior.duration;
    outcome.waiting = record->waiting_time();
    outcome.turnaround = record->turnaround_time();
    outcome.failed = record->phase == cluster::PodPhase::kFailed;
    outcome.failure_reason = record->failure_reason;
    if (outcome.failed) ++result.failed_jobs;
    result.total_trace_duration += outcome.trace_duration;
    first_submission = std::min(first_submission, record->submitted);
    if (record->finished.has_value()) {
      last_termination = std::max(last_termination, *record->finished);
    }
    result.jobs.push_back(std::move(outcome));
  }
  if (!result.jobs.empty() && last_termination > first_submission) {
    result.makespan = last_termination - first_submission;
  }
  return result;
}

}  // namespace sgxo::exp
