// End-to-end trace-replay benchmark.
//
// Times exp::run_replay — the program behind experiment_cli and the figure
// benches — on four closed-loop batch workloads, and in a separate traced
// run splits the same replay across the layers it calls. Prints one
// `metric <name> <value> <unit>` line per metric and a `digest <hex>` line
// for the simulated outcome, and exits non-zero if any replay failed its
// checks. README.md documents the workloads, the metrics and the trace
// format.
//
//   e2e_replay --workload <name|all> --seed <n> [--seconds <s>] [--reps <n>]
//              [--trace <out.json>]
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/stats.hpp"
#include "exp/replay.hpp"
#include "trace/replayer.hpp"
#include "trace/sgx_mix.hpp"
#include "workload/stressor.hpp"

extern char** environ;

namespace {

using namespace sgxo;
using Clock = std::chrono::steady_clock;

/// Each run replays this many distinct traces: trace k of `--seed n` uses
/// seed n + k * kTraceSeedStride, so trace 0 is seed n itself. One trace's
/// host time and waiting-time tail depend on its draw (over seeds 1-10, a
/// single trace's replay time spreads by up to 0.57 of its median and its
/// waiting-time p95 by 1.7); averaging over sixteen keeps the spread between
/// seeds within the bounds.
constexpr std::size_t kTraces = 16;
constexpr std::uint64_t kTraceSeedStride = std::uint64_t{1} << 32;

constexpr std::array<std::string_view, 4> kWorkloads = {
    "paper_slice", "epc_contention", "monitor_dense", "scaled_5x"};

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

[[noreturn]] void usage(const std::string& message) {
  std::fprintf(stderr,
               "e2e_replay: %s\n"
               "usage: e2e_replay --workload <paper_slice|epc_contention|"
               "monitor_dense|scaled_5x|all> --seed <n> [--seconds <s>] "
               "[--reps <n>] [--trace <out.json>]\n",
               message.c_str());
  std::exit(2);
}

// ---- workloads --------------------------------------------------------------

/// The paper's cluster with `factor` copies of every worker (one master).
std::vector<cluster::MachineSpec> scaled_cluster(int factor) {
  const std::vector<cluster::MachineSpec> paper = cluster::paper_cluster();
  std::vector<cluster::MachineSpec> machines;
  for (const cluster::MachineSpec& spec : paper) {
    if (spec.is_master) machines.push_back(spec);
  }
  int standard = 0;
  int sgx = 0;
  for (int copy = 0; copy < factor; ++copy) {
    for (cluster::MachineSpec spec : paper) {
      if (spec.is_master) continue;
      spec.name = spec.has_sgx() ? "sgx-" + std::to_string(++sgx)
                                 : "node-" + std::to_string(++standard);
      machines.push_back(std::move(spec));
    }
  }
  return machines;
}

exp::ReplayOptions workload_options(std::string_view workload,
                                    std::uint64_t seed) {
  exp::ReplayOptions options;
  options.seed = seed;
  options.trace_config.seed = seed;
  if (workload == "epc_contention") {
    // Fig. 7's 32 MiB point: a queue hours deep, placement-bound.
    options.epc_usable_override = Bytes{32ULL << 20};
    options.sgx_fraction = 1.0;
    options.policy = core::PlacementPolicy::kSpread;
  } else if (workload == "monitor_dense") {
    // 10x the TSDB writes of paper_slice under the same query load.
    options.cluster.heapster_period = Duration::seconds(1);
    options.cluster.probe_period = Duration::seconds(1);
  } else if (workload == "scaled_5x") {
    // Five times the workers and jobs in the same hour, sharded TSDB,
    // attestation-gated admission.
    constexpr int kFactor = 5;
    options.cluster.machines = scaled_cluster(kFactor);
    options.trace_config.slice_jobs *= kFactor;
    options.trace_config.over_allocating_jobs *= kFactor;
    options.trace_config.sampling_stride /= kFactor;
    options.cluster.tsdb_shards = 4;
    options.cluster.attestation = true;
  }
  return options;
}

// ---- outcome digest --------------------------------------------------------

std::uint64_t digest(const exp::ReplayResult& result) {
  const auto micros = [](const std::optional<Duration>& d) {
    return std::to_string(d.has_value() ? d->micros_count() : -1);
  };
  std::string bytes;
  for (const exp::JobOutcome& job : result.jobs) {
    bytes += job.pod + '|' + micros(job.waiting) + '|' +
             micros(job.turnaround) + '|' + (job.failed ? '1' : '0') + '|' +
             job.failure_reason + '\n';
  }
  bytes += std::to_string(result.makespan.micros_count());
  return fnv1a(bytes);
}

// ---- tracing ----------------------------------------------------------------

struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int64_t parent;  // index into the span list, -1 for a root
  std::size_t rep;
  std::size_t trace;
};

/// Spans kept in memory during the run and written out at exit.
class Tracer {
 public:
  void begin_rep(std::size_t rep, std::size_t trace) {
    rep_ = rep;
    trace_ = trace;
    open_ = -1;
  }
  std::int64_t open(const char* name, std::int64_t parent) {
    spans_.push_back(Span{name, now_ns(), 0, parent, rep_, trace_});
    open_ = static_cast<std::int64_t>(spans_.size()) - 1;
    return open_;
  }
  /// Closes span `index` and makes `resume` the open span again.
  void close(std::int64_t index, std::int64_t resume) {
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    open_ = resume;
  }
  [[nodiscard]] std::int64_t current() const { return open_; }
  /// Forgets every span from index `size` on.
  void truncate(std::size_t size) { spans_.resize(size); }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  bool write(const std::string& path, std::string_view workload,
             std::uint64_t seed) const {
    std::ofstream out(path);
    out << "{\"workload\": \"" << workload << "\", \"seed\": " << seed
        << ", \"clock\": \"host steady_clock, us since the traced run began\""
        << ", \"spans\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[256];
      std::snprintf(line, sizeof line,
                    "%s{\"id\": %zu, \"name\": \"%s\", \"start_us\": %.3f, "
                    "\"end_us\": %.3f, \"parent\": %lld, \"rep\": %zu, "
                    "\"trace\": %zu}",
                    i == 0 ? "" : ",\n", i, s.name, s.start_ns / 1e3,
                    s.end_ns / 1e3, static_cast<long long>(s.parent), s.rep,
                    s.trace);
      out << line;
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }

  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::int64_t open_ = -1;
  std::size_t rep_ = 0;
  std::size_t trace_ = 0;
};

/// Times one call into a layer; a no-op without a tracer.
class Scope {
 public:
  /// `parent` defaults to the span open when this one starts.
  Scope(Tracer* tracer, const char* name,
        std::optional<std::int64_t> parent = {})
      : tracer_(tracer) {
    if (tracer_ == nullptr) return;
    resume_ = tracer_->current();
    index_ = tracer_->open(name, parent.value_or(resume_));
  }
  ~Scope() {
    if (tracer_ != nullptr) tracer_->close(index_, resume_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] std::int64_t index() const { return index_; }

 private:
  Tracer* tracer_;
  std::int64_t index_ = -1;
  std::int64_t resume_ = -1;
};

// ---- run_replay, split into timed public calls ------------------------------

/// Counts the traced run reads at layer boundaries.
struct LayerCounts {
  std::uint64_t pods_considered = 0;
  std::uint64_t points_scanned = 0;
  std::uint64_t series_scanned = 0;
  std::uint64_t rollup_queries = 0;
  std::uint64_t events = 0;
};

/// A copy of exp::run_replay for the options the workloads set, made of the
/// same public calls so that each can be timed. Untraced, setup() is exactly
/// run_replay's set-up. Traced, the scheduler and Heapster timers are each
/// cancelled and immediately re-armed with the same period around a timed
/// run_once / scrape_once; nothing is scheduled in between, so every event
/// keeps its place in the queue and the outcome is bit-identical.
class ReplayCopy {
 public:
  ReplayCopy(exp::ReplayOptions options, Tracer* tracer)
      : options_(std::move(options)), tracer_(tracer) {
    SGXO_CHECK_MSG(options_.malicious_per_sgx_node == 0 &&
                       !options_.enable_migration &&
                       !options_.use_default_scheduler &&
                       !options_.strict_fcfs &&
                       options_.sgx_version == sgx::SgxVersion::kSgx1,
                   "the replay copy covers only the benchmark's options");
  }
  ReplayCopy(const ReplayCopy&) = delete;
  ReplayCopy& operator=(const ReplayCopy&) = delete;

  void setup();
  /// Runs the replay set up by setup() and collects the outcome.
  exp::ReplayResult run();
  [[nodiscard]] const LayerCounts& counts() const { return counts_; }
  [[nodiscard]] exp::SimulatedCluster& cluster() { return *cluster_; }
  [[nodiscard]] core::SgxAwareScheduler& scheduler() { return *scheduler_; }

 private:
  void traced_cycle();
  bool trace_done() const;

  exp::ReplayOptions options_;
  Tracer* tracer_;
  std::vector<trace::TraceJob> jobs_;
  std::set<std::string> trace_pods_;
  std::unique_ptr<exp::SimulatedCluster> cluster_;
  core::SgxAwareScheduler* scheduler_ = nullptr;
  std::unique_ptr<trace::Replayer> replayer_;
  sim::EventId cycle_timer_;
  sim::EventId scrape_timer_;
  exp::ReplayResult result_;
  LayerCounts counts_;
};

/// exp::run_replay's private cap_to_capacity, copied: SGX jobs' fractions
/// are capped so every request fits the (possibly shrunken) EPC.
std::size_t cap_to_capacity(std::vector<trace::TraceJob>& jobs,
                            const trace::ScalingConfig& scaling,
                            Bytes usable_epc) {
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

void ReplayCopy::setup() {
  {
    Scope span(tracer_, "exp.setup.trace");
    jobs_ = trace::BorgTraceGenerator{options_.trace_config}.evaluation_slice();
    Rng rng{options_.seed};
    trace::designate_sgx(jobs_, options_.sgx_fraction, rng);
  }
  Scope span(tracer_, "exp.setup.cluster");
  exp::ClusterConfig config = options_.cluster;
  config.enforce_epc_limits = options_.enforce_limits;
  config.epc_usable_override = options_.epc_usable_override;
  config.sgx_version = options_.sgx_version;
  cluster_ = std::make_unique<exp::SimulatedCluster>(std::move(config));
  const Bytes usable_epc = options_.epc_usable_override.has_value()
                               ? *options_.epc_usable_override
                               : sgx::EpcConfig::sgx1().usable;
  result_.capped_jobs = cap_to_capacity(jobs_, options_.scaling, usable_epc);

  sim::Simulation& sim = cluster_->sim();
  scheduler_ = &cluster_->add_sgx_scheduler(options_.policy);
  if (tracer_ != nullptr) {
    scheduler_->stop();
    cycle_timer_ = sim.schedule_every(scheduler_->period(),
                                      scheduler_->period(),
                                      [this] { traced_cycle(); });
  }
  scheduler_->set_strict_fcfs(options_.strict_fcfs);
  cluster_->api().set_default_scheduler(scheduler_->name());
  if (tracer_ != nullptr) {
    // start_monitoring() is Heapster's start followed by the DaemonSet's.
    orch::Heapster& heapster = cluster_->heapster();
    const Duration period = cluster_->config().heapster_period;
    scrape_timer_ = sim.schedule_every(period, period, [this, &heapster] {
      Scope scrape(tracer_, "orch.heapster.scrape");
      heapster.scrape_once();
    });
    cluster_->daemonset().start();
  } else {
    cluster_->start_monitoring();
  }

  const trace::ScalingConfig scaling = options_.scaling;
  const auto make_pod = [scaling](const trace::TraceJob& job, std::size_t) {
    return workload::stressor_pod(job, scaling, "", 1.0);
  };
  if (tracer_ != nullptr) {
    // Replayer::schedule's loop, with each ApiServer::submit timed.
    for (const trace::TraceJob& job : jobs_) {
      sim.schedule_after(job.submission, [this, job, make_pod] {
        cluster::PodSpec spec = make_pod(job, 0);
        Scope submit(tracer_, "orch.api.submit");
        cluster_->api().submit(std::move(spec));
      });
    }
  } else {
    replayer_ = std::make_unique<trace::Replayer>(sim, cluster_->api(),
                                                  make_pod);
    replayer_->schedule(jobs_);
  }

  const TimePoint replay_start = sim.now();
  sim.schedule_every(
      Duration{}, options_.pending_sample_period, [this, replay_start] {
        Scope sample_span(tracer_, "exp.pending_sample");
        exp::PendingSample sample;
        sample.at = cluster_->sim().now() - replay_start;
        orch::PodFilter pending;
        pending.phase = cluster::PodPhase::kPending;
        for (const orch::PodRecord* record :
             cluster_->api().list_pods(pending)) {
          const cluster::ResourceAmounts request =
              record->spec.total_requests();
          sample.epc_requested += request.epc_pages.as_bytes();
          sample.memory_requested += request.memory;
          ++sample.pending_pods;
        }
        result_.pending_series.push_back(sample);
      });
}

void ReplayCopy::traced_cycle() {
  {
    // The bench's own work, timed so that sim.run_s can leave it out.
    Scope span(tracer_, "bench.pending_count");
    orch::PodFilter mine;
    mine.phase = cluster::PodPhase::kPending;
    mine.scheduler = scheduler_->name();
    counts_.pods_considered += cluster_->api().list_pods(mine).size();
  }
  const std::uint64_t degraded = scheduler_->degraded_cycles();
  std::int64_t cycle = -1;
  {
    Scope span(tracer_, "orch.scheduler.cycle");
    cycle = span.index();
    scheduler_->run_once();
  }
  if (scheduler_->degraded_cycles() != degraded) return;  // no query ran
  // The cycle's TSDB queries cannot be timed from outside, so they are
  // re-run here against the same database at the same virtual instant.
  const core::ClusterMetrics& metrics = scheduler_->metrics();
  const TimePoint now = cluster_->sim().now();
  for (int query = 0; query < 2; ++query) {
    {
      Scope span(tracer_, "tsdb.query.replay", cycle);
      if (query == 0) {
        (void)metrics.epc_per_pod(now);
      } else {
        (void)metrics.memory_per_pod(now);
      }
    }
    const core::ClusterMetrics::QueryDiagnostics& stats =
        metrics.last_query_stats();
    counts_.points_scanned += stats.points_scanned;
    counts_.series_scanned += stats.series_scanned;
    if (stats.rollup_level_us > 0) ++counts_.rollup_queries;
  }
}

bool ReplayCopy::trace_done() const {
  Scope span(tracer_, "exp.done_check");
  std::size_t terminal = 0;
  for (const orch::PodRecord* record : cluster_->api().all_pods()) {
    if (trace_pods_.find(record->spec.name) == trace_pods_.end()) continue;
    if (record->phase == cluster::PodPhase::kSucceeded ||
        record->phase == cluster::PodPhase::kFailed) {
      ++terminal;
    }
  }
  return terminal == trace_pods_.size();
}

exp::ReplayResult ReplayCopy::run() {
  for (const trace::TraceJob& job : jobs_) {
    trace_pods_.insert(workload::stressor_pod_name(job));
  }
  sim::Simulation& sim = cluster_->sim();
  const TimePoint limit = sim.now() + options_.deadline;
  while (sim.now() < limit && !trace_done()) {
    Scope span(tracer_, "sim.run_until");
    sim.run_until(std::min(limit, sim.now() + Duration::seconds(30)));
    if (sim.idle()) break;
  }
  result_.completed = trace_done();
  counts_.events = sim.fired_events();

  Scope span(tracer_, "exp.collect");
  cluster_->stop_all();
  sim.cancel(cycle_timer_);
  sim.cancel(scrape_timer_);
  TimePoint first_submission =
      TimePoint::from_micros(std::numeric_limits<std::int64_t>::max());
  TimePoint last_termination = TimePoint::epoch();
  for (const orch::PodRecord* record : cluster_->api().all_pods()) {
    if (trace_pods_.find(record->spec.name) == trace_pods_.end()) continue;
    exp::JobOutcome outcome;
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
    if (outcome.failed) ++result_.failed_jobs;
    result_.total_trace_duration += outcome.trace_duration;
    first_submission = std::min(first_submission, record->submitted);
    if (record->finished.has_value()) {
      last_termination = std::max(last_termination, *record->finished);
    }
    result_.jobs.push_back(std::move(outcome));
  }
  if (!result_.jobs.empty() && last_termination > first_submission) {
    result_.makespan = last_termination - first_submission;
  }
  return std::move(result_);
}

// ---- aggregation ------------------------------------------------------------

/// One value per replay; a metric is the mean over the run's traces of the
/// median over that trace's replays.
class PerTrace {
 public:
  void add(std::size_t trace, double value) { values_[trace].push_back(value); }
  [[nodiscard]] double value() const {
    double sum = 0.0;
    for (const auto& [trace, values] : values_) {
      sum += EmpiricalCdf{values}.quantile(0.5);
    }
    return values_.empty() ? 0.0 : sum / static_cast<double>(values_.size());
  }

 private:
  std::map<std::size_t, std::vector<double>> values_;
};

void print_metric(const std::string& name, double value, const char* unit) {
  std::printf("metric %s %.10g %s\n", name.c_str(), value, unit);
}

double quantile(const std::vector<double>& values, double q) {
  return values.empty() ? 0.0 : EmpiricalCdf{values}.quantile(q);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// This process image's peak resident set (VmHWM). getrusage's ru_maxrss
/// would also count the parent's pages from before exec.
double peak_rss_kib() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return 0.0;
}

// ---- one workload -----------------------------------------------------------

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  std::size_t reps = 0;  // replays per trace; 0 = run for `seconds`
  std::string trace_path;
};

/// Replays the run's traces round-robin until the time budget is spent
/// (and every trace ran at least `min_rounds` times) or, with --reps, for
/// exactly that many rounds. `replay` returns false if a check failed.
template <typename Replay>
std::size_t replay_rounds(const RunConfig& config, double budget,
                          std::size_t min_rounds, Replay&& replay) {
  const Clock::time_point start = Clock::now();
  std::size_t failed = 0;
  for (std::size_t rep = 0;; ++rep) {
    const bool done =
        config.reps > 0
            ? rep >= config.reps * kTraces
            : rep >= min_rounds * kTraces &&
                  seconds_between(start, Clock::now()) >= budget;
    if (done) break;
    if (!replay(rep, rep % kTraces)) ++failed;
  }
  return failed;
}

/// A per-layer metric: its unit and one value per traced replay.
struct LayerMetric {
  const char* unit = "";
  PerTrace values;
};

/// Spans whose durations are pooled into percentiles, and their metric.
constexpr std::array<std::pair<std::string_view, std::string_view>, 4>
    kPooledSpans = {{
        {"orch.scheduler.cycle", "orch.scheduler.cycle_us"},
        {"tsdb.query.replay", "tsdb.query_us"},
        {"orch.heapster.scrape", "orch.heapster.scrape_us"},
        {"orch.api.submit", "orch.api.submit_us"},
    }};

/// Records one traced replay of trace `k`: times from its spans (`busy`
/// holds seconds per span name), counts from the layers themselves.
void record_layers(ReplayCopy& copy, std::map<std::string_view, double>& busy,
                   std::size_t k, std::map<std::string, LayerMetric>& layer) {
  const auto put = [&](const char* name, const char* unit, double value) {
    LayerMetric& metric = layer[name];
    metric.unit = unit;
    metric.values.add(k, value);
  };
  const LayerCounts& counts = copy.counts();
  const core::SgxAwareScheduler& scheduler = copy.scheduler();
  exp::SimulatedCluster& cluster = copy.cluster();
  const auto events = static_cast<double>(counts.events);
  const auto considered = static_cast<double>(counts.pods_considered);
  const auto bound = static_cast<double>(scheduler.total_bound());

  // sim.run_s is in-band time only: the replayed queries and the pending
  // count are the bench's and are taken out.
  const double run_s = busy["sim.run_until"] - busy["tsdb.query.replay"] -
                       busy["bench.pending_count"];
  const double self_s = run_s - busy["orch.scheduler.cycle"] -
                        busy["orch.heapster.scrape"] -
                        busy["orch.api.submit"] - busy["exp.pending_sample"];
  put("sim.run_s", "s", run_s);
  put("sim.events", "count", events);
  put("sim.self_s", "s", self_s);
  put("sim.self_ns_per_event", "ns", ratio(self_s * 1e9, events));

  put("orch.scheduler.busy_s", "s", busy["orch.scheduler.cycle"]);
  put("orch.scheduler.cycles", "count",
      static_cast<double>(scheduler.cycles()));
  put("orch.scheduler.pods_considered", "count", considered);
  put("orch.scheduler.bound", "count", bound);
  put("orch.scheduler.bind_yield", "ratio", ratio(bound, considered));
  put("orch.scheduler.bind_conflicts", "count",
      static_cast<double>(scheduler.bind_conflicts()));
  put("orch.scheduler.attestation_waits", "count",
      static_cast<double>(scheduler.attestation_waits()));
  put("orch.scheduler.degraded_cycles", "count",
      static_cast<double>(scheduler.degraded_cycles()));

  std::size_t series = 0;
  for (const std::string& measurement : cluster.db().measurement_names()) {
    series += cluster.db().series_count(measurement);
  }
  put("tsdb.query_share", "ratio",
      ratio(busy["tsdb.query.replay"], busy["orch.scheduler.cycle"]));
  put("tsdb.points_scanned", "count",
      static_cast<double>(counts.points_scanned));
  put("tsdb.series_scanned", "count",
      static_cast<double>(counts.series_scanned));
  put("tsdb.rollup_queries", "count",
      static_cast<double>(counts.rollup_queries));
  put("tsdb.series", "count", static_cast<double>(series));
  put("tsdb.points_retained", "count",
      static_cast<double>(cluster.db().total_points()));

  put("orch.heapster.busy_s", "s", busy["orch.heapster.scrape"]);
  put("orch.heapster.scrapes", "count",
      static_cast<double>(cluster.heapster().scrape_count()));
  put("exp.pending_sample_s", "s", busy["exp.pending_sample"]);
  put("exp.done_check_s", "s", busy["exp.done_check"]);
  put("exp.collect_s", "s", busy["exp.collect"]);
  put("exp.setup.trace_s", "s", busy["exp.setup.trace"]);
  put("exp.setup.cluster_s", "s", busy["exp.setup.cluster"]);

  // Zero on clusters without attestation.
  const orch::AttestationGate* gate = cluster.attestation_gate();
  const double hits = gate != nullptr ? gate->hits() : 0.0;
  const double misses = gate != nullptr ? gate->misses() : 0.0;
  double retries = 0.0;
  for (const cluster::Kubelet* kubelet : cluster.kubelets()) {
    retries += static_cast<double>(kubelet->attestation_retries());
  }
  const sgx::AttestationVerifier* verifier = cluster.attestation_verifier();
  put("orch.attest.verifications", "count",
      gate != nullptr ? gate->verifications() : 0.0);
  put("orch.attest.hit_ratio", "ratio", ratio(hits, hits + misses));
  put("orch.attest.evictions", "count",
      gate != nullptr ? gate->evictions() : 0.0);
  put("cluster.kubelet.attestation_retries", "count", retries);
  put("sgx.verifier.attempts", "count",
      verifier != nullptr ? verifier->attempts() : 0.0);
}

/// The traced run: the traces replayed through ReplayCopy, with a span at
/// every layer boundary, for half of --seconds and at least once each.
/// Prints the per-layer metrics, writes the trace file, and returns how
/// many replays failed their checks (the digest must match `reference`).
std::size_t run_traced(const RunConfig& config,
                       const std::vector<exp::ReplayOptions>& traces,
                       const std::vector<std::uint64_t>& reference,
                       double untraced_replay_s, std::size_t& attempted) {
  const std::size_t jobs_per_trace = traces[0].trace_config.slice_jobs;
  const std::size_t rep_base = attempted;
  Tracer tracer;
  PerTrace replay_s;
  std::map<std::string, LayerMetric> layer;
  std::map<std::string_view, std::vector<double>> span_us;
  const std::size_t failed = replay_rounds(
      config, config.seconds / 2, 1, [&](std::size_t rep, std::size_t k) {
        ++attempted;
        tracer.begin_rep(rep_base + rep, k);
        const std::size_t first = tracer.spans().size();
        ReplayCopy copy{traces[k], &tracer};
        exp::ReplayResult result;
        {
          Scope root(&tracer, "exp.replay");
          copy.setup();
          result = copy.run();
        }
        std::map<std::string_view, double> busy;
        const std::vector<Span>& spans = tracer.spans();
        for (std::size_t i = first; i < spans.size(); ++i) {
          const double us = (spans[i].end_ns - spans[i].start_ns) / 1e3;
          busy[spans[i].name] += us / 1e6;
          span_us[spans[i].name].push_back(us);
        }
        replay_s.add(k, busy["exp.replay"]);
        record_layers(copy, busy, k, layer);
        if (rep > 0) tracer.truncate(first);  // the file keeps the first
        return result.completed && result.jobs.size() == jobs_per_trace &&
               digest(result) == reference[k];
      });

  print_metric("trace_overhead", ratio(replay_s.value(), untraced_replay_s),
               "ratio");
  for (const auto& [name, metric] : layer) {
    print_metric(name, metric.values.value(), metric.unit);
  }
  for (const auto& [span, metric] : kPooledSpans) {
    const std::vector<double>& us = span_us[span];
    print_metric(std::string(metric) + ".p50", quantile(us, 0.50), "us");
    print_metric(std::string(metric) + ".p99", quantile(us, 0.99), "us");
  }
  if (!tracer.write(config.trace_path, config.workload, config.seed)) {
    std::fprintf(stderr, "e2e_replay: cannot write %s\n",
                 config.trace_path.c_str());
    std::exit(2);
  }
  return failed;
}

int run_workload(const RunConfig& config) {
  std::vector<exp::ReplayOptions> traces;
  for (std::size_t k = 0; k < kTraces; ++k) {
    traces.push_back(workload_options(
        config.workload, config.seed + k * kTraceSeedStride));
  }
  const std::size_t jobs_per_trace = traces[0].trace_config.slice_jobs;
  const bool traced = !config.trace_path.empty();
  const double budget = traced ? config.seconds / 2 : config.seconds;
  // Every trace is replayed at least twice so that its digests can be
  // compared: twice here, or once here and once traced.
  const std::size_t min_rounds = traced ? 1 : 2;

  // Untraced replays: the end-to-end numbers. Before each one, the same
  // trace's set-up (generation through Replayer::schedule) is timed on its
  // own and discarded, so set-up samples spread over the whole run.
  std::vector<std::uint64_t> reference(kTraces, 0);
  std::vector<exp::ReplayResult> outcomes(kTraces);
  PerTrace setup_s;
  PerTrace replay_s;
  std::size_t attempted = 0;
  std::size_t failed = replay_rounds(
      config, budget, min_rounds, [&](std::size_t rep, std::size_t k) {
        ++attempted;
        {
          ReplayCopy copy{traces[k], nullptr};
          const Clock::time_point t0 = Clock::now();
          copy.setup();
          setup_s.add(k, seconds_between(t0, Clock::now()));
        }
        const Clock::time_point t0 = Clock::now();
        exp::ReplayResult result = exp::run_replay(traces[k]);
        replay_s.add(k, seconds_between(t0, Clock::now()));
        const std::uint64_t d = digest(result);
        if (rep < kTraces) {
          reference[k] = d;
          outcomes[k] = std::move(result);
          return outcomes[k].completed &&
                 outcomes[k].jobs.size() == jobs_per_trace;
        }
        return result.completed && result.jobs.size() == jobs_per_trace &&
               d == reference[k];
      });

  // The run's digest covers every trace's; run.py compares it with the one
  // pinned for the workload and seed.
  std::string digests;
  for (std::size_t k = 0; k < kTraces; ++k) {
    std::printf("trace %zu seed %llu jobs %zu digest %s\n", k,
                static_cast<unsigned long long>(traces[k].seed),
                outcomes[k].jobs.size(), to_hex(reference[k]).c_str());
    digests += to_hex(reference[k]);
  }
  std::printf("digest %s\n", to_hex(fnv1a(digests)).c_str());

  // Simulated outcome (virtual time): identical on every replay of a seed.
  std::vector<double> waits;
  double turnaround_h = 0.0;
  double makespan_s = 0.0;
  for (const exp::ReplayResult& outcome : outcomes) {
    const std::vector<double> w = outcome.waiting_seconds();
    waits.insert(waits.end(), w.begin(), w.end());
    turnaround_h += outcome.total_turnaround().as_hours() / kTraces;
    makespan_s += outcome.makespan.as_seconds() / kTraces;
  }

  print_metric("replay_s", replay_s.value(), "s");
  print_metric("setup_s", setup_s.value(), "s");
  print_metric("peak_rss_mb", peak_rss_kib() * 1024 / 1e6, "MB");
  print_metric("sim_wait_p50_s", quantile(waits, 0.50), "s");
  print_metric("sim_wait_p95_s", quantile(waits, 0.95), "s");
  print_metric("sim_wait_samples", static_cast<double>(waits.size()), "count");
  print_metric("sim_turnaround_h", turnaround_h, "h");
  print_metric("sim_makespan_s", makespan_s, "s");

  if (traced) {
    failed +=
        run_traced(config, traces, reference, replay_s.value(), attempted);
  }

  print_metric("replays", static_cast<double>(attempted), "count");
  print_metric("replays_failed", static_cast<double>(failed), "count");
  return failed == 0 ? 0 : 1;
}

/// `--workload all`: one child process per workload, one at a time, so
/// that each reports its own peak RSS.
int run_all(const RunConfig& config) {
  int status_all = 0;
  for (std::string_view workload : kWorkloads) {
    std::vector<std::string> args = {
        "/proc/self/exe", "--workload", std::string(workload), "--seed",
        std::to_string(config.seed)};
    if (config.reps > 0) {
      args.insert(args.end(), {"--reps", std::to_string(config.reps)});
    } else {
      args.insert(args.end(), {"--seconds", std::to_string(config.seconds)});
    }
    if (!config.trace_path.empty()) {
      std::string path = config.trace_path;
      const std::size_t dot = path.rfind(".json");
      path.insert(dot == std::string::npos ? path.size() : dot,
                  "." + std::string(workload));
      args.insert(args.end(), {"--trace", path});
    }
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    std::printf("workload %s\n", std::string(workload).c_str());
    std::fflush(stdout);
    pid_t pid = 0;
    if (posix_spawn(&pid, argv[0], nullptr, nullptr, argv.data(), environ) !=
        0) {
      std::perror("e2e_replay: posix_spawn");
      return 2;
    }
    int status = 0;
    if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      status_all = 1;
    }
  }
  return status_all;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(flag + " needs a value");
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        config.workload = value;
      } else if (flag == "--seed") {
        config.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        config.seconds = std::stod(value);
      } else if (flag == "--reps") {
        config.reps = std::stoul(value);
      } else if (flag == "--trace") {
        config.trace_path = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_seed) usage("--seed is required");
  if (!(config.seconds > 0.0 && config.seconds < 3600.0)) {
    usage("--seconds must be in (0, 3600)");
  }
  if (config.workload == "all") return run_all(config);
  if (std::find(kWorkloads.begin(), kWorkloads.end(), config.workload) ==
      kWorkloads.end()) {
    usage("unknown workload '" + config.workload + "'");
  }
  return run_workload(config);
}
