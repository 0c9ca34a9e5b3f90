#include "orch/scheduler_framework.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace sgxo::orch {

bool fits(const cluster::PodSpec& pod, const NodeView& view) {
  const cluster::ResourceAmounts request = pod.total_requests();
  // nodeSelector pins the pod to one node.
  if (!pod.node_selector.empty() && pod.node_selector != view.name) {
    return false;
  }
  // Hardware compatibility: SGX-enabled jobs need an SGX node.
  if (pod.wants_sgx() && !view.sgx_capable) return false;
  // Standard memory saturation.
  if (view.memory_used + request.memory > view.memory_capacity) return false;
  // EPC saturation — over-commitment is deliberately prevented (§V-A):
  // the usage estimate must fit, and so must the device-plugin request
  // accounting (pages are finite device items).
  if (pod.wants_sgx()) {
    if (view.epc_used + request.epc_pages > view.epc_capacity) return false;
    if (view.epc_requested + request.epc_pages > view.epc_capacity) {
      return false;
    }
  }
  return true;
}

Scheduler::Scheduler(sim::Simulation& sim, ApiServer& api, std::string name,
                     Duration period)
    : sim_(&sim), api_(&api), name_(std::move(name)), period_(period) {
  SGXO_CHECK_MSG(!name_.empty(), "scheduler needs a name");
  SGXO_CHECK_MSG(period_ > Duration{}, "scheduling period must be positive");
}

Scheduler::~Scheduler() { stop(); }

void Scheduler::set_identity(std::string identity) {
  identity_ = std::move(identity);
}

void Scheduler::start() {
  if (timer_.valid()) return;
  timer_ = sim_->schedule_every(period_, period_, [this] { run_once(); });
}

void Scheduler::stop() {
  if (timer_.valid()) {
    sim_->cancel(timer_);
    timer_ = sim::EventId{};
  }
}

void Scheduler::enable_shared_state(SharedStateConfig config) {
  SGXO_CHECK_MSG(config.shard_count >= 1, "shard_count must be >= 1");
  SGXO_CHECK_MSG(config.shard < config.shard_count,
                 "shard must be < shard_count");
  SGXO_CHECK_MSG(config.min_batch >= 1, "min_batch must be >= 1");
  SGXO_CHECK_MSG(config.min_batch <= config.initial_batch &&
                     config.initial_batch <= config.max_batch,
                 "batch bounds must satisfy min <= initial <= max");
  SGXO_CHECK_MSG(config.shrink_above > config.grow_below,
                 "controller thresholds must satisfy shrink_above > "
                 "grow_below, or a batch could shrink and grow at once");
  shared_ = config;
  reset_conflict_controller();
}

void Scheduler::reset_conflict_controller() {
  batch_size_ = shared_->initial_batch;
  conflict_streak_ = 0;
  steal_rotation_ = 0;
}

void Scheduler::crash() {
  stop();
  crashed_ = true;
}

void Scheduler::restart() {
  if (!crashed_) return;
  crashed_ = false;
  // A reborn replica trusts nothing it cached; the pending queue and node
  // commitments are re-read from the ApiServer every cycle anyway, and
  // the backoff clocks and batch size its previous life's controller
  // chose are meaningless now.
  backoffs_.clear();
  if (shared_state_enabled()) reset_conflict_controller();
  start();
}

Scheduler::Health Scheduler::health() const {
  Health health;
  health.name = name_;
  health.identity = identity();
  health.crashed = crashed_;
  health.cycles = cycles_;
  health.bound = bound_;
  health.bind_conflicts = bind_conflicts_;
  health.guard_rejections = guard_rejections_;
  health.attestation_waits = attestation_waits_;
  health.backoff_skips = backoff_skips_;
  health.degraded_cycles = degraded_cycles();
  health.shared_state = shared_state_enabled();
  if (shared_state_enabled()) {
    health.shard = shared_->shard;
    health.shard_count = shared_->shard_count;
    health.batch_capacity = batch_size_;
    health.batches = batches_;
    health.steal_cycles = steal_cycles_;
    health.reshards = reshards_;
  }
  return health;
}

void Scheduler::set_bind_backoff(Duration base, Duration cap) {
  SGXO_CHECK_MSG(base > Duration{}, "backoff base must be positive");
  SGXO_CHECK_MSG(cap >= base, "backoff cap must be >= base");
  backoff_base_ = base;
  backoff_cap_ = cap;
}

void Scheduler::disable_bind_backoff() {
  backoff_base_ = Duration{};
  backoff_cap_ = Duration{};
  backoffs_.clear();
}

void Scheduler::note_bind_failure(const cluster::PodName& pod) {
  if (!bind_backoff_enabled()) return;
  PodBackoff& entry = backoffs_[pod];
  entry.delay = entry.delay == Duration{}
                    ? backoff_base_
                    : std::min(entry.delay * 2, backoff_cap_);
  entry.not_before = sim_->now() + entry.delay;
}

void Scheduler::prune_backoffs() {
  for (auto it = backoffs_.begin(); it != backoffs_.end();) {
    const bool still_pending =
        api_->has_pod(it->first) &&
        api_->pod(it->first).phase == cluster::PodPhase::kPending;
    it = still_pending ? std::next(it) : backoffs_.erase(it);
  }
}

struct Scheduler::Cycle {
  explicit Cycle(std::vector<NodeView> node_views)
      : views(std::move(node_views)) {
    feasible.reserve(views.size());
  }

  /// Every schedulable node, charged with this cycle's reservations.
  std::vector<NodeView> views;
  /// plan_pod's feasible-node scratch, reused for every pod of the cycle.
  std::vector<NodeView> feasible;
  bool unschedulable_reported = false;
  /// Strict FCFS: a pod that fit nowhere ends the cycle.
  bool blocked = false;
};

namespace {

/// Charges a placement to the cycle-local views, so later pods of the same
/// cycle see the reservation (metrics only catch up at the next probe).
void reserve(std::vector<NodeView>& views, const cluster::NodeName& node,
             const cluster::PodSpec& spec) {
  const auto view_it =
      std::find_if(views.begin(), views.end(),
                   [&](const NodeView& v) { return v.name == node; });
  SGXO_CHECK(view_it != views.end());
  const cluster::ResourceAmounts request = spec.total_requests();
  view_it->memory_used += request.memory;
  view_it->epc_used += request.epc_pages;
  view_it->epc_requested += request.epc_pages;
}

}  // namespace

std::optional<cluster::NodeName> Scheduler::plan_pod(
    Cycle& cycle, const cluster::PodSpec& spec) {
  if (bind_backoff_enabled()) {
    const auto backoff_it = backoffs_.find(spec.name);
    if (backoff_it != backoffs_.end() &&
        sim_->now() < backoff_it->second.not_before) {
      ++backoff_skips_;
      return std::nullopt;  // still backing off — never blocks younger pods
    }
  }

  cycle.feasible.clear();
  std::copy_if(cycle.views.begin(), cycle.views.end(),
               std::back_inserter(cycle.feasible),
               [&](const NodeView& view) { return fits(spec, view); });
  std::optional<cluster::NodeName> chosen;
  if (cycle.feasible.empty()) {
    if (!cycle.unschedulable_reported) {
      cycle.unschedulable_reported = true;
      on_unschedulable(spec, cycle.views);
    }
  } else {
    chosen = select_node(spec, cycle.feasible, cycle.views);
  }
  if (!chosen.has_value()) {
    note_bind_failure(spec.name);
    cycle.blocked = strict_fcfs_;
  }
  return chosen;
}

std::size_t Scheduler::run_once() {
  if (crashed_) return 0;
  if (shared_state_enabled()) return run_shared_cycle();

  ++cycles_;
  Cycle cycle{collect_views()};
  std::size_t bound_this_cycle = 0;

  // FCFS: older pods get first pick of this cycle's resources; pods that
  // fit nowhere right now stay pending without blocking younger ones
  // (Kubernetes semantics). list_pods serves the maintained pending-queue
  // index in scheduling order — no store scan, no per-pod lookup.
  //
  // The cycle works on a snapshot: record pointers plus the resource
  // version each pod had when the cycle started. Binds are conditional on
  // that version, so anything that mutates a pod mid-cycle — a watch
  // callback fired by an earlier bind, another scheduler binding the same
  // pod — turns this scheduler's attempt into a clean conflict instead of
  // a double placement.
  PodFilter filter;
  filter.phase = cluster::PodPhase::kPending;
  filter.scheduler = name_;
  struct PendingSnapshot {
    const PodRecord* record;
    std::uint64_t version;
  };
  std::vector<PendingSnapshot> snapshot;
  for (const PodRecord* record : api_->list_pods(filter)) {
    snapshot.push_back(PendingSnapshot{record, record->resource_version});
  }
  for (const PendingSnapshot& pending : snapshot) {
    const cluster::PodSpec& spec = pending.record->spec;
    const cluster::PodName& pod_name = spec.name;
    const std::optional<cluster::NodeName> chosen = plan_pod(cycle, spec);
    if (cycle.blocked) break;
    if (!chosen.has_value()) continue;

    const ApiServer::BindOutcome outcome =
        api_->try_bind(pod_name, *chosen, pending.version);
    if (outcome == ApiServer::BindStatus::kStaleVersion ||
        outcome == ApiServer::BindStatus::kNotPending) {
      // Lost the race: the pod changed (or was taken) since the cycle's
      // snapshot. It stays wherever the winner put it; if still pending
      // it is re-enqueued for the next cycle, without a backoff penalty.
      ++bind_conflicts_;
      continue;
    }
    if (outcome == ApiServer::BindStatus::kAdmissionRejected) {
      // The kubelet's live commitments disagree with this cycle's view.
      // Back the pod off like any other failed placement; the view is
      // rebuilt next cycle.
      ++guard_rejections_;
      note_bind_failure(pod_name);
      if (strict_fcfs_) break;
      continue;
    }
    if (outcome == ApiServer::BindStatus::kNodeUnavailable) {
      // The node died between view collection and bind.
      note_bind_failure(pod_name);
      if (strict_fcfs_) break;
      continue;
    }
    if (outcome == ApiServer::BindStatus::kAttestationPending ||
        outcome == ApiServer::BindStatus::kAttestationRejected) {
      // The attestation gate parked the bind (verification in flight) or
      // refused the node. Back off and retry; a pending verdict usually
      // resolves within one round-trip.
      ++attestation_waits_;
      note_bind_failure(pod_name);
      if (strict_fcfs_) break;
      continue;
    }
    backoffs_.erase(pod_name);
    ++bound_this_cycle;
    reserve(cycle.views, *chosen, spec);
  }

  // Keep the backoff map bounded: entries of pods that left the pending
  // queue (bound elsewhere, finished, failed) are dropped periodically.
  if (bind_backoff_enabled() && cycles_ % 64 == 0) prune_backoffs();

  bound_ += bound_this_cycle;
  return bound_this_cycle;
}

std::size_t Scheduler::run_shared_cycle() {
  ++cycles_;
  const SharedStateConfig& config = *shared_;

  // Pull up to one batch from this replica's own shard; if that shard is
  // dry, probe neighbours in a deterministic rotation so a crashed (or
  // merely slow) replica's backlog is absorbed without a failover step.
  // The shard is a pure function of the pod name, so the pull — and with
  // it the whole cycle — is bit-identical across same-seed runs.
  PodFilter filter;
  filter.phase = cluster::PodPhase::kPending;
  filter.scheduler = name_;
  filter.shard_count = config.shard_count;
  filter.shard = config.shard;
  filter.limit = batch_size_;
  std::vector<const PodRecord*> pulled = api_->list_pods(filter);
  if (pulled.empty() && config.work_stealing && config.shard_count > 1) {
    for (std::uint32_t k = 1; k < config.shard_count; ++k) {
      const std::uint32_t candidate =
          (config.shard + steal_rotation_ + k) % config.shard_count;
      if (candidate == config.shard) continue;
      filter.shard = candidate;
      pulled = api_->list_pods(filter);
      if (!pulled.empty()) {
        ++steal_cycles_;
        break;
      }
    }
  }
  if (pulled.empty()) return 0;

  // Plan the whole batch against one optimistic snapshot, reserving each
  // staged placement in the cycle-local views so two batch entries cannot
  // both claim the same node's last EPC pages from this replica's side.
  // (Cross-replica races are the ApiServer's job: version CAS + the
  // admission guard turn them into per-entry conflicts.)
  Cycle cycle{collect_views()};
  std::vector<ApiServer::BindRequest> batch;
  batch.reserve(pulled.size());
  for (const PodRecord* record : pulled) {
    const cluster::PodSpec& spec = record->spec;
    const std::optional<cluster::NodeName> chosen = plan_pod(cycle, spec);
    if (cycle.blocked) break;
    if (!chosen.has_value()) continue;
    batch.push_back(ApiServer::BindRequest{spec.name, *chosen,
                                           record->resource_version});
    reserve(cycle.views, *chosen, spec);
  }

  std::size_t bound_this_cycle = 0;
  if (!batch.empty()) {
    const ApiServer::BatchBindResult result = api_->try_bind_batch(batch);
    ++batches_;
    SGXO_CHECK(result.entries.size() == batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const cluster::PodName& pod_name = batch[i].pod;
      switch (result.entries[i].status) {
        case ApiServer::BindStatus::kBound:
          backoffs_.erase(pod_name);
          ++bound_this_cycle;
          break;
        case ApiServer::BindStatus::kStaleVersion:
        case ApiServer::BindStatus::kNotPending:
          // Lost the optimistic race to a sibling replica; the pod stays
          // wherever the winner put it, no backoff penalty.
          ++bind_conflicts_;
          break;
        case ApiServer::BindStatus::kAdmissionRejected:
          // Stale view of the node's live EPC commitments.
          ++guard_rejections_;
          note_bind_failure(pod_name);
          break;
        case ApiServer::BindStatus::kNodeUnavailable:
          note_bind_failure(pod_name);
          break;
        case ApiServer::BindStatus::kAttestationPending:
        case ApiServer::BindStatus::kAttestationRejected:
          // Parked behind the attestation gate; excluded from the
          // conflict rate (not contention), retried after backoff.
          ++attestation_waits_;
          note_bind_failure(pod_name);
          break;
      }
    }

    // Conflict-rate congestion controller: sustained contention shrinks
    // the batch (fewer staged binds per transaction → fewer casualties
    // per race) and eventually rotates the steal origin so two replicas
    // stop colliding on the same drained shard; clean batches grow back.
    last_conflict_rate_ = result.conflict_rate();
    if (last_conflict_rate_ > config.shrink_above) {
      batch_size_ = std::max(config.min_batch, batch_size_ / 2);
      ++conflict_streak_;
      if (config.reshard_after > 0 &&
          conflict_streak_ >= config.reshard_after) {
        conflict_streak_ = 0;
        steal_rotation_ = (steal_rotation_ + 1) % config.shard_count;
        ++reshards_;
      }
    } else {
      conflict_streak_ = 0;
      if (last_conflict_rate_ < config.grow_below) {
        batch_size_ = std::min(config.max_batch, batch_size_ * 2);
      }
    }
  }

  if (bind_backoff_enabled() && cycles_ % 64 == 0) prune_backoffs();
  bound_ += bound_this_cycle;
  return bound_this_cycle;
}

}  // namespace sgxo::orch
