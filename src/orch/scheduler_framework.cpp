#include "orch/scheduler_framework.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace sgxo::orch {

namespace {

/// The measurement-free half of fits(): what the FitScreen decides.
bool fits_unmeasured(const cluster::PodSpec& pod,
                     const cluster::ResourceAmounts& request, bool sgx,
                     const NodeView& view) {
  // nodeSelector pins the pod to one node.
  if (!pod.node_selector.empty() && pod.node_selector != view.name) {
    return false;
  }
  // Hardware compatibility: SGX-enabled jobs need an SGX node.
  if (sgx && !view.sgx_capable) return false;
  // The device plugin's request accounting: pages are finite device items.
  return !sgx || view.epc_requested + request.epc_pages <= view.epc_capacity;
}

/// fits() for a pod whose request and SGX flag are already computed.
bool fits_request(const cluster::PodSpec& pod,
                  const cluster::ResourceAmounts& request, bool sgx,
                  const NodeView& view) {
  if (!fits_unmeasured(pod, request, sgx, view)) return false;
  // Standard memory saturation.
  if (view.memory_used + request.memory > view.memory_capacity) return false;
  // EPC saturation — over-commitment is deliberately prevented (§V-A):
  // the usage estimate must fit as well as the request accounting.
  return !sgx || view.epc_used + request.epc_pages <= view.epc_capacity;
}

}  // namespace

bool fits(const cluster::PodSpec& pod, const NodeView& view) {
  return fits_request(pod, pod.total_requests(), pod.wants_sgx(), view);
}

std::vector<NodeView> request_based_views(ApiServer& api) {
  std::vector<NodeView> views;
  for (const ApiServer::NodeEntry& entry : api.schedulable_nodes()) {
    NodeView view;
    view.name = entry.node->name();
    view.sgx_capable = entry.node->has_sgx();
    view.memory_capacity = entry.node->memory_capacity();
    view.epc_capacity = entry.node->epc_capacity();
    const cluster::ResourceAmounts requested = api.node_requests(view.name);
    view.memory_used = requested.memory;
    view.epc_used = requested.epc_pages;
    view.epc_requested = requested.epc_pages;
    views.push_back(view);
  }
  // Stable, deterministic node order.
  std::sort(views.begin(), views.end(),
            [](const NodeView& a, const NodeView& b) { return a.name < b.name; });
  return views;
}

FitScreen::FitScreen(const std::vector<NodeView>& views) : views_(&views) {
  refresh();
}

void FitScreen::refresh() {
  sgx_headroom_.reset();
  for (const NodeView& view : *views_) {
    if (!view.sgx_capable || view.epc_requested > view.epc_capacity) continue;
    const Pages headroom = view.epc_capacity - view.epc_requested;
    if (!sgx_headroom_.has_value() || headroom > *sgx_headroom_) {
      sgx_headroom_ = headroom;
    }
  }
}

bool FitScreen::may_fit(const cluster::PodSpec& pod,
                        const cluster::ResourceAmounts& request,
                        bool sgx) const {
  if (!pod.node_selector.empty()) {
    const auto it = std::lower_bound(
        views_->begin(), views_->end(), pod.node_selector,
        [](const NodeView& view, const cluster::NodeName& name) {
          return view.name < name;
        });
    return it != views_->end() && it->name == pod.node_selector &&
           fits_unmeasured(pod, request, sgx, *it);
  }
  if (!sgx) return !views_->empty();
  return sgx_headroom_.has_value() && request.epc_pages <= *sgx_headroom_;
}

Scheduler::Scheduler(sim::Simulation& sim, ApiServer& api, std::string name,
                     Duration period)
    : sim_(&sim), api_(&api), name_(std::move(name)), period_(period) {
  SGXO_CHECK_MSG(!name_.empty(), "scheduler needs a name");
  SGXO_CHECK_MSG(period_ > Duration{}, "scheduling period must be positive");
}

Scheduler::~Scheduler() { stop(); }

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

void Scheduler::crash() {
  stop();
  crashed_ = true;
}

void Scheduler::restart() {
  if (!crashed_) return;
  crashed_ = false;
  // A reborn scheduler trusts nothing it cached; the pending queue and
  // node commitments are re-read from the ApiServer every cycle anyway,
  // and the backoff clocks of its previous life are meaningless now.
  backoffs_.clear();
  start();
}

Scheduler::Health Scheduler::health() const {
  Health health;
  health.name = name_;
  health.crashed = crashed_;
  health.cycles = cycles_;
  health.bound = bound_;
  health.bind_conflicts = bind_conflicts_;
  health.guard_rejections = guard_rejections_;
  health.attestation_waits = attestation_waits_;
  health.backoff_skips = backoff_skips_;
  health.degraded_cycles = degraded_cycles();
  return health;
}

void Scheduler::set_bind_backoff(Duration base, Duration cap) {
  SGXO_CHECK_MSG(base > Duration{}, "backoff base must be positive");
  SGXO_CHECK_MSG(cap >= base, "backoff cap must be >= base");
  backoff_base_ = base;
  backoff_cap_ = cap;
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
  /// Every schedulable node, charged with this cycle's reservations. Built
  /// request-based by plan_pod for the cycle's first pod that is not
  /// backing off; a cycle that plans no pod builds none.
  std::optional<std::vector<NodeView>> views;
  /// Screens the cycle's pods against `views`; built with them.
  std::optional<FitScreen> screen;
  /// Whether measure_views has run on `views`.
  bool measured = false;
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

  if (!cycle.views.has_value()) {
    // Nothing the cycle did so far changes what the views would show: it
    // only listed its pending pods and skipped backed-off ones.
    cycle.views = request_based_views(*api_);
    cycle.screen.emplace(*cycle.views);
    cycle.feasible.reserve(cycle.views->size());
  }
  std::vector<NodeView>& views = *cycle.views;
  // A pod the screen rejects fits nowhere whatever the measurements show,
  // so only a pod that passes it, or one on_unschedulable acts on, needs
  // them. Until then the cycle has bound nothing, so measuring late gives
  // the views that measuring at its first planned pod would.
  const auto measure = [&] {
    if (cycle.measured) return;
    cycle.measured = true;
    measure_views(views);
  };
  const cluster::ResourceAmounts request = spec.total_requests();
  const bool sgx = spec.wants_sgx();
  cycle.feasible.clear();
  if (cycle.screen->may_fit(spec, request, sgx)) {
    measure();
    std::copy_if(views.begin(), views.end(),
                 std::back_inserter(cycle.feasible), [&](const NodeView& view) {
                   return fits_request(spec, request, sgx, view);
                 });
  }
  std::optional<cluster::NodeName> chosen;
  if (cycle.feasible.empty()) {
    if (!cycle.unschedulable_reported) {
      cycle.unschedulable_reported = true;
      if (acts_on_unschedulable(spec)) {
        measure();
        on_unschedulable(spec, views);
      }
    }
  } else {
    chosen = select_node(spec, cycle.feasible, views);
  }
  if (!chosen.has_value()) {
    note_bind_failure(spec.name);
    cycle.blocked = strict_fcfs_;
  }
  return chosen;
}

std::size_t Scheduler::run_once() {
  if (crashed_) return 0;

  ++cycles_;
  Cycle cycle;
  std::size_t bound_this_cycle = 0;

  // FCFS: older pods get first pick of this cycle's resources; pods that
  // fit nowhere right now stay pending without blocking younger ones
  // (Kubernetes semantics). list_pods serves the maintained pending-queue
  // index in scheduling order — no store scan, no per-pod lookup.
  //
  // The cycle works on a snapshot: record pointers plus the resource
  // version each pod had when the cycle started. Binds are conditional on
  // that version, so anything that mutates a pod mid-cycle — a watch
  // callback fired by an earlier bind, another caller binding or evicting
  // the same pod — turns this scheduler's attempt into a clean conflict
  // instead of a double placement.
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
    reserve(*cycle.views, *chosen, spec);
    cycle.screen->refresh();
  }

  // Keep the backoff map bounded: entries of pods that left the pending
  // queue (bound elsewhere, finished, failed) are dropped periodically.
  if (bind_backoff_enabled() && cycles_ % 64 == 0) prune_backoffs();

  bound_ += bound_this_cycle;
  return bound_this_cycle;
}

}  // namespace sgxo::orch
