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

Scheduler::Scheduler(sim::Simulation& sim, ApiServer& api, std::string name)
    : sim_(&sim), api_(&api), name_(std::move(name)) {
  SGXO_CHECK_MSG(!name_.empty(), "scheduler needs a name");
}

Scheduler::~Scheduler() { stop(); }

void Scheduler::start() {
  if (timer_.valid()) return;
  timer_ = sim_->schedule_every(kPeriod, kPeriod, [this] { run_once(); });
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
  health.degraded_cycles = degraded_cycles();
  return health;
}

struct Scheduler::Cycle {
  explicit Cycle(ApiServer& api)
      : views(request_based_views(api)), screen(views) {
    feasible.reserve(views.size());
  }
  // `screen` points at `views`.
  Cycle(const Cycle&) = delete;
  Cycle& operator=(const Cycle&) = delete;

  /// Every schedulable node, charged with this cycle's reservations.
  std::vector<NodeView> views;
  /// Screens the cycle's pods against `views`.
  FitScreen screen;
  /// Whether measure_views has run on `views`.
  bool measured = false;
  /// plan_pod's feasible-node scratch, reused for every pod of the cycle.
  std::vector<NodeView> feasible;
  bool unschedulable_reported = false;
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
  // A pod the screen rejects fits nowhere whatever the measurements show,
  // so only a pod that passes it, or one on_unschedulable acts on, needs
  // them. Until then the cycle has bound nothing, so measuring late gives
  // the views that measuring at its first pod would.
  const auto measure = [&] {
    if (cycle.measured) return;
    cycle.measured = true;
    measure_views(cycle.views);
  };
  const cluster::ResourceAmounts request = spec.total_requests();
  const bool sgx = spec.wants_sgx();
  cycle.feasible.clear();
  if (cycle.screen.may_fit(spec, request, sgx)) {
    measure();
    std::copy_if(cycle.views.begin(), cycle.views.end(),
                 std::back_inserter(cycle.feasible), [&](const NodeView& view) {
                   return fits_request(spec, request, sgx, view);
                 });
  }
  if (!cycle.feasible.empty()) {
    return select_node(spec, cycle.feasible, cycle.views);
  }
  if (!cycle.unschedulable_reported) {
    cycle.unschedulable_reported = true;
    if (acts_on_unschedulable(spec)) {
      measure();
      on_unschedulable(spec, cycle.views);
    }
  }
  return std::nullopt;
}

std::size_t Scheduler::run_once() {
  if (crashed_) return 0;

  ++cycles_;

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
  if (snapshot.empty()) return 0;

  Cycle cycle{*api_};
  std::size_t bound_this_cycle = 0;
  for (const PendingSnapshot& pending : snapshot) {
    const cluster::PodSpec& spec = pending.record->spec;
    const std::optional<cluster::NodeName> chosen = plan_pod(cycle, spec);
    if (chosen.has_value()) {
      const ApiServer::BindOutcome outcome =
          api_->try_bind(spec.name, *chosen, pending.version);
      if (outcome.bound()) {
        ++bound_this_cycle;
        reserve(cycle.views, *chosen, spec);
        cycle.screen.refresh();
        continue;
      }
      if (outcome == ApiServer::BindStatus::kStaleVersion ||
          outcome == ApiServer::BindStatus::kNotPending) {
        // Lost the race: the pod changed (or was taken) since the cycle's
        // snapshot. It stays wherever the winner put it; if still pending
        // it is planned again next cycle.
        ++bind_conflicts_;
        continue;
      }
      // Refused: the kubelet's live commitments disagree with this
      // cycle's view (admission guard), the node died since the views
      // were built, or the attestation gate parked the bind (verification
      // in flight) or refused the node. The pod stays pending and is
      // planned again next cycle, on rebuilt views.
      if (outcome == ApiServer::BindStatus::kAdmissionRejected) {
        ++guard_rejections_;
      }
      if (outcome == ApiServer::BindStatus::kAttestationPending ||
          outcome == ApiServer::BindStatus::kAttestationRejected) {
        ++attestation_waits_;
      }
    }
    // Strict FCFS: a pod that fit nowhere, or whose bind was refused,
    // ends the cycle.
    if (strict_fcfs_) break;
  }

  bound_ += bound_this_cycle;
  return bound_this_cycle;
}

}  // namespace sgxo::orch
