#include "orch/pod_restarter.hpp"

#include <algorithm>

namespace sgxo::orch {

namespace {
// Admission-retry backoff: first retry after the base, doubling per
// rejection up to the cap. Quota pressure clears when doomed pods finish
// or fail, so seconds-scale waits are plenty.
constexpr Duration kRetryBase = Duration::seconds(1);
constexpr Duration kRetryCap = Duration::seconds(60);
}  // namespace

PodRestarter::PodRestarter(sim::Simulation& sim, ApiServer& api)
    : sim_(&sim), api_(&api) {}

PodRestarter::~PodRestarter() { stop(); }

void PodRestarter::watch() {
  watch_ = api_->watch_pods([this](const ApiServer::PodUpdate& update) {
    if (update.phase != cluster::PodPhase::kFailed) return;
    const cluster::PodName pod = update.pod;
    // Defer the resubmission by one simulation event: the failure may
    // arrive from deep inside a Kubelet teardown path.
    sim_->schedule_after(Duration{}, [this, pod] { maybe_restart(pod); });
  });
}

void PodRestarter::unwatch() {
  if (watch_ == 0) return;
  api_->unwatch(watch_);
  watch_ = 0;
}

void PodRestarter::start() {
  if (started_) return;
  started_ = true;
  // The list half of list+watch: failures from before the watch existed.
  run_once();
  watch();
}

void PodRestarter::stop() {
  started_ = false;
  unwatch();
  for (auto& [pod, retry] : retries_) {
    if (retry.event.valid()) sim_->cancel(retry.event);
  }
  retries_.clear();
}

void PodRestarter::disconnect() {
  if (!connected()) return;
  ++disconnects_;
  unwatch();
  // Armed admission retries stay armed: they are local state, not watch
  // events, and the quota pressure that caused them clears independently.
}

void PodRestarter::resync() {
  if (!started_ || connected()) return;
  ++resyncs_;
  watch();
  // The re-list: one full reconciliation pass picks up every failure that
  // happened while the watch was down.
  run_once();
}

bool PodRestarter::restartable(const PodRecord& record) {
  return record.phase == cluster::PodPhase::kFailed &&
         record.failure_reason == "NodeFailure";
}

void PodRestarter::maybe_restart(const cluster::PodName& pod) {
  if (!api_->has_pod(pod)) return;
  if (handled_.find(pod) != handled_.end()) return;
  const auto retry_it = retries_.find(pod);
  if (retry_it != retries_.end() && retry_it->second.event.valid()) {
    return;  // an admission retry is already armed for this pod
  }
  const PodRecord& record = api_->pod(pod);
  if (restartable(record)) restart(record);
}

bool PodRestarter::restart(const PodRecord& record) {
  cluster::PodSpec retry = record.spec;
  retry.name = record.spec.name + "-retry";
  // Idempotence across controller incarnations: a replica elected (or a
  // process restarted) after another instance already resubmitted this pod
  // finds the retry in the ApiServer and must adopt it, not submit a
  // duplicate — submit would abort on the name collision.
  if (api_->has_pod(retry.name)) {
    handled_.emplace(record.spec.name, retry.name);
    retries_.erase(record.spec.name);
    return false;
  }
  // The retry must not chase the dead node.
  retry.node_selector.clear();
  try {
    api_->submit(std::move(retry));
  } catch (const QuotaExceeded&) {
    // The namespace is momentarily full (doomed pods not yet reaped).
    // Swallow the rejection — this may run inside a watch delivery — and
    // try again later with capped exponential backoff.
    ++rejected_restarts_;
    schedule_retry(record.spec.name);
    return false;
  }
  handled_.emplace(record.spec.name, record.spec.name + "-retry");
  retries_.erase(record.spec.name);
  ++restarts_;
  return true;
}

void PodRestarter::schedule_retry(const cluster::PodName& pod) {
  Retry& retry = retries_[pod];
  if (retry.event.valid()) return;  // already armed
  retry.delay = retry.delay == Duration{}
                    ? kRetryBase
                    : std::min(retry.delay * 2, kRetryCap);
  retry.event = sim_->schedule_after(retry.delay, [this, pod] {
    const auto it = retries_.find(pod);
    if (it != retries_.end()) it->second.event = sim::EventId{};
    maybe_restart(pod);
  });
}

std::size_t PodRestarter::run_once() {
  std::size_t resubmitted = 0;
  // list_pods returns a snapshot, so resubmitting inside the loop is safe
  // (the retries it creates are Pending, not Failed).
  PodFilter filter;
  filter.phase = cluster::PodPhase::kFailed;
  for (const PodRecord* record : api_->list_pods(filter)) {
    if (!restartable(*record)) continue;
    if (handled_.find(record->spec.name) != handled_.end()) continue;
    const auto retry_it = retries_.find(record->spec.name);
    if (retry_it != retries_.end() && retry_it->second.event.valid()) {
      continue;  // admission retry already armed
    }
    if (restart(*record)) ++resubmitted;
  }
  return resubmitted;
}

std::string PodRestarter::retry_of(const cluster::PodName& pod) const {
  const auto it = handled_.find(pod);
  return it == handled_.end() ? "" : it->second;
}

}  // namespace sgxo::orch
