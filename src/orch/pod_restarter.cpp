#include "orch/pod_restarter.hpp"

namespace sgxo::orch {

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
}

void PodRestarter::disconnect() {
  if (!connected()) return;
  ++disconnects_;
  unwatch();
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
    return false;
  }
  // The retry must not chase the dead node.
  retry.node_selector.clear();
  api_->submit(std::move(retry));
  handled_.emplace(record.spec.name, record.spec.name + "-retry");
  ++restarts_;
  return true;
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
    if (restart(*record)) ++resubmitted;
  }
  return resubmitted;
}

std::string PodRestarter::retry_of(const cluster::PodName& pod) const {
  const auto it = handled_.find(pod);
  return it == handled_.end() ? "" : it->second;
}

}  // namespace sgxo::orch
