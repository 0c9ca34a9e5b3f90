#include "orch/daemonset.hpp"

namespace sgxo::orch {

ProbeDaemonSet::ProbeDaemonSet(sim::Simulation& sim, ApiServer& api,
                               tsdb::Database& db, Duration probe_period)
    : sim_(&sim), api_(&api), db_(&db), probe_period_(probe_period) {}

void ProbeDaemonSet::start() {
  reconcile();
  if (!timer_.valid()) {
    timer_ = sim_->schedule_every(kReconcilePeriod, kReconcilePeriod,
                                  [this] { reconcile(); });
  }
}

void ProbeDaemonSet::stop() {
  if (timer_.valid()) {
    sim_->cancel(timer_);
    timer_ = sim::EventId{};
  }
  for (auto& [name, probe] : probes_) {
    probe->stop();
  }
}

void ProbeDaemonSet::reconcile() {
  for (const ApiServer::NodeEntry& entry : api_->all_nodes()) {
    // SGX nodes are recognised by the EPC amount the device plugin
    // advertises — zero pages means no SGX (or plugin not running).
    if (entry.node->epc_capacity().count() == 0) continue;
    if (has_probe(entry.node->name())) continue;
    auto probe = std::make_unique<SgxProbe>(
        *sim_, entry, samples(entry.node->name()), probe_period_);
    probe->start();
    probes_.emplace(entry.node->name(), std::move(probe));
  }
}

SgxProbe* ProbeDaemonSet::probe(const cluster::NodeName& node) {
  const auto it = probes_.find(node);
  return it == probes_.end() ? nullptr : it->second.get();
}

void ProbeDaemonSet::crash_probe(const cluster::NodeName& node) {
  const auto it = probes_.find(node);
  if (it == probes_.end()) return;
  it->second->stop();
  probes_.erase(it);
}

PodSampleWriter& ProbeDaemonSet::samples(const cluster::NodeName& node) {
  return samples_
      .try_emplace(node, *sim_, *db_, SgxProbe::kEpcMeasurement, tsdb::Tags{})
      .first->second;
}

}  // namespace sgxo::orch
