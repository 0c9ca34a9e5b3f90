#include "orch/daemonset.hpp"

#include <algorithm>

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
    auto probe = std::make_unique<SgxProbe>(*sim_, entry, *db_, probe_period_);
    probe->start();
    apply_fault_state(entry.node->name(), *probe);
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

ProbeDaemonSet::FaultState ProbeDaemonSet::fault_state(
    const cluster::NodeName& node) const {
  FaultState state;
  const auto all = faults_.find("");
  if (all != faults_.end()) state = all->second;
  const auto mine = faults_.find(node);
  if (mine != faults_.end()) {
    state.drop = state.drop || mine->second.drop;
    state.delay = std::max(state.delay, mine->second.delay);
  }
  return state;
}

void ProbeDaemonSet::apply_fault_state(const cluster::NodeName& node,
                                       SgxProbe& probe) const {
  const FaultState state = fault_state(node);
  probe.set_drop_samples(state.drop);
  probe.set_sample_delay(state.delay);
}

void ProbeDaemonSet::set_drop_samples(const cluster::NodeName& node,
                                      bool drop) {
  faults_[node].drop = drop;
  for (auto& [name, probe] : probes_) {
    if (node.empty() || name == node) apply_fault_state(name, *probe);
  }
}

void ProbeDaemonSet::set_sample_delay(const cluster::NodeName& node,
                                      Duration delay) {
  faults_[node].delay = delay;
  for (auto& [name, probe] : probes_) {
    if (node.empty() || name == node) apply_fault_state(name, *probe);
  }
}

}  // namespace sgxo::orch
