#include "orch/heapster.hpp"

namespace sgxo::orch {

Heapster::Heapster(sim::Simulation& sim, ApiServer& api, tsdb::Database& db,
                   Duration scrape_period)
    : sim_(&sim),
      api_(&api),
      db_(&db),
      period_(scrape_period),
      writer_(sim, db, kMemoryMeasurement, {{"type", "pod"}}) {}

void Heapster::start() {
  if (timer_.valid()) return;
  timer_ = sim_->schedule_every(period_, period_, [this] { scrape_once(); });
}

void Heapster::stop() {
  if (timer_.valid()) {
    sim_->cancel(timer_);
    timer_ = sim::EventId{};
  }
}

void Heapster::scrape_once() {
  ++scrapes_;
  const TimePoint now = sim_->now();
  for (const ApiServer::NodeEntry& entry : api_->all_nodes()) {
    const cluster::ContainerRuntime& runtime = entry.node->runtime();
    entry.kubelet->for_each_active_pod(
        [&](const cluster::PodName& pod,
            const std::vector<cluster::ContainerId>& containers) {
          Bytes usage{};
          for (const cluster::ContainerId id : containers) {
            usage += runtime.info(id).memory_usage;
          }
          writer_.write(pod, entry.node->name(), now,
                        static_cast<double>(usage.count()));
        });
  }
  writer_.end_round();
  // Retention rides on the scrape cadence — the simulated stand-in for a
  // background maintenance thread.
  db_->enforce_retention(now, kRetention);
}

}  // namespace sgxo::orch
