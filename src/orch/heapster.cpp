#include "orch/heapster.hpp"

namespace sgxo::orch {

Heapster::Heapster(sim::Simulation& sim, ApiServer& api, tsdb::Database& db,
                   Duration scrape_period, Duration retention)
    : sim_(&sim),
      api_(&api),
      db_(&db),
      period_(scrape_period),
      retention_(retention) {}

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

void Heapster::deliver(const cluster::PodName& pod,
                       const cluster::NodeName& node, TimePoint sampled,
                       double value) {
  tsdb::Tags tags{{"pod_name", pod}, {"nodename", node}, {"type", "pod"}};
  db_->write(kMemoryMeasurement, tags, sampled, value);
}

void Heapster::scrape_once() {
  ++scrapes_;
  const TimePoint now = sim_->now();
  for (const ApiServer::NodeEntry& entry : api_->all_nodes()) {
    for (const cluster::Kubelet::PodStats& stats :
         entry.kubelet->pod_stats()) {
      if (drop_samples_) {
        ++dropped_;
        continue;
      }
      const double value = static_cast<double>(stats.memory_usage.count());
      if (sample_delay_ > Duration{}) {
        // Delayed delivery keeps the original sample timestamp, so the
        // point lands out of order — exactly what a congested collector
        // produces.
        ++delayed_;
        const cluster::PodName pod = stats.pod;
        const cluster::NodeName node = entry.node->name();
        sim_->schedule_after(sample_delay_, [this, pod, node, now, value] {
          deliver(pod, node, now, value);
        });
        continue;
      }
      deliver(stats.pod, entry.node->name(), now, value);
    }
  }
  // Retention plus chunk compaction ride on the scrape cadence — the
  // simulated stand-in for a background maintenance thread.
  db_->maintain(now, retention_);
}

}  // namespace sgxo::orch
