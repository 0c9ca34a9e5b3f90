#include "orch/sgx_probe.hpp"

#include "common/error.hpp"

namespace sgxo::orch {

SgxProbe::SgxProbe(sim::Simulation& sim, ApiServer::NodeEntry entry,
                   tsdb::Database& db, Duration period)
    : sim_(&sim),
      entry_(entry),
      db_(&db),
      period_(period),
      writer_(db, kEpcMeasurement, {}) {
  SGXO_CHECK_MSG(entry_.node != nullptr && entry_.kubelet != nullptr,
                 "probe needs a complete node entry");
  SGXO_CHECK_MSG(entry_.node->has_sgx(),
                 "SGX probe deployed on a node without SGX");
}

SgxProbe::~SgxProbe() { stop(); }

void SgxProbe::start() {
  if (timer_.valid()) return;
  timer_ = sim_->schedule_every(period_, period_, [this] { probe_once(); });
}

void SgxProbe::stop() {
  if (timer_.valid()) {
    sim_->cancel(timer_);
    timer_ = sim::EventId{};
  }
}

void SgxProbe::probe_once() {
  ++probes_;
  const TimePoint now = sim_->now();
  const sgx::Driver& driver = *entry_.node->driver();
  for (const cluster::PodName& pod : entry_.kubelet->active_pods()) {
    Pages pages{0};
    for (const sgx::Pid pid : entry_.kubelet->pod_pids(pod)) {
      pages += driver.process_pages(pid);
    }
    if (drop_samples_) {
      ++dropped_;
      continue;
    }
    const double value = static_cast<double>(pages.as_bytes().count());
    if (sample_delay_ > Duration{}) {
      // Late delivery with the original timestamp: the point lands out of
      // order, after the scheduler may already have run without it. The
      // sample is in flight and lands even if the probe crashes first, so
      // its write holds no pointer to the probe.
      ++delayed_;
      sim_->schedule_after(
          sample_delay_,
          [db = db_, tags = writer_.tags_of(pod, node_name()), now, value] {
            db->write(kEpcMeasurement, tags, now, value);
          });
      continue;
    }
    writer_.write(pod, node_name(), now, value);
  }
  writer_.end_round();
}

}  // namespace sgxo::orch
