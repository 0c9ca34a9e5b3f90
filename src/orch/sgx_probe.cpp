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
  const cluster::ContainerRuntime& runtime = entry_.node->runtime();
  entry_.kubelet->for_each_active_pod(
      [&](const cluster::PodName& pod,
          const std::vector<cluster::ContainerId>& containers) {
        Pages pages{0};
        for (const cluster::ContainerId id : containers) {
          pages += driver.process_pages(runtime.info(id).pid);
        }
        if (drop_samples_) {
          ++dropped_;
          return;
        }
        const double value = static_cast<double>(pages.as_bytes().count());
        if (sample_delay_ > Duration{}) {
          // Late delivery with the original timestamp: the point lands out
          // of order, after the scheduler may already have run without it.
          // The sample is in flight and lands even if the probe crashes
          // first, so its write holds no pointer to the probe.
          ++delayed_;
          sim_->schedule_after(
              sample_delay_,
              [db = db_, tags = writer_.tags_of(pod, node_name()), now,
               value] { db->write(kEpcMeasurement, tags, now, value); });
          return;
        }
        writer_.write(pod, node_name(), now, value);
      });
  writer_.end_round();
}

}  // namespace sgxo::orch
