#include "orch/sgx_probe.hpp"

#include "common/error.hpp"

namespace sgxo::orch {

SgxProbe::SgxProbe(sim::Simulation& sim, ApiServer::NodeEntry entry,
                   PodSampleWriter& samples, Duration period)
    : sim_(&sim), entry_(entry), writer_(&samples), period_(period) {
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
        writer_->write(pod, node_name(), now,
                       static_cast<double>(pages.as_bytes().count()));
      });
  writer_->end_round();
}

}  // namespace sgxo::orch
