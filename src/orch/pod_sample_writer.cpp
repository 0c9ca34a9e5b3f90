#include "orch/pod_sample_writer.hpp"

#include <utility>

namespace sgxo::orch {

PodSampleWriter::PodSampleWriter(sim::Simulation& sim, tsdb::Database& db,
                                 std::string measurement, tsdb::Tags tags)
    : sim_(&sim),
      db_(&db),
      measurement_(std::move(measurement)),
      tags_(std::move(tags)) {}

tsdb::Tags PodSampleWriter::tags_of(const cluster::PodName& pod,
                                    const cluster::NodeName& node) const {
  tsdb::Tags tags = tags_;
  tags["nodename"] = node;
  tags["pod_name"] = pod;
  return tags;
}

void PodSampleWriter::write(const cluster::PodName& pod,
                            const cluster::NodeName& node, TimePoint time,
                            double value) {
  if (drop_ || delay_ > Duration{}) {
    write_faulted(pod, node, time, value);
    return;
  }
  Entry& entry = entries_[pod];
  entry.round = round_;
  if (entry.node == node && db_->live(entry.ref)) {
    db_->write(entry.ref, time, value);
    return;
  }
  tags_["nodename"] = node;
  tags_["pod_name"] = pod;
  // A failed tag write hands out no ref: the entry keeps the old one, and
  // the pod's next sample resolves again.
  if (const auto ref = db_->write(measurement_, tags_, time, value)) {
    entry.node = node;
    entry.ref = *ref;
  }
}

void PodSampleWriter::write_faulted(const cluster::PodName& pod,
                                    const cluster::NodeName& node,
                                    TimePoint time, double value) {
  if (drop_) {
    ++dropped_;
    return;
  }
  // Delayed delivery keeps the original sample timestamp, so the point
  // lands out of order — exactly what a congested collector produces. The
  // sample is in flight and lands even if its scraper or probe is gone
  // first, so its write holds no pointer to the writer.
  ++delayed_;
  sim_->schedule_after(delay_, [db = db_, measurement = measurement_,
                                tags = tags_of(pod, node), time, value] {
    db->write(measurement, tags, time, value);
  });
}

void PodSampleWriter::end_round() {
  std::erase_if(entries_,
                [this](const auto& kv) { return kv.second.round != round_; });
  ++round_;
}

}  // namespace sgxo::orch
