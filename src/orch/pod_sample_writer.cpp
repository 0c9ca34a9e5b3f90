#include "orch/pod_sample_writer.hpp"

#include <utility>

namespace sgxo::orch {

PodSampleWriter::PodSampleWriter(tsdb::Database& db, std::string measurement,
                                 tsdb::Tags tags)
    : db_(&db), measurement_(std::move(measurement)), tags_(std::move(tags)) {}

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

void PodSampleWriter::end_round() {
  std::erase_if(entries_,
                [this](const auto& kv) { return kv.second.round != round_; });
  ++round_;
}

}  // namespace sgxo::orch
