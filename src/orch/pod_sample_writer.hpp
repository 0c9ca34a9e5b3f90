// Per-pod sample path shared by Heapster and the SGX probe: the one place
// their samples reach the TSDB, so the one place they drop or lag under an
// injected fault. It keeps one tsdb::SeriesRef per pod, so a pod's sample
// appends straight to its series with no tag work. A pod's first sample, a
// sample from a node other than the one its ref was resolved for, and a
// sample whose ref went stale (retention erased the series) go through
// the tag write instead, and the writer keeps the ref that write returns.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "cluster/pod.hpp"
#include "sim/simulation.hpp"
#include "tsdb/model.hpp"

namespace sgxo::orch {

class PodSampleWriter {
 public:
  /// Writes `measurement` samples tagged with `tags` plus the pod_name and
  /// nodename of each sample.
  PodSampleWriter(sim::Simulation& sim, tsdb::Database& db,
                  std::string measurement, tsdb::Tags tags);

  // A probe keeps a pointer to its node's path.
  PodSampleWriter(const PodSampleWriter&) = delete;
  PodSampleWriter& operator=(const PodSampleWriter&) = delete;

  /// Writes one sample of `pod` running on `node`, through the pod's ref
  /// when it is live and was resolved for `node`. A sample a write fault
  /// drops is counted by the database, as any failed write. While the
  /// path drops, the sample is discarded; while it lags, it lands `delay`
  /// later with its original timestamp, through the tag write.
  void write(const cluster::PodName& pod, const cluster::NodeName& node,
             TimePoint time, double value);

  /// The tag set of a sample of `pod` on `node`, for a write that skips
  /// the refs: a delayed sample lands after its round, maybe after its
  /// writer is gone, so it takes the tag write with its own copy.
  [[nodiscard]] tsdb::Tags tags_of(const cluster::PodName& pod,
                                   const cluster::NodeName& node) const;

  /// Ends a scrape or probe round: forgets the pods no write() named since
  /// the last call, so the refs kept track the live pods.
  void end_round();

  /// Pods with a ref kept (tests).
  [[nodiscard]] std::size_t cached_pods() const { return entries_.size(); }

  // ---- fault injection -----------------------------------------------------
  /// While set, samples are discarded instead of written.
  void set_drop(bool drop) { drop_ = drop; }
  [[nodiscard]] bool dropping() const { return drop_; }
  /// Samples reach the TSDB `delay` late (original timestamps, so they
  /// arrive out of order). Zero restores immediate delivery.
  void set_delay(Duration delay) { delay_ = delay; }
  [[nodiscard]] Duration delay() const { return delay_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  [[nodiscard]] std::uint64_t delayed() const { return delayed_; }

 private:
  struct Entry {
    cluster::NodeName node;  // the node `ref` was resolved for
    tsdb::SeriesRef ref;
    std::uint64_t round = 0;  // the last round that wrote the pod
  };

  /// write() while the path drops or lags.
  void write_faulted(const cluster::PodName& pod, const cluster::NodeName& node,
                     TimePoint time, double value);

  sim::Simulation* sim_;
  tsdb::Database* db_;
  std::string measurement_;
  // The tag write's tag set: pod_name and nodename are refilled in place.
  tsdb::Tags tags_;
  std::unordered_map<cluster::PodName, Entry> entries_;
  std::uint64_t round_ = 0;
  bool drop_ = false;
  Duration delay_{};
  std::uint64_t dropped_ = 0;
  std::uint64_t delayed_ = 0;
};

}  // namespace sgxo::orch
