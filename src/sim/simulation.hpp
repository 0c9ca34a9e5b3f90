// Deterministic discrete-event simulation engine.
//
// Every cluster component (Kubelet, scheduler loop, metric probes, job
// lifecycles) runs as callbacks on a single virtual clock. Events at equal
// timestamps fire in scheduling order (FIFO tie-break), which makes whole
// experiments bit-for-bit reproducible.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/error.hpp"
#include "common/time.hpp"

namespace sgxo::sim {

/// Handle for cancelling a scheduled event.
class EventId {
 public:
  constexpr EventId() = default;

  [[nodiscard]] constexpr bool valid() const { return seq_ != 0; }
  constexpr auto operator<=>(const EventId&) const = default;

 private:
  friend class Simulation;
  constexpr explicit EventId(std::uint64_t seq) : seq_(seq) {}
  std::uint64_t seq_ = 0;
};

class Simulation {
 public:
  using Callback = std::function<void()>;

  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  [[nodiscard]] TimePoint now() const { return now_; }

  /// Schedules `cb` to run at absolute time `at` (>= now).
  EventId schedule_at(TimePoint at, Callback cb);
  /// Schedules `cb` to run `delay` (>= 0) after the current time.
  EventId schedule_after(Duration delay, Callback cb);
  /// Schedules `cb` every `period` (> 0), first firing after `initial_delay`.
  /// Repeating events keep firing until cancelled or the run ends.
  EventId schedule_every(Duration initial_delay, Duration period, Callback cb);

  /// Cancels a pending event: it is removed from the queue at once.
  /// Returns false, changing nothing, for an event that already fired (a
  /// one-shot, also from inside its own callback), was cancelled before,
  /// or was never scheduled. Cancelling a repeating event, also from its
  /// own callback, stops future occurrences. O(pending events).
  bool cancel(EventId id);

  /// Runs until the event queue drains. Throws ContractViolation if more
  /// than `max_events` fire (runaway guard, e.g. a repeating timer that is
  /// never cancelled must be bounded by run_until instead).
  void run(std::uint64_t max_events = 100'000'000);

  /// Runs events with time <= deadline; the clock ends at `deadline` even if
  /// the queue drained earlier.
  void run_until(TimePoint deadline);

  /// True if nothing is pending (cancelled events are not pending).
  [[nodiscard]] bool idle() const { return queue_.empty(); }
  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }
  [[nodiscard]] std::uint64_t fired_events() const { return fired_; }

 private:
  struct Entry {
    TimePoint at;
    std::uint64_t seq = 0;      // FIFO tie-break + cancellation handle
    Duration period;            // zero = one-shot
    Callback cb;

    // Min-heap ordering: earliest time first, then lowest sequence number.
    [[nodiscard]] bool after(const Entry& other) const {
      if (at != other.at) return at > other.at;
      return seq > other.seq;
    }
  };
  struct EntryCompare {
    bool operator()(const Entry& a, const Entry& b) const { return a.after(b); }
  };

  EventId push(TimePoint at, Duration period, Callback cb);
  /// Pops and fires one event; returns false if the queue is empty.
  bool step();

  TimePoint now_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t fired_ = 0;
  /// Binary heap (std::push_heap / std::pop_heap with EntryCompare): the
  /// front is the next event. (at, seq) is unique among queued entries, so
  /// the firing order does not depend on the heap's layout.
  std::vector<Entry> queue_;
};

}  // namespace sgxo::sim
